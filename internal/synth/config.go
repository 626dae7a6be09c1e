// Package synth generates the synthetic in-the-wild download telemetry
// that substitutes for the paper's proprietary Trend Micro dataset. It
// builds a generative world — signers, certification authorities,
// packers, download domains with Alexa ranks, malware families,
// machines, and downloading processes — and then simulates seven months
// of download events (January–August 2014) whose distributions are
// calibrated to the statistics the paper reports: monthly volumes and
// label mixes (Table I), long-tail file prevalence (Figure 2), per-type
// signing rates (Table VI), per-process-category download mixes
// (Tables X–XII), domain hosting mixes (Tables III–V, XIII) and
// infection-transition dynamics (Figure 5).
package synth

import (
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Config controls dataset generation. The zero value is not valid; use
// DefaultConfig and modify.
type Config struct {
	// Seed drives all randomness; identical configs generate identical
	// datasets.
	Seed int64
	// Scale multiplies the paper's volumes (events, machines, files).
	// 1.0 reproduces the full 3M-event corpus; the default 0.01 yields
	// ~30k events, which preserves every distributional shape.
	Scale float64
	// Sigma is the collection server's prevalence reporting cap
	// (Section II-A); the paper's deployment used 20.
	Sigma int
	// Start is the first day of the observation window.
	Start time.Time
	// Months is the number of observed months (the paper spans 7).
	Months int
	// NoiseNonExecuted is the fraction of extra raw agent events whose
	// file is never executed (suppressed by the agent rules).
	NoiseNonExecuted float64
	// NoiseWhitelistedURL is the fraction of extra raw events downloading
	// from agent-whitelisted vendor domains (suppressed).
	NoiseWhitelistedURL float64
	// KeepRawTrace retains the chronologically sorted pre-collection
	// event stream in Result.RawTrace, so fault-tolerance harnesses can
	// replay it through an alternative (e.g. faulty) transport.
	KeepRawTrace bool
	// Tuning switches off parts of the generative world for ablation
	// studies.
	Tuning Tuning
}

// Tuning is the generator's ablation switches; the zero value is the
// world the paper calibration uses.
type Tuning struct {
	// DisableCoInstall turns bundle co-installs off entirely.
	DisableCoInstall bool
}

// DefaultConfig returns the standard configuration at the given scale.
func DefaultConfig(seed int64, scale float64) Config {
	return Config{
		Seed:                seed,
		Scale:               scale,
		Sigma:               20,
		Start:               time.Date(2014, time.January, 1, 0, 0, 0, 0, time.UTC),
		Months:              7,
		NoiseNonExecuted:    0.04,
		NoiseWhitelistedURL: 0.03,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Scale <= 0 || c.Scale > 1.5:
		return fmt.Errorf("synth: scale %v out of (0, 1.5]", c.Scale)
	case c.Sigma < 1:
		return fmt.Errorf("synth: sigma %d must be >= 1", c.Sigma)
	case c.Start.IsZero():
		return fmt.Errorf("synth: start time is zero")
	case c.Months < 1 || c.Months > 12:
		return fmt.Errorf("synth: months %d out of [1, 12]", c.Months)
	case c.NoiseNonExecuted < 0 || c.NoiseNonExecuted > 0.5:
		return fmt.Errorf("synth: non-executed noise %v out of [0, 0.5]", c.NoiseNonExecuted)
	case c.NoiseWhitelistedURL < 0 || c.NoiseWhitelistedURL > 0.5:
		return fmt.Errorf("synth: whitelisted-URL noise %v out of [0, 0.5]", c.NoiseWhitelistedURL)
	}
	return nil
}

// monthVolume is one row of the paper's Table I.
type monthVolume struct {
	Machines int
	Events   int
}

// paperMonths reproduces Table I's monthly machine and event counts
// (January through July 2014; the trailing days spill into August as in
// the paper's "seven months ... January 2014 to August 2014").
var paperMonths = []monthVolume{
	{Machines: 292_516, Events: 578_510},
	{Machines: 246_481, Events: 470_291},
	{Machines: 248_568, Events: 493_487},
	{Machines: 215_693, Events: 427_110},
	{Machines: 180_947, Events: 351_271},
	{Machines: 176_463, Events: 351_509},
	{Machines: 157_457, Events: 323_159},
}

// paperTotalMachines is the distinct machine population of the study.
const paperTotalMachines = 1_139_183

// monthlyMalDrift scales the malicious share per observation month,
// following Table I's drift in malicious file percentages (7.9% in
// January rising to 14.0% in June, normalized around the 9.9% overall).
var monthlyMalDrift = []float64{0.80, 0.90, 0.97, 1.27, 1.26, 1.41, 1.27}

// classPlan is the planned ground-truth outcome for a generated file.
type classPlan int

const (
	planUnknown classPlan = iota
	planBenign
	planLikelyBenign
	planMalicious
	planLikelyMalicious
)

// categoryMix is the file-class mix of downloads initiated by one
// process population, derived from Tables X-XII file counts.
type categoryMix struct {
	Unknown   float64
	Benign    float64
	Malicious float64
	// TypeWeights is the behaviour-type mix of the malicious share,
	// ordered as typeWeightOrder.
	TypeWeights []float64
}

// typeWeightOrder fixes the type order used by all TypeWeights vectors.
var typeWeightOrder = []dataset.MalwareType{
	dataset.TypeDropper, dataset.TypePUP, dataset.TypeTrojan,
	dataset.TypeAdware, dataset.TypeFakeAV, dataset.TypeRansomware,
	dataset.TypeBanker, dataset.TypeBot, dataset.TypeWorm,
	dataset.TypeSpyware, dataset.TypeUndefined,
}

// Mixes for benign process categories (Table X) and for the per-browser
// split (Table XI). Type weights follow typeWeightOrder:
// dropper, pup, trojan, adware, fakeav, ransomware, banker, bot, worm,
// spyware, undefined.
var (
	mixBrowser = categoryMix{
		Unknown: 0.888, Benign: 0.022, Malicious: 0.090,
		TypeWeights: []float64{28.05, 18.55, 10.48, 7.36, 0.35, 0.27, 0.23, 0.22, 0.05, 0.03, 34.43},
	}
	mixWindows = categoryMix{
		Unknown: 0.801, Benign: 0.050, Malicious: 0.149,
		TypeWeights: []float64{25.42, 17.75, 11.75, 5.80, 0.11, 0.37, 1.23, 0.73, 0.08, 0.06, 36.70},
	}
	mixJava = categoryMix{
		Unknown: 0.307, Benign: 0.034, Malicious: 0.659,
		TypeWeights: []float64{12.30, 1.02, 45.29, 0, 0, 4.30, 6.97, 15.78, 0.82, 0, 12.54},
	}
	mixAcrobat = categoryMix{
		Unknown: 0.275, Benign: 0.0, Malicious: 0.725,
		TypeWeights: []float64{23.71, 0, 39.51, 0, 1.44, 3.74, 15.80, 8.19, 0.29, 0.43, 6.89},
	}
	mixOtherBenign = categoryMix{
		Unknown: 0.764, Benign: 0.063, Malicious: 0.173,
		TypeWeights: []float64{17.22, 22.57, 11.34, 8.38, 5.03, 0.44, 1.20, 0.79, 0.30, 0.02, 32.71},
	}
	// mixUnknownProc drives downloads by processes with no ground truth;
	// these fill out the 74% of process hashes that stay unknown.
	mixUnknownProc = categoryMix{
		Unknown: 0.85, Benign: 0.02, Malicious: 0.13,
		TypeWeights: []float64{25, 18, 11, 7, 0.4, 0.3, 0.3, 0.3, 0.1, 0.05, 37},
	}
)

// browserClassMix tunes per-browser benign/malicious shares so infection
// rates reproduce Table XI's ordering (Chrome highest, IE lowest).
var browserClassMix = map[dataset.Browser]struct{ Benign, Malicious float64 }{
	dataset.BrowserFirefox: {Benign: 0.0557, Malicious: 0.161},
	dataset.BrowserChrome:  {Benign: 0.0319, Malicious: 0.134},
	dataset.BrowserOpera:   {Benign: 0.0780, Malicious: 0.229},
	dataset.BrowserSafari:  {Benign: 0.0375, Malicious: 0.135},
	dataset.BrowserIE:      {Benign: 0.0221, Malicious: 0.077},
}

// browserEventWeights apportions browser download events across products
// (proportional to Table XI file counts).
var browserEventWeights = map[dataset.Browser]float64{
	dataset.BrowserFirefox: 133_091,
	dataset.BrowserChrome:  551_643,
	dataset.BrowserOpera:   6_850,
	dataset.BrowserSafari:  3_118,
	dataset.BrowserIE:      623_776,
}

// Mixes for malicious process types (Table XII rows): what a process of
// each behaviour type downloads.
var malProcMixes = map[dataset.MalwareType]categoryMix{
	dataset.TypeTrojan: {
		Unknown: 0.230, Benign: 0.013, Malicious: 0.757,
		TypeWeights: []float64{10.94, 8.25, 51.90, 11.80, 0.12, 0.34, 4.25, 0.89, 0.10, 0, 11.42},
	},
	dataset.TypeDropper: {
		Unknown: 0.324, Benign: 0.055, Malicious: 0.620,
		TypeWeights: []float64{39.10, 10.26, 16.78, 8.46, 0.20, 0.47, 7.59, 1.34, 0.30, 0.07, 15.44},
	},
	dataset.TypeRansomware: {
		Unknown: 0.045, Benign: 0.0, Malicious: 0.955,
		TypeWeights: []float64{3.40, 0, 9.52, 0, 0, 80.95, 1.36, 0, 0, 0, 4.76},
	},
	dataset.TypeBot: {
		Unknown: 0.170, Benign: 0.004, Malicious: 0.826,
		TypeWeights: []float64{4.57, 2.54, 15.99, 0.25, 0.25, 1.27, 4.31, 64.72, 0.51, 0, 5.58},
	},
	dataset.TypeWorm: {
		Unknown: 0.055, Benign: 0.0, Malicious: 0.945,
		TypeWeights: []float64{4.35, 1.45, 4.35, 0, 0, 0, 8.70, 1.45, 72.46, 0, 7.25},
	},
	dataset.TypeSpyware: {
		Unknown: 0.222, Benign: 0.111, Malicious: 0.667,
		TypeWeights: []float64{0, 0, 16.67, 0, 0, 0, 0, 0, 0, 66.67, 16.67},
	},
	dataset.TypeBanker: {
		Unknown: 0.081, Benign: 0.009, Malicious: 0.910,
		TypeWeights: []float64{4.00, 0, 14.48, 0.19, 0.38, 0.19, 76.00, 0.19, 0.57, 0, 4.00},
	},
	dataset.TypeFakeAV: {
		Unknown: 0.019, Benign: 0.0, Malicious: 0.981,
		TypeWeights: []float64{7.55, 0, 22.64, 0, 56.60, 0, 9.43, 0, 0, 0, 3.77},
	},
	dataset.TypeAdware: {
		Unknown: 0.322, Benign: 0.011, Malicious: 0.667,
		TypeWeights: []float64{2.91, 9.97, 6.65, 66.24, 0, 0, 0.13, 0.03, 0, 0, 14.07},
	},
	dataset.TypePUP: {
		Unknown: 0.283, Benign: 0.008, Malicious: 0.709,
		TypeWeights: []float64{4.57, 22.91, 6.30, 58.64, 0.01, 0.02, 0.01, 0.01, 0, 0, 7.54},
	},
	dataset.TypeUndefined: {
		Unknown: 0.420, Benign: 0.033, Malicious: 0.547,
		TypeWeights: []float64{3.77, 5.53, 3.36, 6.52, 0.01, 0.04, 0.36, 0.22, 0.06, 0.04, 80.09},
	},
}

// signingRates gives per-class/type signing probabilities (Table VI):
// the probability a file downloaded via a browser is signed, and the
// probability for files arriving via other processes. The browser column
// comes straight from the table; the other column back-solves the
// overall rate assuming roughly 60-70% of downloads are browser-borne.
type signingRate struct {
	Browser float64
	Other   float64
}

var signingRates = map[dataset.MalwareType]signingRate{
	dataset.TypeTrojan:     {Browser: 0.72, Other: 0.55},
	dataset.TypeDropper:    {Browser: 0.92, Other: 0.71},
	dataset.TypeRansomware: {Browser: 0.687, Other: 0.14},
	dataset.TypeBot:        {Browser: 0.022, Other: 0.013},
	dataset.TypeWorm:       {Browser: 0.123, Other: 0.028},
	dataset.TypeSpyware:    {Browser: 0.25, Other: 0.175},
	dataset.TypeBanker:     {Browser: 0.018, Other: 0.011},
	dataset.TypeFakeAV:     {Browser: 0.045, Other: 0.014},
	dataset.TypeAdware:     {Browser: 0.918, Other: 0.86},
	dataset.TypePUP:        {Browser: 0.796, Other: 0.68},
	dataset.TypeUndefined:  {Browser: 0.713, Other: 0.51},
}

var (
	signingRateBenign  = signingRate{Browser: 0.321, Other: 0.275}
	signingRateUnknown = signingRate{Browser: 0.421, Other: 0.29}
)

// packedRates per class (Section IV-C: benign 54%, malicious 58%).
const (
	packedRateBenign    = 0.54
	packedRateMalicious = 0.58
	packedRateUnknown   = 0.55
)
