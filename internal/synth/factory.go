package synth

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/avsim"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// fileRecord is a generated file: its observable metadata, its scan
// service profile, and the generator-side plan that produced it.
type fileRecord struct {
	meta   *dataset.FileMeta
	sample *avsim.Sample
	plan   classPlan
	// typ is the planned behaviour type for (likely-)malicious files and
	// the latent type for latent-malicious unknown files.
	typ dataset.MalwareType
	// latentMal marks unknown files whose true (never-labeled) nature is
	// malicious; it drives their feature generation and follow-up
	// behaviour.
	latentMal bool
	// budget is the number of additional downloads planned for the file
	// (planned prevalence minus one).
	budget int
	domain *domainInfo
	url    string
}

// prevalencePlan parameterizes per-class planned-prevalence power laws.
// Known benign files reach the highest prevalences, unknown files sit in
// the extreme long tail (Figure 2).
var prevalencePlans = map[classPlan]struct {
	Alpha float64
	Max   int
}{
	planBenign:          {Alpha: 2.2, Max: 400},
	planLikelyBenign:    {Alpha: 2.6, Max: 120},
	planMalicious:       {Alpha: 2.8, Max: 150},
	planLikelyMalicious: {Alpha: 3.0, Max: 80},
	planUnknown:         {Alpha: 3.6, Max: 40},
}

// overallTypeWeights is Table II's behaviour-type breakdown, in
// typeWeightOrder, used for latent unknown types.
var overallTypeWeights = []float64{22.7, 16.8, 11.3, 15.4, 0.5, 0.3, 0.9, 0.6, 0.1, 0.04, 31.3}

// latentMaliciousShare is the fraction of unknown files whose latent
// nature is malicious; the paper's rule classifier labels most matched
// unknowns malicious.
const latentMaliciousShare = 0.55

// benignSketchyShare is the fraction of genuinely benign files whose
// features look malicious (bundleware signed by grayware publishers,
// served from download portals); this is the whitelist-noise population
// behind the paper's observation that 33% of "benign" test samples came
// from malware processes or malicious URLs.
const benignSketchyShare = 0.008

// benignWhitelistShare is the fraction of benign files present on the
// commercial whitelist (the rest are labeled benign via clean scans).
const benignWhitelistShare = 0.45

// fileFactory creates fileRecords.
type fileFactory struct {
	w       *World
	rng     *rand.Rand
	counter int

	prevSamplers map[classPlan]*stats.PowerLawInt
	latentTypes  *stats.Categorical
	whitelist    []dataset.FileHash
}

func newFileFactory(w *World, rng *rand.Rand) (*fileFactory, error) {
	f := &fileFactory{
		w:            w,
		rng:          rng,
		prevSamplers: make(map[classPlan]*stats.PowerLawInt),
	}
	for plan, p := range prevalencePlans {
		max := p.Max
		// Scale the tail down with the dataset so a single popular file
		// cannot consume a disproportionate share of a small trace.
		if scaled := int(float64(p.Max) * w.cfg.Scale * 8); scaled < max {
			max = scaled
		}
		if max < 25 {
			max = 25
		}
		sampler, err := stats.NewPowerLawInt(rng, p.Alpha, max)
		if err != nil {
			return nil, fmt.Errorf("synth: prevalence sampler: %w", err)
		}
		f.prevSamplers[plan] = sampler
	}
	lt, err := stats.NewCategorical(rng, overallTypeWeights)
	if err != nil {
		return nil, fmt.Errorf("synth: latent type sampler: %w", err)
	}
	f.latentTypes = lt
	return f, nil
}

var fileNameStems = []string{
	"setup", "installer", "update", "player", "codec", "download",
	"flashplayer", "converter", "toolbar", "game", "crack", "keygen",
	"viewer", "manager", "optimizer", "driver", "plugin", "reader",
}

// newFile creates a file of the planned class. typ is required for
// (likely-)malicious plans and ignored otherwise; viaBrowser biases the
// signing rate (Table VI's "From Browsers" column); firstSeen anchors
// the scan-history timeline.
func (f *fileFactory) newFile(plan classPlan, typ dataset.MalwareType, viaBrowser bool, firstSeen time.Time) *fileRecord {
	f.counter++
	num := strconv.Itoa(f.counter)
	hash := dataset.FileHash("file-" + zeroPad(num, 8))
	rec := &fileRecord{plan: plan, typ: typ}

	latentMal := false
	if plan == planUnknown {
		latentMal = stats.Bernoulli(f.rng, latentMaliciousShare)
		rec.latentMal = latentMal
		if latentMal {
			rec.typ = typeWeightOrder[f.latentTypes.Draw()]
		}
	}
	sketchyBenign := (plan == planBenign || plan == planLikelyBenign) &&
		stats.Bernoulli(f.rng, benignSketchyShare)

	meta := &dataset.FileMeta{
		Hash: hash,
		Size: stats.LogNormalInt(f.rng, 13.3, 1.6, 8_192, 900_000_000),
		Path: "C:/Users/user/Downloads/" + fileNameStems[f.rng.Intn(len(fileNameStems))] + "_" + num + ".exe",
	}

	// Signing.
	rate := f.signingRate(plan, rec.typ, latentMal, viaBrowser)
	if stats.Bernoulli(f.rng, rate) {
		var si signerInfo
		switch {
		case plan == planMalicious || plan == planLikelyMalicious:
			si = f.w.signerForMalicious(rec.typ, f.rng)
		case latentMal:
			si = f.w.signerForMalicious(rec.typ, f.rng)
		case sketchyBenign:
			si = zipfPick(f.w.zipfs, f.w.commonSigners, f.rng)
		default:
			si = f.w.signerForBenign(f.rng)
		}
		meta.Signer, meta.CA = si.Name, si.CA
	}

	// Packing.
	packRate, maliciousPacking := packedRateUnknown, latentMal
	switch plan {
	case planBenign, planLikelyBenign:
		packRate, maliciousPacking = packedRateBenign, false
	case planMalicious, planLikelyMalicious:
		packRate, maliciousPacking = packedRateMalicious, true
	}
	if stats.Bernoulli(f.rng, packRate) {
		meta.Packer = f.w.packerFor(maliciousPacking, f.rng)
	}
	rec.meta = meta

	// Home domain and URL.
	kinds := domainsForClass(plan, rec.typ, latentMal)
	if sketchyBenign {
		kinds = unknownMalDomainKinds
	}
	rec.domain = f.w.domains.pick(kinds)
	rec.url = "http://" + rec.domain.Name + "/dl/" +
		fileNameStems[stableIndex(string(hash), len(fileNameStems))] + "_" + num + ".exe"

	// Scan-service profile.
	rec.sample = f.buildSample(hash, plan, rec.typ, firstSeen)
	if plan == planBenign && stats.Bernoulli(f.rng, benignWhitelistShare) {
		f.whitelist = append(f.whitelist, hash)
	}

	// Planned prevalence.
	rec.budget = f.prevSamplers[plan].Draw() - 1
	return rec
}

// zeroPad left-pads the digits of a non-negative number with zeros to
// width, as %0*d does.
func zeroPad(digits string, width int) string {
	if len(digits) >= width {
		return digits
	}
	return strings.Repeat("0", width-len(digits)) + digits
}

// buildSample constructs the avsim profile that realizes the planned
// ground-truth outcome.
func (f *fileFactory) buildSample(hash dataset.FileHash, plan classPlan, typ dataset.MalwareType, firstSeen time.Time) *avsim.Sample {
	day := 24 * time.Hour
	switch plan {
	case planBenign:
		return &avsim.Sample{
			Hash:      hash,
			InCorpus:  true,
			FirstScan: firstSeen.Add(-time.Duration(30+f.rng.Intn(370)) * day),
			LastScan:  firstSeen.Add(2*365*day + 60*day),
		}
	case planLikelyBenign:
		// First submitted only days before the two-year rescan, so the
		// scan spread stays under 14 days.
		first := firstSeen.Add(2*365*day - time.Duration(1+f.rng.Intn(10))*day)
		return &avsim.Sample{
			Hash:      hash,
			InCorpus:  true,
			FirstScan: first,
			LastScan:  first.Add(400 * day),
		}
	case planMalicious:
		return &avsim.Sample{
			Hash:          hash,
			InCorpus:      true,
			FirstScan:     firstSeen.Add(time.Duration(f.rng.Intn(45)) * day),
			LastScan:      firstSeen.Add(2 * 365 * day),
			TrueMalicious: true,
			Type:          typ,
			Family:        f.familyIfVisible(typ),
			FamilyVisible: true,
			Difficulty:    f.rng.Float64() * 0.45,
		}
	case planLikelyMalicious:
		return &avsim.Sample{
			Hash:          hash,
			InCorpus:      true,
			FirstScan:     firstSeen.Add(time.Duration(f.rng.Intn(60)) * day),
			LastScan:      firstSeen.Add(2 * 365 * day),
			TrueMalicious: true,
			TrustedBlind:  true,
			Type:          typ,
			Difficulty:    f.rng.Float64() * 0.3,
		}
	default: // planUnknown: never submitted anywhere.
		return &avsim.Sample{Hash: hash}
	}
}

// familyIfVisible returns a family for the sample or "" — AVclass
// derives no family for 58% of the paper's malicious samples, which we
// model as families invisible in the labels.
func (f *fileFactory) familyIfVisible(typ dataset.MalwareType) string {
	if typ == dataset.TypeUndefined {
		return ""
	}
	if !stats.Bernoulli(f.rng, 0.48) {
		return ""
	}
	return f.w.familyFor(typ, f.rng)
}

// signingRate returns the probability the new file carries a signature.
func (f *fileFactory) signingRate(plan classPlan, typ dataset.MalwareType, latentMal, viaBrowser bool) float64 {
	pick := func(r signingRate) float64 {
		if viaBrowser {
			return r.Browser
		}
		return r.Other
	}
	switch plan {
	case planBenign, planLikelyBenign:
		return pick(signingRateBenign)
	case planMalicious, planLikelyMalicious:
		return pick(signingRates[typ])
	default:
		if latentMal {
			// Latent malware signs like its type, damped toward the
			// unknown-population average (Table VI: unknown 38.4%).
			return 0.60 * pick(signingRates[typ])
		}
		return pick(signingRateUnknown)
	}
}
