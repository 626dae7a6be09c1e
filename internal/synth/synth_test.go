package synth

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/avsim"
	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/stats"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed, 0.002)
	return cfg
}

// generateLabeled is a test helper running the full generate+label
// pipeline.
func generateLabeled(t *testing.T, seed int64) (*Result, *dataset.Store) {
	t.Helper()
	res, err := Generate(smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LabelStore(res.Store, res.Samples); err != nil {
		t.Fatal(err)
	}
	res.Store.Freeze()
	return res, res.Store
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1, 0.01)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 2 },
		func(c *Config) { c.Sigma = 0 },
		func(c *Config) { c.Start = time.Time{} },
		func(c *Config) { c.Months = 0 },
		func(c *Config) { c.Months = 13 },
		func(c *Config) { c.NoiseNonExecuted = -1 },
		func(c *Config) { c.NoiseWhitelistedURL = 0.9 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig(1, 0.01)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Store.Events(), b.Store.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Store.Events(), b.Store.Events()
	if len(ea) == len(eb) {
		same := true
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateEventsWellFormed(t *testing.T) {
	res, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	end := res.Config.Start.AddDate(0, res.Config.Months, 0)
	for _, e := range res.Store.Events() {
		if err := e.Validate(); err != nil {
			t.Fatalf("stored event invalid: %v", err)
		}
		if !e.Executed {
			t.Fatal("non-executed event survived the collection server")
		}
		if e.Time.Before(res.Config.Start) || !e.Time.Before(end) {
			t.Fatalf("event time %v outside window", e.Time)
		}
		if res.Store.File(e.File) == nil {
			t.Fatalf("event file %s has no registered metadata", e.File)
		}
		if res.Store.File(e.Process) == nil {
			t.Fatalf("event process %s has no registered metadata", e.Process)
		}
	}
}

func TestGenerateAgentRulesApplied(t *testing.T) {
	res, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	s := res.AgentStats
	if s.DroppedNotExecuted == 0 {
		t.Error("no non-executed events suppressed; noise generation broken")
	}
	if s.DroppedWhitelistedURL == 0 {
		t.Error("no whitelisted-URL events suppressed")
	}
	if s.Reported != res.Store.NumEvents() {
		t.Errorf("reported %d != stored %d", s.Reported, res.Store.NumEvents())
	}
}

func TestGeneratePrevalenceCapRespected(t *testing.T) {
	res, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	res.Store.Freeze()
	for _, f := range res.Store.DownloadedFiles() {
		if p := res.Store.Prevalence(f); p > res.Config.Sigma {
			t.Fatalf("file %s has observed prevalence %d > sigma %d", f, p, res.Config.Sigma)
		}
	}
}

func TestGenerateLabelMixMatchesPaperShape(t *testing.T) {
	// Use a slightly larger trace for stable proportions.
	res, err := Generate(DefaultConfig(42, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.LabelStore(res.Store, res.Samples); err != nil {
		t.Fatal(err)
	}
	res.Store.Freeze()
	files := res.Store.DownloadedFiles()
	counts := map[dataset.Label]int{}
	prev1 := 0
	for _, f := range files {
		counts[res.Store.Label(f)]++
		if res.Store.Prevalence(f) == 1 {
			prev1++
		}
	}
	n := float64(len(files))
	if got := float64(counts[dataset.LabelUnknown]) / n; got < 0.72 || got > 0.90 {
		t.Errorf("unknown share = %.3f, want ~0.83", got)
	}
	if got := float64(counts[dataset.LabelMalicious]) / n; got < 0.06 || got > 0.16 {
		t.Errorf("malicious share = %.3f, want ~0.10", got)
	}
	if got := float64(counts[dataset.LabelBenign]) / n; got < 0.01 || got > 0.06 {
		t.Errorf("benign share = %.3f, want ~0.023", got)
	}
	if got := float64(prev1) / n; got < 0.80 || got > 0.95 {
		t.Errorf("prevalence-1 share = %.3f, want ~0.90", got)
	}
}

func TestGenerateMajorityOfMachinesTouchUnknown(t *testing.T) {
	_, store := generateLabeled(t, 6)
	unk := map[dataset.MachineID]bool{}
	for _, e := range store.Events() {
		if store.Label(e.File) == dataset.LabelUnknown {
			unk[e.Machine] = true
		}
	}
	share := float64(len(unk)) / float64(len(store.Machines()))
	if share < 0.5 {
		t.Errorf("machines touching unknown files = %.2f, want the majority", share)
	}
}

func TestWorldCatalogs(t *testing.T) {
	w, err := NewWorld(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.benignSigners) == 0 || len(w.malSigners) == 0 || len(w.commonSigners) == 0 {
		t.Error("signer pools empty")
	}
	total := len(w.packersCommon) + len(w.packersMal) + len(w.packersBenign)
	if total != 69 {
		t.Errorf("packer roster = %d, want 69 (paper)", total)
	}
	if len(w.packersCommon) != 35 {
		t.Errorf("common packers = %d, want 35 (paper)", len(w.packersCommon))
	}
	famTotal := 0
	for _, fams := range w.families {
		famTotal += len(fams)
	}
	if famTotal < 300 {
		t.Errorf("family roster = %d, want ~363", famTotal)
	}
}

func TestWorldSignerPoolsDisjointish(t *testing.T) {
	w, err := NewWorld(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	benign := map[string]bool{}
	for _, s := range w.benignSigners {
		benign[s.Name] = true
	}
	for _, s := range w.malSigners {
		if benign[s.Name] {
			t.Errorf("signer %q in both exclusive pools", s.Name)
		}
	}
}

func TestFactoryClassProfiles(t *testing.T) {
	w, err := NewWorld(smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFileFactory(w, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2014, time.February, 1, 0, 0, 0, 0, time.UTC)

	unk := f.newFile(planUnknown, dataset.TypeUndefined, true, t0)
	if unk.sample.InCorpus {
		t.Error("unknown file must be out of corpus")
	}
	ben := f.newFile(planBenign, dataset.TypeUndefined, true, t0)
	if !ben.sample.InCorpus || ben.sample.TrueMalicious {
		t.Error("benign sample profile wrong")
	}
	if !ben.sample.FirstScan.Before(t0) {
		t.Error("benign file should have scan history predating the download")
	}
	mal := f.newFile(planMalicious, dataset.TypeDropper, true, t0)
	if !mal.sample.TrueMalicious || mal.sample.TrustedBlind {
		t.Error("malicious sample profile wrong")
	}
	lm := f.newFile(planLikelyMalicious, dataset.TypeTrojan, false, t0)
	if !lm.sample.TrustedBlind {
		t.Error("likely-malicious sample must be trusted-blind")
	}
	lb := f.newFile(planLikelyBenign, dataset.TypeUndefined, false, t0)
	spread := lb.sample.LastScan.Sub(lb.sample.FirstScan)
	rescanAt := t0.Add(labeling.DefaultRescanDelay)
	if lb.sample.FirstScan.After(rescanAt) {
		t.Error("likely-benign first scan after rescan time")
	}
	if spread <= 0 {
		t.Error("likely-benign scan spread non-positive")
	}
}

func TestFactorySigningRatesByType(t *testing.T) {
	w, err := NewWorld(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFileFactory(w, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2014, time.March, 1, 0, 0, 0, 0, time.UTC)
	signedCount := func(typ dataset.MalwareType, n int) int {
		c := 0
		for i := 0; i < n; i++ {
			rec := f.newFile(planMalicious, typ, true, t0)
			if rec.meta.Signed() {
				c++
			}
		}
		return c
	}
	droppers := signedCount(dataset.TypeDropper, 300)
	bots := signedCount(dataset.TypeBot, 300)
	if droppers <= bots {
		t.Errorf("droppers signed %d/300 vs bots %d/300; droppers should sign far more (Table VI)", droppers, bots)
	}
	if float64(droppers)/300 < 0.8 {
		t.Errorf("dropper browser signing rate = %d/300, want ~0.92", droppers)
	}
	if float64(bots)/300 > 0.1 {
		t.Errorf("bot signing rate = %d/300, want ~0.02", bots)
	}
}

func TestFollowupDelayShapes(t *testing.T) {
	rng := stats.NewRNG(3)
	day := 24 * time.Hour
	sameDay := func(typ dataset.MalwareType, n int) float64 {
		c := 0
		for i := 0; i < n; i++ {
			if followupDelay(typ, rng) < day {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	dropper := sameDay(dataset.TypeDropper, 2000)
	adware := sameDay(dataset.TypeAdware, 2000)
	if dropper <= adware {
		t.Errorf("dropper same-day share %.2f should exceed adware %.2f (Figure 5)", dropper, adware)
	}
	if dropper < 0.5 {
		t.Errorf("dropper same-day share = %.2f, want >= 0.5", dropper)
	}
}

func TestScaledMonthlyVolumes(t *testing.T) {
	_, store := generateLabeled(t, 12)
	months := store.Months()
	if len(months) < 7 {
		t.Errorf("dataset spans %d months, want >= 7", len(months))
	}
}

func TestTuningDefaults(t *testing.T) {
	if tn := DefaultConfig(1, 0.01).Tuning; tn != (Tuning{}) {
		t.Errorf("the default config ablates the calibrated world: %+v", tn)
	}
}

func TestTuningDisableCoInstallChangesTrace(t *testing.T) {
	base := smallConfig(55)
	off := base
	off.Tuning.DisableCoInstall = true
	a, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(off)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.NumEvents() <= b.Store.NumEvents() {
		t.Errorf("disabling co-installs should shrink the trace: %d vs %d",
			a.Store.NumEvents(), b.Store.NumEvents())
	}
}

func TestDrawClassAcrobatMostlyMalicious(t *testing.T) {
	cfg := smallConfig(91)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(cfg, w, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	g.monthDrift = 1
	ms := g.mixes[dataset.CategoryAcrobat]
	malish, total := 0, 2000
	// A risky machine downloading via Acrobat: the clamp must keep the
	// probabilities valid and malicious must dominate.
	risky := dataset.MachineID("")
	for i := 0; i < 1000; i++ {
		m := dataset.MachineID(fmt.Sprintf("m%d", i))
		if g.risky(m) {
			risky = m
			break
		}
	}
	if risky == "" {
		t.Fatal("no risky machine found")
	}
	for i := 0; i < total; i++ {
		plan, typ := g.drawClass(ms, risky, dataset.BrowserNone, 1.0)
		if plan == planMalicious || plan == planLikelyMalicious {
			malish++
			if typ == dataset.TypeAdware {
				t.Fatal("acrobat mix produced adware (weight 0)")
			}
		}
	}
	if share := float64(malish) / float64(total); share < 0.7 {
		t.Errorf("risky acrobat malicious share = %.2f, want clamped-high", share)
	}
}

func TestDrawFileReuseProducesPrevalence(t *testing.T) {
	cfg := smallConfig(92)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(cfg, w, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	t0 := cfg.Start
	seen := map[dataset.FileHash]int{}
	for i := 0; i < 3000; i++ {
		rec := g.drawFile(planBenign, dataset.TypeUndefined, true, t0)
		seen[rec.meta.Hash]++
	}
	reused := 0
	for _, n := range seen {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Error("reuse pool never re-issued a file; prevalence > 1 impossible")
	}
	if len(seen) < 1000 {
		t.Errorf("only %d distinct files over 3000 draws; reuse too aggressive", len(seen))
	}
}

func TestFollowupsRespectDepthCap(t *testing.T) {
	cfg := smallConfig(93)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(cfg, w, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	g.monthDrift = 1
	rec := g.factory.newFile(planMalicious, dataset.TypeDropper, false, cfg.Start)
	g.records = append(g.records, rec)
	before := len(g.raw)
	// Depth at the cap: no events may be emitted.
	g.scheduleFollowups("m-x", rec, cfg.Start, 2)
	if len(g.raw) != before {
		t.Errorf("depth-capped followups emitted %d events", len(g.raw)-before)
	}
}
