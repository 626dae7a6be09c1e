package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/avsim"
	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/reputation"
	"repro/internal/stats"
)

// Result is a generated dataset plus everything the labeling and
// analysis pipelines need to consume it.
type Result struct {
	// Store holds the post-collection-server events and the metadata of
	// every file and process. It is not yet frozen, so the labeling
	// pipeline can still write ground truth into it.
	Store *dataset.Store
	// Samples holds the scan-service profile of every generated file.
	Samples labeling.Samples
	// Oracle bundles the reputation sources over the generated world.
	Oracle *reputation.Oracle
	// World is the generative world, exposed for inspection.
	World *World
	// AgentStats reports how many raw events each collection rule
	// suppressed.
	AgentStats agent.Stats
	// RawTrace is the chronologically sorted pre-collection event stream,
	// retained only when Config.KeepRawTrace is set. It is exactly the
	// stream the software agents observed, so replaying it through any
	// transport that preserves order and delivers exactly once must
	// reproduce Store's events.
	RawTrace []dataset.DownloadEvent
	// Config echoes the generating configuration.
	Config Config
}

// followupLambda is the expected number of downloads a freshly executed
// malicious file performs, per behaviour type. Droppers download the
// most (they exist to fetch second stages).
var followupLambda = map[dataset.MalwareType]float64{
	dataset.TypeDropper:    0.38,
	dataset.TypeAdware:     0.22,
	dataset.TypePUP:        0.22,
	dataset.TypeTrojan:     0.15,
	dataset.TypeBanker:     0.12,
	dataset.TypeBot:        0.14,
	dataset.TypeFakeAV:     0.12,
	dataset.TypeRansomware: 0.10,
	dataset.TypeWorm:       0.12,
	dataset.TypeSpyware:    0.08,
	dataset.TypeUndefined:  0.08,
}

// baseMalDamp compensates the malicious volume that follow-up and
// co-install downloads add on top of the base per-category mixes,
// keeping the dataset-wide malicious share at Table I's 9.9%.
const baseMalDamp = 0.64

// coInstallProb is the probability that a malicious download is part of
// a bundle that drops a second, different piece of malware on the same
// machine almost immediately. This is the mechanism behind Figure 5's
// ">40% of adware/PUP machines download other malware on day 0": the
// grayware ecosystem monetizes installs by bundling.
var coInstallProb = map[dataset.MalwareType]float64{
	dataset.TypeAdware:  0.30,
	dataset.TypePUP:     0.30,
	dataset.TypeDropper: 0.15,
	dataset.TypeTrojan:  0.10,
}

// coInstallTypeWeights skews co-installed payloads toward the
// non-grayware types ("other malware" in Figure 5's terms), in
// typeWeightOrder.
var coInstallTypeWeights = []float64{25, 0, 45, 0, 4, 4, 8, 5, 2, 1, 6}

// followupDelay draws the time between executing a malicious file and
// its next download, shaping Figure 5's CDFs: droppers fetch second
// stages almost immediately; adware/PUP monetization unfolds over days.
func followupDelay(typ dataset.MalwareType, rng *rand.Rand) time.Duration {
	var sameDayP, meanDays, capDays float64
	switch typ {
	case dataset.TypeDropper:
		sameDayP, meanDays, capDays = 0.60, 2, 45
	case dataset.TypeAdware, dataset.TypePUP:
		sameDayP, meanDays, capDays = 0.42, 12, 90
	default:
		sameDayP, meanDays, capDays = 0.30, 8, 60
	}
	if stats.Bernoulli(rng, sameDayP) {
		return time.Duration(rng.Float64() * 10 * float64(time.Hour))
	}
	days := stats.Exponential(rng, meanDays, capDays)
	return time.Duration(days * 24 * float64(time.Hour))
}

// poolKey identifies a file-reuse pool.
type poolKey struct {
	plan classPlan
	typ  dataset.MalwareType
}

// mixSampler couples a categoryMix with its prepared type sampler.
type mixSampler struct {
	mix   categoryMix
	types *stats.Categorical
}

// generator holds the trace-generation state.
type generator struct {
	cfg     Config
	w       *World
	rng     *rand.Rand
	factory *fileFactory

	// monthDrift is the malicious-share multiplier of the month being
	// generated (Table I drift).
	monthDrift float64

	machines []dataset.MachineID
	end      time.Time

	catSampler *stats.Categorical
	catOrder   []dataset.ProcessCategory
	unknownCat int // index in catOrder representing unknown processes

	mixes    map[dataset.ProcessCategory]*mixSampler
	malMixes map[dataset.MalwareType]*mixSampler

	pending map[poolKey][]*fileRecord
	raw     []dataset.DownloadEvent
	records []*fileRecord
}

// reuseProbability is the chance an event consumes a pending re-download
// of an existing file instead of minting a new one.
const reuseProbability = 0.62

// riskyShare is the fraction of machines with risky download behaviour.
const riskyShare = 0.25

func newGenerator(cfg Config, w *World, rng *rand.Rand) (*generator, error) {
	factory, err := newFileFactory(w, stats.Fork(rng))
	if err != nil {
		return nil, err
	}
	g := &generator{
		cfg:     cfg,
		w:       w,
		rng:     rng,
		factory: factory,
		end:     cfg.Start.AddDate(0, cfg.Months, 0),
		mixes:   make(map[dataset.ProcessCategory]*mixSampler),
		pending: make(map[poolKey][]*fileRecord),
	}
	// Machine pool sized so that monthly re-draws reproduce the paper's
	// ratio of per-month to total distinct machines.
	poolSize := int(2.2 * float64(paperTotalMachines) * cfg.Scale)
	if poolSize < 400 {
		poolSize = 400
	}
	g.machines = make([]dataset.MachineID, poolSize)
	for i := range g.machines {
		g.machines[i] = dataset.MachineID(fmt.Sprintf("machine-%08d", i))
	}
	// Process-category event shares (derived from Tables X-XII file
	// volumes); the last slot is the unknown-process population.
	g.catOrder = []dataset.ProcessCategory{
		dataset.CategoryBrowser, dataset.CategoryWindows, dataset.CategoryJava,
		dataset.CategoryAcrobat, dataset.CategoryOther, dataset.CategoryOther,
	}
	g.unknownCat = 5
	catWeights := []float64{0.660, 0.245, 0.0006, 0.0007, 0.048, 0.046}
	cs, err := stats.NewCategorical(rng, catWeights)
	if err != nil {
		return nil, err
	}
	g.catSampler = cs

	mkMix := func(m categoryMix) (*mixSampler, error) {
		types, err := stats.NewCategorical(rng, m.TypeWeights)
		if err != nil {
			return nil, err
		}
		return &mixSampler{mix: m, types: types}, nil
	}
	for cat, m := range map[dataset.ProcessCategory]categoryMix{
		dataset.CategoryBrowser: mixBrowser,
		dataset.CategoryWindows: mixWindows,
		dataset.CategoryJava:    mixJava,
		dataset.CategoryAcrobat: mixAcrobat,
		dataset.CategoryOther:   mixOtherBenign,
	} {
		ms, err := mkMix(m)
		if err != nil {
			return nil, err
		}
		g.mixes[cat] = ms
	}
	unknownMix, err := mkMix(mixUnknownProc)
	if err != nil {
		return nil, err
	}
	g.mixes[dataset.ProcessCategory(-1)] = unknownMix // sentinel for unknown procs
	g.malMixes = make(map[dataset.MalwareType]*mixSampler, len(malProcMixes))
	for typ, m := range malProcMixes {
		ms, err := mkMix(m)
		if err != nil {
			return nil, err
		}
		g.malMixes[typ] = ms
	}
	return g, nil
}

func (g *generator) risky(m dataset.MachineID) bool {
	return stableIndex(string(m)+"|risk", 100) < int(riskyShare*100)
}

// drawClass converts a category mix into a concrete class plan and type,
// applying the per-browser overrides and the machine risk tilt.
func (g *generator) drawClass(ms *mixSampler, machine dataset.MachineID, br dataset.Browser, malDamp float64) (classPlan, dataset.MalwareType) {
	b, m := ms.mix.Benign, ms.mix.Malicious
	if br != dataset.BrowserNone {
		if override, ok := browserClassMix[br]; ok {
			b, m = override.Benign, override.Malicious
		}
	}
	riskFactor := 0.55
	if g.risky(machine) {
		riskFactor = 2.35
	}
	drift := g.monthDrift
	if drift == 0 {
		drift = 1
	}
	m *= riskFactor * malDamp * drift
	// Table I: strict benign 2.3% of files vs 2.5% likely benign;
	// strict malicious 9.9% vs 2.3% likely malicious. The mixes encode
	// the strict shares, so inflate and split.
	pBenignish := b * (1 + 2.5/2.3)
	pMalish := m * (1 + 2.3/9.9)
	if total := pBenignish + pMalish; total > 0.98 {
		pBenignish *= 0.98 / total
		pMalish *= 0.98 / total
	}
	u := g.rng.Float64()
	switch {
	case u < pMalish:
		typ := typeWeightOrder[ms.types.Draw()]
		if stats.Bernoulli(g.rng, 2.3/12.2) {
			return planLikelyMalicious, typ
		}
		return planMalicious, typ
	case u < pMalish+pBenignish:
		if stats.Bernoulli(g.rng, 2.5/4.8) {
			return planLikelyBenign, dataset.TypeUndefined
		}
		return planBenign, dataset.TypeUndefined
	default:
		return planUnknown, dataset.TypeUndefined
	}
}

// drawFile returns the file for one download event: either a pending
// re-download of an existing file of the same population, or a new file.
func (g *generator) drawFile(plan classPlan, typ dataset.MalwareType, viaBrowser bool, t time.Time) *fileRecord {
	key := poolKey{plan: plan, typ: typ}
	pool := g.pending[key]
	if len(pool) > 0 && stats.Bernoulli(g.rng, reuseProbability) {
		i := g.rng.Intn(len(pool))
		rec := pool[i]
		rec.budget--
		if rec.budget <= 0 {
			pool[i] = pool[len(pool)-1]
			g.pending[key] = pool[:len(pool)-1]
		}
		return rec
	}
	rec := g.factory.newFile(plan, typ, viaBrowser, t)
	g.records = append(g.records, rec)
	if rec.budget > 0 {
		g.pending[key] = append(g.pending[key], rec)
	}
	return rec
}

// emit appends one raw event.
func (g *generator) emit(file *fileRecord, machine dataset.MachineID, proc dataset.FileHash, t time.Time, executed bool) {
	g.raw = append(g.raw, dataset.DownloadEvent{
		File:     file.meta.Hash,
		Machine:  machine,
		Process:  proc,
		URL:      file.url,
		Domain:   file.domain.Name,
		Time:     t,
		Executed: executed,
	})
}

// maliciousish reports whether a record should behave like malware on
// the endpoint (schedule follow-up downloads).
func maliciousish(rec *fileRecord) bool {
	return rec.plan == planMalicious || rec.plan == planLikelyMalicious || rec.latentMal
}

// scheduleFollowups simulates the downloads performed by a just-executed
// malicious file (Tables XII, Figure 5). Depth is capped to keep
// cascades bounded.
func (g *generator) scheduleFollowups(machine dataset.MachineID, rec *fileRecord, t time.Time, depth int) {
	if depth >= 2 {
		return
	}
	lambda := followupLambda[rec.typ]
	if rec.plan == planUnknown {
		lambda *= 0.5 // latent malware still downloads, unobserved by GT
	}
	k := stats.Poisson(g.rng, lambda)
	for i := 0; i < k; i++ {
		ft := t.Add(followupDelay(rec.typ, g.rng))
		if !ft.Before(g.end) {
			continue
		}
		ms := g.malMixes[rec.typ]
		plan, typ := g.drawClass(ms, machine, dataset.BrowserNone, 1.0)
		frec := g.drawFile(plan, typ, false, ft)
		g.emit(frec, machine, rec.meta.Hash, ft, true)
		if maliciousish(frec) {
			g.scheduleFollowups(machine, frec, ft, depth+1)
		}
	}
}

// scheduleCoInstall emits the bundled second payload of a malicious
// download: usually within hours, of a non-grayware type, through the
// same downloading process. Latent-malicious anchors co-install latent
// unknowns so the ground-truth shares stay balanced.
func (g *generator) scheduleCoInstall(machine dataset.MachineID, rec *fileRecord, proc dataset.FileHash, t time.Time, viaBrowser bool) {
	p := coInstallProb[rec.typ]
	if g.cfg.Tuning.DisableCoInstall {
		p = 0
	}
	if !stats.Bernoulli(g.rng, p) {
		return
	}
	var delay time.Duration
	if stats.Bernoulli(g.rng, 0.6) {
		delay = time.Duration(g.rng.Float64() * 8 * float64(time.Hour))
	} else {
		delay = time.Duration(stats.Exponential(g.rng, 3, 30) * 24 * float64(time.Hour))
	}
	ct := t.Add(delay)
	if !ct.Before(g.end) {
		return
	}
	idx, err := stats.WeightedChoice(g.rng, coInstallTypeWeights)
	if err != nil {
		return
	}
	typ := typeWeightOrder[idx]
	plan := planMalicious
	if rec.plan == planUnknown {
		plan = planUnknown
	} else if stats.Bernoulli(g.rng, 2.3/12.2) {
		plan = planLikelyMalicious
	}
	crec := g.drawFile(plan, typ, viaBrowser, ct)
	if plan == planUnknown && !crec.latentMal {
		// drawFile rolled a latent-benign unknown; force the latent
		// nature to match the co-install intent.
		crec.latentMal = true
		crec.typ = typ
	}
	g.emit(crec, machine, proc, ct, true)
	if maliciousish(crec) {
		g.scheduleFollowups(machine, crec, ct, 1)
	}
}

// emitBase generates one base download event (plus optional agent-rule
// noise) at time t on the given machine.
func (g *generator) emitBase(machine dataset.MachineID, t time.Time) {
	catIdx := g.catSampler.Draw()
	cat := g.catOrder[catIdx]
	isUnknownProc := catIdx == g.unknownCat

	var proc *dataset.FileMeta
	var ms *mixSampler
	browser := dataset.BrowserNone
	procs := g.w.processes
	switch {
	case isUnknownProc:
		proc = versionFor(machine, "unknownproc", procs.unknownProc)
		ms = g.mixes[dataset.ProcessCategory(-1)]
	case cat == dataset.CategoryBrowser:
		browser = procs.pickBrowser()
		proc = versionFor(machine, "browser|"+browser.String(), procs.browsers[browser])
		ms = g.mixes[cat]
	case cat == dataset.CategoryWindows:
		proc = versionFor(machine, "windows", procs.windows)
		ms = g.mixes[cat]
	case cat == dataset.CategoryJava:
		proc = versionFor(machine, "java", procs.java)
		ms = g.mixes[cat]
	case cat == dataset.CategoryAcrobat:
		proc = versionFor(machine, "acrobat", procs.acrobat)
		ms = g.mixes[cat]
	default:
		proc = versionFor(machine, "otherbenign", procs.otherBenign)
		ms = g.mixes[dataset.CategoryOther]
	}

	plan, typ := g.drawClass(ms, machine, browser, baseMalDamp)
	rec := g.drawFile(plan, typ, browser != dataset.BrowserNone, t)
	g.emit(rec, machine, proc.Hash, t, true)
	if maliciousish(rec) {
		g.scheduleFollowups(machine, rec, t, 0)
		g.scheduleCoInstall(machine, rec, proc.Hash, t, browser != dataset.BrowserNone)
	}

	// Agent-rule noise: raw events the pipeline must suppress.
	if stats.Bernoulli(g.rng, g.cfg.NoiseNonExecuted) {
		nrec := g.drawFile(planUnknown, dataset.TypeUndefined, browser != dataset.BrowserNone, t)
		g.emit(nrec, machine, proc.Hash, t.Add(time.Minute), false)
	}
	if stats.Bernoulli(g.rng, g.cfg.NoiseWhitelistedURL) {
		wrec := g.drawFile(planBenign, dataset.TypeUndefined, true, t)
		// Rewrite the URL onto an agent-whitelisted vendor domain.
		wl := g.w.domains.pickAgentWhitelisted()
		clone := *wrec
		clone.domain = wl
		clone.url = fmt.Sprintf("http://%s/update/pkg_%s.exe", wl.Name, wrec.meta.Hash)
		g.emit(&clone, machine, proc.Hash, t.Add(2*time.Minute), true)
	}
}

// run generates the full raw trace.
func (g *generator) run() {
	monthStart := g.cfg.Start
	for mi := 0; mi < g.cfg.Months; mi++ {
		vol := paperMonths[mi%len(paperMonths)]
		g.monthDrift = monthlyMalDrift[mi%len(monthlyMalDrift)]
		nEvents := int(float64(vol.Events) * g.cfg.Scale)
		if nEvents < 240 {
			nEvents = 240
		}
		nActive := int(float64(vol.Machines) * g.cfg.Scale)
		if nActive < 120 {
			nActive = 120
		}
		if nActive > len(g.machines) {
			nActive = len(g.machines)
		}
		active := stats.Sample(g.rng, g.machines, nActive)
		nextMonth := monthStart.AddDate(0, 1, 0)
		span := nextMonth.Sub(monthStart)
		for i := 0; i < nEvents; i++ {
			t := monthStart.Add(time.Duration(g.rng.Float64() * float64(span)))
			machine := active[g.rng.Intn(len(active))]
			g.emitBase(machine, t)
		}
		monthStart = nextMonth
	}
}

// Generate builds the world, simulates the observation window, pushes
// the raw trace through the SA/CS collection pipeline, and returns the
// resulting dataset.
func Generate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	g, err := newGenerator(cfg, w, stats.Fork(w.rng))
	if err != nil {
		return nil, err
	}
	g.run()
	// The collection server observes reports in chronological order.
	sort.SliceStable(g.raw, func(i, j int) bool { return g.raw[i].Time.Before(g.raw[j].Time) })

	store := dataset.NewStore()
	// Register metadata for processes and files.
	for _, p := range w.processes.all() {
		if err := store.PutFile(p); err != nil {
			return nil, err
		}
	}
	samples := make(labeling.Samples, len(g.records))
	for _, rec := range g.records {
		if err := store.PutFile(rec.meta); err != nil {
			return nil, err
		}
		samples[rec.meta.Hash] = rec.sample
	}

	agentWL, err := reputation.NewDomainList(w.domains.agentWL)
	if err != nil {
		return nil, err
	}
	cs, err := agent.NewCollectionServer(store, cfg.Sigma, agentWL)
	if err != nil {
		return nil, err
	}
	// Every event flows through its machine's software agent, as in the
	// deployment: the agent checks the event belongs to its machine and
	// forwards it to the collection server.
	agents := make(map[dataset.MachineID]*agent.SoftwareAgent)
	for _, e := range g.raw {
		sa, ok := agents[e.Machine]
		if !ok {
			sa, err = agent.NewSoftwareAgent(e.Machine, cs)
			if err != nil {
				return nil, err
			}
			agents[e.Machine] = sa
		}
		if err := sa.Observe(e); err != nil {
			return nil, fmt.Errorf("synth: observe event: %w", err)
		}
	}

	// Commercial file whitelist: known-benign processes plus the
	// whitelisted share of benign files. A slice of the "other benign"
	// application pool is not whitelisted and instead carries a scan
	// history, which makes some of them benign via clean scans and some
	// merely likely benign (Table I's 6.6% likely-benign processes).
	wlHashes := append([]dataset.FileHash(nil), g.factory.whitelist...)
	day := 24 * time.Hour
	for _, p := range w.processes.knownBenign() {
		if p.Category == dataset.CategoryOther {
			switch bucket := stableIndex(string(p.Hash)+"|wl", 100); {
			case bucket < 55:
				wlHashes = append(wlHashes, p.Hash)
			case bucket < 78:
				samples[p.Hash] = &avsim.Sample{
					Hash:      p.Hash,
					InCorpus:  true,
					FirstScan: cfg.Start.Add(-300 * day),
					LastScan:  cfg.Start.AddDate(3, 0, 0),
				}
			default:
				// First scanned only days before any rescan: spread
				// stays under the 14-day likely-benign threshold.
				first := cfg.Start.AddDate(2, 0, 0)
				samples[p.Hash] = &avsim.Sample{
					Hash:      p.Hash,
					InCorpus:  true,
					FirstScan: first,
					LastScan:  first.Add(500 * day),
				}
			}
			continue
		}
		wlHashes = append(wlHashes, p.Hash)
	}
	fileWL, err := reputation.NewFileList(wlHashes)
	if err != nil {
		return nil, err
	}
	oracle, err := w.domains.oracle(fileWL)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Store:      store,
		Samples:    samples,
		Oracle:     oracle,
		World:      w,
		AgentStats: cs.Stats(),
		Config:     cfg,
	}
	if cfg.KeepRawTrace {
		res.RawTrace = g.raw
	}
	return res, nil
}
