package analysis

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/reputation"
)

// fixture builds a tiny hand-labeled store exercising every analytic.
//
// Timeline (all January 2014 except where noted):
//
//	day 1: m1 downloads benign.exe (benign, signed GoodCo) via chrome from good.com
//	day 2: m1 downloads adw.exe   (adware, signed DualCo)  via chrome from host.com
//	day 3: m1 downloads bank.exe  (banker, unsigned)       via adw.exe from evil.ru
//	day 1: m2 downloads drop.exe  (dropper, signed MalCo, Molebox) via svchost from host.com
//	day 2: m2 downloads bank.exe  (banker)                 via drop.exe from evil.ru
//	day 4: m2 downloads unk.exe   (unknown, INNO-packed)   via chrome from host.com
//	feb 1: m3 downloads unk.exe   (unknown)                via chrome from host.com
//	day 5: m3 downloads benign.exe (benign)                via chrome from good.com
type fixtureData struct {
	store  *dataset.Store
	oracle *reputation.Oracle
}

func buildFixture(t *testing.T) fixtureData {
	t.Helper()
	store := dataset.NewStore()
	put := func(m *dataset.FileMeta) {
		t.Helper()
		if err := store.PutFile(m); err != nil {
			t.Fatal(err)
		}
	}
	put(&dataset.FileMeta{Hash: "chrome", Signer: "Google Inc", CA: "digicert",
		Category: dataset.CategoryBrowser, Browser: dataset.BrowserChrome})
	put(&dataset.FileMeta{Hash: "svchost", Signer: "Microsoft Windows", CA: "verisign",
		Category: dataset.CategoryWindows})
	put(&dataset.FileMeta{Hash: "benign.exe", Signer: "GoodCo", CA: "verisign"})
	put(&dataset.FileMeta{Hash: "adw.exe", Signer: "DualCo", CA: "thawte"})
	put(&dataset.FileMeta{Hash: "bank.exe"})
	put(&dataset.FileMeta{Hash: "drop.exe", Signer: "MalCo", CA: "thawte", Packer: "Molebox"})
	put(&dataset.FileMeta{Hash: "unk.exe", Packer: "INNO"})

	truth := map[dataset.FileHash]dataset.GroundTruth{
		"chrome":     {Label: dataset.LabelBenign},
		"svchost":    {Label: dataset.LabelBenign},
		"benign.exe": {Label: dataset.LabelBenign},
		"adw.exe":    {Label: dataset.LabelMalicious, Type: dataset.TypeAdware, Family: "zango"},
		"bank.exe":   {Label: dataset.LabelMalicious, Type: dataset.TypeBanker, Family: "zbot"},
		"drop.exe":   {Label: dataset.LabelMalicious, Type: dataset.TypeDropper, Family: "somoto"},
	}
	for h, gt := range truth {
		if err := store.SetTruth(h, gt); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetURLVerdict("good.com", dataset.URLBenign); err != nil {
		t.Fatal(err)
	}
	if err := store.SetURLVerdict("evil.ru", dataset.URLMalicious); err != nil {
		t.Fatal(err)
	}

	day := func(d int) time.Time {
		return time.Date(2014, time.January, d, 12, 0, 0, 0, time.UTC)
	}
	ev := func(file, machine, proc, domain string, at time.Time) dataset.DownloadEvent {
		return dataset.DownloadEvent{
			File: dataset.FileHash(file), Machine: dataset.MachineID(machine),
			Process: dataset.FileHash(proc),
			URL:     "http://" + domain + "/" + file, Domain: domain,
			Time: at, Executed: true,
		}
	}
	evs := []dataset.DownloadEvent{
		ev("benign.exe", "m1", "chrome", "good.com", day(1)),
		ev("adw.exe", "m1", "chrome", "host.com", day(2)),
		ev("bank.exe", "m1", "adw.exe", "evil.ru", day(3)),
		ev("drop.exe", "m2", "svchost", "host.com", day(1)),
		ev("bank.exe", "m2", "drop.exe", "evil.ru", day(2)),
		ev("unk.exe", "m2", "chrome", "host.com", day(4)),
		ev("unk.exe", "m3", "chrome", "host.com", time.Date(2014, time.February, 1, 0, 0, 0, 0, time.UTC)),
		ev("benign.exe", "m3", "chrome", "good.com", day(5)),
	}
	for _, e := range evs {
		if err := store.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	store.Freeze()
	alexa, err := reputation.NewAlexaList(map[string]int{
		"good.com": 100, "host.com": 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fixtureData{store: store, oracle: reputation.NewOracle(alexa, nil, nil, nil, nil, nil)}
}

func newAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	fx := buildFixture(t)
	a, err := New(fx.store, fx.oracle)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	fx := buildFixture(t)
	if _, err := New(nil, fx.oracle); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(dataset.NewStore(), fx.oracle); err == nil {
		t.Error("unfrozen store accepted")
	}
	if _, err := New(fx.store, nil); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestMonthlySummaries(t *testing.T) {
	a := newAnalyzer(t)
	rows, overall := a.MonthlySummaries()
	if len(rows) != 2 {
		t.Fatalf("months = %d, want 2", len(rows))
	}
	jan := rows[0]
	if jan.Events != 7 {
		t.Errorf("january events = %d, want 7", jan.Events)
	}
	if jan.Machines != 3 {
		t.Errorf("january machines = %d, want 3", jan.Machines)
	}
	// January files: benign.exe, adw.exe, bank.exe, drop.exe, unk.exe.
	if jan.Files.Total != 5 || jan.Files.Malicious != 3 || jan.Files.Benign != 1 || jan.Files.Unknown != 1 {
		t.Errorf("january files = %+v", jan.Files)
	}
	if overall.Events != 8 || overall.Machines != 3 {
		t.Errorf("overall = %+v", overall)
	}
	if overall.Files.Total != 5 {
		t.Errorf("overall files = %+v", overall.Files)
	}
	// URL labels: benign.exe URL on good.com benign; bank.exe on evil.ru.
	if overall.URLs.Benign != 1 || overall.URLs.Malicious != 1 {
		t.Errorf("overall URLs = %+v", overall.URLs)
	}
}

func TestLabelBreakdownShare(t *testing.T) {
	var b LabelBreakdown
	if b.Share(dataset.LabelBenign) != 0 {
		t.Error("empty breakdown share should be 0")
	}
	b.add(dataset.LabelBenign)
	b.add(dataset.LabelMalicious)
	b.add(dataset.LabelMalicious)
	b.add(dataset.LabelUnknown)
	if got := b.Share(dataset.LabelMalicious); got != 0.5 {
		t.Errorf("malicious share = %v", got)
	}
	if got := b.Share(dataset.LabelUnknown); got != 0.25 {
		t.Errorf("unknown share = %v", got)
	}
}

func TestFamilies(t *testing.T) {
	a := newAnalyzer(t)
	fs := a.Families(10)
	if fs.TotalMalicious != 3 {
		t.Errorf("TotalMalicious = %d", fs.TotalMalicious)
	}
	if fs.DistinctFamilies != 3 {
		t.Errorf("DistinctFamilies = %d", fs.DistinctFamilies)
	}
	if fs.NoFamilyShare != 0 {
		t.Errorf("NoFamilyShare = %v", fs.NoFamilyShare)
	}
	if len(fs.Top) != 3 {
		t.Errorf("Top = %v", fs.Top)
	}
}

func TestTypeBreakdown(t *testing.T) {
	a := newAnalyzer(t)
	counts, total := a.TypeBreakdown()
	if total != 3 {
		t.Errorf("total = %d", total)
	}
	if counts[dataset.TypeAdware] != 1 || counts[dataset.TypeBanker] != 1 || counts[dataset.TypeDropper] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestPrevalence(t *testing.T) {
	a := newAnalyzer(t)
	ps := a.Prevalence()
	if ps.All.Total() != 5 {
		t.Errorf("All total = %d", ps.All.Total())
	}
	// bank.exe and unk.exe and benign.exe have prevalence 2.
	if got := ps.ByLabel[dataset.LabelUnknown].Count(2); got != 1 {
		t.Errorf("unknown prevalence-2 count = %d", got)
	}
	if got := ps.ByLabel[dataset.LabelMalicious].Count(1); got != 2 {
		t.Errorf("malicious prevalence-1 count = %d", got)
	}
}

func TestMachinesTouchingUnknown(t *testing.T) {
	a := newAnalyzer(t)
	// m2 and m3 downloaded unk.exe; m1 did not. 2/3.
	if got := a.MachinesTouchingUnknown(); got < 0.66 || got > 0.67 {
		t.Errorf("MachinesTouchingUnknown = %v", got)
	}
}

func TestPackers(t *testing.T) {
	a := newAnalyzer(t)
	ps := a.Packers()
	// Benign files: chrome? No - only downloaded files count. benign.exe
	// unpacked -> 0/1. Malicious: drop.exe packed of 3.
	if ps.BenignPackedShare != 0 {
		t.Errorf("benign packed = %v", ps.BenignPackedShare)
	}
	if ps.MaliciousPackedShare < 0.3 || ps.MaliciousPackedShare > 0.34 {
		t.Errorf("malicious packed = %v", ps.MaliciousPackedShare)
	}
	if len(ps.MaliciousOnly) != 1 || ps.MaliciousOnly[0] != "Molebox" {
		t.Errorf("malicious-only packers = %v", ps.MaliciousOnly)
	}
}

func TestDomainPopularity(t *testing.T) {
	a := newAnalyzer(t)
	overall, benign, malicious := a.DomainPopularity(5)
	if overall[0].Key != "host.com" || overall[0].Count != 3 {
		t.Errorf("overall top = %v", overall)
	}
	if benign[0].Key != "good.com" || benign[0].Count != 2 {
		t.Errorf("benign top = %v", benign)
	}
	// malicious domains: host.com (adw m1, drop m2) = 2 machines,
	// evil.ru (bank m1, m2) = 2 machines; tie broken by name.
	if len(malicious) != 2 || malicious[0].Count != 2 {
		t.Errorf("malicious top = %v", malicious)
	}
}

func TestDomainFileCounts(t *testing.T) {
	a := newAnalyzer(t)
	benign, malicious := a.DomainFileCounts(5)
	if benign[0].Key != "good.com" || benign[0].Count != 1 {
		t.Errorf("benign = %v", benign)
	}
	if malicious[0].Key != "host.com" || malicious[0].Count != 2 {
		t.Errorf("malicious = %v (want host.com serving adw+drop)", malicious)
	}
}

func TestDomainsPerType(t *testing.T) {
	a := newAnalyzer(t)
	per := a.DomainsPerType(3)
	if per[dataset.TypeBanker][0].Key != "evil.ru" {
		t.Errorf("banker domains = %v", per[dataset.TypeBanker])
	}
	if per[dataset.TypeDropper][0].Key != "host.com" {
		t.Errorf("dropper domains = %v", per[dataset.TypeDropper])
	}
}

func TestUnknownDomains(t *testing.T) {
	a := newAnalyzer(t)
	top := a.UnknownDomains(3)
	if len(top) != 1 || top[0].Key != "host.com" || top[0].Count != 2 {
		t.Errorf("unknown domains = %v", top)
	}
}

func TestAlexaRankCDF(t *testing.T) {
	a := newAnalyzer(t)
	cdf, rankedShare := a.AlexaRankCDF(dataset.LabelBenign)
	if cdf.Len() != 1 {
		t.Errorf("benign ranked domains = %d, want 1 (good.com)", cdf.Len())
	}
	if rankedShare != 1.0 {
		t.Errorf("benign ranked share = %v", rankedShare)
	}
	_, malShare := a.AlexaRankCDF(dataset.LabelMalicious)
	// Malicious domains: host.com (ranked), evil.ru (unranked) -> 0.5.
	if malShare != 0.5 {
		t.Errorf("malicious ranked share = %v", malShare)
	}
}

func TestSigningByPopulation(t *testing.T) {
	a := newAnalyzer(t)
	rows := a.SigningByPopulation()
	byName := map[string]SigningRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["dropper"]; r.Files != 1 || r.Signed != 1 {
		t.Errorf("dropper row = %+v", r)
	}
	if r := byName["banker"]; r.Files != 1 || r.Signed != 0 {
		t.Errorf("banker row = %+v", r)
	}
	if r := byName["benign"]; r.Files != 1 || r.Signed != 1 || r.BrowserFiles != 1 {
		t.Errorf("benign row = %+v", r)
	}
	if r := byName["malicious"]; r.Files != 3 || r.Signed != 2 {
		t.Errorf("malicious row = %+v", r)
	}
	// adw.exe was downloaded via chrome: browser column populated.
	if r := byName["adware"]; r.BrowserFiles != 1 || r.BrowserSigned != 1 {
		t.Errorf("adware row = %+v", r)
	}
}

func TestSignerOverlap(t *testing.T) {
	a := newAnalyzer(t)
	rows := a.SignerOverlap()
	byName := map[string]SignerOverlapRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["malicious"]; r.Signers != 2 {
		t.Errorf("malicious signers = %+v", r)
	}
	// No signer overlap in the fixture (GoodCo benign only).
	if r := byName["malicious"]; r.CommonWithBenign != 0 {
		t.Errorf("common with benign = %+v", r)
	}
}

func TestTopSigners(t *testing.T) {
	a := newAnalyzer(t)
	mal := a.TopSigners("malicious", 5)
	if len(mal.Top) != 2 {
		t.Errorf("malicious top signers = %v", mal.Top)
	}
	if len(mal.Exclusive) != 2 || len(mal.Common) != 0 {
		t.Errorf("malicious exclusive/common = %v / %v", mal.Exclusive, mal.Common)
	}
	ben := a.TopSigners("benign", 5)
	if len(ben.Top) != 2 { // GoodCo + Google Inc? chrome is a process, not downloaded: only GoodCo
		// benign downloaded files: benign.exe (GoodCo) — chrome never downloaded.
		if len(ben.Top) != 1 {
			t.Errorf("benign top signers = %v", ben.Top)
		}
	}
	drop := a.TopSigners("dropper", 5)
	if len(drop.Top) != 1 || drop.Top[0].Key != "MalCo" {
		t.Errorf("dropper signers = %v", drop.Top)
	}
}

func TestCommonSigners(t *testing.T) {
	a := newAnalyzer(t)
	if pts := a.CommonSigners(); len(pts) != 0 {
		t.Errorf("common signers = %v, want none in fixture", pts)
	}
}

func TestBenignProcessBehavior(t *testing.T) {
	a := newAnalyzer(t)
	rows := a.BenignProcessBehavior()
	byName := map[string]ProcessBehaviorRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	br := byName["browser"]
	// Chrome events: benign.exe (m1, m3), adw.exe (m1), unk.exe (m2, m3).
	if br.Machines != 3 {
		t.Errorf("browser machines = %d, want 3", br.Machines)
	}
	if br.Benign != 1 || br.Malicious != 1 || br.Unknown != 1 {
		t.Errorf("browser files = %+v", br)
	}
	// Only m1 downloaded malware via browser.
	if br.InfectedMachines != 1 {
		t.Errorf("browser infected = %d", br.InfectedMachines)
	}
	win := byName["windows"]
	if win.Malicious != 1 || win.InfectedMachines != 1 {
		t.Errorf("windows row = %+v", win)
	}
	if got := win.TypeShare[dataset.TypeDropper]; got != 1.0 {
		t.Errorf("windows dropper share = %v", got)
	}
}

func TestBrowserBehavior(t *testing.T) {
	a := newAnalyzer(t)
	rows := a.BrowserBehavior()
	byName := map[string]ProcessBehaviorRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	chrome := byName["Chrome"]
	if chrome.Machines != 3 || chrome.Processes != 1 {
		t.Errorf("chrome row = %+v", chrome)
	}
	if byName["IE"].Machines != 0 {
		t.Errorf("IE should be empty: %+v", byName["IE"])
	}
}

func TestMaliciousProcessBehavior(t *testing.T) {
	a := newAnalyzer(t)
	rows, overall := a.MaliciousProcessBehavior()
	byName := map[string]ProcessBehaviorRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	adw := byName["adware"]
	if adw.Processes != 1 || adw.Malicious != 1 {
		t.Errorf("adware process row = %+v", adw)
	}
	if got := adw.TypeShare[dataset.TypeBanker]; got != 1.0 {
		t.Errorf("adware->banker share = %v", got)
	}
	drop := byName["dropper"]
	if drop.Malicious != 1 {
		t.Errorf("dropper process row = %+v", drop)
	}
	if overall.Processes != 2 || overall.Malicious != 1 {
		// bank.exe downloaded by both adw.exe and drop.exe: distinct
		// files counted once in overall.
		t.Errorf("overall = %+v", overall)
	}
}

func TestUnknownByCategory(t *testing.T) {
	a := newAnalyzer(t)
	per, total := a.UnknownByCategory()
	if total != 1 {
		t.Errorf("total = %d", total)
	}
	if per[dataset.CategoryBrowser] != 1 {
		t.Errorf("browser unknowns = %d", per[dataset.CategoryBrowser])
	}
}

func TestTransitions(t *testing.T) {
	a := newAnalyzer(t)
	// Adware: m1 anchors at adw.exe day 2, transitions to bank.exe day 3
	// (delta 1 day).
	adw := a.Transitions(SourceAdware)
	if adw.Anchored != 1 || adw.Transitioned != 1 {
		t.Fatalf("adware transitions = %+v", adw)
	}
	if got := adw.DeltaDays.Quantile(0.5); got < 0.9 || got > 1.1 {
		t.Errorf("adware delta = %v days, want ~1", got)
	}
	// Dropper: m2 anchors day 1, transitions day 2.
	drop := a.Transitions(SourceDropper)
	if drop.Anchored != 1 || drop.Transitioned != 1 {
		t.Fatalf("dropper transitions = %+v", drop)
	}
	// Benign: m1 anchors at benign.exe day 1 (no malicious before),
	// transitions to bank.exe day 3 (delta 2). m3 anchors day 5, no
	// transition. m2's first event is malicious -> disqualified.
	ben := a.Transitions(SourceBenign)
	if ben.Anchored != 2 || ben.Transitioned != 1 {
		t.Fatalf("benign transitions = %+v", ben)
	}
	// PUP: nobody.
	pup := a.Transitions(SourcePUP)
	if pup.Anchored != 0 {
		t.Errorf("pup transitions = %+v", pup)
	}
}

func TestAllTransitions(t *testing.T) {
	a := newAnalyzer(t)
	all := a.AllTransitions()
	if len(all) != 4 {
		t.Fatalf("curves = %d, want 4", len(all))
	}
	if all[0].Source != SourceBenign || all[3].Source != SourceDropper {
		t.Error("curve order wrong")
	}
}

func TestTransitionSourceString(t *testing.T) {
	if SourceBenign.String() != "benign" || SourceDropper.String() != "dropper" {
		t.Error("source names wrong")
	}
}

func TestPrevalenceByType(t *testing.T) {
	a := newAnalyzer(t)
	per := a.PrevalenceByType()
	if per[dataset.TypeBanker] == nil || per[dataset.TypeBanker].Total() != 1 {
		t.Errorf("banker prevalence histogram = %+v", per[dataset.TypeBanker])
	}
	// bank.exe was downloaded by two machines.
	if got := per[dataset.TypeBanker].Count(2); got != 1 {
		t.Errorf("banker prevalence-2 count = %d", got)
	}
	if per[dataset.TypeWorm] != nil {
		t.Error("absent type should have no histogram")
	}
}

func TestDownloadChains(t *testing.T) {
	a := newAnalyzer(t)
	cs := a.DownloadChains()
	// Fixture chains: adw.exe (depth 1, via chrome), drop.exe (depth 1,
	// via svchost), bank.exe fetched by adw.exe/drop.exe -> depth 2.
	if cs.DepthHistogram.Total() != 3 {
		t.Fatalf("chain histogram total = %d, want 3 malicious files", cs.DepthHistogram.Total())
	}
	if got := cs.DepthHistogram.Count(1); got != 2 {
		t.Errorf("depth-1 files = %d, want 2", got)
	}
	if got := cs.DepthHistogram.Count(2); got != 1 {
		t.Errorf("depth-2 files = %d, want 1", got)
	}
	if cs.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", cs.MaxDepth)
	}
	if len(cs.DeepestChain) != 2 || cs.DeepestChain[1] != "bank.exe" {
		t.Errorf("DeepestChain = %v", cs.DeepestChain)
	}
	// The chain's first element is the ancestor dropper/adware.
	if cs.DeepestChain[0] != "adw.exe" && cs.DeepestChain[0] != "drop.exe" {
		t.Errorf("chain root = %v", cs.DeepestChain[0])
	}
}

func TestDownloadChainsGenerated(t *testing.T) {
	a := generatedAnalyzer(t)
	cs := a.DownloadChains()
	if cs.DepthHistogram.Total() == 0 {
		t.Skip("no malicious files at this scale")
	}
	// Depth 1 dominates; deeper chains exist because of follow-up
	// cascades.
	if cs.DepthHistogram.Fraction(1) < 0.5 {
		t.Errorf("depth-1 share = %v, want majority", cs.DepthHistogram.Fraction(1))
	}
	if cs.MaxDepth < 2 {
		t.Errorf("MaxDepth = %d; follow-up cascades should produce depth >= 2", cs.MaxDepth)
	}
}
