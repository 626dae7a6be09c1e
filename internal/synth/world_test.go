package synth

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(smallConfig(77))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSignerForMaliciousStaysInPools(t *testing.T) {
	w := testWorld(t)
	inPool := func(s signerInfo, pool []signerInfo) bool {
		for _, p := range pool {
			if p.Name == s.Name {
				return true
			}
		}
		return false
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 300; i++ {
		si := w.signerForMalicious(dataset.TypeDropper, rng)
		if si.Name == "" || si.CA == "" {
			t.Fatal("malicious signer missing name or CA")
		}
		if !inPool(si, w.malSigners) && !inPool(si, w.commonSigners) {
			t.Fatalf("dropper signer %q outside malicious/common pools", si.Name)
		}
	}
	for i := 0; i < 300; i++ {
		si := w.signerForBenign(rng)
		if !inPool(si, w.benignSigners) && !inPool(si, w.commonSigners) {
			t.Fatalf("benign signer %q outside benign/common pools", si.Name)
		}
	}
}

func TestSignerSubsetsDifferByType(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(2)
	distinct := func(typ dataset.MalwareType) int {
		seen := map[string]struct{}{}
		for i := 0; i < 500; i++ {
			seen[w.signerForMalicious(typ, rng).Name] = struct{}{}
		}
		return len(seen)
	}
	// PUP/adware rosters must be much larger than banker/bot rosters
	// (Table VII shape).
	if distinct(dataset.TypePUP) <= distinct(dataset.TypeBanker) {
		t.Errorf("pup signer roster (%d) should exceed banker roster (%d)",
			distinct(dataset.TypePUP), distinct(dataset.TypeBanker))
	}
}

func TestPackerForPools(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(3)
	inList := func(p string, list []string) bool {
		for _, x := range list {
			if x == p {
				return true
			}
		}
		return false
	}
	for i := 0; i < 200; i++ {
		p := w.packerFor(true, rng)
		if !inList(p, w.packersMal) && !inList(p, w.packersCommon) {
			t.Fatalf("malicious packer %q outside pools", p)
		}
		p = w.packerFor(false, rng)
		if !inList(p, w.packersBenign) && !inList(p, w.packersCommon) {
			t.Fatalf("benign packer %q outside pools", p)
		}
	}
}

func TestFamilyForRespectsType(t *testing.T) {
	w := testWorld(t)
	rng := stats.NewRNG(4)
	for i := 0; i < 100; i++ {
		fam := w.familyFor(dataset.TypeBanker, rng)
		found := false
		for _, f := range w.families[dataset.TypeBanker] {
			if f == fam {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("banker family %q not in banker roster", fam)
		}
	}
	if got := w.familyFor(dataset.TypeUndefined, rng); got != "" {
		t.Errorf("undefined type family = %q, want empty", got)
	}
}

func TestStableIndexDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		if stableIndex("hello", 100) != stableIndex("hello", 100) {
			t.Fatal("stableIndex nondeterministic")
		}
	}
	if got := stableIndex("x", 1); got != 0 {
		t.Errorf("stableIndex mod 1 = %d", got)
	}
	if got := stableIndex("x", 0); got != 0 {
		t.Errorf("stableIndex mod 0 = %d", got)
	}
}

func TestDomainCatalogShape(t *testing.T) {
	w := testWorld(t)
	c := w.domains
	for _, kind := range []domainKind{
		kindHosting, kindVendor, kindAdwareDist, kindStreaming,
		kindFakeAV, kindC2, kindGeneric, kindAgentWL,
	} {
		pool := c.byKind[kind]
		if len(pool) == 0 {
			t.Errorf("kind %d has no domains", kind)
			continue
		}
		for _, d := range pool {
			if d.Name == "" {
				t.Fatalf("kind %d has unnamed domain", kind)
			}
			// Every generated domain must parse as a URL's host.
			if u, err := url.Parse("http://" + d.Name + "/x"); err != nil || u.Hostname() != d.Name {
				t.Fatalf("domain %q does not parse as a host: %v", d.Name, err)
			}
		}
	}
	// Hosting domains are all ranked and popular.
	for _, d := range c.byKind[kindHosting] {
		if d.Rank == 0 || d.Rank > 8_000 {
			t.Errorf("hosting domain %q rank %d outside popular band", d.Name, d.Rank)
		}
	}
	// FakeAV/C2 feeds populate the blacklist and Safe Browsing feeds.
	bl := strings.Join(c.urlBL, ",")
	if !strings.Contains(bl, "stopadware2014") {
		t.Error("fakeav seed domain missing from blacklist")
	}
	if len(c.gsb) == 0 || len(c.agentWL) == 0 {
		t.Error("reputation feeds empty")
	}
}

func TestDomainPickHonorsKindMix(t *testing.T) {
	w := testWorld(t)
	counts := map[domainKind]int{}
	for i := 0; i < 500; i++ {
		d := w.domains.pick(malDomainKindsByType[dataset.TypeFakeAV])
		counts[d.Kind]++
	}
	if counts[kindFakeAV] < 300 {
		t.Errorf("fakeav mix picked fakeav domains only %d/500 times", counts[kindFakeAV])
	}
	if counts[kindVendor] > 0 {
		t.Error("fakeav mix picked vendor domains")
	}
}

func TestProcessCatalogShape(t *testing.T) {
	w := testWorld(t)
	c := w.processes
	for _, br := range dataset.AllBrowsers {
		if len(c.browsers[br]) == 0 {
			t.Errorf("browser %v has no versions", br)
		}
		for _, p := range c.browsers[br] {
			if p.Category != dataset.CategoryBrowser || p.Browser != br {
				t.Errorf("browser process misclassified: %+v", p)
			}
			if p.Signer == "" {
				t.Error("browser process unsigned")
			}
		}
	}
	for _, p := range c.windows {
		if p.Signer != "Microsoft Windows" {
			t.Errorf("windows process signer = %q", p.Signer)
		}
	}
	if len(c.unknownProc) == 0 || len(c.otherBenign) == 0 {
		t.Error("process pools empty")
	}
	// knownBenign excludes the unknown pool.
	for _, p := range c.knownBenign() {
		if strings.HasPrefix(string(p.Hash), "proc-unk-") {
			t.Errorf("unknown process %s in knownBenign", p.Hash)
		}
	}
}

func TestVersionForStable(t *testing.T) {
	w := testWorld(t)
	pool := w.processes.windows
	m := dataset.MachineID("machine-x")
	first := versionFor(m, "windows", pool)
	for i := 0; i < 20; i++ {
		if versionFor(m, "windows", pool) != first {
			t.Fatal("versionFor not stable per machine")
		}
	}
	// Different machines spread across versions.
	seen := map[dataset.FileHash]struct{}{}
	for i := 0; i < 200; i++ {
		mi := dataset.MachineID(strings.Repeat("m", i%20+1))
		seen[versionFor(mi, "windows", pool).Hash] = struct{}{}
	}
	if len(seen) < 2 {
		t.Error("versionFor maps all machines to one version")
	}
}

func TestCoInstallSchedulingBounded(t *testing.T) {
	// Co-installs and follow-ups must never emit events past the window
	// end; covered indirectly by TestGenerateEventsWellFormed, asserted
	// here against a generator directly for the co-install path.
	res, err := Generate(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	end := res.Config.Start.AddDate(0, res.Config.Months, 0)
	for _, e := range res.Store.Events() {
		if !e.Time.Before(end) {
			t.Fatalf("event at %v outside window", e.Time)
		}
	}
}
