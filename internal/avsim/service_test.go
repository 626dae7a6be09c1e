package avsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

var (
	t0    = time.Date(2014, time.January, 15, 0, 0, 0, 0, time.UTC)
	t2y   = t0.AddDate(2, 0, 0)
	tweek = t0.AddDate(0, 0, 7)
)

func malSample(hash string, typ dataset.MalwareType, family string) *Sample {
	return &Sample{
		Hash:          dataset.FileHash(hash),
		InCorpus:      true,
		FirstScan:     t0,
		LastScan:      t2y,
		TrueMalicious: true,
		Type:          typ,
		Family:        family,
		FamilyVisible: family != "",
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil); err == nil {
		t.Error("empty roster accepted")
	}
	if _, err := NewService([]*Engine{{Name: ""}}); err == nil {
		t.Error("nameless engine accepted")
	}
	if _, err := NewService([]*Engine{{Name: "X"}}); err == nil {
		t.Error("grammarless engine accepted")
	}
	g := func(dataset.MalwareType, string, uint64) string { return "x" }
	if _, err := NewService([]*Engine{
		{Name: "X", Grammar: g}, {Name: "X", Grammar: g},
	}); err == nil {
		t.Error("duplicate engine accepted")
	}
}

func TestDefaultServiceRoster(t *testing.T) {
	svc := NewDefaultService()
	if svc.NumEngines() != 50 {
		t.Errorf("default roster = %d engines, want 50", svc.NumEngines())
	}
	trusted, leading := 0, 0
	for _, e := range svc.engines {
		if e.Trusted {
			trusted++
		}
		if e.Leading {
			leading++
		}
	}
	if trusted != 10 {
		t.Errorf("trusted engines = %d, want 10", trusted)
	}
	if leading != 5 {
		t.Errorf("leading engines = %d, want 5", leading)
	}
}

func TestScanNotInCorpus(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("f1", dataset.TypeTrojan, "zbot")
	s.InCorpus = false
	if rep := svc.Scan(s, t2y); rep != nil {
		t.Error("scan of out-of-corpus sample should return nil")
	}
	if rep := svc.Scan(nil, t2y); rep != nil {
		t.Error("scan of nil sample should return nil")
	}
	s.InCorpus = true
	if rep := svc.Scan(s, t0.AddDate(0, 0, -1)); rep != nil {
		t.Error("scan before first submission should return nil")
	}
}

func TestScanBenignStaysClean(t *testing.T) {
	svc := NewDefaultService()
	s := &Sample{Hash: "clean1", InCorpus: true, FirstScan: t0, LastScan: t2y}
	rep := svc.Scan(s, t2y)
	if rep == nil {
		t.Fatal("expected report")
	}
	if n := len(rep.Detections()); n != 0 {
		t.Errorf("benign sample got %d detections", n)
	}
}

func TestScanMaliciousEventuallyDetected(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("mal1", dataset.TypeDropper, "somoto")
	rep := svc.Scan(s, t2y)
	if rep == nil {
		t.Fatal("expected report")
	}
	if n := len(rep.TrustedDetections()); n == 0 {
		t.Error("easy malicious sample undetected by all trusted engines after 2y")
	}
}

func TestScanDetectionGrowsOverTime(t *testing.T) {
	svc := NewDefaultService()
	total0, total2y := 0, 0
	for i := 0; i < 50; i++ {
		s := malSample(strings.Repeat("x", i+1), dataset.TypeTrojan, "zbot")
		if rep := svc.Scan(s, tweek); rep != nil {
			total0 += len(rep.Detections())
		}
		if rep := svc.Scan(s, t2y); rep != nil {
			total2y += len(rep.Detections())
		}
	}
	if total2y <= total0 {
		t.Errorf("detections did not grow over time: week=%d 2y=%d", total0, total2y)
	}
}

func TestScanDeterministic(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("det1", dataset.TypeBanker, "zbot")
	a := svc.Scan(s, t2y)
	b := svc.Scan(s, t2y)
	if len(a.Results) != len(b.Results) {
		t.Fatal("result count differs between scans")
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
}

func TestTrustedBlind(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("blind1", dataset.TypeTrojan, "")
	s.TrustedBlind = true
	rep := svc.Scan(s, t2y)
	if rep == nil {
		t.Fatal("expected report")
	}
	if n := len(rep.TrustedDetections()); n != 0 {
		t.Errorf("trusted-blind sample detected by %d trusted engines", n)
	}
	// It should still be detectable by minor engines for most hashes.
	anyMinor := false
	for i := 0; i < 20 && !anyMinor; i++ {
		s2 := malSample("blind-probe-"+strings.Repeat("y", i), dataset.TypeTrojan, "")
		s2.TrustedBlind = true
		if rep := svc.Scan(s2, t2y); rep != nil && len(rep.Detections()) > 0 {
			anyMinor = true
		}
	}
	if !anyMinor {
		t.Error("no trusted-blind sample detected by any minor engine")
	}
}

func TestDifficultyReducesDetections(t *testing.T) {
	svc := NewDefaultService()
	easy, hard := 0, 0
	for i := 0; i < 60; i++ {
		h := strings.Repeat("e", i+1)
		se := malSample("easy"+h, dataset.TypeTrojan, "")
		sh := malSample("hard"+h, dataset.TypeTrojan, "")
		sh.Difficulty = 0.9
		if rep := svc.Scan(se, t2y); rep != nil {
			easy += len(rep.Detections())
		}
		if rep := svc.Scan(sh, t2y); rep != nil {
			hard += len(rep.Detections())
		}
	}
	if hard >= easy {
		t.Errorf("difficulty did not reduce detections: easy=%d hard=%d", easy, hard)
	}
}

func TestLeadingLabelsAndAllLabels(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("lab1", dataset.TypeRansomware, "cryptolocker")
	rep := svc.Scan(s, t2y)
	leading := rep.LeadingLabels()
	all := rep.AllLabels()
	if len(leading) > 5 {
		t.Errorf("leading labels = %d, max 5", len(leading))
	}
	if len(all) < len(leading) {
		t.Error("all labels smaller than leading labels")
	}
	for eng := range leading {
		found := false
		for _, n := range LeadingEngineNames {
			if n == eng {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected leading engine %q", eng)
		}
	}
}

func TestGrammarShapes(t *testing.T) {
	u := uint64(0x123456789abcdef)
	if got := kasperskyGrammar(dataset.TypeSpyware, "zbot", u); !strings.HasPrefix(got, "Trojan-Spy.Win32.Zbot.") {
		t.Errorf("kaspersky label = %q", got)
	}
	if got := microsoftGrammar(dataset.TypeBanker, "zbot", u); !strings.HasPrefix(got, "PWS:Win32/Zbot") {
		t.Errorf("microsoft label = %q", got)
	}
	if got := mcafeeGrammar(dataset.TypeUndefined, "", u); !strings.HasPrefix(got, "Artemis!") {
		t.Errorf("mcafee generic label = %q", got)
	}
	if got := mcafeeGrammar(dataset.TypeDropper, "", u); !strings.HasPrefix(got, "Downloader-") {
		t.Errorf("mcafee dropper label = %q", got)
	}
	if got := trendMicroGrammar(dataset.TypeFakeAV, "", u); !strings.HasPrefix(got, "TROJ_FAKEAV.") {
		t.Errorf("trend fakeav label = %q", got)
	}
	if got := symantecGrammar(dataset.TypeTrojan, "zbot", u); got != "Trojan.Zbot" {
		t.Errorf("symantec label = %q", got)
	}
}

func TestScanLastScanClamped(t *testing.T) {
	svc := NewDefaultService()
	s := malSample("clamp1", dataset.TypeTrojan, "")
	mid := t0.AddDate(0, 6, 0)
	rep := svc.Scan(s, mid)
	if rep == nil {
		t.Fatal("expected report")
	}
	if rep.LastScan.After(mid) {
		t.Error("LastScan extends past scan time")
	}
	// Querying before the sample's last corpus scan clamps the reported
	// history to the query time exactly...
	if !rep.LastScan.Equal(mid) {
		t.Errorf("LastScan = %v, want clamped to query time %v", rep.LastScan, mid)
	}
	// ...and querying after it must not: the corpus history simply ends.
	late := t2y.AddDate(1, 0, 0)
	if rep := svc.Scan(s, late); rep == nil || !rep.LastScan.Equal(t2y) {
		t.Errorf("LastScan after corpus end = %v, want %v unclamped", rep.LastScan, t2y)
	}
}

func TestScanAtExactFirstScan(t *testing.T) {
	// The corpus-entry boundary is inclusive: a query at precisely
	// FirstScan yields a report (with a single-instant scan history),
	// while one nanosecond earlier yields nil.
	svc := NewDefaultService()
	s := malSample("edge1", dataset.TypeTrojan, "")
	rep := svc.Scan(s, t0)
	if rep == nil {
		t.Fatal("scan at exactly FirstScan returned nil")
	}
	if !rep.FirstScan.Equal(t0) || !rep.LastScan.Equal(t0) {
		t.Errorf("history at boundary = [%v, %v], want [%v, %v]",
			rep.FirstScan, rep.LastScan, t0, t0)
	}
	if !rep.ScanTime.Equal(t0) {
		t.Errorf("ScanTime = %v, want %v", rep.ScanTime, t0)
	}
	if rep := svc.Scan(s, t0.Add(-time.Nanosecond)); rep != nil {
		t.Error("scan a nanosecond before FirstScan returned a report")
	}
}

func TestGenericTrustedGrammarShapes(t *testing.T) {
	u := uint64(0xfeedbeef)
	for _, tc := range []struct {
		typ    dataset.MalwareType
		family string
		want   string
	}{
		{dataset.TypeDropper, "somoto", "TR/Dldr.Somoto."},
		{dataset.TypeBanker, "zbot", "Spy.Banker.Zbot."},
		{dataset.TypeUndefined, "", "Gen:Variant.Generic."},
		{dataset.TypeRansomware, "", "Ransom.Generic."},
	} {
		got := genericTrustedGrammar(tc.typ, tc.family, u)
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("genericTrustedGrammar(%v, %q) = %q, want prefix %q",
				tc.typ, tc.family, got, tc.want)
		}
	}
}

func TestMinorEngineGrammarVariants(t *testing.T) {
	// All four label shapes must be reachable and non-empty.
	shapes := map[string]bool{}
	for u := uint64(0); u < 64; u++ {
		got := minorEngineGrammar(dataset.TypeTrojan, "zbot", u)
		if got == "" {
			t.Fatal("empty minor label")
		}
		switch {
		case strings.HasPrefix(got, "W32."):
			shapes["w32"] = true
		case strings.HasPrefix(got, "Malware.Generic."):
			shapes["generic"] = true
		case strings.HasPrefix(got, "Trojan/"):
			shapes["trojan"] = true
		case strings.HasPrefix(got, "Suspicious."):
			shapes["suspicious"] = true
		default:
			t.Fatalf("unexpected label shape %q", got)
		}
	}
	if len(shapes) != 4 {
		t.Errorf("only %d of 4 label shapes reachable: %v", len(shapes), shapes)
	}
}

func TestKasperskyGrammarPUPNotAVirus(t *testing.T) {
	got := kasperskyGrammar(dataset.TypePUP, "installcore", 42)
	if !strings.HasPrefix(got, "not-a-virus:Downloader.Win32.Installcore.") {
		t.Errorf("kaspersky pup label = %q", got)
	}
}

func TestSuffixHelpers(t *testing.T) {
	if got := suffix(0, 3); got != "aaa" {
		t.Errorf("suffix(0,3) = %q", got)
	}
	if got := len(hexSuffix(0xABCDEF, 6)); got != 6 {
		t.Errorf("hexSuffix length = %d", got)
	}
	if got := hexSuffix(1, 99); len(got) != 16 {
		t.Errorf("hexSuffix clamps to 16, got %d", len(got))
	}
	if got := upperFirst("zbot"); got != "Zbot" {
		t.Errorf("upperFirst = %q", got)
	}
	if got := upperFirst(""); got != "" {
		t.Errorf("upperFirst empty = %q", got)
	}
	if got := upperFirst("Zbot"); got != "Zbot" {
		t.Errorf("upperFirst idempotent = %q", got)
	}
}
