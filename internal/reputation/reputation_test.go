package reputation

import (
	"testing"

	"repro/internal/dataset"
)

func TestAlexaList(t *testing.T) {
	a, err := NewAlexaList(map[string]int{"softonic.com": 120, "deep.com": 999_999_999})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := a.Rank("softonic.com"); !ok || r != 120 {
		t.Errorf("Rank = (%d, %v)", r, ok)
	}
	if _, ok := a.Rank("missing.com"); ok {
		t.Error("missing domain reported ranked")
	}
	if !a.InTopMillion("softonic.com") {
		t.Error("rank 120 should be top million")
	}
	if a.InTopMillion("deep.com") {
		t.Error("rank 999999999 should not be top million")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d", a.Len())
	}
	if d := a.Domains(); len(d) != 2 || d[0] != "deep.com" || d[1] != "softonic.com" {
		t.Errorf("Domains = %v, want both in ascending order", d)
	}
}

func TestAlexaListValidation(t *testing.T) {
	if _, err := NewAlexaList(map[string]int{"": 1}); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewAlexaList(map[string]int{"x.com": 0}); err == nil {
		t.Error("rank 0 accepted")
	}
}

func TestAlexaListCopiesInput(t *testing.T) {
	src := map[string]int{"a.com": 1}
	a, err := NewAlexaList(src)
	if err != nil {
		t.Fatal(err)
	}
	src["b.com"] = 2
	if _, ok := a.Rank("b.com"); ok {
		t.Error("AlexaList aliased caller's map")
	}
}

func TestDomainList(t *testing.T) {
	l, err := NewDomainList([]string{"good.com", "fine.net"})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Contains("good.com") || l.Contains("bad.com") {
		t.Error("membership wrong")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	if _, err := NewDomainList([]string{""}); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestFileList(t *testing.T) {
	l, err := NewFileList([]dataset.FileHash{"h1", "h2"})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Contains("h1") || l.Contains("h3") {
		t.Error("membership wrong")
	}
	if _, err := NewFileList([]dataset.FileHash{""}); err == nil {
		t.Error("empty hash accepted")
	}
}

func mustDomains(t *testing.T, ds ...string) *DomainList {
	t.Helper()
	l, err := NewDomainList(ds)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOracleLabelDomain(t *testing.T) {
	alexa, err := NewAlexaList(map[string]int{"popular.com": 50, "gray.com": 2000})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(
		alexa,
		mustDomains(t, "popular.com"),
		mustDomains(t, "evil.com"),
		mustDomains(t, "evil.com", "gray.com"),
		nil, nil,
	)
	// Benign requires Alexa top-1M AND private whitelist.
	if got := o.LabelDomain("popular.com"); got != dataset.URLBenign {
		t.Errorf("popular.com = %v, want benign", got)
	}
	// In Alexa but not whitelisted → unknown.
	if got := o.LabelDomain("gray.com"); got != dataset.URLUnknown {
		t.Errorf("gray.com = %v, want unknown (GSB hit without blacklist... )", got)
	}
	// Malicious requires GSB AND private blacklist.
	if got := o.LabelDomain("evil.com"); got != dataset.URLMalicious {
		t.Errorf("evil.com = %v, want malicious", got)
	}
	if got := o.LabelDomain("nowhere.com"); got != dataset.URLUnknown {
		t.Errorf("nowhere.com = %v, want unknown", got)
	}
}

func TestOracleNilComponentsSafe(t *testing.T) {
	o := NewOracle(nil, nil, nil, nil, nil, nil)
	if got := o.LabelDomain("x.com"); got != dataset.URLUnknown {
		t.Errorf("empty oracle verdict = %v", got)
	}
	if got := o.AlexaRank("x.com"); got != 0 {
		t.Errorf("empty oracle rank = %d", got)
	}
	if o.FileWhitelist.Contains("h") {
		t.Error("empty file whitelist contains something")
	}
	if o.AgentURLWhitelist.Contains("x.com") {
		t.Error("empty agent whitelist contains something")
	}
}

func TestOracleAlexaRank(t *testing.T) {
	alexa, err := NewAlexaList(map[string]int{"a.com": 7})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(alexa, nil, nil, nil, nil, nil)
	if got := o.AlexaRank("a.com"); got != 7 {
		t.Errorf("AlexaRank = %d", got)
	}
	if got := o.AlexaRank("b.com"); got != 0 {
		t.Errorf("unranked AlexaRank = %d, want 0", got)
	}
}
