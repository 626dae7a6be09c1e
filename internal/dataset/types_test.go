package dataset

import (
	"testing"
	"time"
)

func TestLabelString(t *testing.T) {
	tests := []struct {
		l    Label
		want string
	}{
		{LabelUnknown, "unknown"},
		{LabelBenign, "benign"},
		{LabelLikelyBenign, "likely benign"},
		{LabelMalicious, "malicious"},
		{LabelLikelyMalicious, "likely malicious"},
		{Label(99), "label(99)"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("Label(%d).String() = %q, want %q", int(tt.l), got, tt.want)
		}
	}
}

func TestLabelZeroValueIsUnknown(t *testing.T) {
	var l Label
	if l != LabelUnknown {
		t.Error("zero Label must be LabelUnknown")
	}
	var gt GroundTruth
	if gt.Label != LabelUnknown {
		t.Error("zero GroundTruth must be unknown")
	}
}

func TestMalwareTypeRoundTrip(t *testing.T) {
	for _, typ := range AllMalwareTypes {
		got, err := ParseMalwareType(typ.String())
		if err != nil {
			t.Errorf("ParseMalwareType(%q): %v", typ.String(), err)
			continue
		}
		if got != typ {
			t.Errorf("round trip %v -> %q -> %v", typ, typ.String(), got)
		}
	}
	if _, err := ParseMalwareType("notatype"); err == nil {
		t.Error("ParseMalwareType should reject unknown keywords")
	}
}

func TestAllMalwareTypesComplete(t *testing.T) {
	if len(AllMalwareTypes) != 11 {
		t.Errorf("expected 11 malware types (10 + undefined), got %d", len(AllMalwareTypes))
	}
	seen := map[MalwareType]bool{}
	for _, typ := range AllMalwareTypes {
		if seen[typ] {
			t.Errorf("duplicate type %v in AllMalwareTypes", typ)
		}
		seen[typ] = true
	}
}

func TestProcessCategoryString(t *testing.T) {
	if CategoryBrowser.String() != "browser" || CategoryAcrobat.String() != "acrobat reader" {
		t.Error("unexpected category names")
	}
	if len(AllProcessCategories) != 5 {
		t.Errorf("expected 5 process categories, got %d", len(AllProcessCategories))
	}
}

func TestBrowserString(t *testing.T) {
	if BrowserIE.String() != "IE" || BrowserChrome.String() != "Chrome" {
		t.Error("unexpected browser names")
	}
	if len(AllBrowsers) != 5 {
		t.Errorf("expected 5 browsers, got %d", len(AllBrowsers))
	}
}

func TestFileMetaPredicates(t *testing.T) {
	f := FileMeta{Hash: "h"}
	if f.Signed() || f.Packed() {
		t.Error("empty signer/packer should report unsigned/unpacked")
	}
	f.Signer = "Somoto Ltd."
	f.Packer = "NSIS"
	if !f.Signed() || !f.Packed() {
		t.Error("non-empty signer/packer should report signed/packed")
	}
}

func TestDownloadEventValidate(t *testing.T) {
	good := DownloadEvent{
		File: "f", Machine: "m", Process: "p",
		URL: "http://example.com/a.exe", Time: time.Now(),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	cases := []DownloadEvent{
		{Machine: "m", Process: "p", URL: "u", Time: time.Now()},
		{File: "f", Process: "p", URL: "u", Time: time.Now()},
		{File: "f", Machine: "m", URL: "u", Time: time.Now()},
		{File: "f", Machine: "m", Process: "p", Time: time.Now()},
		{File: "f", Machine: "m", Process: "p", URL: "u"},
	}
	for i, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: invalid event accepted", i)
		}
	}
}

func TestURLVerdictString(t *testing.T) {
	if URLBenign.String() != "benign" || URLMalicious.String() != "malicious" || URLUnknown.String() != "unknown" {
		t.Error("unexpected URL verdict names")
	}
}

func TestMonth(t *testing.T) {
	jan := Month{2014, time.January}
	feb := Month{2014, time.February}
	dec := Month{2014, time.December}
	if !jan.Before(feb) || feb.Before(jan) {
		t.Error("Before ordering wrong within year")
	}
	if jan.Next() != feb {
		t.Error("Next within year wrong")
	}
	if dec.Next() != (Month{2015, time.January}) {
		t.Error("Next across year boundary wrong")
	}
	if jan.String() != "2014-01" {
		t.Errorf("String = %q", jan.String())
	}
	ts := time.Date(2014, time.March, 15, 10, 0, 0, 0, time.UTC)
	if MonthOf(ts) != (Month{2014, time.March}) {
		t.Error("MonthOf wrong")
	}
}
