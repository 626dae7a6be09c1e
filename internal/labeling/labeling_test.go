package labeling

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/avsim"
	"repro/internal/avtype"
	"repro/internal/dataset"
	"repro/internal/reputation"
)

var dlTime = time.Date(2014, time.February, 10, 0, 0, 0, 0, time.UTC)

func newLabeler(t *testing.T, fileWL []dataset.FileHash) *Labeler {
	t.Helper()
	wl, err := reputation.NewFileList(fileWL)
	if err != nil {
		t.Fatal(err)
	}
	oracle := reputation.NewOracle(nil, nil, nil, nil, wl, nil)
	l, err := New(avsim.NewDefaultService(), oracle, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	oracle := reputation.NewOracle(nil, nil, nil, nil, nil, nil)
	if _, err := New(nil, oracle, nil, nil, 0); err == nil {
		t.Error("nil service accepted")
	}
	if _, err := New(avsim.NewDefaultService(), nil, nil, nil, 0); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestLabelFileWhitelisted(t *testing.T) {
	l := newLabeler(t, []dataset.FileHash{"white1"})
	gt := l.LabelFile("white1", nil, dlTime)
	if gt.Label != dataset.LabelBenign {
		t.Errorf("whitelisted file = %v, want benign", gt.Label)
	}
}

func TestLabelFileUnknown(t *testing.T) {
	l := newLabeler(t, nil)
	// Not whitelisted, not in corpus: the 83% case.
	gt := l.LabelFile("ghost", nil, dlTime)
	if gt.Label != dataset.LabelUnknown {
		t.Errorf("out-of-corpus file = %v, want unknown", gt.Label)
	}
	s := &avsim.Sample{Hash: "ghost2", InCorpus: false}
	if gt := l.LabelFile("ghost2", s, dlTime); gt.Label != dataset.LabelUnknown {
		t.Errorf("InCorpus=false file = %v, want unknown", gt.Label)
	}
}

func TestLabelFileMalicious(t *testing.T) {
	l := newLabeler(t, nil)
	s := &avsim.Sample{
		Hash:          "mal1",
		InCorpus:      true,
		FirstScan:     dlTime,
		LastScan:      dlTime.AddDate(2, 0, 0),
		TrueMalicious: true,
		Type:          dataset.TypeBanker,
		Family:        "zbot",
		FamilyVisible: true,
	}
	gt := l.LabelFile("mal1", s, dlTime)
	if gt.Label != dataset.LabelMalicious {
		t.Fatalf("label = %v, want malicious", gt.Label)
	}
	if gt.Type != dataset.TypeBanker {
		t.Errorf("type = %v, want banker", gt.Type)
	}
	if gt.Family != "zbot" {
		t.Errorf("family = %q, want zbot", gt.Family)
	}
	if l.TypeStats.Total == 0 {
		t.Error("TypeStats not updated")
	}
}

func TestLabelFileLikelyMalicious(t *testing.T) {
	l := newLabeler(t, nil)
	s := &avsim.Sample{
		Hash:          "lm1",
		InCorpus:      true,
		FirstScan:     dlTime,
		LastScan:      dlTime.AddDate(2, 0, 0),
		TrueMalicious: true,
		TrustedBlind:  true,
		Type:          dataset.TypeTrojan,
	}
	// Trusted engines never detect; some minor engine should, making the
	// file likely malicious. Detection is hash-dependent, so probe a few.
	found := false
	for _, h := range []dataset.FileHash{"lm1", "lm2", "lm3", "lm4", "lm5", "lm6"} {
		s.Hash = h
		gt := l.LabelFile(h, s, dlTime)
		switch gt.Label {
		case dataset.LabelLikelyMalicious:
			found = true
		case dataset.LabelMalicious:
			t.Fatalf("trusted-blind file labeled malicious")
		}
	}
	if !found {
		t.Error("no trusted-blind sample became likely malicious")
	}
}

func TestLabelFileBenignVsLikelyBenign(t *testing.T) {
	l := newLabeler(t, nil)
	long := &avsim.Sample{
		Hash:      "clean-long",
		InCorpus:  true,
		FirstScan: dlTime,
		LastScan:  dlTime.AddDate(1, 0, 0),
	}
	if gt := l.LabelFile("clean-long", long, dlTime); gt.Label != dataset.LabelBenign {
		t.Errorf("long-history clean file = %v, want benign", gt.Label)
	}
	// First scan only days before the rescan: spread under 14 days.
	rescanAt := dlTime.Add(DefaultRescanDelay)
	short := &avsim.Sample{
		Hash:      "clean-short",
		InCorpus:  true,
		FirstScan: rescanAt.AddDate(0, 0, -5),
		LastScan:  rescanAt.AddDate(0, 0, 30),
	}
	if gt := l.LabelFile("clean-short", short, dlTime); gt.Label != dataset.LabelLikelyBenign {
		t.Errorf("short-history clean file = %v, want likely benign", gt.Label)
	}
}

func TestLabelStore(t *testing.T) {
	wl, err := reputation.NewFileList([]dataset.FileHash{"proc-benign"})
	if err != nil {
		t.Fatal(err)
	}
	alexa, err := reputation.NewAlexaList(map[string]int{"good.com": 10})
	if err != nil {
		t.Fatal(err)
	}
	urlWL, err := reputation.NewDomainList([]string{"good.com"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := reputation.NewOracle(alexa, urlWL, nil, nil, wl, nil)
	l, err := New(avsim.NewDefaultService(), oracle, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	store := dataset.NewStore()
	ev := dataset.DownloadEvent{
		File:     "mal-file",
		Machine:  "m1",
		Process:  "proc-benign",
		URL:      "http://good.com/x.exe",
		Domain:   "good.com",
		Time:     dlTime,
		Executed: true,
	}
	if err := store.AddEvent(ev); err != nil {
		t.Fatal(err)
	}
	samples := Samples{
		"mal-file": {
			Hash: "mal-file", InCorpus: true,
			FirstScan: dlTime, LastScan: dlTime.AddDate(2, 0, 0),
			TrueMalicious: true, Type: dataset.TypeDropper,
		},
	}
	if err := l.LabelStore(store, samples); err != nil {
		t.Fatal(err)
	}
	store.Freeze()
	if got := store.Label("mal-file"); got != dataset.LabelMalicious {
		t.Errorf("mal-file = %v, want malicious", got)
	}
	if got := store.Label("proc-benign"); got != dataset.LabelBenign {
		t.Errorf("proc-benign = %v, want benign (whitelisted)", got)
	}
	if got := store.URLVerdict("good.com"); got != dataset.URLBenign {
		t.Errorf("good.com = %v, want benign", got)
	}
}

// TestLabelFilesSubset labels the files and processes of some events
// only, each as LabelStore would label it.
func TestLabelFilesSubset(t *testing.T) {
	l := newLabeler(t, nil)
	store := dataset.NewStore()
	first := dataset.DownloadEvent{File: "mal-file", Machine: "m1", Process: "proc", URL: "http://x.com/a.exe", Domain: "x.com", Time: dlTime, Executed: true}
	later := first
	later.File, later.Time = "late-file", dlTime.AddDate(0, 2, 0)
	for _, e := range []dataset.DownloadEvent{first, later} {
		if err := store.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	samples := Samples{
		"mal-file":  {Hash: "mal-file", InCorpus: true, FirstScan: dlTime, LastScan: dlTime.AddDate(2, 0, 0), TrueMalicious: true, Type: dataset.TypeDropper},
		"late-file": {Hash: "late-file", InCorpus: true, FirstScan: dlTime, LastScan: dlTime.AddDate(2, 0, 0), TrueMalicious: true, Type: dataset.TypeDropper},
	}
	n, err := l.LabelFiles(store, samples, []dataset.DownloadEvent{first})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("labeled %d files, want 2 (the file and its process)", n)
	}
	store.Freeze()
	if got := store.Label("mal-file"); got != dataset.LabelMalicious {
		t.Errorf("mal-file = %v, want malicious", got)
	}
	if got := store.Truth("late-file"); got != (dataset.GroundTruth{}) {
		t.Errorf("late-file labeled %+v, outside the events given", got)
	}
}

func TestLabelStoreNil(t *testing.T) {
	l := newLabeler(t, nil)
	if err := l.LabelStore(nil, nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestTypeStatsSharesAccumulate(t *testing.T) {
	l := newLabeler(t, nil)
	for i := 0; i < 120; i++ {
		s := &avsim.Sample{
			Hash:          dataset.FileHash(fmt.Sprintf("stat-%03d", i)),
			InCorpus:      true,
			FirstScan:     dlTime,
			LastScan:      dlTime.AddDate(2, 0, 0),
			TrueMalicious: true,
			Type:          dataset.AllMalwareTypes[i%len(dataset.AllMalwareTypes)],
			Family:        "zbot",
			FamilyVisible: i%3 == 0,
		}
		l.LabelFile(s.Hash, s, dlTime)
	}
	st := l.TypeStats
	if st.Total < 100 {
		t.Fatalf("TypeStats.Total = %d", st.Total)
	}
	sum := st.Share(avtype.ResolvedUnanimous) + st.Share(avtype.ResolvedVoting) +
		st.Share(avtype.ResolvedSpecificity) + st.Share(avtype.ResolvedManual)
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("resolution shares sum to %v", sum)
	}
}

func TestLikelyBenignBoundary(t *testing.T) {
	l := newLabeler(t, nil)
	rescanAt := dlTime.Add(DefaultRescanDelay)
	// Spread of exactly 14 days: benign (the rule is "< 14 days").
	s := &avsim.Sample{
		Hash:      "boundary-14d",
		InCorpus:  true,
		FirstScan: rescanAt.Add(-MinBenignScanSpread),
		LastScan:  rescanAt.AddDate(0, 0, 30),
	}
	if gt := l.LabelFile(s.Hash, s, dlTime); gt.Label != dataset.LabelBenign {
		t.Errorf("14-day spread = %v, want benign", gt.Label)
	}
	// Just under 14 days: likely benign.
	s2 := &avsim.Sample{
		Hash:      "boundary-13d",
		InCorpus:  true,
		FirstScan: rescanAt.Add(-MinBenignScanSpread + time.Hour),
		LastScan:  rescanAt.AddDate(0, 0, 30),
	}
	if gt := l.LabelFile(s2.Hash, s2, dlTime); gt.Label != dataset.LabelLikelyBenign {
		t.Errorf("13.96-day spread = %v, want likely benign", gt.Label)
	}
}

func TestLabelStoreParallelDeterministic(t *testing.T) {
	// The parallel LabelStore must produce the same truth assignments as
	// labeling each file individually.
	build := func() (*dataset.Store, Samples) {
		store := dataset.NewStore()
		samples := Samples{}
		for i := 0; i < 200; i++ {
			h := dataset.FileHash(fmt.Sprintf("par-%03d", i))
			ev := dataset.DownloadEvent{
				File: h, Machine: "m1", Process: "proc",
				URL: "http://x.com/f", Domain: "x.com",
				Time: dlTime.AddDate(0, 0, i%28), Executed: true,
			}
			if err := store.AddEvent(ev); err != nil {
				t.Fatal(err)
			}
			switch i % 3 {
			case 0: // malicious
				samples[h] = &avsim.Sample{
					Hash: h, InCorpus: true, FirstScan: dlTime,
					LastScan: dlTime.AddDate(2, 0, 0), TrueMalicious: true,
					Type: dataset.TypeDropper,
				}
			case 1: // benign
				samples[h] = &avsim.Sample{
					Hash: h, InCorpus: true,
					FirstScan: dlTime.AddDate(0, -6, 0),
					LastScan:  dlTime.AddDate(2, 1, 0),
				}
			}
		}
		return store, samples
	}
	storeA, samplesA := build()
	l1 := newLabeler(t, nil)
	if err := l1.LabelStore(storeA, samplesA); err != nil {
		t.Fatal(err)
	}
	storeB, samplesB := build()
	l2 := newLabeler(t, nil)
	for i := 0; i < 200; i++ {
		h := dataset.FileHash(fmt.Sprintf("par-%03d", i))
		gtSeq := l2.LabelFile(h, samplesB[h], dlTime.AddDate(0, 0, i%28))
		if got := storeA.Truth(h); got != gtSeq {
			t.Fatalf("file %s: parallel %+v != sequential %+v", h, got, gtSeq)
		}
	}
	_ = storeB
	if l1.TypeStats.Total != l2.TypeStats.Total {
		t.Errorf("TypeStats diverged: %d vs %d", l1.TypeStats.Total, l2.TypeStats.Total)
	}
}
