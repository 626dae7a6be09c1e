package dataset

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func makeEvent(file, machine string, day int) DownloadEvent {
	return DownloadEvent{
		File:     FileHash(file),
		Machine:  MachineID(machine),
		Process:  "proc1",
		URL:      "http://example.com/" + file,
		Domain:   "example.com",
		Time:     time.Date(2014, time.January, day, 12, 0, 0, 0, time.UTC),
		Executed: true,
	}
}

func TestStoreAddAndFreeze(t *testing.T) {
	s := NewStore()
	if err := s.AddEvent(makeEvent("f1", "m1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEvent(makeEvent("f1", "m2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEvent(makeEvent("f2", "m1", 2)); err != nil {
		t.Fatal(err)
	}
	if s.Frozen() {
		t.Error("store should not be frozen yet")
	}
	s.Freeze()
	if !s.Frozen() {
		t.Error("store should be frozen")
	}
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("NumEvents = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			t.Error("events not sorted by time after Freeze")
		}
	}
}

func TestStoreRejectsWritesAfterFreeze(t *testing.T) {
	s := NewStore()
	s.Freeze()
	if err := s.AddEvent(makeEvent("f", "m", 1)); err == nil {
		t.Error("AddEvent after Freeze should fail")
	}
	if err := s.PutFile(&FileMeta{Hash: "f"}); err == nil {
		t.Error("PutFile after Freeze should fail")
	}
	if err := s.SetTruth("f", GroundTruth{Label: LabelBenign}); err == nil {
		t.Error("SetTruth after Freeze should fail")
	}
	if err := s.SetURLVerdict("example.com", URLBenign); err == nil {
		t.Error("SetURLVerdict after Freeze should fail")
	}
}

func TestStoreRejectsInvalidInput(t *testing.T) {
	s := NewStore()
	if err := s.AddEvent(DownloadEvent{}); err == nil {
		t.Error("invalid event accepted")
	}
	if err := s.PutFile(nil); err == nil {
		t.Error("nil file meta accepted")
	}
	if err := s.PutFile(&FileMeta{}); err == nil {
		t.Error("hashless file meta accepted")
	}
	if err := s.SetTruth("", GroundTruth{}); err == nil {
		t.Error("empty hash truth accepted")
	}
	if err := s.SetURLVerdict("", URLBenign); err == nil {
		t.Error("empty domain verdict accepted")
	}
}

func TestStorePrevalence(t *testing.T) {
	s := NewStore()
	// f1 downloaded by two distinct machines, one of them twice.
	for _, e := range []DownloadEvent{
		makeEvent("f1", "m1", 1),
		makeEvent("f1", "m1", 2),
		makeEvent("f1", "m2", 3),
		makeEvent("f2", "m3", 4),
	} {
		if err := s.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	if got := s.Prevalence("f1"); got != 2 {
		t.Errorf("Prevalence(f1) = %d, want 2 (distinct machines)", got)
	}
	if got := s.Prevalence("f2"); got != 1 {
		t.Errorf("Prevalence(f2) = %d, want 1", got)
	}
	if got := s.Prevalence("missing"); got != 0 {
		t.Errorf("Prevalence(missing) = %d, want 0", got)
	}
}

func TestStoreIndexes(t *testing.T) {
	s := NewStore()
	for _, e := range []DownloadEvent{
		makeEvent("f1", "m1", 5),
		makeEvent("f1", "m2", 1),
		makeEvent("f2", "m1", 3),
	} {
		if err := s.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	evs := s.Events()
	f1idx := s.EventsForFile("f1")
	if len(f1idx) != 2 {
		t.Fatalf("EventsForFile(f1) = %d entries", len(f1idx))
	}
	if !evs[f1idx[0]].Time.Before(evs[f1idx[1]].Time) {
		t.Error("file events not in time order")
	}
	m1idx := s.EventsForMachine("m1")
	if len(m1idx) != 2 {
		t.Fatalf("EventsForMachine(m1) = %d entries", len(m1idx))
	}
	if !evs[m1idx[0]].Time.Before(evs[m1idx[1]].Time) {
		t.Error("machine events not in time order")
	}
	if got := len(s.Machines()); got != 2 {
		t.Errorf("Machines = %d, want 2", got)
	}
	if got := len(s.DownloadedFiles()); got != 2 {
		t.Errorf("DownloadedFiles = %d, want 2", got)
	}
}

func TestStoreTruthAndVerdicts(t *testing.T) {
	s := NewStore()
	if err := s.SetTruth("f1", GroundTruth{Label: LabelMalicious, Type: TypeDropper, Family: "zbot"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetURLVerdict("bad.com", URLMalicious); err != nil {
		t.Fatal(err)
	}
	gt := s.Truth("f1")
	if gt.Label != LabelMalicious || gt.Type != TypeDropper || gt.Family != "zbot" {
		t.Errorf("Truth = %+v", gt)
	}
	if s.Label("f1") != LabelMalicious {
		t.Error("Label shorthand wrong")
	}
	if s.Label("never-seen") != LabelUnknown {
		t.Error("unlabeled file should be unknown")
	}
	if s.URLVerdict("bad.com") != URLMalicious {
		t.Error("URL verdict lost")
	}
	if s.URLVerdict("neutral.com") != URLUnknown {
		t.Error("unrecorded domain should be unknown")
	}
}

func TestStoreFileMeta(t *testing.T) {
	s := NewStore()
	meta := &FileMeta{Hash: "f1", Signer: "ACME", Size: 1000}
	if err := s.PutFile(meta); err != nil {
		t.Fatal(err)
	}
	if got := s.File("f1"); got == nil || got.Signer != "ACME" {
		t.Errorf("File(f1) = %+v", got)
	}
	if s.File("nope") != nil {
		t.Error("missing file should return nil")
	}
	if got := len(s.Files()); got != 1 {
		t.Errorf("Files() = %d entries", got)
	}
}

func TestStoreMonths(t *testing.T) {
	s := NewStore()
	mk := func(mon time.Month, day int) DownloadEvent {
		e := makeEvent(fmt.Sprintf("f-%d-%d", mon, day), "m1", 1)
		e.Time = time.Date(2014, mon, day, 0, 0, 0, 0, time.UTC)
		return e
	}
	for _, e := range []DownloadEvent{
		mk(time.March, 5), mk(time.January, 10), mk(time.January, 20), mk(time.February, 1),
	} {
		if err := s.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	months := s.Months()
	want := []Month{{2014, time.January}, {2014, time.February}, {2014, time.March}}
	if len(months) != len(want) {
		t.Fatalf("Months = %v", months)
	}
	for i := range want {
		if months[i] != want[i] {
			t.Errorf("Months[%d] = %v, want %v", i, months[i], want[i])
		}
	}
	jan := s.EventIndexesInMonth(Month{2014, time.January})
	if len(jan) != 2 {
		t.Errorf("January events = %d, want 2", len(jan))
	}
}

func TestStoreFreezeIdempotent(t *testing.T) {
	s := NewStore()
	if err := s.AddEvent(makeEvent("f1", "m1", 1)); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	s.Freeze() // must not panic or duplicate indexes
	if got := s.Prevalence("f1"); got != 1 {
		t.Errorf("Prevalence after double Freeze = %d", got)
	}
}

// TestFrozenStoreReadsTakeNoLock: once Freeze has published the store,
// reads from any number of goroutines touch no lock — they complete
// while the test itself sits on the write lock — and see everything
// written before Freeze (go test -race covers the ordering).
func TestFrozenStoreReadsTakeNoLock(t *testing.T) {
	s := NewStore()
	const files = 64
	for i := 0; i < files; i++ {
		h := fmt.Sprintf("f%d", i)
		if err := s.PutFile(&FileMeta{Hash: FileHash(h), Signer: h}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetTruth(FileHash(h), GroundTruth{Label: LabelMalicious}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEvent(makeEvent(h, "m1", 1+i%28)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetURLVerdict("example.com", URLMalicious); err != nil {
		t.Fatal(err)
	}
	// Freeze on another goroutine: readers must be ordered after it by
	// the frozen flag alone.
	frozen := make(chan struct{})
	go func() {
		s.Freeze()
		close(frozen)
	}()
	<-frozen
	s.mu.Lock()
	defer s.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*files; i++ {
				h := FileHash(fmt.Sprintf("f%d", (g+i)%files))
				if m := s.File(h); m == nil || m.Signer != string(h) {
					t.Errorf("File(%s) = %+v", h, m)
					return
				}
				if s.Label(h) != LabelMalicious || s.URLVerdict("example.com") != URLMalicious ||
					s.Prevalence(h) != 1 || len(s.EventsForFile(h)) != 1 || s.NumEvents() != files ||
					len(s.Months()) != 1 || !s.Frozen() {
					t.Errorf("frozen reads of %s disagree with what was stored", h)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUnfrozenStoreReadsSerializeWithWrites: before Freeze the maps are
// still written, so reads must keep taking the lock. Readers and
// PutFile run together here; an unlocked read is a data race (and a
// "concurrent map read and map write" crash) under go test -race.
func TestUnfrozenStoreReadsSerializeWithWrites(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := s.PutFile(&FileMeta{Hash: FileHash(fmt.Sprintf("f%d-%d", g, i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := FileHash(fmt.Sprintf("f%d-%d", g, i))
				if m := s.File(h); m != nil && m.Hash != h {
					t.Errorf("File(%s) = %+v", h, m)
					return
				}
				s.Truth(h)
				s.Files()
			}
		}(g)
	}
	wg.Wait()
	if got := len(s.Files()); got != 4*500 {
		t.Fatalf("store holds %d files, want %d", got, 4*500)
	}
}
