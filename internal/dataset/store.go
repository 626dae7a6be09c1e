package dataset

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Store is an indexed, in-memory collection of download events plus the
// file metadata and ground truth attached to them. It is the dataset the
// measurement analytics and the rule learner consume.
//
// Writes (AddEvent, PutFile, SetTruth, SetURLVerdict) take mu and are
// refused once the store is frozen. Reads of an unfrozen store take
// mu's read side and so serialize against those writes. Freeze is the
// last write: it builds the derived indexes under mu and then publishes
// frozen with one atomic store, after which no field below ever changes
// again — so a read that observes frozen takes no lock at all. The
// serving path does not read the store per event at all:
// features.NewExtractor, which takes only a frozen store, compiles what
// it needs of it once.
type Store struct {
	mu     sync.RWMutex
	events []DownloadEvent
	files  map[FileHash]*FileMeta
	truth  map[FileHash]GroundTruth
	urls   map[string]URLVerdict // keyed by e2LD

	// frozen is stored under mu (writers test it there) and loaded
	// without it by readers.
	frozen atomic.Bool

	// Derived indexes, built by Freeze.
	prevalence map[FileHash]int
	byFile     map[FileHash][]int
	byMachine  map[MachineID][]int
	byMonth    map[Month][]int
	months     []Month
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		files: make(map[FileHash]*FileMeta),
		truth: make(map[FileHash]GroundTruth),
		urls:  make(map[string]URLVerdict),
	}
}

// AddEvent appends a validated event to the store.
func (s *Store) AddEvent(e DownloadEvent) error {
	if err := e.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return fmt.Errorf("dataset: store is frozen")
	}
	s.events = append(s.events, e)
	return nil
}

// PutFile registers metadata for a file (or process executable).
// Re-registering the same hash overwrites the previous metadata.
func (s *Store) PutFile(m *FileMeta) error {
	if m == nil || m.Hash == "" {
		return fmt.Errorf("dataset: file metadata must have a hash")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return fmt.Errorf("dataset: store is frozen")
	}
	s.files[m.Hash] = m
	return nil
}

// SetTruth records the ground-truth assignment for a file hash.
func (s *Store) SetTruth(h FileHash, gt GroundTruth) error {
	if h == "" {
		return fmt.Errorf("dataset: empty file hash")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return fmt.Errorf("dataset: store is frozen")
	}
	s.truth[h] = gt
	return nil
}

// SetURLVerdict records the verdict for a download domain (e2LD).
func (s *Store) SetURLVerdict(domain string, v URLVerdict) error {
	if domain == "" {
		return fmt.Errorf("dataset: empty domain")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return fmt.Errorf("dataset: store is frozen")
	}
	s.urls[domain] = v
	return nil
}

// Freeze sorts events by time and builds the derived indexes. After
// Freeze the store rejects writes and all read methods are safe for
// concurrent use.
func (s *Store) Freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return
	}
	// The collection server appends in time order, and a stable sort of
	// sorted events leaves them as they are.
	if !slices.IsSortedFunc(s.events, func(a, b DownloadEvent) int { return a.Time.Compare(b.Time) }) {
		sort.SliceStable(s.events, func(i, j int) bool {
			return s.events[i].Time.Before(s.events[j].Time)
		})
	}
	s.byFile = make(map[FileHash][]int)
	s.byMachine = make(map[MachineID][]int)
	for i := range s.events {
		e := &s.events[i]
		s.byFile[e.File] = append(s.byFile[e.File], i)
		s.byMachine[e.Machine] = append(s.byMachine[e.Machine], i)
	}
	// A file's prevalence counts its distinct machines: lastFile stamps
	// each machine with the ordinal of the last file that counted it.
	s.prevalence = make(map[FileHash]int, len(s.byFile))
	lastFile := make(map[MachineID]int, len(s.byMachine))
	ordinal := 0
	for f, idx := range s.byFile {
		ordinal++
		n := 0
		for _, i := range idx {
			if m := s.events[i].Machine; lastFile[m] != ordinal {
				lastFile[m] = ordinal
				n++
			}
		}
		s.prevalence[f] = n
	}
	s.byMonth = make(map[Month][]int)
	for i := range s.events {
		m := MonthOf(s.events[i].Time)
		if _, seen := s.byMonth[m]; !seen {
			s.months = append(s.months, m)
		}
		s.byMonth[m] = append(s.byMonth[m], i)
	}
	sort.Slice(s.months, func(i, j int) bool { return s.months[i].Before(s.months[j]) })
	s.frozen.Store(true)
}

// Frozen reports whether Freeze has run.
func (s *Store) Frozen() bool { return s.frozen.Load() }

// rlock takes the read lock unless the store is frozen and reports
// whether it did; every read method opens with
// defer s.runlock(s.rlock()).
func (s *Store) rlock() bool {
	if s.frozen.Load() {
		return false
	}
	s.mu.RLock()
	return true
}

func (s *Store) runlock(locked bool) {
	if locked {
		s.mu.RUnlock()
	}
}

// NumEvents returns the number of events.
func (s *Store) NumEvents() int {
	defer s.runlock(s.rlock())
	return len(s.events)
}

// Events returns the event slice. After Freeze it is sorted by time; the
// caller must not modify it.
func (s *Store) Events() []DownloadEvent {
	defer s.runlock(s.rlock())
	return s.events
}

// File returns the metadata for hash, or nil when unregistered.
func (s *Store) File(h FileHash) *FileMeta {
	defer s.runlock(s.rlock())
	return s.files[h]
}

// Files returns all registered file hashes in unspecified order.
func (s *Store) Files() []FileHash {
	defer s.runlock(s.rlock())
	out := make([]FileHash, 0, len(s.files))
	for h := range s.files {
		out = append(out, h)
	}
	return out
}

// Truth returns the ground truth for hash. Files never labeled get the
// zero value, i.e. LabelUnknown.
func (s *Store) Truth(h FileHash) GroundTruth {
	defer s.runlock(s.rlock())
	return s.truth[h]
}

// Label is shorthand for Truth(h).Label.
func (s *Store) Label(h FileHash) Label { return s.Truth(h).Label }

// URLVerdict returns the verdict recorded for a domain, or URLUnknown.
func (s *Store) URLVerdict(domain string) URLVerdict {
	defer s.runlock(s.rlock())
	return s.urls[domain]
}

// Prevalence returns the number of distinct machines that downloaded the
// file, as observed in the stored (i.e. post-collection-server) events.
// The store must be frozen.
func (s *Store) Prevalence(h FileHash) int {
	defer s.runlock(s.rlock())
	return s.prevalence[h]
}

// EventsForFile returns indexes (into Events()) of the events that
// downloaded file h, in time order. The store must be frozen.
func (s *Store) EventsForFile(h FileHash) []int {
	defer s.runlock(s.rlock())
	return s.byFile[h]
}

// EventsForMachine returns indexes of machine m's events in time order.
// The store must be frozen.
func (s *Store) EventsForMachine(m MachineID) []int {
	defer s.runlock(s.rlock())
	return s.byMachine[m]
}

// Machines returns all machine IDs observed in events. The store must be
// frozen.
func (s *Store) Machines() []MachineID {
	defer s.runlock(s.rlock())
	out := make([]MachineID, 0, len(s.byMachine))
	for m := range s.byMachine {
		out = append(out, m)
	}
	return out
}

// DownloadedFiles returns the distinct downloaded file hashes (i.e. files
// appearing as the File of some event, regardless of metadata
// registration). The store must be frozen.
func (s *Store) DownloadedFiles() []FileHash {
	defer s.runlock(s.rlock())
	out := make([]FileHash, 0, len(s.byFile))
	for f := range s.byFile {
		out = append(out, f)
	}
	return out
}

// Month identifies a calendar month.
type Month struct {
	Year int
	Mon  time.Month
}

// MonthOf returns the Month containing t.
func MonthOf(t time.Time) Month {
	return Month{Year: t.Year(), Mon: t.Month()}
}

// String formats the month like "2014-01".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, int(m.Mon)) }

// Before reports whether m is earlier than other.
func (m Month) Before(other Month) bool {
	if m.Year != other.Year {
		return m.Year < other.Year
	}
	return m.Mon < other.Mon
}

// Next returns the following calendar month.
func (m Month) Next() Month {
	if m.Mon == time.December {
		return Month{Year: m.Year + 1, Mon: time.January}
	}
	return Month{Year: m.Year, Mon: m.Mon + 1}
}

// Months returns the distinct months spanned by the stored events, in
// chronological order. The store must be frozen.
func (s *Store) Months() []Month {
	defer s.runlock(s.rlock())
	return s.months
}

// EventIndexesInMonth returns indexes of events whose timestamp falls in
// month m, in time order. The store must be frozen; the caller must not
// modify the returned slice.
func (s *Store) EventIndexesInMonth(m Month) []int {
	defer s.runlock(s.rlock())
	return s.byMonth[m]
}
