// Package export serializes datasets to a line-oriented JSON format and
// loads them back, so generated corpora can be stored, diffed and fed to
// external analysis tooling — and so real telemetry shaped like the
// paper's 5-tuples can be imported and run through the same pipeline.
//
// The stream is self-describing: each line is a JSON object with a
// "type" discriminator ("meta", "event", "truth", "url"), in any order,
// except that a single "header" line must come first.
package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/reputation"
)

// FormatVersion identifies the stream layout.
const FormatVersion = 1

type header struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
}

type metaLine struct {
	Type     string `json:"type"`
	Hash     string `json:"hash"`
	Size     int64  `json:"size,omitempty"`
	Path     string `json:"path,omitempty"`
	Signer   string `json:"signer,omitempty"`
	CA       string `json:"ca,omitempty"`
	Packer   string `json:"packer,omitempty"`
	Category int    `json:"category,omitempty"`
	Browser  int    `json:"browser,omitempty"`
}

type eventLine struct {
	Type     string    `json:"type"`
	File     string    `json:"file"`
	Machine  string    `json:"machine"`
	Process  string    `json:"process"`
	URL      string    `json:"url"`
	Domain   string    `json:"domain,omitempty"`
	Time     time.Time `json:"time"`
	Executed bool      `json:"executed"`
}

type truthLine struct {
	Type   string `json:"type"`
	Hash   string `json:"hash"`
	Label  int    `json:"label"`
	Class  string `json:"class"` // redundant human-readable label
	TypeID int    `json:"malwareType,omitempty"`
	Family string `json:"family,omitempty"`
}

type urlLine struct {
	Type    string `json:"type"`
	Domain  string `json:"domain"`
	Verdict int    `json:"verdict,omitempty"`
	// Rank is the domain's Alexa rank (0 = unranked), carried so an
	// imported dataset can rebuild the rank oracle the feature extractor
	// and Figure 3/6 analyses need.
	Rank int `json:"rank,omitempty"`
}

// MarshalEventLine renders a single DownloadEvent as one "event" record
// line (no trailing newline). This is the same bytes the full stream
// uses for its event records, so a dataset file from `longtail gendata` and
// the body of a live request to the serving layer's /classify endpoint
// share one wire format.
func MarshalEventLine(e *dataset.DownloadEvent) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("export: nil event")
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(eventLine{
		Type: "event", File: string(e.File), Machine: string(e.Machine),
		Process: string(e.Process), URL: e.URL, Domain: e.Domain,
		Time: e.Time, Executed: e.Executed,
	})
}

// UnmarshalEventLine parses one "event" record line back into a
// DownloadEvent, validating the record type and the event's structural
// invariants.
func UnmarshalEventLine(line []byte) (dataset.DownloadEvent, error) {
	var e eventLine
	if err := json.Unmarshal(line, &e); err != nil {
		return dataset.DownloadEvent{}, fmt.Errorf("export: event line: %w", err)
	}
	if e.Type != "event" {
		return dataset.DownloadEvent{}, fmt.Errorf("export: expected event record, got %q", e.Type)
	}
	ev := dataset.DownloadEvent{
		File: dataset.FileHash(e.File), Machine: dataset.MachineID(e.Machine),
		Process: dataset.FileHash(e.Process), URL: e.URL, Domain: e.Domain,
		Time: e.Time, Executed: e.Executed,
	}
	if err := ev.Validate(); err != nil {
		return dataset.DownloadEvent{}, err
	}
	return ev, nil
}

// WriteStore serializes the store (events, metadata, ground truth, URL
// verdicts) to w without rank information; use WriteStoreWithOracle to
// carry Alexa ranks as well.
func WriteStore(w io.Writer, store *dataset.Store) error {
	return WriteStoreWithOracle(w, store, nil)
}

// WriteStoreWithOracle serializes the store plus, when oracle is
// non-nil, the Alexa rank of every download domain.
func WriteStoreWithOracle(w io.Writer, store *dataset.Store, oracle *reputation.Oracle) error {
	if store == nil {
		return fmt.Errorf("export: nil store")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Type: "header", Version: FormatVersion}); err != nil {
		return err
	}
	// Sort files and (below) domains so identical stores serialize to
	// identical bytes — which is what lets fault-tolerance tests compare
	// a recovered run against a fault-free baseline with a byte diff.
	files := store.Files()
	sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })
	for _, h := range files {
		m := store.File(h)
		if m == nil {
			continue
		}
		line := metaLine{
			Type: "meta", Hash: string(m.Hash), Size: m.Size, Path: m.Path,
			Signer: m.Signer, CA: m.CA, Packer: m.Packer,
			Category: int(m.Category), Browser: int(m.Browser),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		gt := store.Truth(h)
		if gt.Label != dataset.LabelUnknown {
			if err := enc.Encode(truthLine{
				Type: "truth", Hash: string(h), Label: int(gt.Label),
				Class: gt.Label.String(), TypeID: int(gt.Type), Family: gt.Family,
			}); err != nil {
				return err
			}
		}
	}
	domains := map[string]struct{}{}
	for _, e := range store.Events() {
		if err := enc.Encode(eventLine{
			Type: "event", File: string(e.File), Machine: string(e.Machine),
			Process: string(e.Process), URL: e.URL, Domain: e.Domain,
			Time: e.Time, Executed: e.Executed,
		}); err != nil {
			return err
		}
		if e.Domain != "" {
			domains[e.Domain] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(domains))
	for d := range domains {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	for _, d := range sorted {
		line := urlLine{Type: "url", Domain: d, Verdict: int(store.URLVerdict(d))}
		if oracle != nil {
			line.Rank = oracle.AlexaRank(d)
		}
		if line.Verdict == int(dataset.URLUnknown) && line.Rank == 0 {
			continue
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadStore parses a stream produced by WriteStore (or hand-authored in
// the same format) into a fresh, unfrozen store, discarding any rank
// information.
func ReadStore(r io.Reader) (*dataset.Store, error) {
	store, _, err := ReadStoreWithOracle(r)
	return store, err
}

// ReadStoreWithOracle parses a stream and additionally rebuilds a
// reputation oracle holding the Alexa ranks carried by "url" records
// (the list-based reputation sources are not serialized and come back
// empty).
func ReadStoreWithOracle(r io.Reader) (*dataset.Store, *reputation.Oracle, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	store := dataset.NewStore()
	ranks := make(map[string]int)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
		}
		if !sawHeader {
			if probe.Type != "header" {
				return nil, nil, fmt.Errorf("export: line %d: expected header, got %q", lineNo, probe.Type)
			}
			var h header
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			if h.Version != FormatVersion {
				return nil, nil, fmt.Errorf("export: unsupported format version %d", h.Version)
			}
			sawHeader = true
			continue
		}
		switch probe.Type {
		case "meta":
			var m metaLine
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			if err := store.PutFile(&dataset.FileMeta{
				Hash: dataset.FileHash(m.Hash), Size: m.Size, Path: m.Path,
				Signer: m.Signer, CA: m.CA, Packer: m.Packer,
				Category: dataset.ProcessCategory(m.Category),
				Browser:  dataset.Browser(m.Browser),
			}); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
		case "event":
			var e eventLine
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			if err := store.AddEvent(dataset.DownloadEvent{
				File: dataset.FileHash(e.File), Machine: dataset.MachineID(e.Machine),
				Process: dataset.FileHash(e.Process), URL: e.URL, Domain: e.Domain,
				Time: e.Time, Executed: e.Executed,
			}); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
		case "truth":
			var t truthLine
			if err := json.Unmarshal(raw, &t); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			if err := store.SetTruth(dataset.FileHash(t.Hash), dataset.GroundTruth{
				Label:  dataset.Label(t.Label),
				Type:   dataset.MalwareType(t.TypeID),
				Family: t.Family,
			}); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
		case "url":
			var u urlLine
			if err := json.Unmarshal(raw, &u); err != nil {
				return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			if u.Verdict != int(dataset.URLUnknown) {
				if err := store.SetURLVerdict(u.Domain, dataset.URLVerdict(u.Verdict)); err != nil {
					return nil, nil, fmt.Errorf("export: line %d: %w", lineNo, err)
				}
			}
			if u.Rank > 0 {
				ranks[u.Domain] = u.Rank
			}
		default:
			return nil, nil, fmt.Errorf("export: line %d: unknown record type %q", lineNo, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if !sawHeader {
		return nil, nil, fmt.Errorf("export: empty stream")
	}
	alexa, err := reputation.NewAlexaList(ranks)
	if err != nil {
		return nil, nil, err
	}
	return store, reputation.NewOracle(alexa, nil, nil, nil, nil, nil), nil
}
