package avsim

import (
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Sample is the scan-service-side profile of a file: whether the
// crowdsourced corpus ever received it, when, and — for truly malicious
// samples — how hard it is to detect. The synthetic world generator
// constructs one Sample per file.
type Sample struct {
	Hash dataset.FileHash
	// InCorpus reports whether the file was ever submitted to the scan
	// service. The paper's "unknown" files are precisely those absent
	// from every ground-truth source: low-prevalence files that
	// crowdsourcing never surfaced.
	InCorpus bool
	// FirstScan and LastScan bound the corpus's scan history for the
	// sample. The labeling pipeline uses the spread between them for its
	// likely-benign rule (clean but rescan window < 14 days).
	FirstScan time.Time
	LastScan  time.Time
	// TrueMalicious marks actually-malicious content. Benign samples are
	// never flagged by any engine in this simulator; ground-truth noise
	// is modeled upstream (whitelist noise), not here.
	TrueMalicious bool
	// TrustedBlind marks malicious samples that only the minor engines
	// ever detect; the labeling pipeline will call these likely
	// malicious.
	TrustedBlind bool
	// Type and Family describe the malicious behaviour; Family may be
	// empty. FamilyVisible gates whether any engine can name the family
	// (AVclass derives no family for 58% of samples in the paper).
	Type          dataset.MalwareType
	Family        string
	FamilyVisible bool
	// Difficulty in [0,1] scales down engine coverage.
	Difficulty float64
}

// EngineResult is one engine's verdict within a report.
type EngineResult struct {
	Engine  string
	Trusted bool
	Leading bool
	// Label is the vendor detection label; empty means the engine
	// considered the sample clean at scan time.
	Label string
}

// Report is the result of scanning one sample at one point in time.
type Report struct {
	Sample    dataset.FileHash
	ScanTime  time.Time
	FirstScan time.Time
	LastScan  time.Time
	Results   []EngineResult
}

// Detections returns the results with a non-empty label.
func (r *Report) Detections() []EngineResult {
	var out []EngineResult
	for _, res := range r.Results {
		if res.Label != "" {
			out = append(out, res)
		}
	}
	return out
}

// TrustedDetections returns detections by trusted engines only.
func (r *Report) TrustedDetections() []EngineResult {
	var out []EngineResult
	for _, res := range r.Results {
		if res.Label != "" && res.Trusted {
			out = append(out, res)
		}
	}
	return out
}

// LeadingLabels returns engine→label for the five leading engines that
// detected the sample, the input AVType consumes.
func (r *Report) LeadingLabels() map[string]string {
	out := make(map[string]string)
	for _, res := range r.Results {
		if res.Label != "" && res.Leading {
			out[res.Engine] = res.Label
		}
	}
	return out
}

// AllLabels returns engine→label for every detection, the input AVclass
// consumes.
func (r *Report) AllLabels() map[string]string {
	out := make(map[string]string)
	for _, res := range r.Results {
		if res.Label != "" {
			out[res.Engine] = res.Label
		}
	}
	return out
}

// Service is the multi-engine scan service.
type Service struct {
	engines []*Engine
}

// NewService builds a service over the given engine roster.
func NewService(engines []*Engine) (*Service, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("avsim: service needs at least one engine")
	}
	seen := make(map[string]bool, len(engines))
	for _, e := range engines {
		if e == nil || e.Name == "" {
			return nil, fmt.Errorf("avsim: engine without a name")
		}
		if e.Grammar == nil {
			return nil, fmt.Errorf("avsim: engine %q has no label grammar", e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("avsim: duplicate engine %q", e.Name)
		}
		seen[e.Name] = true
	}
	return &Service{engines: engines}, nil
}

// NewDefaultService builds a service with the default 50-engine roster
// (10 trusted + 40 minor).
func NewDefaultService() *Service {
	s, err := NewService(DefaultEngines(40))
	if err != nil {
		// DefaultEngines is a static roster; failure is a programming
		// error, acceptable to surface at startup.
		panic(err)
	}
	return s
}

// NumEngines returns the roster size.
func (s *Service) NumEngines() int { return len(s.engines) }

// Scan queries all engines for the sample at time at. It returns nil when
// the corpus has no record of the sample (never submitted, or the query
// predates its first submission) — the real-world "file not found on VT".
func (s *Service) Scan(sample *Sample, at time.Time) *Report {
	if sample == nil || !sample.InCorpus || at.Before(sample.FirstScan) {
		return nil
	}
	lastScan := sample.LastScan
	if at.Before(lastScan) {
		lastScan = at
	}
	rep := &Report{
		Sample:    sample.Hash,
		ScanTime:  at,
		FirstScan: sample.FirstScan,
		LastScan:  lastScan,
		Results:   make([]EngineResult, 0, len(s.engines)),
	}
	for _, e := range s.engines {
		res := EngineResult{Engine: e.Name, Trusted: e.Trusted, Leading: e.Leading}
		if delay := e.detectionDelayDays(sample); !isNaN(delay) {
			detectAt := sample.FirstScan.Add(time.Duration(delay * 24 * float64(time.Hour)))
			if !at.Before(detectAt) {
				family := ""
				if sample.FamilyVisible && sample.Family != "" &&
					stableUnit(e.Name, sample.Hash, "family") < e.FamilyAwareness {
					family = sample.Family
				}
				typ := sample.Type
				// Engines sometimes disagree on the behaviour type:
				// a slice of detections degrade to a generic label.
				if stableUnit(e.Name, sample.Hash, "generic") < 0.22 {
					typ = dataset.TypeUndefined
				}
				res.Label = e.Grammar(typ, family, stableU64(e.Name, sample.Hash, "label"))
			}
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

func isNaN(f float64) bool { return f != f }
