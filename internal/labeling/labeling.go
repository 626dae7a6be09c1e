// Package labeling implements the paper's ground-truth construction
// (Section II-B). For every software file it combines the file
// whitelists, a scan of the AV service close to the download time, and a
// rescan almost two years later, and assigns one of five labels:
//
//   - benign: whitelisted, or still clean on every engine at the rescan
//     with a scan history spanning at least 14 days;
//   - likely benign: clean, but first and last scans lie within 14 days;
//   - malicious: detected by at least one of the ten trusted engines;
//   - likely malicious: detected only by the less reliable engines;
//   - unknown: no ground truth exists at all (not whitelisted and never
//     seen by the scan service).
//
// For malicious files it additionally derives the behaviour type (via
// the AVType reimplementation) and the family (via the AVclass
// reimplementation).
package labeling

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/avclass"
	"repro/internal/avsim"
	"repro/internal/avtype"
	"repro/internal/dataset"
	"repro/internal/reputation"
	"repro/internal/retry"
)

// DefaultRescanDelay is how long after the download the second scan
// happens; the paper waited almost two years.
const DefaultRescanDelay = 2 * 365 * 24 * time.Hour

// MinBenignScanSpread is the minimum first-to-last scan spread for a
// clean file to be labeled benign rather than likely benign.
const MinBenignScanSpread = 14 * 24 * time.Hour

// Scanner is the labeler's view of the multi-engine scan service. The
// paper queried a remote crowdsourced service (VirusTotal) that fails,
// times out and rate-limits in practice, so the dependency carries an
// error return: a nil report with a nil error means the corpus has no
// record of the sample ("file not found"), while a non-nil error means
// the query itself failed and may be retried.
type Scanner interface {
	Scan(hash dataset.FileHash, sample *avsim.Sample, at time.Time) (*avsim.Report, error)
}

// ServiceScanner adapts the in-process *avsim.Service — which cannot
// fail — to the Scanner interface.
type ServiceScanner struct {
	Svc *avsim.Service
}

// Scan implements Scanner over the wrapped service.
func (s ServiceScanner) Scan(_ dataset.FileHash, sample *avsim.Sample, at time.Time) (*avsim.Report, error) {
	return s.Svc.Scan(sample, at), nil
}

// Labeler assigns ground truth to files, processes and URLs.
type Labeler struct {
	scanner     Scanner
	oracle      *reputation.Oracle
	families    *avclass.Labeler
	types       *avtype.Extractor
	rescanDelay time.Duration

	// retryPolicy governs scan retries; the zero value selects the
	// retry package defaults (5 attempts, exponential backoff with full
	// jitter). Set it before labeling starts via SetRetryPolicy.
	retryPolicy retry.Policy

	// scanRetries counts scan attempts that failed and were retried;
	// degraded counts files whose scans exhausted the retry budget and
	// fell back to the unknown label.
	scanRetries atomic.Int64
	degraded    atomic.Int64

	// statsMu guards TypeStats, making LabelFile safe to call from
	// multiple goroutines.
	statsMu sync.Mutex

	// TypeStats accumulates which AVType rule resolved each malicious
	// file's behaviour type (Section II-C shares). Writes are guarded by
	// statsMu; read it only after labeling completes.
	TypeStats avtype.Stats
}

// New builds a Labeler over an in-process scan service. svc and oracle
// are required; familyLabeler and typeExtractor default to fresh
// instances when nil.
func New(svc *avsim.Service, oracle *reputation.Oracle, familyLabeler *avclass.Labeler, typeExtractor *avtype.Extractor, rescanDelay time.Duration) (*Labeler, error) {
	if svc == nil {
		return nil, fmt.Errorf("labeling: nil scan service")
	}
	return NewWithScanner(ServiceScanner{Svc: svc}, oracle, familyLabeler, typeExtractor, rescanDelay)
}

// NewWithScanner builds a Labeler over an arbitrary Scanner — the
// injection point for fault-tolerance decorators such as
// faults.FlakyScanner. scanner and oracle are required; familyLabeler
// and typeExtractor default to fresh instances when nil.
func NewWithScanner(scanner Scanner, oracle *reputation.Oracle, familyLabeler *avclass.Labeler, typeExtractor *avtype.Extractor, rescanDelay time.Duration) (*Labeler, error) {
	if scanner == nil {
		return nil, fmt.Errorf("labeling: nil scanner")
	}
	if oracle == nil {
		return nil, fmt.Errorf("labeling: nil reputation oracle")
	}
	if familyLabeler == nil {
		familyLabeler = avclass.NewLabeler()
	}
	if typeExtractor == nil {
		typeExtractor = avtype.NewExtractor(nil)
	}
	if rescanDelay <= 0 {
		rescanDelay = DefaultRescanDelay
	}
	return &Labeler{
		scanner:     scanner,
		oracle:      oracle,
		families:    familyLabeler,
		types:       typeExtractor,
		rescanDelay: rescanDelay,
	}, nil
}

// SetRetryPolicy replaces the scan retry policy. Call it before
// labeling starts; it is not safe to call concurrently with labeling.
func (l *Labeler) SetRetryPolicy(p retry.Policy) { l.retryPolicy = p }

// Degraded returns how many files fell back to the unknown label
// because their scans kept failing after all retries. The paper's
// "unknown" label means no ground truth exists — which is exactly the
// information available for a file whose scan service never answered.
func (l *Labeler) Degraded() int64 { return l.degraded.Load() }

// ScanRetries returns how many failed scan attempts were retried.
func (l *Labeler) ScanRetries() int64 { return l.scanRetries.Load() }

// scan queries the scanner under the retry policy. A non-nil error
// means the budget is exhausted and the caller must degrade.
func (l *Labeler) scan(hash dataset.FileHash, sample *avsim.Sample, at time.Time) (*avsim.Report, error) {
	p := l.retryPolicy
	base := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		l.scanRetries.Add(1)
		if base != nil {
			base(attempt, err)
		}
	}
	var rep *avsim.Report
	err := retry.Do(context.Background(), p, func(context.Context) error {
		r, err := l.scanner.Scan(hash, sample, at)
		if err != nil {
			return err
		}
		rep = r
		return nil
	})
	return rep, err
}

// LabelFile assigns ground truth to one file. sample is the scan-service
// profile of the file (nil when the service has never seen it) and
// downloadTime is when the file was first observed in the telemetry.
func (l *Labeler) LabelFile(hash dataset.FileHash, sample *avsim.Sample, downloadTime time.Time) dataset.GroundTruth {
	gt, res := l.labelFile(hash, sample, downloadTime)
	if res != avtype.ResolvedNone {
		l.statsMu.Lock()
		l.TypeStats.Observe(res)
		l.statsMu.Unlock()
	}
	return gt
}

// labelFile is the side-effect-free core of LabelFile; it reports the
// AVType resolution used (ResolvedNone when no type was derived) so
// callers can accumulate statistics themselves — which is what makes the
// parallel LabelStore safe.
func (l *Labeler) labelFile(hash dataset.FileHash, sample *avsim.Sample, downloadTime time.Time) (dataset.GroundTruth, avtype.Resolution) {
	if l.oracle.FileWhitelist.Contains(hash) {
		return dataset.GroundTruth{Label: dataset.LabelBenign}, avtype.ResolvedNone
	}
	// First scan close to the download happens in the real pipeline too;
	// the final labels come from the rescan, which subsumes it.
	rescan, err := l.scan(hash, sample, downloadTime.Add(l.rescanDelay))
	if err != nil {
		// Graceful degradation: the scan service never answered for this
		// file despite retries. No ground truth can be derived, which is
		// precisely what the unknown label means; record the fallback so
		// operators can see how much of the dataset it affected.
		l.degraded.Add(1)
		return dataset.GroundTruth{Label: dataset.LabelUnknown}, avtype.ResolvedNone
	}
	if rescan == nil {
		return dataset.GroundTruth{Label: dataset.LabelUnknown}, avtype.ResolvedNone
	}
	detections := rescan.Detections()
	if len(detections) == 0 {
		if rescan.LastScan.Sub(rescan.FirstScan) < MinBenignScanSpread {
			return dataset.GroundTruth{Label: dataset.LabelLikelyBenign}, avtype.ResolvedNone
		}
		return dataset.GroundTruth{Label: dataset.LabelBenign}, avtype.ResolvedNone
	}
	if len(rescan.TrustedDetections()) == 0 {
		return dataset.GroundTruth{Label: dataset.LabelLikelyMalicious}, avtype.ResolvedNone
	}
	typ, res := l.types.Extract(rescan.LeadingLabels())
	fam := l.families.Label(rescan.AllLabels())
	return dataset.GroundTruth{
		Label:  dataset.LabelMalicious,
		Type:   typ,
		Family: fam.Family,
	}, res
}

// LabelDomain assigns a URL verdict to an e2LD using the reputation
// oracle.
func (l *Labeler) LabelDomain(domain string) dataset.URLVerdict {
	return l.oracle.LabelDomain(domain)
}

// Samples maps file hashes to their scan-service profiles.
type Samples map[dataset.FileHash]*avsim.Sample

// LabelStore labels every downloaded file and downloading process in the
// store, plus every download domain, and writes the results back into
// the store. The store must not be frozen yet.
func (l *Labeler) LabelStore(store *dataset.Store, samples Samples) error {
	if store == nil {
		return fmt.Errorf("labeling: nil store")
	}
	if _, err := l.LabelFiles(store, samples, store.Events()); err != nil {
		return err
	}
	domains := make(map[string]struct{})
	for _, e := range store.Events() {
		if e.Domain != "" {
			domains[e.Domain] = struct{}{}
		}
	}
	for d := range domains {
		if v := l.LabelDomain(d); v != dataset.URLUnknown {
			if err := store.SetURLVerdict(d, v); err != nil {
				return fmt.Errorf("labeling: set verdict for %s: %w", d, err)
			}
		}
	}
	return nil
}

// LabelFiles labels the files and downloading processes events name,
// each as of the earliest of those events it appears in, writes the
// labels into the store and returns how many files it labeled. The
// store must not be frozen yet. A file's label is the one LabelStore
// gives it whenever events hold the file's first appearance in the
// store: a consumer that reads only some files' labels (a rule set
// trained on one month reads that month's) labels only those.
//
// Labeling fans out across all CPUs: each file's label depends only on
// its own scan profile, so the work is embarrassingly parallel and the
// result is identical to the sequential order.
func (l *Labeler) LabelFiles(store *dataset.Store, samples Samples, events []dataset.DownloadEvent) (int, error) {
	if store == nil {
		return 0, fmt.Errorf("labeling: nil store")
	}
	firstSeen := make(map[dataset.FileHash]time.Time)
	for i := range events {
		e := &events[i]
		for _, h := range [2]dataset.FileHash{e.File, e.Process} {
			if t, ok := firstSeen[h]; !ok || e.Time.Before(t) {
				firstSeen[h] = e.Time
			}
		}
	}

	type job struct {
		hash dataset.FileHash
		at   time.Time
	}
	type outcome struct {
		hash dataset.FileHash
		gt   dataset.GroundTruth
		res  avtype.Resolution
	}
	jobs := make([]job, 0, len(firstSeen))
	for h, t := range firstSeen {
		jobs = append(jobs, job{hash: h, at: t})
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	outcomes := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				gt, res := l.labelFile(j.hash, samples[j.hash], j.at)
				outcomes[i] = outcome{hash: j.hash, gt: gt, res: res}
			}
		}()
	}
	wg.Wait()
	for _, o := range outcomes {
		if o.res != avtype.ResolvedNone {
			l.statsMu.Lock()
			l.TypeStats.Observe(o.res)
			l.statsMu.Unlock()
		}
		if err := store.SetTruth(o.hash, o.gt); err != nil {
			return 0, fmt.Errorf("labeling: set truth for %s: %w", o.hash, err)
		}
	}
	return len(outcomes), nil
}
