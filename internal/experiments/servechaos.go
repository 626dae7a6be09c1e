package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ChaosServeConfig parameterizes the serving-layer chaos harness: a
// journaled longtaild-equivalent killed -9 mid-replay behind a faulty
// transport, then restarted and required to account for every batch
// exactly once.
type ChaosServeConfig struct {
	// Synth generates the dataset both daemon incarnations serve.
	Synth synth.Config
	// Faults drives the transport fault schedule and the journal's
	// torn-write behavior at the crash.
	Faults faults.Config
	// JournalDir is the write-ahead journal directory shared by both
	// daemon incarnations (the crash handoff).
	JournalDir string
	// JournalShards stripes the first daemon's journal over this many
	// WAL shards (>1 exercises the merge-by-sequence recovery with torn
	// tails on multiple shards; the restart reopens with a different
	// count to prove dedup survives a -journal-shards change).
	JournalShards int
	// Batch is events per /classify request.
	Batch int
	// CrashWindow is how many batches arrive in the kill window: accepted
	// and journaled durably, but killed before their verdicts are served.
	CrashWindow int
	// CompactBytes forces journal compaction during phase 1 so recovery
	// exercises the snapshot path too (0 = ledger default).
	CompactBytes int64
	// Tau is the rule-selection threshold.
	Tau float64
}

// DefaultChaosServeConfig returns the standard scenario: ~35% of
// classify requests hit an injected transport fault (request dropped or
// response lost after server-side processing), four batches are caught
// in the kill window, and the journal tears at the crash.
func DefaultChaosServeConfig(seed int64, dir string) ChaosServeConfig {
	return ChaosServeConfig{
		Synth: synth.DefaultConfig(seed, 0.004),
		Faults: faults.Config{
			Seed:                   seed,
			ErrorRate:              0.35,
			MaxConsecutiveFailures: 2,
			AckLossRate:            0.5, // half the faults lose the response, not the request
			TornWriteRate:          1,
		},
		JournalDir:    dir,
		JournalShards: 3,
		Batch:         32,
		CrashWindow:   4,
		CompactBytes:  1 << 14,
		Tau:           0.001,
	}
}

// ChaosServeReport is the outcome of one serving-layer chaos run.
type ChaosServeReport struct {
	// Batches/Events is the replayed workload size.
	Batches int
	Events  int
	// Phase1Batches completed normally before the kill; CrashPending
	// were journaled in the kill window and never answered.
	Phase1Batches int
	CrashPending  int
	// Transport fault accounting: requests that hit >= 1 injected fault,
	// out of all /classify requests, plus the split of fault kinds.
	FaultedRequests int
	TotalRequests   int
	RequestsDropped int64
	ResponsesLost   int64
	// Phase1Dedup counts retransmits the first daemon answered from its
	// ledger (response-loss faults resolved without reclassification).
	Phase1Dedup uint64
	// What the second daemon recovered from the journal.
	RecoveredResults int
	RecoveredPending int
	TornTailBytes    int64
	Compactions      uint64
	Replayed         int
	// JournalShards is the stripe width of the first daemon's journal;
	// TornShards counts the distinct shards left with torn tails at the
	// kill (>= 2 when striped — the merge must discard independent
	// tears).
	JournalShards int
	TornShards    int
	// Exactly-once accounting after restart: every batch retransmitted,
	// all answered from the ledger (Phase2Dedup), only the recovered
	// pending events reclassified (ReclassifiedEvents).
	Phase2Dedup        uint64
	ReclassifiedEvents uint64
	// Divergence counters — both must be zero.
	LostBatches        int
	MismatchedVerdicts int
}

// flakyTransport injects deterministic faults into /classify requests:
// a faulted attempt either drops the request before delivery or
// delivers it and loses the response — the second kind is what forces
// the retransmit-dedup machinery to prove itself, because the server
// HAS classified and journaled the batch.
type flakyTransport struct {
	inj  *faults.Injector
	base http.RoundTripper

	mu       sync.Mutex
	attempts map[string]int
	faulted  map[string]bool

	dropped atomic.Int64
	lost    atomic.Int64
}

func newFlakyTransport(inj *faults.Injector, base http.RoundTripper) *flakyTransport {
	return &flakyTransport{
		inj: inj, base: base,
		attempts: make(map[string]int),
		faulted:  make(map[string]bool),
	}
}

func (t *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.Header.Get(serve.RequestIDHeader)
	if req.URL.Path != "/classify" || id == "" {
		return t.base.RoundTrip(req)
	}
	t.mu.Lock()
	attempt := t.attempts[id]
	t.attempts[id]++
	t.mu.Unlock()
	if attempt < t.inj.FailuresBefore(id) {
		t.mu.Lock()
		t.faulted[id] = true
		t.mu.Unlock()
		if t.inj.AckLost(fmt.Sprintf("%s|a%d", id, attempt)) {
			// Deliver the request, then lose the response: the server
			// classified and journaled, but the client never hears.
			resp, err := t.base.RoundTrip(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			t.lost.Add(1)
			return nil, fmt.Errorf("faults: injected response loss for %s", id)
		}
		t.dropped.Add(1)
		return nil, fmt.Errorf("faults: injected request drop for %s", id)
	}
	return t.base.RoundTrip(req)
}

func (t *flakyTransport) counts() (requests, faulted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.attempts), len(t.faulted)
}

// chaosServeID is the stable request ID of batch b — identical across
// retransmits, client restarts and daemon incarnations.
func chaosServeID(b int) string { return fmt.Sprintf("cs-%04d", b) }

// tornAppend writes a complete frame header (length and CRC of the
// full payload) followed by only the first half of the payload to the
// newest segment of journal shard si — exactly the on-disk state a
// kill -9 leaves when it lands mid-write.
func tornAppend(dir string, si int, full []byte) error {
	segDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", si))
	entries, err := os.ReadDir(segDir)
	if err != nil {
		return err
	}
	var newest string
	var newestIdx uint64
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); n == 1 && idx >= newestIdx {
			newest, newestIdx = e.Name(), idx
		}
	}
	if newest == "" {
		return fmt.Errorf("experiments: chaos-serve: no journal segment to tear in %s", segDir)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(full)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(full, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(filepath.Join(segDir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	_, err = f.Write(full[:len(full)/2])
	return err
}

// appendTornResult appends a half-flushed result record for id to the
// journal, into the shard directory owning id. It bypasses the ledger
// API on purpose: any durable path (fsync or compaction snapshot) would
// defeat the tear. It returns the shard index torn.
func appendTornResult(dir string, shards int, id string, verdicts []serve.VerdictRecord) (int, error) {
	var payload bytes.Buffer
	payload.WriteByte(2) // journal record kind: ledger result
	// The sequence prefix every segment record carries. The frame is
	// torn, so recovery never parses it — any value past the
	// already-recovered range is realistic.
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], 1<<62)
	payload.Write(seq[:])
	payload.WriteString(id)
	payload.WriteByte('\n')
	for i := range verdicts {
		line, err := json.Marshal(&verdicts[i])
		if err != nil {
			return 0, err
		}
		payload.Write(line)
		payload.WriteByte('\n')
	}
	si := journal.ShardIndex(id, shards)
	return si, tornAppend(dir, si, payload.Bytes())
}

// tearAnotherShard lands a second torn fragment on a shard other than
// avoid, so the crash leaves torn tails on >= 2 shards and recovery
// must discard independent tears while merging. Returns the shard
// torn, or -1 when the journal has no second shard to tear.
func tearAnotherShard(dir string, shards, avoid int) (int, error) {
	for si := 0; si < shards; si++ {
		if si == avoid {
			continue
		}
		frag := append([]byte{2}, make([]byte, 8)...) // kind + sequence prefix
		frag = append(frag, []byte("mid-write result record lost to the kill")...)
		if err := tornAppend(dir, si, frag); err != nil {
			return -1, err
		}
		return si, nil
	}
	return -1, nil
}

// RunChaosServe replays a month of events against a journaled serving
// daemon through a faulty transport, kills the daemon -9 with accepted
// batches unanswered (torn journal tail included), restarts it, and
// verifies the exactly-once contract: after recovery every batch is
// accounted for exactly once and every verdict is byte-identical to
// offline classification.
func RunChaosServe(cfg ChaosServeConfig) (*ChaosServeReport, error) {
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("experiments: chaos-serve: empty journal dir")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: %w", err)
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}

	// The deterministic world both daemon incarnations and the offline
	// reference share.
	p, err := Run(cfg.Synth)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: pipeline: %w", err)
	}
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return nil, err
	}
	months := p.Store.Months()
	if len(months) < 2 {
		return nil, fmt.Errorf("experiments: chaos-serve: need >= 2 months")
	}
	train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
	if err != nil {
		return nil, err
	}
	clf, err := classify.Train(train, cfg.Tau, classify.Reject)
	if err != nil {
		return nil, err
	}
	all := p.Store.Events()
	var replay []dataset.DownloadEvent
	for _, idx := range p.Store.EventIndexesInMonth(months[1]) {
		replay = append(replay, all[idx])
	}
	nBatches := (len(replay) + cfg.Batch - 1) / cfg.Batch
	if nBatches <= cfg.CrashWindow+1 {
		return nil, fmt.Errorf("experiments: chaos-serve: %d batches too few for a crash window of %d", nBatches, cfg.CrashWindow)
	}
	batchOf := func(b int) []dataset.DownloadEvent {
		lo, hi := b*cfg.Batch, (b+1)*cfg.Batch
		if hi > len(replay) {
			hi = len(replay)
		}
		return replay[lo:hi]
	}
	offline := func(ev *dataset.DownloadEvent) (string, error) {
		vec, err := ex.Vector(ev)
		if err != nil {
			return "", err
		}
		v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
		return fmt.Sprintf("%s %s %v", ev.File, v, matched), nil
	}

	rep := &ChaosServeReport{Batches: nBatches, Events: len(replay)}
	ctx := context.Background()

	// ---- Phase 1: the first daemon incarnation, journaling to a
	// crashable filesystem, serving through the faulty transport.
	fs, err := faults.NewCrashFS(inj)
	if err != nil {
		return nil, err
	}
	engineA, err := serve.NewEngine(ex, clf, serve.EngineConfig{}, &serve.Metrics{})
	if err != nil {
		return nil, err
	}
	ledgerA, _, err := serve.OpenLedger(serve.LedgerOptions{
		Journal: journal.Options{
			Dir:      cfg.JournalDir,
			OpenFile: func(path string) (journal.File, error) { return fs.Open(path) },
		},
		Shards:       cfg.JournalShards,
		CompactBytes: cfg.CompactBytes,
	})
	if err != nil {
		return nil, err
	}
	srvA, err := serve.NewServer(engineA, classify.Reject, serve.WithLedger(ledgerA))
	if err != nil {
		return nil, err
	}
	tsA := httptest.NewServer(srvA.Handler())
	flaky := newFlakyTransport(inj, http.DefaultTransport)
	clientA := &serve.Client{
		BaseURL: tsA.URL,
		//lint:allow retrypolicy the chaos harness wires the fault-injecting transport directly; serve.Client supplies the retry layer above it
		HTTPClient: &http.Client{Transport: flaky},
	}

	phase1 := nBatches - cfg.CrashWindow
	for b := 0; b < phase1; b++ {
		verdicts, err := clientA.ClassifyWithID(ctx, chaosServeID(b), batchOf(b))
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos-serve: phase 1 batch %d: %w", b, err)
		}
		if len(verdicts) != len(batchOf(b)) {
			return nil, fmt.Errorf("experiments: chaos-serve: phase 1 batch %d: %d/%d verdicts", b, len(verdicts), len(batchOf(b)))
		}
	}
	rep.Phase1Batches = phase1
	rep.Phase1Dedup = engineA.Metrics().DedupHits.Load()

	// ---- The kill window: the engine stops mid-work (queued jobs will
	// never finish) while the listener is still up. Late batches are
	// durably journaled by the accept path but the client only ever sees
	// errors — accepted, never answered.
	engineA.Close()
	killClient := &serve.Client{BaseURL: tsA.URL, Retry: clientA.Retry}
	killClient.Retry.MaxAttempts = 1
	for b := phase1; b < nBatches; b++ {
		if _, err := killClient.ClassifyWithID(ctx, chaosServeID(b), batchOf(b)); err == nil {
			return nil, fmt.Errorf("experiments: chaos-serve: batch %d answered by a dead engine", b)
		}
	}
	// kill -9: unsynced bytes vanish (modulo a torn fragment); no Close
	// runs on ledger, server or HTTP listener state.
	if err := fs.Crash(); err != nil {
		return nil, err
	}
	// One kill-window batch had finished classifying and its result
	// record was mid-flush when the process died: a valid frame header
	// followed by half the payload landed on disk. Recovery must discard
	// the torn frame and fall back to replaying the batch.
	tornBatch := phase1
	tornVerdicts := make([]serve.VerdictRecord, 0, cfg.Batch)
	for i := range batchOf(tornBatch) {
		ev := &batchOf(tornBatch)[i]
		vec, verr := ex.Vector(ev)
		if verr != nil {
			return nil, verr
		}
		v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
		tornVerdicts = append(tornVerdicts, serve.VerdictRecord{
			Type: "verdict", File: string(ev.File), Verdict: v.String(), Generation: 1, Rules: matched,
		})
	}
	tornShard, err := appendTornResult(cfg.JournalDir, cfg.JournalShards, chaosServeID(tornBatch), tornVerdicts)
	if err != nil {
		return nil, err
	}
	rep.JournalShards = cfg.JournalShards
	rep.TornShards = 1
	// A second shard tears too: the kill caught independent sync loops
	// mid-flush, and the merge must discard both tails.
	other, err := tearAnotherShard(cfg.JournalDir, cfg.JournalShards, tornShard)
	if err != nil {
		return nil, err
	}
	if other >= 0 {
		rep.TornShards++
	}
	tsA.Close()
	srvA.Close()
	rep.TotalRequests, rep.FaultedRequests = flaky.counts()
	rep.RequestsDropped = flaky.dropped.Load()
	rep.ResponsesLost = flaky.lost.Load()
	rep.Compactions = ledgerA.Stats().Compactions

	// ---- Phase 2: restart. Recover the journal, replay the pending
	// batches through a fresh engine, then let the client retransmit
	// everything under the original IDs.
	engineB, err := serve.NewEngine(ex, clf, serve.EngineConfig{}, &serve.Metrics{})
	if err != nil {
		return nil, err
	}
	defer engineB.Close()
	// The restart asks for a narrower stripe on purpose: the on-disk
	// shard directories win (shard counts only grow), and dedup must be
	// indifferent to what -journal-shards says across a restart.
	phase2Shards := cfg.JournalShards
	if phase2Shards > 1 {
		phase2Shards--
	}
	ledgerB, rec, err := serve.OpenLedger(serve.LedgerOptions{
		Journal:      journal.Options{Dir: cfg.JournalDir},
		Shards:       phase2Shards,
		CompactBytes: cfg.CompactBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: recovery: %w", err)
	}
	defer ledgerB.Close()
	rep.RecoveredResults = rec.Results
	rep.RecoveredPending = len(rec.Pending)
	rep.TornTailBytes = rec.TornTail
	// ReclassifiedEvents counts everything the restarted engine actually
	// classified: the recovery replay plus anything the retransmit storm
	// fails to answer from the ledger (which must be nothing).
	eventsInBefore := engineB.Metrics().EventsIn.Load()
	replayed, err := serve.RecoverLedger(engineB, ledgerB, rec)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: replay: %w", err)
	}
	rep.Replayed = replayed
	rep.CrashPending = replayed

	srvB, err := serve.NewServer(engineB, classify.Reject, serve.WithLedger(ledgerB))
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	clientB := &serve.Client{
		BaseURL: tsB.URL,
		//lint:allow retrypolicy the chaos harness wires the fault-injecting transport directly; serve.Client supplies the retry layer above it
		HTTPClient: &http.Client{Transport: newFlakyTransport(inj, http.DefaultTransport)},
	}

	// Retransmit every batch — the client never heard a verdict for the
	// kill-window ones, and re-asks for the rest as a lost-state client
	// would. Exactly-once means: all answered, none reclassified.
	for b := 0; b < nBatches; b++ {
		events := batchOf(b)
		verdicts, err := clientB.ClassifyWithID(ctx, chaosServeID(b), events)
		if err != nil {
			rep.LostBatches++
			continue
		}
		if len(verdicts) != len(events) {
			rep.LostBatches++
			continue
		}
		for i := range events {
			want, err := offline(&events[i])
			if err != nil {
				return nil, err
			}
			if verdicts[i].Key() != want {
				rep.MismatchedVerdicts++
			}
		}
	}
	rep.Phase2Dedup = engineB.Metrics().DedupHits.Load()
	rep.ReclassifiedEvents = engineB.Metrics().EventsIn.Load() - eventsInBefore
	return rep, nil
}

// ChaosServe is the registry adapter: run the default scenario in a
// temporary journal directory and render the report.
func ChaosServe(p *Pipeline, w io.Writer) error {
	dir, err := os.MkdirTemp("", "chaos-serve-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := RunChaosServe(DefaultChaosServeConfig(p.Config.Seed, dir))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Chaos-serve run: kill -9 + journal recovery under transport faults\n\n")
	fmt.Fprintf(w, "workload                  %6d batches, %d events\n", rep.Batches, rep.Events)
	fmt.Fprintf(w, "completed before kill     %6d batches\n", rep.Phase1Batches)
	fmt.Fprintf(w, "caught in kill window     %6d batches (accepted, never answered)\n", rep.CrashPending)
	fmt.Fprintf(w, "transport faults          %6d/%d classify requests (%d dropped, %d responses lost)\n",
		rep.FaultedRequests, rep.TotalRequests, rep.RequestsDropped, rep.ResponsesLost)
	fmt.Fprintf(w, "phase-1 ledger dedups     %6d\n", rep.Phase1Dedup)
	fmt.Fprintf(w, "recovery: results         %6d batches\n", rep.RecoveredResults)
	fmt.Fprintf(w, "recovery: pending         %6d batches replayed through the engine\n", rep.Replayed)
	fmt.Fprintf(w, "recovery: torn tail       %6d bytes discarded (torn tails on %d of %d journal shards)\n",
		rep.TornTailBytes, rep.TornShards, rep.JournalShards)
	fmt.Fprintf(w, "journal compactions       %6d\n", rep.Compactions)
	fmt.Fprintf(w, "\nretransmit of all %d batches after restart:\n", rep.Batches)
	fmt.Fprintf(w, "  answered from ledger    %6d\n", rep.Phase2Dedup)
	fmt.Fprintf(w, "  events reclassified     %6d (recovery replay only)\n", rep.ReclassifiedEvents)
	fmt.Fprintf(w, "  lost batches            %6d\n", rep.LostBatches)
	fmt.Fprintf(w, "  mismatched verdicts     %6d\n", rep.MismatchedVerdicts)
	if rep.LostBatches > 0 || rep.MismatchedVerdicts > 0 {
		return fmt.Errorf("experiments: chaos-serve: %d lost batches, %d mismatched verdicts", rep.LostBatches, rep.MismatchedVerdicts)
	}
	return nil
}
