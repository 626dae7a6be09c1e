package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/avsim"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/labeling"
	"repro/internal/retry"
	"repro/internal/synth"
)

// The chaos scenario: a small-scale dataset pushed through a link
// dropping 12% of sends, duplicating 6%, losing 5% of acks and
// reordering 8%, with a scan service that fails transiently at the same
// rate and permanently for a quarter of the out-of-corpus files, plus
// one CS crash/restore mid-stream after which the sender retransmits
// its unacked window — the last chaosRedeliverTail acknowledged
// envelopes.
const (
	chaosScale         = 0.003
	chaosErrorRate     = 0.12
	chaosDuplicateRate = 0.06
	chaosRedeliverTail = 8
)

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	// RawEvents is the size of the replayed pre-collection trace;
	// Collected is how many events survived the collection rules.
	RawEvents int
	Collected int
	// Link counts what the faulty network did; Transport what the CS
	// observed; Retransmissions what the sender's retry loop did.
	Link            faults.LinkStats
	Transport       agent.TransportStats
	Retransmissions int64
	// CheckpointBytes is the size of the mid-stream crash snapshot.
	CheckpointBytes int
	// Scan-side fault and degradation counters.
	Scan        faults.ScannerStats
	ScanRetries int64
	Degraded    int64
	// StoreBytesEqual reports whether the frozen, labeled chaos store
	// serializes to exactly the bytes of the fault-free baseline;
	// LabelDistEqual whether the per-label file counts match.
	StoreBytesEqual bool
	LabelDistEqual  bool
	BaselineLabels  map[dataset.Label]int
	ChaosLabels     map[dataset.Label]int
}

// labelDist counts files per ground-truth label.
func labelDist(store *dataset.Store) map[dataset.Label]int {
	out := make(map[dataset.Label]int)
	for _, h := range store.Files() {
		out[store.Label(h)]++
	}
	return out
}

func equalDist(a, b map[dataset.Label]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// RunChaos generates one dataset, runs it through the fault-free
// pipeline and through a fault-injected pipeline — unreliable transport
// with a mid-stream CS crash/restore, flaky scan service with graceful
// degradation — and compares the two labeled stores byte for byte. With
// a fixed seed the comparison must come out identical: that is the
// system's headline fault-tolerance guarantee.
func RunChaos(seed int64) (*ChaosReport, error) {
	sc := synth.DefaultConfig(seed, chaosScale)
	sc.KeepRawTrace = true
	// One schedule drives the link and the scan-service injectors (the
	// scanner uses Seed+1 so the two are independent).
	fc := faults.Config{
		Seed:                   seed,
		ErrorRate:              chaosErrorRate,
		MaxConsecutiveFailures: 3,
		TimeoutRate:            0.35,
		DuplicateRate:          chaosDuplicateRate,
		AckLossRate:            0.05,
		ReorderRate:            0.08,
		ReorderWindow:          6,
		PersistentRate:         0.25,
	}
	res, err := synth.Generate(sc)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos: generate: %w", err)
	}
	rep := &ChaosReport{RawEvents: len(res.RawTrace)}

	// Fault-free baseline: the store Generate already collected, labeled
	// through the pristine scan service.
	baseLab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := baseLab.LabelStore(res.Store, res.Samples); err != nil {
		return nil, fmt.Errorf("experiments: chaos: baseline label: %w", err)
	}

	// Chaos run: a fresh store with the same file metadata, fed the same
	// raw trace through the faulty link and the at-least-once transport.
	chaosStore := dataset.NewStore()
	for _, h := range res.Store.Files() {
		if err := chaosStore.PutFile(res.Store.File(h)); err != nil {
			return nil, err
		}
	}
	cur, err := agent.NewCollectionServer(chaosStore, sc.Sigma, res.Oracle.AgentURLWhitelist)
	if err != nil {
		return nil, err
	}
	linkInj, err := faults.NewInjector(fc)
	if err != nil {
		return nil, err
	}
	link, err := faults.NewLink(linkInj,
		func(env agent.Envelope) string { return fmt.Sprintf("env-%d", env.Seq) },
		func(env agent.Envelope) error { return cur.Deliver(env) })
	if err != nil {
		return nil, err
	}
	noSleep := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	policy := retry.Policy{
		// The injector bounds consecutive failures, and an ack loss can
		// stack one more error on top of a full drop streak.
		MaxAttempts: fc.MaxConsecutiveFailures + 2,
		Sleep:       noSleep,
		JitterSeed:  fc.Seed,
	}
	uplink, err := agent.NewUplink(link.Send, policy)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	crashAt := len(res.RawTrace) / 2
	for i, e := range res.RawTrace {
		if err := uplink.Send(ctx, agent.Envelope{Seq: uint64(i), Event: e}); err != nil {
			return nil, fmt.Errorf("experiments: chaos: send %d: %w", i, err)
		}
		if i == crashAt {
			// Simulated CS crash: drain the link, snapshot the server,
			// restore a fresh process over the same durable store, and
			// retransmit the sender's unacked tail (which the restored
			// server must deduplicate).
			if err := link.Flush(); err != nil {
				return nil, err
			}
			snap, err := cur.Checkpoint()
			if err != nil {
				return nil, err
			}
			rep.CheckpointBytes = len(snap)
			cur, err = agent.RestoreCollectionServer(chaosStore, res.Oracle.AgentURLWhitelist, snap)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos: restore: %w", err)
			}
			for j := i - chaosRedeliverTail; j <= i; j++ {
				if j < 0 {
					continue
				}
				if err := uplink.Send(ctx, agent.Envelope{Seq: uint64(j), Event: res.RawTrace[j]}); err != nil {
					return nil, fmt.Errorf("experiments: chaos: redeliver %d: %w", j, err)
				}
			}
		}
	}
	if err := link.Flush(); err != nil {
		return nil, err
	}
	rep.Link = link.Stats()
	rep.Transport = cur.TransportStats()
	rep.Retransmissions = uplink.Retransmissions()
	rep.Collected = chaosStore.NumEvents()

	// Chaos labeling: the scan service fails transiently for any file and
	// permanently only for files outside the scan corpus — whose ground
	// truth is unknown either way, so degradation to unknown is exercised
	// without being able to change any label.
	scanCfg := fc
	scanCfg.Seed++
	scanInj, err := faults.NewInjector(scanCfg)
	if err != nil {
		return nil, err
	}
	flaky, err := faults.NewFlakyScanner(
		labeling.ServiceScanner{Svc: avsim.NewDefaultService()}, scanInj,
		func(s *avsim.Sample) bool { return s == nil || !s.InCorpus })
	if err != nil {
		return nil, err
	}
	chaosLab, err := labeling.NewWithScanner(flaky, res.Oracle, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	chaosLab.SetRetryPolicy(policy)
	if err := chaosLab.LabelStore(chaosStore, res.Samples); err != nil {
		return nil, fmt.Errorf("experiments: chaos: label: %w", err)
	}
	rep.Scan = flaky.Stats()
	rep.ScanRetries = chaosLab.ScanRetries()
	rep.Degraded = chaosLab.Degraded()

	res.Store.Freeze()
	chaosStore.Freeze()
	var baseBuf, chaosBuf bytes.Buffer
	if err := export.WriteStore(&baseBuf, res.Store); err != nil {
		return nil, err
	}
	if err := export.WriteStore(&chaosBuf, chaosStore); err != nil {
		return nil, err
	}
	rep.StoreBytesEqual = bytes.Equal(baseBuf.Bytes(), chaosBuf.Bytes())
	rep.BaselineLabels = labelDist(res.Store)
	rep.ChaosLabels = labelDist(chaosStore)
	rep.LabelDistEqual = equalDist(rep.BaselineLabels, rep.ChaosLabels)
	return rep, nil
}
