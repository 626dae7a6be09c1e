package chaoskit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Audit is the exactly-once scoreboard Send and Storm fill, under the
// names the harness reports embed it by. Every counter must end a run
// at zero except StormRetransmits.
type Audit struct {
	// LostBatches got no answer, or not one verdict per event.
	LostBatches int
	// MismatchedVerdicts are first-response verdicts whose Key differs
	// from the offline reference; WrongGenVerdicts those not stamped with
	// Cluster.WantGeneration.
	MismatchedVerdicts int
	WrongGenVerdicts   int
	// StormDiverged counts retransmits answered with other bytes than the
	// batch's first response.
	StormDiverged int
	// StormRetransmits counts the already-answered batches Storm re-sent;
	// StormReclassified is the cluster-wide EventsIn delta across its
	// storms — zero means every retransmit was answered from a ledger.
	StormRetransmits  int
	StormReclassified uint64
}

// sendPolicy retries one batch at the client: a 5xx from a node whose
// link is faulted, or from a router whose candidates all failed, is
// retransmitted under the same ID.
var sendPolicy = retry.Policy{MaxAttempts: 6, InitialBackoff: 10 * time.Millisecond}

// Batches is the number of batches the replay cuts into.
func (c *Cluster) Batches() int { return (len(c.opts.Events) + c.opts.Batch - 1) / c.opts.Batch }

// Batch is the b-th batch of the replay.
func (c *Cluster) Batch(b int) []dataset.DownloadEvent {
	return c.opts.Events[b*c.opts.Batch : min((b+1)*c.opts.Batch, len(c.opts.Events))]
}

// ID is the stable request ID of batch b — identical across
// retransmits, failovers, handoffs and replica incarnations.
func (c *Cluster) ID(b int) string { return fmt.Sprintf("%s-%04d", c.opts.IDPrefix, b) }

// body marshals batch b exactly like serve.Client does, so the raw
// /classify payload is byte-stable across retransmits.
func (c *Cluster) body(b int) []byte {
	var body []byte
	for i, events := 0, c.Batch(b); i < len(events); i++ {
		line, err := export.AppendEventLine(body, &events[i])
		if err != nil {
			c.Failf("batch %d: %w", b, err)
		}
		body = append(line, '\n')
	}
	return body
}

// Send transmits batch b through the entry point and audits the answer.
// A first answer must hold one verdict per event, each equal to the
// offline reference under Expect and stamped WantGeneration; its bytes
// are kept. Any later answer must be those bytes again.
func (c *Cluster) Send(b int) {
	body := c.body(b)
	if c.err != nil {
		return
	}
	var data []byte
	err := retry.Do(c.ctx, sendPolicy, func(ctx context.Context) (err error) {
		data, _, err = c.Client.ClassifyRaw(ctx, c.ID(b), "", body, 0)
		return err
	})
	if err != nil {
		c.LostBatches++
		return
	}
	if c.first[b] != nil {
		if !bytes.Equal(data, c.first[b]) {
			c.StormDiverged++
		}
		return
	}
	events := c.Batch(b)
	verdicts := make([]serve.VerdictRecord, 0, len(events))
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var v serve.VerdictRecord
		if err := dec.Decode(&v); err != nil {
			break
		}
		verdicts = append(verdicts, v)
	}
	if len(verdicts) != len(events) {
		c.LostBatches++
		return
	}
	c.first[b] = data
	for i := range events {
		want, err := c.opts.Offline(c.Expect, &events[i])
		if err != nil {
			c.Failf("offline reference for batch %d: %w", b, err)
			return
		}
		if verdicts[i].Key() != want.Key() {
			c.MismatchedVerdicts++
		}
		if c.WantGeneration > 0 && verdicts[i].Generation != c.WantGeneration {
			c.WrongGenVerdicts++
		}
	}
}

// SendRange sends batches [lo, hi) in order.
func (c *Cluster) SendRange(lo, hi int) {
	for b := lo; b < hi; b++ {
		c.Send(b)
	}
}

// Storm retransmits batches [lo, hi) under their original IDs and holds
// the cluster to the exactly-once bar: whichever node answers — the one
// that served the batch, a restarted incarnation, an importer that took
// over its history — must return the first response's bytes, and no
// engine may classify anything. Behind a router one probe round runs
// first: transient faults may have left a breaker open, an open breaker
// skips a sticky candidate, and the batch would be rerouted to a replica
// that classifies it fresh; a successful probe resets every breaker, so
// the accounting does not depend on how much wall clock the scenario
// has used.
func (c *Cluster) Storm(lo, hi int) {
	if c.Router != nil {
		c.Probe(1)
	}
	base := c.EventsIn()
	for b := lo; b < hi; b++ {
		if c.first[b] != nil {
			c.StormRetransmits++
		}
		c.Send(b)
	}
	c.StormReclassified += c.EventsIn() - base
}

// EventsIn sums the events the running replicas' engines have
// classified — the "work actually done" counter Storm brackets.
func (c *Cluster) EventsIn() uint64 {
	var total uint64
	for _, n := range c.Nodes {
		if !n.stopped {
			total += n.Engine.Metrics().EventsIn.Load()
		}
	}
	return total
}
