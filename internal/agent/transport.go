package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/reputation"
	"repro/internal/retry"
)

// DefaultReorderWindow bounds how many events the collection server will
// buffer waiting for a missing predecessor before declaring the uplink
// broken. The real deployment's agents batch and retransmit over lossy
// networks; a bounded window keeps memory finite while tolerating any
// realistic reordering.
const DefaultReorderWindow = 4096

// Envelope is the unit of the agent->CS wire protocol: one download
// event plus the deterministic sequence number its source assigned. The
// sequence number is what makes redelivery detectable — the network may
// duplicate or reorder envelopes freely, and the CS still reconstructs
// the original exactly-once, in-order stream.
type Envelope struct {
	Seq   uint64                `json:"seq"`
	Event dataset.DownloadEvent `json:"event"`
}

// TransportStats counts what the at-least-once endpoint observed.
type TransportStats struct {
	// Delivered counts unique events committed to the pipeline.
	Delivered int
	// Duplicates counts redelivered envelopes that were discarded.
	Duplicates int
	// OutOfOrder counts envelopes that arrived before a predecessor.
	OutOfOrder int
	// MaxPending is the high-water mark of the resequencing buffer.
	MaxPending int
}

// Deliver is the at-least-once ingestion endpoint. Envelopes may arrive
// duplicated and reordered; Deliver deduplicates by sequence number,
// buffers out-of-order arrivals within the reorder window, and applies
// events to the collection rules in exact sequence order, making the
// whole path idempotent. The sigma prevalence cap depends on arrival
// order, so restoring sequence order is what keeps the stored dataset
// identical to a fault-free run.
func (cs *CollectionServer) Deliver(env Envelope) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if env.Seq < cs.nextSeq {
		cs.tstats.Duplicates++
		return nil
	}
	if _, dup := cs.pendingSeq[env.Seq]; dup {
		cs.tstats.Duplicates++
		return nil
	}
	if env.Seq != cs.nextSeq {
		cs.tstats.OutOfOrder++
	}
	cs.pendingSeq[env.Seq] = env.Event
	if n := len(cs.pendingSeq); n > cs.tstats.MaxPending {
		cs.tstats.MaxPending = n
	}
	if len(cs.pendingSeq) > cs.reorderWindow {
		return fmt.Errorf("agent: reorder window exceeded: %d events pending, next seq %d",
			len(cs.pendingSeq), cs.nextSeq)
	}
	for {
		e, ok := cs.pendingSeq[cs.nextSeq]
		if !ok {
			return nil
		}
		delete(cs.pendingSeq, cs.nextSeq)
		cs.nextSeq++
		if err := cs.reportLocked(e); err != nil {
			return err
		}
		cs.tstats.Delivered++
	}
}

// TransportStats returns the delivery counters.
func (cs *CollectionServer) TransportStats() TransportStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.tstats
}

// checkpoint is the JSON-serialized durable state of a collection
// server: everything needed to resume ingestion after a crash, given
// the (durable) event store.
type checkpoint struct {
	Sigma     int              `json:"sigma"`
	NextSeq   uint64           `json:"next_seq"`
	Pending   []Envelope       `json:"pending,omitempty"`
	Seen      []checkpointSeen `json:"seen"`
	Stats     Stats            `json:"stats"`
	Transport TransportStats   `json:"transport"`
	Window    int              `json:"reorder_window"`
}

// checkpointSeen is one file's distinct-machine set.
type checkpointSeen struct {
	File     dataset.FileHash    `json:"file"`
	Machines []dataset.MachineID `json:"machines"`
}

// Checkpoint serializes the server's ingestion state — the per-file
// distinct-machine sets behind the sigma cap, the pipeline counters, and
// the transport sequencing state. Together with the durable event store
// it is sufficient to restore the server after a crash; keys are sorted
// so identical states serialize identically.
func (cs *CollectionServer) Checkpoint() ([]byte, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ck := checkpoint{
		Sigma:     cs.sigma,
		NextSeq:   cs.nextSeq,
		Stats:     cs.stats,
		Transport: cs.tstats,
		Window:    cs.reorderWindow,
	}
	for seq, e := range cs.pendingSeq {
		ck.Pending = append(ck.Pending, Envelope{Seq: seq, Event: e})
	}
	sort.Slice(ck.Pending, func(i, j int) bool { return ck.Pending[i].Seq < ck.Pending[j].Seq })
	ck.Seen = make([]checkpointSeen, 0, len(cs.seen))
	for f, machines := range cs.seen {
		sorted := slices.Clone(machines)
		slices.Sort(sorted)
		ck.Seen = append(ck.Seen, checkpointSeen{File: f, Machines: sorted})
	}
	sort.Slice(ck.Seen, func(i, j int) bool { return ck.Seen[i].File < ck.Seen[j].File })
	return json.Marshal(ck)
}

// RestoreCollectionServer rebuilds a collection server from a Checkpoint
// snapshot, resuming ingestion against the given (durable) store exactly
// where the snapshot was taken. agentWL may be nil, matching
// NewCollectionServer.
func RestoreCollectionServer(store *dataset.Store, agentWL *reputation.DomainList, snapshot []byte) (*CollectionServer, error) {
	var ck checkpoint
	if err := json.Unmarshal(snapshot, &ck); err != nil {
		return nil, fmt.Errorf("agent: decode checkpoint: %w", err)
	}
	cs, err := NewCollectionServer(store, ck.Sigma, agentWL)
	if err != nil {
		return nil, err
	}
	cs.nextSeq = ck.NextSeq
	cs.stats = ck.Stats
	cs.tstats = ck.Transport
	if ck.Window > 0 {
		cs.reorderWindow = ck.Window
	}
	for _, env := range ck.Pending {
		cs.pendingSeq[env.Seq] = env.Event
	}
	for _, entry := range ck.Seen {
		cs.seen[entry.File] = entry.Machines
	}
	return cs, nil
}

// Uplink is the sending half of the at-least-once transport: it pushes
// envelopes through a possibly faulty delivery function, retrying
// transient failures under the given policy. Paired with the CS-side
// deduplication it yields exactly-once application of every event.
type Uplink struct {
	send        func(Envelope) error
	policy      retry.Policy
	retransmits int64
}

// NewUplink builds an uplink over send. The policy's OnRetry hook is
// preserved; the uplink's retransmission counter stacks on top of it.
func NewUplink(send func(Envelope) error, policy retry.Policy) (*Uplink, error) {
	if send == nil {
		return nil, fmt.Errorf("agent: nil send function")
	}
	return &Uplink{send: send, policy: policy}, nil
}

// Send transmits one envelope, retrying transient delivery failures
// until the policy gives up. Mark non-retryable delivery errors with
// retry.Permanent inside the send function.
func (u *Uplink) Send(ctx context.Context, env Envelope) error {
	p := u.policy
	base := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		u.retransmits++
		if base != nil {
			base(attempt, err)
		}
	}
	return retry.Do(ctx, p, func(context.Context) error { return u.send(env) })
}

// Retransmissions returns how many redundant transmissions the retry
// loop performed.
func (u *Uplink) Retransmissions() int64 { return u.retransmits }
