package cluster

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/retry"
	"repro/internal/serve"
)

// Handoff orchestration: moving ledger history to the replicas that the
// ring says now own it, so membership churn never turns a retransmit
// into a re-classification. There is one procedure, handoff — pull a
// source's export, split it by current ring owner, re-pin what stays,
// push the rest — and three occasions for it:
//
//   - planned leave: Leave drains the leaver's ledger to the new ring
//     owners before the node is forgotten;
//   - crash return: a node ejected with undrained state is flagged
//     needsReconcile, and its first probation readmit triggers
//     reconcileNode — recovery replay on the node's side already
//     rebuilt its ledger from the journal, this side ships the ranges
//     it no longer owns to their current owners;
//   - join: Rebalance runs it on every incumbent, shipping only the
//     history for key ranges the grown ring assigns to the joiner.
//
// The record format is the nodes' business: serve.SplitExport reads the
// stream and cuts the chunks, this file only says where IDs belong.
//
// Authority rule, same on all three: the SOURCE stays authoritative for
// an ID until an importer's durable ack (the importer fsyncs before
// answering), after which both hold byte-identical records, so there is
// never a moment where nobody can answer and never a moment where two
// owners would answer differently. A push that exhausts its retries
// leaves the range pinned to the source — visible as a non-zero
// longtail_handoff_pending gauge — rather than splitting authority.

// pushChunk ships one chunk to target with backoff and breaker gating:
// a breaker-open target fails the attempt without a network call, and
// the outcome feeds the breaker exactly like a forward attempt's.
// nil error means the target journaled and fsynced the chunk — the
// durable ack that releases the source's authority for those IDs.
func (rt *Router) pushChunk(ctx context.Context, target *node, chunk []byte) error {
	return retry.Do(ctx, rt.opts.Retry, func(ctx context.Context) error {
		if err := target.breaker.Allow(); err != nil {
			return err
		}
		err := target.client.HandoffImport(ctx, chunk)
		target.record(err)
		return err
	})
}

// handoff moves what source's ledger holds to where the ring says it
// belongs and reports how many entries it shipped. With only == "" every
// entry goes to its current ring owner and the ones the ring maps back
// to source (a reconciled node that still owns part of its old range)
// are re-pinned to it; with only set, just the entries that address now
// owns move and the rest are left alone (a join: the incumbents keep
// what is theirs).
//
// Sticky routes are re-pinned as chunks ack, and source.handoffPending
// tracks the not-yet-acked entry count throughout, so a partial
// transfer is observable the moment it stalls. On a push error, entries
// already acked stay transferred (idempotent on retry) and entries not
// yet acked remain the source's.
func (rt *Router) handoff(ctx context.Context, source *node, only string) (shipped int, err error) {
	// No breaker gating on the pull: exports come from nodes that are
	// leaving or freshly returned, exactly the nodes whose breakers may
	// still be settling.
	var stream []byte
	err = retry.Do(ctx, rt.opts.Retry, func(ctx context.Context) (err error) {
		stream, err = source.client.HandoffExport(ctx)
		return err
	})
	if err != nil {
		rt.metrics.HandoffFails.Add(1)
		return 0, fmt.Errorf("cluster: handoff export from %s: %w", source.addr, err)
	}
	ring := rt.ring.Load()
	groups, err := serve.SplitExport(stream, func(id string) string {
		owner := ring.Owner(id)
		switch {
		case only != "" && owner != only:
			return ""
		case owner == "" || owner == source.addr:
			rt.repinRoute(id, source.addr) // stays where it is: no transfer
			return ""
		}
		return owner
	})
	if err != nil {
		rt.metrics.HandoffFails.Add(1)
		return 0, fmt.Errorf("cluster: handoff export from %s: %w", source.addr, err)
	}
	owners := make([]string, 0, len(groups))
	for addr, chunks := range groups {
		owners = append(owners, addr)
		for _, chunk := range chunks {
			shipped += chunk.Entries
		}
	}
	if shipped == 0 {
		return 0, nil
	}
	sort.Strings(owners)
	source.handoffPending.Store(int64(shipped))
	for _, addr := range owners {
		target := rt.table()[addr]
		if target == nil {
			rt.metrics.HandoffFails.Add(1)
			return shipped, fmt.Errorf("cluster: handoff target %s is not a member", addr)
		}
		for _, chunk := range groups[addr] {
			if err := rt.pushChunk(ctx, target, chunk.Data); err != nil {
				rt.metrics.HandoffFails.Add(1)
				return shipped, fmt.Errorf("cluster: handoff push to %s: %w", addr, err)
			}
			rt.metrics.HandoffChunks.Add(1)
			rt.metrics.HandoffEntries.Add(uint64(chunk.Entries))
			source.handoffPending.Add(-int64(chunk.Entries))
			for _, id := range chunk.IDs {
				rt.repinRoute(id, addr)
			}
		}
	}
	return shipped, nil
}

// reconcileNode runs the background half of the reconciliation window:
// a node that crashed out of the ring has returned on probation, its
// own recovery replay has rebuilt its ledger from whatever the journal
// preserved, and this handoff ships the ranges it no longer owns to
// their current owners. On success the node's pending gauge and
// reconcile flag clear; on failure both persist and the next probe
// round retries — sticky entries for the node stay in the reconciling
// state, so retransmits keep consulting current owners rather than
// trusting a pin that predates the crash.
func (rt *Router) reconcileNode(ctx context.Context, n *node) error {
	shipped, err := rt.handoff(ctx, n, "")
	if err != nil {
		return err
	}
	rt.metrics.HandoffReplayed.Add(uint64(shipped))
	n.handoffPending.Store(0)
	n.needsReconcile.Store(false)
	return nil
}

// Rebalance hands the replica at addr the ledger history for key ranges
// the current ring assigns to it, pulled from every other in-rotation
// member. Run it after Join: the ring remaps keys to the joiner
// immediately, and without the transfer a retransmit of a remapped ID
// would reach a joiner that never saw it. Incumbents stay authoritative
// for everything until the joiner's acks land, so a mid-rebalance
// failure leaves a working (if unevenly pinned) cluster.
func (rt *Router) Rebalance(ctx context.Context, addr string) error {
	if rt.table()[addr] == nil {
		return fmt.Errorf("cluster: %s is not a member", addr)
	}
	var firstErr error
	for _, src := range rt.nodeList() {
		if src.addr == addr || !src.inRotation() {
			continue
		}
		if _, err := rt.handoff(ctx, src, addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
