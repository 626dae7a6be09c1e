// Package agent models the telemetry collection pipeline of Section
// II-A: per-machine software agents (SA) observe every web-based
// software download, and a centralized collection server (CS) stores
// only the events of interest. Three rules bound what reaches the
// dataset:
//
//  1. only downloads that are subsequently executed are reported;
//  2. a download is reported only while the file's prevalence (distinct
//     reporting machines) is below a threshold sigma (20 in the paper's
//     deployment);
//  3. downloads from agent-whitelisted vendor domains (major software
//     updates) are not collected.
//
// These rules shape the observed dataset — the prevalence distribution
// of Figure 2 is capped at sigma — so the reproduction applies them to
// the raw synthetic trace exactly as the deployment did.
package agent

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/reputation"
)

// Stats counts the fate of raw events through the pipeline.
type Stats struct {
	Raw                   int
	DroppedNotExecuted    int
	DroppedWhitelistedURL int
	DroppedPrevalenceCap  int
	Reported              int
}

// CollectionServer receives download reports from software agents and
// stores the surviving ones. All methods are safe for concurrent use:
// the deployment's CS serializes ingestion per shard, and mu is that
// shard lock — concurrent agent uplinks contend on it, and the
// prevalence cap still sees one total order of arrivals.
//
// Two ingestion paths exist. Report applies the collection rules to one
// event directly (exactly-once, in-order callers such as the trace
// generator). Deliver is the at-least-once network endpoint: it accepts
// sequence-numbered envelopes that may arrive duplicated or reordered,
// deduplicates them, restores sequence order within a bounded window,
// and feeds the surviving events to the collection rules — see
// transport.go.
type CollectionServer struct {
	sigma   int
	agentWL *reputation.DomainList
	store   *dataset.Store

	mu    sync.Mutex
	seen  map[dataset.FileHash][]dataset.MachineID // guarded by mu; at most sigma machines a file
	stats Stats                                    // guarded by mu

	// At-least-once transport state (transport.go): the next sequence
	// number ingestion expects, events that arrived ahead of it, and the
	// delivery counters.
	nextSeq       uint64                           // guarded by mu
	pendingSeq    map[uint64]dataset.DownloadEvent // guarded by mu
	reorderWindow int                              // guarded by mu
	tstats        TransportStats                   // guarded by mu
}

// NewCollectionServer builds a CS writing into store. agentWL may be nil
// (no URL suppression).
func NewCollectionServer(store *dataset.Store, sigma int, agentWL *reputation.DomainList) (*CollectionServer, error) {
	if store == nil {
		return nil, fmt.Errorf("agent: nil store")
	}
	if sigma < 1 {
		return nil, fmt.Errorf("agent: sigma %d must be >= 1", sigma)
	}
	return &CollectionServer{
		sigma:         sigma,
		agentWL:       agentWL,
		store:         store,
		seen:          make(map[dataset.FileHash][]dataset.MachineID),
		pendingSeq:    make(map[uint64]dataset.DownloadEvent),
		reorderWindow: DefaultReorderWindow,
	}, nil
}

// Report applies the collection rules to one raw event and stores it if
// it survives. Events must arrive in (approximately) chronological order
// for the prevalence cap to match the deployment's behaviour; the
// generator guarantees per-file ordering.
func (cs *CollectionServer) Report(e dataset.DownloadEvent) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.reportLocked(e)
}

// reportLocked applies the collection rules to one event. Callers hold
// cs.mu.
func (cs *CollectionServer) reportLocked(e dataset.DownloadEvent) error {
	if err := e.Validate(); err != nil {
		return err
	}
	cs.stats.Raw++
	if !e.Executed {
		cs.stats.DroppedNotExecuted++
		return nil
	}
	if cs.agentWL != nil && e.Domain != "" && cs.agentWL.Contains(e.Domain) {
		cs.stats.DroppedWhitelistedURL++
		return nil
	}
	machines := cs.seen[e.File]
	if len(machines) >= cs.sigma {
		// The distinct-machine count is not below sigma, so the event is
		// not reported — whether it comes from a new machine or is a
		// re-download by an already-counted one.
		cs.stats.DroppedPrevalenceCap++
		return nil
	}
	if !slices.Contains(machines, e.Machine) {
		cs.seen[e.File] = append(machines, e.Machine)
	}
	if err := cs.store.AddEvent(e); err != nil {
		return fmt.Errorf("agent: store event: %w", err)
	}
	cs.stats.Reported++
	return nil
}

// Stats returns the pipeline counters.
func (cs *CollectionServer) Stats() Stats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.stats
}

// SoftwareAgent is the per-machine monitoring agent. It observes all
// web-based download events on its machine and forwards them to the CS;
// the executed-only rule is enforced agent-side in the deployment, but
// the CS re-checks it, so the agent here is a thin reporting shim that
// carries the machine identity.
type SoftwareAgent struct {
	machine dataset.MachineID
	cs      *CollectionServer
}

// NewSoftwareAgent binds an agent to its machine and collection server.
func NewSoftwareAgent(machine dataset.MachineID, cs *CollectionServer) (*SoftwareAgent, error) {
	if machine == "" {
		return nil, fmt.Errorf("agent: empty machine id")
	}
	if cs == nil {
		return nil, fmt.Errorf("agent: nil collection server")
	}
	return &SoftwareAgent{machine: machine, cs: cs}, nil
}

// Observe reports one download event observed on this agent's machine.
// The event's Machine field must match the agent's machine.
func (a *SoftwareAgent) Observe(e dataset.DownloadEvent) error {
	if e.Machine != a.machine {
		return fmt.Errorf("agent: event machine %q does not match agent machine %q", e.Machine, a.machine)
	}
	return a.cs.Report(e)
}
