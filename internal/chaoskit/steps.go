package chaoskit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Kill9 kills replica i the way the kernel would. Its engine stops
// first, so the window batches [lo, lo+n) sent to it directly are
// refused (503) with nothing journaled: a batch answered directly has
// no record before its result, and the client retransmits it. Then its
// filesystem crashes (unsynced bytes vanish), the result record of
// batch lo lands torn mid-flush on the shard that owns it and a second
// shard tears too (independent sync loops caught mid-write, so
// recovery's merge must discard both); the listener dies and nothing
// closes the ledger. It returns how many shards were left with a torn
// tail.
func (c *Cluster) Kill9(i, lo, n int) (tornShards int) {
	if c.err != nil {
		return 0
	}
	v := c.Nodes[i]
	v.Engine.Close()
	direct := c.Direct(i)
	for b := lo; b < lo+n; b++ {
		if _, _, err := direct.ClassifyRaw(c.ctx, c.ID(b), "", c.body(b), 0); err == nil {
			c.Failf("batch %d answered by a dead engine", b)
			return 0
		}
	}
	if v.fs != nil {
		if err := v.fs.Crash(); err != nil {
			c.Failf("crash replica %d: %w", i, err)
			return 0
		}
	}
	owner := journal.ShardIndex(c.ID(lo), c.opts.Shards)
	for si := owner; tornShards < min(2, c.opts.Shards); si = (si + 1) % c.opts.Shards {
		if err := tearShard(v.Dir, si, "result of "+c.ID(lo)+", lost to the kill mid-write"); err != nil {
			c.Failf("tear replica %d: %w", i, err)
			return 0
		}
		tornShards++
	}
	c.down(v)
	v.hsrv.Close()
	v.Server.Close() // no Ledger.Close: kill -9 leaves no chance to flush
	return tornShards
}

// tearShard appends a torn frame to the newest segment of journal shard
// si: a complete header (length and CRC of a full result record) and
// only the first half of the payload — the on-disk state a kill -9
// leaves when it lands mid-write. It bypasses the ledger on purpose:
// any durable path (fsync, compaction) would defeat the tear.
// Recovery must discard the frame by its length alone, so the payload
// is a record kind, a sequence prefix past anything recovered, and note.
func tearShard(dir string, si int, note string) error {
	segs, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", si), "wal-*.seg")) // the pattern is well-formed
	if len(segs) == 0 {
		return fmt.Errorf("no journal segment to tear in shard %d of %s", si, dir)
	}
	full := binary.LittleEndian.AppendUint64([]byte{2}, 1<<62) // kind: ledger result; sequence
	full = append(full, note...)
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(full)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(full, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(slices.Max(segs), os.O_WRONLY|os.O_APPEND, 0o644) // the newest segment
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(hdr, full[:len(full)/2]...))
	return err
}

// Recovery is what a restarted replica's ledger found in its journal,
// in the harness reports' terms.
type Recovery struct {
	RecoveredResults, RecoveredPending int
	TornTailBytes                      int64
}

// Restart boots a new incarnation of replica i (stopping a running one
// gracefully first) over its journal directory and re-points its name
// at the new listener. It asks for one journal shard fewer than the
// directory holds: the on-disk count must win, and dedup must not care
// what -journal-shards says across a restart. It returns the recovery
// report and how many pending batches were replayed through the new
// engine.
func (c *Cluster) Restart(i int) (Recovery, int) {
	if c.err != nil {
		return Recovery{}, 0
	}
	c.Stop(i)
	rec, replayed, err := c.start(i, max(1, c.opts.Shards-1))
	if err != nil {
		c.Failf("restart replica %d: %w", i, err)
		return Recovery{}, 0
	}
	return Recovery{RecoveredResults: rec.Results, RecoveredPending: rec.Pending, TornTailBytes: rec.TornTail}, replayed
}

// Partition cuts the link into replica i — forwards and health probes
// alike — until Heal.
func (c *Cluster) Partition(i int) { c.Link.Partition(c.Nodes[i].Name) }

// Heal restores the link into replica i.
func (c *Cluster) Heal(i int) { c.Link.Heal(c.Nodes[i].Name) }

// Probe drives k health-probe rounds; the router's own prober is off so
// that membership changes happen exactly where a scenario puts them.
func (c *Cluster) Probe(k int) {
	for ; k > 0; k-- {
		c.Router.ProbeAll(c.ctx)
	}
}

// Leave takes replica i out of the cluster through the router's planned
// leave (ledger handoff, drain). On success the process exits; on
// failure it keeps running, still authoritative for what it owes. A
// scenario may want either outcome, so the error is returned, not kept.
func (c *Cluster) Leave(i int) error {
	if err := c.Router.Leave(c.ctx, c.Nodes[i].Name); err != nil {
		return err
	}
	c.Stop(i)
	return nil
}

// Join brings replica i (restarted over its old journal if it is down)
// into the cluster: probation, two probe rounds to promote it, then the
// rebalance that hands it the history of the keys it now owns.
func (c *Cluster) Join(i int) {
	if c.Nodes[i].stopped {
		c.Restart(i)
	}
	if c.err != nil {
		return
	}
	name := c.Nodes[i].Name
	if err := c.Router.Join(name); err != nil {
		c.Failf("join: %w", err)
		return
	}
	c.Probe(2)
	if err := c.Router.Rebalance(c.ctx, name); err != nil {
		c.Failf("rebalance onto %s: %w", name, err)
	}
}

// Reload pushes clf through the entry point's /admin/reload in a single
// attempt and returns the generation it reports, or the error — a
// partial reload is some scenarios' expected outcome. It moves neither
// Expect nor WantGeneration: what a reload should leave the cluster
// serving is the scenario's call.
func (c *Cluster) Reload(clf *classify.Classifier) (uint64, error) {
	var rules bytes.Buffer
	if err := serve.ExportRules(&rules, clf); err != nil {
		return 0, err
	}
	admin := &serve.Client{BaseURL: c.Client.BaseURL, HTTPClient: c.Client.HTTPClient, Retry: retry.Policy{MaxAttempts: 1}}
	return admin.Reload(c.ctx, rules.Bytes())
}

// Member is replica i's row in the router's health report; the zero
// NodeStatus says the router has forgotten it.
func (c *Cluster) Member(i int) cluster.NodeStatus {
	for _, n := range c.Router.Status().Nodes {
		if n.Addr == c.Nodes[i].Name {
			return n
		}
	}
	return cluster.NodeStatus{}
}

// ExpectState fails the harness unless every listed replica is in state
// want; when says where in the scenario that should hold.
func (c *Cluster) ExpectState(when, want string, replicas ...int) {
	for _, i := range replicas {
		if got := c.Member(i).State; got != want {
			c.Failf("%s: %s is %q, want %q", when, c.Nodes[i].Name, got, want)
		}
	}
}
