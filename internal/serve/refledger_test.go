package serve

import (
	"slices"

	"repro/internal/journal"
)

// The reference ledger: the exactly-once contract as a sequential state
// machine that FuzzLedger holds a real Ledger to after every step
// (DESIGN.md §9 lists its properties). The log is the state; a crash
// keeps every synced record and, per shard, a prefix of the others.

// refRecord is one journal record: body is a reply or event lines, shard
// where the journal routes id, synced whether an fsync covered it, held
// whether it is a reply on its way to a client whose fsync has not
// returned (a crash never keeps one: its tail is always the one torn).
type refRecord struct {
	kind         byte
	id           string
	body         string
	shard        int
	synced, held bool
}

// refLedger holds replies in completion order, pending event lines, the
// count the bound evicted, the log they came from; failNext fails an append.
type refLedger struct {
	max, shards int
	results     map[string]string
	order       []string
	pending     map[string]string
	evicted     uint64
	log         []refRecord
	failNext    bool
}

// replay is what a reopen over log finds: its records installed in order.
func (m *refLedger) replay(log []refRecord) *refLedger {
	r := &refLedger{max: m.max, shards: m.shards, log: log, results: map[string]string{}, pending: map[string]string{}}
	for _, rec := range log {
		r.install(rec)
	}
	return r
}

// install applies one record, last write wins: replay's fold, and import's.
// An accept reopens its ID: the ledger appends one ID's records in install
// order, so in the log an accept follows only an evicted result.
func (m *refLedger) install(r refRecord) {
	if r.kind == recAccept {
		m.forget(r.id)
		m.pending[r.id] = r.body
		return
	}
	if _, held := m.results[r.id]; !held {
		m.order = append(m.order, r.id)
	}
	m.results[r.id] = r.body
	delete(m.pending, r.id)
	for ; len(m.order) > m.max; m.evicted++ {
		delete(m.results, m.order[0])
		m.order = m.order[1:]
	}
}

// live is what a compaction rewrites and an export ships of what keep
// admits (all when nil): replies in completion order, then pending by ID.
func (m *refLedger) live(keep func(id string) bool) []refRecord {
	var out []refRecord
	for _, id := range m.order {
		if keep == nil || keep(id) {
			out = append(out, refRecord{kind: recResult, id: id, body: m.results[id]})
		}
	}
	for _, id := range sortedIDs(m.pending, keep) {
		out = append(out, refRecord{kind: recAccept, id: id, body: m.pending[id]})
	}
	return out
}

// appendRec journals a record unless the injected failure takes it.
func (m *refLedger) appendRec(kind byte, id, body string) bool {
	if m.failNext {
		m.failNext = false
		return false
	}
	m.log = append(m.log, refRecord{kind: kind, id: id, body: body, shard: journal.ShardIndex(id, m.shards)})
	return true
}

// sync marks the records of one shard (all of them for -1) durable.
func (m *refLedger) sync(shard int) {
	for i := range m.log {
		if shard < 0 || m.log[i].shard == shard {
			m.log[i].synced = true
		}
	}
}

// accept is AcceptWire, reporting a nil error; a failed one changes nothing.
func (m *refLedger) accept(id, lines string) bool {
	if _, done := m.results[id]; done || id == "" || !m.appendRec(recAccept, id, lines) {
		return done
	}
	m.pending[id] = lines
	m.sync(journal.ShardIndex(id, m.shards))
	return true
}

// result is Result: the reply, and whether its record was journaled. A
// reply with no accept pending is its batch's only record: an answer,
// settled at once.
func (m *refLedger) result(id, body string) (string, bool) {
	if prev, done := m.results[id]; done {
		return prev, true
	} else if _, deferred := m.pending[id]; !deferred {
		m.answer(id, body)
		return body, m.settle(id)
	}
	ok := m.appendRec(recResult, id, body)
	m.install(refRecord{kind: recResult, id: id, body: body})
	return body, ok
}

// answer is a direct Result up to the fsync its reply waits for: the
// reply installed and its record, if the append took it, held.
func (m *refLedger) answer(id, body string) {
	if m.appendRec(recResult, id, body) {
		m.log[len(m.log)-1].held = true
	}
	m.install(refRecord{kind: recResult, id: id, body: body})
}

// settle is that fsync returning: the held record and its shard become
// durable; with none, the failed append leaves no result — what it
// evicted stays evicted. It reports whether the result stands.
func (m *refLedger) settle(id string) bool {
	i := slices.IndexFunc(m.log, func(r refRecord) bool { return r.held })
	if i < 0 {
		m.forget(id)
		return false
	}
	m.log[i].held = false
	m.sync(m.log[i].shard)
	return true
}

// forget takes out a result whose record was not journaled.
func (m *refLedger) forget(id string) {
	delete(m.results, id)
	m.order = slices.DeleteFunc(m.order, func(o string) bool { return o == id })
}

// compact is Compact: the seal syncs all; a durable rewrite is the log.
func (m *refLedger) compact() bool {
	m.sync(-1)
	live := m.live(nil)
	if len(live) > 0 && m.failNext {
		m.failNext = false
		return false
	}
	m.log = live
	m.sync(-1)
	return true
}

// importChunk is ImportChunk. An entry whose record fails is forgotten and
// the pending mark it resolved restored; what it evicted stays evicted.
func (m *refLedger) importChunk(entries []refRecord) (st HandoffImportStats, ok bool) {
	for _, e := range entries {
		_, done := m.results[e.id]
		prev, wasPending := m.pending[e.id]
		if done || e.kind == recAccept && wasPending {
			st.Duplicates++
			continue
		}
		m.install(e)
		if !m.appendRec(e.kind, e.id, e.body) {
			m.forget(e.id)
			if delete(m.pending, e.id); wasPending {
				m.pending[e.id] = prev
			}
			return st, false
		}
		if e.kind == recResult {
			st.Imported++
		} else {
			st.Pending++
		}
	}
	m.sync(-1)
	return st, true
}

// reopen is a clean Close and OpenLedger: everything synced and replayed.
func (m *refLedger) reopen() {
	m.sync(-1)
	*m = *m.replay(m.log)
}

// crash is a kill -9 and OpenLedger: it adopts the first log a crash may
// leave whose replay matches, reporting whether one does. A held record
// never survives.
func (m *refLedger) crash(matches func(*refLedger) bool) bool {
	m.log = slices.DeleteFunc(m.log, func(r refRecord) bool { return r.held })
	limit, keep := make([]int, m.shards), make([]int, m.shards)
	for _, r := range m.log {
		if !r.synced {
			limit[r.shard]++
		}
	}
	for {
		var log []refRecord
		left := slices.Clone(keep)
		for _, r := range m.log {
			if !r.synced && left[r.shard] == 0 {
				continue
			} else if !r.synced {
				left[r.shard]--
			}
			r.synced = true
			log = append(log, r)
		}
		if r := m.replay(log); matches(r) {
			*m = *r
			return true
		}
		i := 0 // the next prefix choice, as an odometer over the shards
		for ; i < m.shards && keep[i] == limit[i]; i++ {
			keep[i] = 0
		}
		if i == m.shards {
			return false
		}
		keep[i]++
	}
}
