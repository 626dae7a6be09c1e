package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/retry"
)

// seqEvent builds a valid event whose file/machine derive from i.
func seqEvent(i int) dataset.DownloadEvent {
	return dataset.DownloadEvent{
		File:     dataset.FileHash(fmt.Sprintf("file-%03d", i%7)),
		Machine:  dataset.MachineID(fmt.Sprintf("m-%03d", i)),
		Process:  "proc",
		URL:      "http://x.com/f.exe",
		Domain:   "x.com",
		Time:     time.Date(2014, time.March, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Executed: true,
	}
}

func TestDeliverInOrder(t *testing.T) {
	store := dataset.NewStore()
	cs, err := NewCollectionServer(store, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cs.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ts := cs.TransportStats()
	if ts.Delivered != 10 || ts.Duplicates != 0 || ts.OutOfOrder != 0 {
		t.Errorf("transport stats = %+v", ts)
	}
	if store.NumEvents() != 10 {
		t.Errorf("stored %d events, want 10", store.NumEvents())
	}
}

func TestDeliverDeduplicates(t *testing.T) {
	store := dataset.NewStore()
	cs, _ := NewCollectionServer(store, 20, nil)
	env := Envelope{Seq: 0, Event: seqEvent(0)}
	for i := 0; i < 3; i++ {
		if err := cs.Deliver(env); err != nil {
			t.Fatal(err)
		}
	}
	ts := cs.TransportStats()
	if ts.Delivered != 1 || ts.Duplicates != 2 {
		t.Errorf("transport stats = %+v, want 1 delivered 2 duplicates", ts)
	}
	if store.NumEvents() != 1 {
		t.Errorf("stored %d events, want 1 (idempotent redelivery)", store.NumEvents())
	}
}

func TestDeliverReordersWithinWindow(t *testing.T) {
	store := dataset.NewStore()
	cs, _ := NewCollectionServer(store, 20, nil)
	// Deliver 2, 0, 1 — and a duplicate of 2 while it is still pending.
	if err := cs.Deliver(Envelope{Seq: 2, Event: seqEvent(2)}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Deliver(Envelope{Seq: 2, Event: seqEvent(2)}); err != nil {
		t.Fatal(err)
	}
	if store.NumEvents() != 0 {
		t.Fatal("event committed before predecessors arrived")
	}
	if err := cs.Deliver(Envelope{Seq: 0, Event: seqEvent(0)}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Deliver(Envelope{Seq: 1, Event: seqEvent(1)}); err != nil {
		t.Fatal(err)
	}
	if store.NumEvents() != 3 {
		t.Fatalf("stored %d events, want 3", store.NumEvents())
	}
	// Committed order must be sequence order.
	events := store.Events()
	for i := 0; i < 3; i++ {
		if events[i].Machine != seqEvent(i).Machine {
			t.Errorf("event %d = %s, want sequence order", i, events[i].Machine)
		}
	}
	ts := cs.TransportStats()
	if ts.OutOfOrder != 1 || ts.Duplicates != 1 || ts.MaxPending < 1 {
		t.Errorf("transport stats = %+v", ts)
	}
}

func TestDeliverSigmaCapOrderIndependent(t *testing.T) {
	// The sigma cap keeps the first sigma distinct machines in sequence
	// order; reordered delivery must not change which ones survive.
	build := func(perm []int) []dataset.MachineID {
		store := dataset.NewStore()
		cs, _ := NewCollectionServer(store, 2, nil)
		for _, i := range perm {
			e := seqEvent(i)
			e.File = "shared"
			if err := cs.Deliver(Envelope{Seq: uint64(i), Event: e}); err != nil {
				t.Fatal(err)
			}
		}
		var out []dataset.MachineID
		for _, e := range store.Events() {
			out = append(out, e.Machine)
		}
		return out
	}
	inOrder := build([]int{0, 1, 2, 3})
	shuffled := build([]int{3, 1, 0, 2})
	if len(inOrder) != 2 || len(shuffled) != 2 {
		t.Fatalf("sigma cap kept %d/%d events, want 2", len(inOrder), len(shuffled))
	}
	for i := range inOrder {
		if inOrder[i] != shuffled[i] {
			t.Errorf("survivor %d differs: %s vs %s", i, inOrder[i], shuffled[i])
		}
	}
}

func TestDeliverReorderWindowExceeded(t *testing.T) {
	cs, _ := NewCollectionServer(dataset.NewStore(), 20, nil)
	cs.mu.Lock()
	cs.reorderWindow = 2
	cs.mu.Unlock()
	// Three gapped arrivals overflow a window of 2.
	var err error
	for _, seq := range []uint64{10, 20, 30} {
		if err = cs.Deliver(Envelope{Seq: seq, Event: seqEvent(int(seq))}); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("reorder window overflow not detected")
	}
}

func TestCheckpointRestoreMidStream(t *testing.T) {
	// An uninterrupted run is the reference.
	refStore := dataset.NewStore()
	ref, _ := NewCollectionServer(refStore, 3, nil)
	const n = 60
	for i := 0; i < n; i++ {
		if err := ref.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// The crashing run: checkpoint at the midpoint (with an out-of-order
	// envelope pending), restore into a fresh server over the same
	// durable store, replay a few already-delivered envelopes
	// (at-least-once redelivery after recovery), and finish the stream.
	store := dataset.NewStore()
	cs, _ := NewCollectionServer(store, 3, nil)
	half := n / 2
	for i := 0; i < half; i++ {
		if err := cs.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Leave seq half+1 pending (its predecessor has not arrived).
	if err := cs.Deliver(Envelope{Seq: uint64(half + 1), Event: seqEvent(half + 1)}); err != nil {
		t.Fatal(err)
	}
	snap, err := cs.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCollectionServer(store, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Redeliver a prefix the sender never got acks for.
	for i := half - 3; i < half; i++ {
		if err := restored.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := half; i < n; i++ {
		if err := restored.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}

	if store.NumEvents() != refStore.NumEvents() {
		t.Fatalf("recovered run stored %d events, reference %d", store.NumEvents(), refStore.NumEvents())
	}
	a, b := store.Events(), refStore.Events()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs after recovery: %+v vs %+v", i, a[i], b[i])
		}
	}
	if restored.Stats() != ref.Stats() {
		t.Errorf("pipeline stats diverged: %+v vs %+v", restored.Stats(), ref.Stats())
	}
	// 3 redelivered prefix envelopes, plus seq half+1 which was already
	// restored from the checkpoint's pending buffer when the tail loop
	// re-sent it.
	if got := restored.TransportStats().Duplicates; got != 4 {
		t.Errorf("recovery counted %d duplicates, want 4", got)
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	mk := func() []byte {
		cs, _ := NewCollectionServer(dataset.NewStore(), 3, nil)
		for i := 0; i < 20; i++ {
			if err := cs.Deliver(Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := cs.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if string(mk()) != string(mk()) {
		t.Error("identical states produced different checkpoint bytes")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreCollectionServer(dataset.NewStore(), nil, []byte("not json")); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestUplinkRetriesTransientFailures(t *testing.T) {
	var delivered []uint64
	failures := map[uint64]int{3: 2, 7: 1} // seq -> injected failures
	send := func(env Envelope) error {
		if failures[env.Seq] > 0 {
			failures[env.Seq]--
			return errors.New("transient")
		}
		delivered = append(delivered, env.Seq)
		return nil
	}
	noSleep := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	up, err := NewUplink(send, retry.Policy{MaxAttempts: 4, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := up.Send(context.Background(), Envelope{Seq: uint64(i), Event: seqEvent(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(delivered) != 10 {
		t.Fatalf("delivered %d envelopes, want 10", len(delivered))
	}
	if up.Retransmissions() != 3 {
		t.Errorf("retransmissions = %d, want 3", up.Retransmissions())
	}
}

func TestUplinkPermanentFailureSurfaces(t *testing.T) {
	up, _ := NewUplink(func(Envelope) error {
		return retry.Permanent(errors.New("event rejected"))
	}, retry.Policy{Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }})
	if err := up.Send(context.Background(), Envelope{Seq: 0, Event: seqEvent(0)}); err == nil {
		t.Error("permanent delivery failure swallowed")
	}
	if up.Retransmissions() != 0 {
		t.Error("permanent failure was retransmitted")
	}
}

// TestDeliverConcurrentUplinks hammers one collection server from many
// goroutines — the sharded-CS shape where several agent uplinks land on
// the same shard. Every envelope must be applied exactly once and the
// counters must balance; the race detector checks the locking.
func TestDeliverConcurrentUplinks(t *testing.T) {
	store := dataset.NewStore()
	cs, err := NewCollectionServer(store, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	const uplinks, total = 8, 400
	var wg sync.WaitGroup
	for u := 0; u < uplinks; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			// Each uplink redelivers a striped share of the sequence space,
			// twice, so duplicates and out-of-order arrivals are guaranteed.
			for pass := 0; pass < 2; pass++ {
				for seq := u; seq < total; seq += uplinks {
					if err := cs.Deliver(Envelope{Seq: uint64(seq), Event: seqEvent(seq)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	ts := cs.TransportStats()
	if ts.Delivered != total {
		t.Fatalf("Delivered = %d, want %d", ts.Delivered, total)
	}
	if ts.Duplicates != total {
		t.Fatalf("Duplicates = %d, want %d (every envelope sent twice)", ts.Duplicates, total)
	}
	if st := cs.Stats(); st.Raw != total {
		t.Fatalf("Raw = %d, want %d", st.Raw, total)
	}
}
