package export

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/synth"
)

// FuzzReadStore asserts the dataset parser never panics on malformed
// input and that accepted streams yield a usable store.
func FuzzReadStore(f *testing.F) {
	f.Add(`{"type":"header","version":1}`)
	f.Add("{\"type\":\"header\",\"version\":1}\n{\"type\":\"meta\",\"hash\":\"f1\"}")
	f.Add("{\"type\":\"header\",\"version\":1}\n{\"type\":\"event\",\"file\":\"f\",\"machine\":\"m\",\"process\":\"p\",\"url\":\"u\",\"time\":\"2014-01-02T00:00:00Z\",\"executed\":true}")
	f.Add("{\"type\":\"header\",\"version\":1}\n{\"type\":\"truth\",\"hash\":\"f\",\"label\":3}")
	f.Add("{\"type\":\"header\",\"version\":1}\n{\"type\":\"url\",\"domain\":\"d.com\",\"verdict\":1,\"rank\":5}")
	f.Add("")
	f.Add("{nope")
	f.Add(`{"type":"wat"}`)
	f.Fuzz(func(t *testing.T, raw string) {
		store, oracle, err := ReadStoreWithOracle(strings.NewReader(raw))
		if err != nil {
			return
		}
		if store == nil || oracle == nil {
			t.Fatal("nil store/oracle without error")
		}
		// The store must be internally consistent: every event validates.
		for _, e := range store.Events() {
			if verr := e.Validate(); verr != nil {
				t.Fatalf("accepted stream contains invalid event: %v", verr)
			}
		}
		store.Freeze()
	})
}

// FuzzUnmarshalEventLine hammers the single-event codec the serving
// layer's /classify endpoint and the write-ahead journal both parse on
// every request: it must never panic, and every line it accepts must
// round-trip to canonical bytes (marshal(unmarshal(line)) is a fixed
// point), because journal recovery and retransmit dedup compare
// re-marshaled records byte-for-byte.
func FuzzUnmarshalEventLine(f *testing.F) {
	// Seed with real generated traffic: the exact bytes a replay
	// or a journaled accept record carries.
	cfg := synth.DefaultConfig(7, 0.001)
	cfg.Months = 1
	res, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	events := res.Store.Events()
	if len(events) == 0 {
		f.Fatal("synth generated no events")
	}
	for i := 0; i < len(events) && i < 32; i++ {
		line, err := MarshalEventLine(&events[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	// And with the malformed shapes recovery actually sees: torn JSON,
	// wrong discriminators, missing fields, absurd values.
	for _, s := range []string{
		"", "{", "null", "42", `"event"`, "[]",
		`{"type":"event"}`,
		`{"type":"meta","hash":"f1"}`,
		`{"type":"event","file":"f","machine":"m","process":"p","url":"u","time":"2014-01-02T00:00:00Z","executed":true}`,
		`{"type":"event","file":"f","machine":"m","process":"p","url":"u","time":"not-a-time"}`,
		`{"type":"event","file":"","machine":"","process":"","url":"","time":"0001-01-01T00:00:00Z"}`,
		`{"type":"event","file":"f","machine":"m","process":"p","url":"u","domain":"d.com","time":"2014-01-02T00:00:00Z","executed":true,"extra":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := UnmarshalEventLine(line)
		if err != nil {
			return
		}
		// Accepted events must satisfy the store invariants outright...
		if verr := ev.Validate(); verr != nil {
			t.Fatalf("accepted event fails validation: %v", verr)
		}
		// ...and re-serialize to a canonical fixed point.
		m1, err := MarshalEventLine(&ev)
		if err != nil {
			t.Fatalf("accepted event does not re-marshal: %v", err)
		}
		ev2, err := UnmarshalEventLine(m1)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v", err)
		}
		m2, err := MarshalEventLine(&ev2)
		if err != nil {
			t.Fatalf("round-tripped event does not re-marshal: %v", err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("canonical form unstable:\n  %s\n  %s", m1, m2)
		}
	})
}
