package features

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/reputation"
)

// referenceVector is Vector as it was before the context was compiled:
// written against Store.File and Oracle.AlexaRank, the oracle the
// compiled lookups are held to.
func referenceVector(store *dataset.Store, oracle *reputation.Oracle, ev *dataset.DownloadEvent) (Vector, error) {
	fileMeta := store.File(ev.File)
	if fileMeta == nil {
		return Vector{}, fmt.Errorf("features: no metadata for file %s", ev.File)
	}
	rank := oracle.AlexaRank(ev.Domain)
	if rank == 0 {
		rank = UnrankedValue
	}
	v := Vector{
		FileSigner: orNone(fileMeta.Signer), FileCA: orNone(fileMeta.CA), FilePacker: orNone(fileMeta.Packer),
		ProcessSigner: None, ProcessCA: None, ProcessPacker: None, ProcessType: "unknown",
		AlexaRank: rank,
	}
	if procMeta := store.File(ev.Process); procMeta != nil {
		v.ProcessSigner, v.ProcessCA, v.ProcessPacker = orNone(procMeta.Signer), orNone(procMeta.CA), orNone(procMeta.Packer)
		v.ProcessType = procMeta.Category.String()
	}
	return v, nil
}

// TestCompiledVectorMatchesReference runs every event of the daemons'
// default corpus, and the three kinds of miss made from each, through
// the compiled context and through the reference.
func TestCompiledVectorMatchesReference(t *testing.T) {
	res, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(res.Store, res.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	// The view without the store: Vector must not need it.
	serving := ex.Serving()
	check := func(ev *dataset.DownloadEvent) {
		t.Helper()
		want, wantErr := referenceVector(res.Store, res.Oracle, ev)
		got, err := serving.Vector(ev)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s/%s/%s: error %v, reference %v", ev.File, ev.Process, ev.Domain, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s/%s/%s:\ncompiled  %+v\nreference %+v", ev.File, ev.Process, ev.Domain, got, want)
		}
	}
	var ranked, unranked, unknownProc int
	for _, ev := range res.Store.Events() {
		check(&ev)
		if res.Oracle.AlexaRank(ev.Domain) == 0 {
			unranked++
		} else {
			ranked++
		}
		if res.Store.File(ev.Process) == nil {
			unknownProc++
		}

		miss := ev
		miss.File += "x"
		check(&miss)
		miss = ev
		miss.Process = ev.Process[:len(ev.Process)-1]
		check(&miss)
		miss = ev
		miss.Domain = "never-ranked." + ev.Domain
		check(&miss)
	}
	if ranked == 0 || unranked == 0 {
		t.Errorf("corpus has %d ranked and %d unranked download domains; the test needs both", ranked, unranked)
	}
	t.Logf("%d events, %d from unranked domains, %d by unregistered processes", ranked+unranked, unranked, unknownProc)

	if _, err := serving.Instances([]int{0}); err == nil {
		t.Error("a Serving view built instances without a store")
	}
	if _, err := serving.UnknownInstances([]int{0}); err == nil {
		t.Error("a Serving view built unknown instances without a store")
	}
}

func TestNewExtractorRefusesUnfrozenStore(t *testing.T) {
	_, oracle := testStore(t)
	_, err := NewExtractor(dataset.NewStore(), oracle)
	if err == nil || !strings.Contains(err.Error(), "Freeze") {
		t.Fatalf("unfrozen store: error %v, want one naming Freeze", err)
	}
}

// pointerFree reports whether a value of type t holds nothing the
// collector would have to follow.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default: // pointer, string, slice, map, interface, chan, func, uintptr, unsafe.Pointer
		return false
	}
}

// TestContextLayout holds the compiled context to what DESIGN.md §11
// says of it: slots and arenas without pointers, tables at most half
// full, and a bounded walk for any key a client may send.
func TestContextLayout(t *testing.T) {
	res, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(res.Store, res.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	c := ex.ctx
	for name, elem := range map[string]reflect.Type{
		"file slot":     reflect.TypeOf(c.files.slots).Elem(),
		"file arena":    reflect.TypeOf(c.files.keys).Elem(),
		"domain slot":   reflect.TypeOf(c.domains.slots).Elem(),
		"domain arena":  reflect.TypeOf(c.domains.keys).Elem(),
		"process attrs": reflect.TypeOf(c.unknownProcess),
	} {
		if !pointerFree(elem) {
			t.Errorf("%s type %s holds a pointer", name, elem)
		}
	}
	if pointerFree(reflect.TypeOf("")) || pointerFree(reflect.TypeOf(struct{ p *int }{})) {
		t.Error("pointerFree passes a pointer-bearing type")
	}

	st := ex.ContextStats()
	if st.Files != len(res.Store.Files()) || st.Domains != res.Oracle.Alexa.Len() {
		t.Errorf("context holds %d files and %d domains, corpus %d and %d", st.Files, st.Domains, len(res.Store.Files()), res.Oracle.Alexa.Len())
	}
	if 2*c.files.n > len(c.files.slots) || 2*c.domains.n > len(c.domains.slots) {
		t.Errorf("load factor above 0.5: %d/%d files, %d/%d domains", c.files.n, len(c.files.slots), c.domains.n, len(c.domains.slots))
	}
	// Linear probing at load 0.38 on 50k uniformly hashed keys gives
	// longest runs in the twenties; 64 means the hash clusters.
	if st.LongestProbe > 64 {
		t.Errorf("longest probe run %d slots", st.LongestProbe)
	}
	t.Logf("%+v", st)
}

func TestLongestProbeWraps(t *testing.T) {
	tab := newTable[int](4, 0)
	for _, i := range []int{7, 0, 1} {
		tab.slots[i].hash = 1
	}
	tab.n = 3
	if got := tab.longestProbe(); got != 3 {
		t.Errorf("run over slots 7,0,1 of 8 measured %d", got)
	}
}

func TestTableInsertRefusals(t *testing.T) {
	tab := newTable[int](1, 2)
	if err := tab.insert("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.insert("b", 2); err == nil {
		t.Error("a table sized for one key took a second: it would be more than half full")
	}
	tab = newTable[int](2, 2)
	if err := tab.insert("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := tab.insert("a", 2); err == nil {
		t.Error("duplicate key accepted")
	}
}

// FuzzContextLookup builds a table from arbitrary keys (the first byte
// of data separates them) and requires that every key reads back its
// own value and that nothing else reads anything: not an arbitrary
// probe, nor any key's proper prefix, extension or last-byte variant.
func FuzzContextLookup(f *testing.F) {
	f.Add([]byte(",,file-00000001,file-00000002"), []byte("")) // the empty key beside two that differ in the last byte
	f.Add([]byte(",file-0000,file-00000001,file-00000001-x"), []byte("file-000"))
	f.Add([]byte("\x00a\x00a\x00"), []byte("a\x00"))
	// A key longer than a 16-bit length can say, and its first 4,464
	// bytes (70,000 mod 65,536) beside it.
	long := bytes.Repeat([]byte("0123456789"), 7000)
	f.Add(append(append([]byte(","), long...), append([]byte(","), long[:70000-65536]...)...), long[:65536])
	f.Fuzz(func(t *testing.T, data, probe []byte) {
		if len(data) == 0 {
			return
		}
		want := make(map[string]int)
		var keys []string
		for _, k := range bytes.Split(data[1:], data[:1]) {
			if _, dup := want[string(k)]; !dup {
				want[string(k)] = len(keys)
				keys = append(keys, string(k))
			}
		}
		tab := newTable[int](len(keys), len(data))
		for v, k := range keys {
			if err := tab.insert(k, v); err != nil {
				t.Fatalf("insert %.40q: %v", k, err)
			}
		}
		check := func(k string) {
			t.Helper()
			got, ok := tab.lookup(k)
			v, in := want[k]
			if ok != in || (in && got != v) {
				t.Fatalf("lookup(%.40q) of %d bytes = %d, %v; want %d, %v", k, len(k), got, ok, v, in)
			}
		}
		check(string(probe))
		for _, k := range keys {
			check(k)
			check(k + "x")
			if len(k) > 0 {
				check(k[:len(k)-1])
				check(k[:len(k)-1] + string(k[len(k)-1]^1))
			}
		}
	})
}
