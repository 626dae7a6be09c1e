package features

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/dataset"
	"repro/internal/keyhash"
	"repro/internal/reputation"
)

// slot is one entry of a table: the key's hash, where its bytes lie in
// the table's arena, and the value. It holds no pointer (V is a
// pointer-free type at both instantiations), so a table is two
// allocations the collector never looks inside.
type slot[V any] struct {
	hash   uint64 // 0 marks an empty slot; hashKey never returns 0
	keyOff uint32
	keyLen uint32
	val    V
}

// table is a read-only open-addressed hash table (linear probing, at
// most half full) from byte-string keys to fixed-size values. A lookup
// is one hash, one probe into a contiguous array and one byte compare.
// The hash is unseeded and keys go in in sorted order, so the layout is
// the same in every process; because a lookup always compares the key
// bytes, a client can choose keys that collide but never read another
// key's value, and the longest walk it can force is the longest run of
// occupied slots, which the operator's corpus fixed at compile time.
type table[V any] struct {
	slots []slot[V]
	keys  []byte // every key's bytes, back to back
	n     int
}

// newTable sizes a table for n keys of keyBytes bytes in all: the
// smallest power of two of slots that leaves it at most half full.
func newTable[V any](n, keyBytes int) *table[V] {
	size := 1
	for size < 2*n {
		size *= 2
	}
	return &table[V]{slots: make([]slot[V], size), keys: make([]byte, 0, keyBytes)}
}

// hashKey is the table's hash of a key: keyhash's, which takes no seed,
// so the layout is a function of the keys alone. The length goes in
// first, which keeps keys that differ by trailing zero bytes apart.
func hashKey(s string) uint64 {
	h := keyhash.String(uint64(len(s))^0x9e3779b97f4a7c15, s)
	if h == 0 {
		h = 1
	}
	return h
}

// buildTable makes the table of keys, each with the value val gives it.
func buildTable[K ~string, V any](keys []K, val func(K) V) (*table[V], error) {
	keyBytes := 0
	for _, k := range keys {
		keyBytes += len(k)
	}
	t := newTable[V](len(keys), keyBytes)
	for _, k := range keys {
		if err := t.insert(string(k), val(k)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// insert adds a key the table does not hold yet.
func (t *table[V]) insert(key string, val V) error {
	if 2*(t.n+1) > len(t.slots) {
		return fmt.Errorf("features: table sized for %d keys is full", len(t.slots)/2)
	}
	if uint64(len(t.keys))+uint64(len(key)) > math.MaxUint32 {
		return fmt.Errorf("features: key arena exceeds %d bytes", math.MaxUint32)
	}
	h := hashKey(key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i].hash != 0; i = (i + 1) & mask {
		if s := &t.slots[i]; s.hash == h && string(t.keys[s.keyOff:s.keyOff+s.keyLen]) == key {
			return fmt.Errorf("features: duplicate key %q", key)
		}
	}
	t.slots[i] = slot[V]{hash: h, keyOff: uint32(len(t.keys)), keyLen: uint32(len(key)), val: val}
	t.keys = append(t.keys, key...)
	t.n++
	return nil
}

// lookup returns the value stored under key. It ends at the first empty
// slot, and there always is one: the table is at most half full.
func (t *table[V]) lookup(key string) (val V, ok bool) {
	h := hashKey(key)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == h && string(t.keys[s.keyOff:s.keyOff+s.keyLen]) == key {
			return s.val, true
		}
		if s.hash == 0 {
			return val, false
		}
	}
}

// bytes is the memory the table occupies.
func (t *table[V]) bytes() int {
	return len(t.slots)*int(reflect.TypeOf(t.slots).Elem().Size()) + cap(t.keys)
}

// longestProbe is the longest cyclic run of occupied slots: the most
// slots any lookup, of any key, can visit before it reaches an empty one.
func (t *table[V]) longestProbe() int {
	longest, run := 0, 0
	// Twice around, so a run that wraps past the end is counted whole;
	// a run cannot be longer than the keys there are.
	for i := 0; i < 2*len(t.slots) && run < t.n; i++ {
		if t.slots[i%len(t.slots)].hash == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

// fileAttrs is what Vector reads of a file or a downloading process:
// indexes into servingContext.values.
type fileAttrs struct {
	category, signer, ca, packer uint32
}

// servingContext is what Vector reads, compiled from a frozen store and
// its oracle: four attributes per file, the rank per Alexa domain, and
// nothing else of the corpus.
type servingContext struct {
	files   *table[fileAttrs]
	domains *table[int]
	// values holds each distinct attribute value once, None already
	// standing in for the empty string.
	values []string
	// unknownProcess is what a process the store never saw reads as.
	unknownProcess fileAttrs
}

// compileContext builds the tables, keys in ascending order.
func compileContext(store *dataset.Store, oracle *reputation.Oracle) (*servingContext, error) {
	c := &servingContext{}
	ids := make(map[string]uint32)
	intern := func(s string) uint32 {
		id, ok := ids[s]
		if !ok {
			id = uint32(len(c.values))
			ids[s] = id
			// A copy, so that a value keeps nothing else of the store alive.
			c.values = append(c.values, strings.Clone(s))
		}
		return id
	}
	none := intern(None)
	c.unknownProcess = fileAttrs{category: intern("unknown"), signer: none, ca: none, packer: none}

	hashes := store.Files()
	slices.Sort(hashes)
	var err error
	c.files, err = buildTable(hashes, func(h dataset.FileHash) fileAttrs {
		meta := store.File(h)
		return fileAttrs{
			category: intern(meta.Category.String()),
			signer:   intern(orNone(meta.Signer)),
			ca:       intern(orNone(meta.CA)),
			packer:   intern(orNone(meta.Packer)),
		}
	})
	if err != nil {
		return nil, err
	}
	c.domains, err = buildTable(oracle.Alexa.Domains(), oracle.AlexaRank)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ContextStats sizes an extractor's compiled context.
type ContextStats struct {
	Files, Domains int
	// Bytes is what the context keeps in memory: slots, key bytes and
	// attribute values.
	Bytes int
	// Slots counts both tables'; LongestProbe is the longer of their
	// longest runs of occupied slots, the bound on any lookup's walk.
	Slots        int
	LongestProbe int
}

// ContextStats reports the size of the compiled context.
func (e *Extractor) ContextStats() ContextStats {
	c := e.ctx
	st := ContextStats{
		Files:        c.files.n,
		Domains:      c.domains.n,
		Bytes:        c.files.bytes() + c.domains.bytes(),
		Slots:        len(c.files.slots) + len(c.domains.slots),
		LongestProbe: max(c.files.longestProbe(), c.domains.longestProbe()),
	}
	header := int(reflect.TypeOf("").Size())
	for _, v := range c.values {
		st.Bytes += header + len(v)
	}
	return st
}
