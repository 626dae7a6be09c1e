package main

import (
	"fmt"
	"math/rand"
)

const (
	// hotKeys is the size of the re-submitted working set; it fits every
	// worker's verdict memo (65,536 entries) many times over, while the
	// fresh stream never fits at all.
	hotKeys = 2048
	// zipfS skews draws inside the hot set (s > 1 required by rand.Zipf).
	zipfS = 1.2
)

// key is what the engine's verdict memo is keyed by.
type key struct{ file, process, domain string }

// request is one /classify call, fully decided by (seed, position in
// the stream) before it is sent.
type request struct {
	seq    int
	id     string // "" on the stateless workload
	events []event
	body   []byte

	// resend marks a request that retransmits an earlier ID instead of
	// its own batch when one is old enough; pick in [0,1) chooses which.
	resend bool
	pick   float64
}

// generator yields a workload's request stream. The seed drives event
// choice, order, domain rotation and which requests retransmit; nothing
// depends on time, so one seed is one stream.
type generator struct {
	sp    spec
	seed  int64
	rng   *rand.Rand
	zipf  *rand.Zipf
	pairs []event  // one corpus event per distinct (file, process), seed-shuffled
	doms  []string // distinct corpus domains, corpus order
	urls  []string // one URL per domain
	base  []int    // per pair, the domain index of rotation round 0
	fresh int      // fresh keys handed out so far
	seq   int
}

func newGenerator(w *world, sp spec, seed int64) (*generator, error) {
	g := &generator{sp: sp, seed: seed, rng: rand.New(rand.NewSource(seed))}
	seenPair := map[[2]string]bool{}
	seenDom := map[string]bool{}
	for i := range w.events {
		e := &w.events[i]
		if p := [2]string{string(e.File), string(e.Process)}; !seenPair[p] {
			seenPair[p] = true
			g.pairs = append(g.pairs, *e)
		}
		if e.Domain != "" && !seenDom[e.Domain] {
			seenDom[e.Domain] = true
			g.doms = append(g.doms, e.Domain)
			g.urls = append(g.urls, "http://"+e.Domain+"/dl/bench.exe")
		}
	}
	if len(g.pairs) <= hotKeys || len(g.doms) < 2 {
		return nil, fmt.Errorf("corpus too small: %d (file, process) pairs, %d domains", len(g.pairs), len(g.doms))
	}
	g.rng.Shuffle(len(g.pairs), func(i, j int) { g.pairs[i], g.pairs[j] = g.pairs[j], g.pairs[i] })
	g.base = make([]int, len(g.pairs))
	for i := range g.base {
		g.base[i] = g.rng.Intn(len(g.doms))
	}
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, hotKeys-1)
	return g, nil
}

// withDomain is pair i carrying the domain of rotation round r.
func (g *generator) withDomain(i, r int) event {
	e := g.pairs[i]
	d := (g.base[i] + r) % len(g.doms)
	e.Domain, e.URL = g.doms[d], g.urls[d]
	return e
}

// hotEvent draws from the hot set: the first hotKeys shuffled pairs,
// each with its round-0 domain, so the same key recurs.
func (g *generator) hotEvent() event { return g.withDomain(int(g.zipf.Uint64()), 0) }

// freshEvent hands out a (file, process, domain) key no earlier event
// of this stream carried: the pairs outside the hot set in turn, and on
// every further pass over them the next domain of the rotation.
func (g *generator) freshEvent() (event, error) {
	pool := len(g.pairs) - hotKeys
	i, r := hotKeys+g.fresh%pool, g.fresh/pool
	if r >= len(g.doms) {
		return event{}, fmt.Errorf("fresh keys exhausted after %d events", g.fresh)
	}
	g.fresh++
	return g.withDomain(i, r), nil
}

// next builds the following request of the stream, body not yet encoded.
func (g *generator) next() (*request, error) {
	r := &request{seq: g.seq, events: make([]event, g.sp.batch)}
	g.seq++
	for i := range r.events {
		var err error
		if g.sp.hotShare > 0 && g.rng.Float64() < g.sp.hotShare {
			r.events[i] = g.hotEvent()
		} else if r.events[i], err = g.freshEvent(); err != nil {
			return nil, err
		}
	}
	if g.sp.journal {
		r.id = fmt.Sprintf("bench-%d-%07d", g.seed, r.seq)
	}
	if g.sp.retransmit > 0 {
		r.resend = g.rng.Float64() < g.sp.retransmit
		r.pick = g.rng.Float64()
	}
	return r, nil
}

// encode renders the request body in the workload's wire format.
func (r *request) encode(sp spec) (err error) {
	r.body, err = encodeBody(r.events, sp.binary)
	return err
}

func eventKey(e *event) key { return key{string(e.File), string(e.Process), e.Domain} }
