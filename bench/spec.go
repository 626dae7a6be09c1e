package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Corpus and daemon settings are pinned: they are the daemons' context,
// like weights, and never follow the workload seed or the commit under
// test. The daemons generate the same corpus from their own flag
// defaults, which these mirror.
const (
	corpusSeed  = 42
	corpusScale = 0.02
	corpusTau   = 0.001

	engineShards  = 4
	engineQueue   = 8192
	journalShards = 2
	// resultRetention bounds each node's dedup ledger to the last 2,048
	// answered batches. The generator only retransmits IDs at most half
	// that many answers old, so every retransmit is a ledger hit, while
	// the ledger reaches its steady size within seconds and every
	// compaction snapshot stays below the journal's 64 MiB frame limit,
	// which the default retention of 65,536 exceeds after a few thousand
	// 256-event batches (compaction then fails and the request gets a 500).
	resultRetention = 2048
)

// spec is one workload: which processes run, what the wire carries and
// which three open-loop request rates are offered. Rates are frozen
// here and must never be derived from the commit under test.
type spec struct {
	name    string
	nodes   int  // longtaild processes
	router  bool // front them with longtailrouter
	journal bool // -journal-dir on every node, and a request ID on every request
	binary  bool // binary wire format
	batch   int  // events per request

	hotShare   float64 // share of events drawn from the Zipf hot set (0: every key fresh)
	retransmit float64 // share of requests that resend an ID answered >= retransmitAge earlier

	rates [3]float64 // lo, mid, hi requests per second

	// refSelf is the generator's own CPU time per event, in µs, in the
	// closed phase and over the open steps, as first measured on the
	// definition box (median of ten runs); see endToEnd. Frozen like the
	// rates: it only fixes the unit the time metrics are stated in, and
	// cancels out of every comparison between two commits.
	refSelf [2]float64
}

var specs = []spec{
	//lint:allow metricdrift a workload name that happens to start with longtail_, not an exposition metric
	{name: "longtail_durable", nodes: 1, journal: true, batch: 64,
		rates: [3]float64{200, 400, 600}, refSelf: [2]float64{4.1, 7.9}},
	{name: "bulk_stateless", nodes: 1, batch: 1024,
		rates: [3]float64{40, 80, 120}, refSelf: [2]float64{0.59, 1.0}},
	// resubmit_binary's rates are 20, 40 and 60% of its closed-phase rate
	// as measured once on the definition box, 1,618 req/s, rounded to two
	// digits. It shares longtail_durable's batch size, so the two differ
	// in traffic shape and wire only.
	{name: "resubmit_binary", nodes: 1, journal: true, binary: true, batch: 64,
		hotShare: 0.9, retransmit: 0.25,
		rates: [3]float64{320, 650, 970}, refSelf: [2]float64{3.7, 6.4}},
	{name: "cluster_routed", nodes: 3, router: true, journal: true, batch: 64,
		rates: [3]float64{150, 300, 450}, refSelf: [2]float64{4.0, 8.0}},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one metric row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is what the benchmark reads of BENCHMARK.json: the names,
// units, directions and bounds the result lines and -compare are
// checked against.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
