// Command bench is the repository's benchmark: it builds the real
// longtaild and longtailrouter binaries, boots them on loopback with
// their journals on the real disk, drives them over sockets from this
// one process, checks every answer, and prints the metrics that
// BENCHMARK.json names. README.md in this directory defines each
// workload and metric.
//
// Usage:
//
//	go run ./bench -workload <name|all> -seed N [-seconds S] [-trace 0|1] [-out runs.jsonl]
//	go run ./bench -compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

const manifestPath = "BENCHMARK.json"

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func mainErr() error {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: event choice, order, domain rotation, retransmitted IDs")
	seconds := flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	out := flag.String("out", "", "append one JSON record per run to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, by the bounds of BENCHMARK.json")
	flag.Parse()

	mf, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compareFiles(os.Stdout, mf, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(mf.RunSeconds)
	}
	var todo []spec
	if *workload == "all" {
		todo = specs
	} else {
		sp, err := specByName(*workload)
		if err != nil {
			return err
		}
		todo = []spec{sp}
	}

	// The corpus stays live for the whole run (the verify pass and the
	// traced replay classify against it), so at the default setting
	// every collection marks a few hundred MB while the generator shares
	// two cores with the daemons it measures. Collect a quarter as often.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The closed phase has one caller per processor (two on the definition
	// box). The open steps may have four times as many requests in flight:
	// arrivals do not wait for replies, and on two connections a host that
	// ran three times slower for a minute, as the definition box does now
	// and then, left a step at 40% of the closed rate thousands of
	// requests behind its schedule. Never more than fill the node's ingest
	// queue, though: beyond it the node answers 429 by design, and the
	// admission ladder is not what these workloads measure.
	for _, sp := range todo {
		r := &runner{sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1,
			callers: runtime.NumCPU(), conns: min(4*runtime.NumCPU(), engineQueue/sp.batch), log: os.Stderr, scale: corpusScale}
		res, values, err := r.run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		defs := mf.EndToEnd
		if r.traced {
			defs = mf.PerLayer
		}
		if err := render(res, values, defs); err != nil {
			return err
		}
		if *out != "" {
			if err := appendRecord(*out, record{sp.name, r.seed, r.seconds, *trace, res}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
