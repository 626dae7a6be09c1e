// Command longtail runs the full reproduction: it generates the
// synthetic telemetry, labels it with the ground-truth pipeline, and
// regenerates every table and figure from the paper's evaluation,
// printing measured values next to the paper's reported ones. Its verbs
// are the analyst's tools beside the measurements (verbs.go).
//
// Usage:
//
//	longtail [-seed N] [-scale F] [-only id1,id2] [-outdir dir] [-list]
//	longtail gendata [-seed N] [-scale F] [-o dataset.jsonl]
//	longtail analyze dataset.jsonl
//	longtail rulemine [-seed N] [-scale F] [-month YYYY-MM] [-tau F] [-all] [-json [-o rules.json]]
//	longtail avclass [-aliases] [-support N] < labels.jsonl
//	longtail avtype < labels.jsonl
//
// Experiment IDs follow the paper (table1..table17, fig1..fig6) plus
// the auxiliary studies (packers, rulestats, avtypestats, baselines,
// evasion, chains); -list enumerates them. An unknown verb or flag
// prints the usage and exits 2; any other failure exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/synth"
)

const usage = `usage:
  longtail [-seed N] [-scale F] [-only id1,id2] [-outdir dir] [-list]
  longtail gendata [-seed N] [-scale F] [-o dataset.jsonl]
  longtail analyze dataset.jsonl
  longtail rulemine [-seed N] [-scale F] [-month YYYY-MM] [-tau F] [-all] [-json [-o rules.json]]
  longtail avclass [-aliases] [-support N] < labels.jsonl
  longtail avtype < labels.jsonl
`

// verbs maps each verb to its run function, which parses its own flags
// from args.
var verbs = map[string]func(fs *flag.FlagSet, args []string) error{
	"gendata":  genData,
	"analyze":  analyze,
	"rulemine": ruleMine,
	"avclass":  avClass,
	"avtype":   avType,
}

func main() {
	name, run, args := "longtail", reproduce, os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, ok := verbs[args[0]]
		if !ok {
			fmt.Fprintf(os.Stderr, "longtail: unknown verb %q\n%s", args[0], usage)
			os.Exit(2)
		}
		name, run, args = "longtail "+args[0], verb, args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fs.PrintDefaults()
	}
	if err := run(fs, args); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// corpusFlags declares -seed and -scale, shared by every verb that
// builds a corpus, straight into the configuration it returns.
func corpusFlags(fs *flag.FlagSet) *synth.Config {
	cfg := synth.DefaultConfig(42, 0.02)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generation seed")
	fs.Float64Var(&cfg.Scale, "scale", cfg.Scale, "fraction of the paper's data volume (1.0 = 3M events)")
	return &cfg
}

// writeFile runs write against a file created at path and returns the
// first of write's error and the file's Close error; path "-" is stdout.
func writeFile(path string, write func(io.Writer) error) (err error) {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// reproduce runs the selected experiments, the command without a verb.
func reproduce(fs *flag.FlagSet, args []string) error {
	cfg := corpusFlags(fs)
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	outdir := fs.String("outdir", "", "also write each experiment's output to <outdir>/<id>.txt")
	fs.Parse(args)

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-10s %s\n", e.ID, e.Name)
		}
		return nil
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("generating synthetic telemetry (seed=%d scale=%v)...\n", cfg.Seed, cfg.Scale)
	p, err := experiments.Run(*cfg)
	if err != nil {
		return err
	}
	fmt.Printf("events=%s files=%s machines=%s (agent suppressed: %d not-executed, %d whitelisted-URL, %d prevalence-cap)\n\n",
		report.Count(p.Store.NumEvents()), report.Count(len(p.Store.DownloadedFiles())), report.Count(len(p.Store.Machines())),
		p.Result.AgentStats.DroppedNotExecuted, p.Result.AgentStats.DroppedWhitelistedURL,
		p.Result.AgentStats.DroppedPrevalenceCap)

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range selected {
		fmt.Printf("=== %s ===\n", e.Name)
		if *outdir == "" {
			err = e.Run(p, os.Stdout)
		} else {
			err = writeFile(filepath.Join(*outdir, e.ID+".txt"), func(f io.Writer) error {
				return e.Run(p, io.MultiWriter(os.Stdout, f))
			})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
