package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/avclass"
	"repro/internal/avsim"
	"repro/internal/avtype"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
)

// genData generates a synthetic download-telemetry dataset, runs the
// ground-truth labeling pipeline over it, and writes the result in the
// line-JSON format of internal/export: one header line followed by
// meta/event/truth/url records.
func genData(fs *flag.FlagSet, args []string) error {
	cfg := corpusFlags(fs)
	out := fs.String("o", "-", "output path ('-' for stdout)")
	fs.Parse(args)

	res, err := synth.Generate(*cfg)
	if err != nil {
		return err
	}
	lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
	if err != nil {
		return err
	}
	if err := lab.LabelStore(res.Store, res.Samples); err != nil {
		return err
	}
	if err := writeFile(*out, func(w io.Writer) error {
		return export.WriteStoreWithOracle(w, res.Store, res.Oracle)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "longtail gendata: wrote %d events, %d files\n",
		res.Store.NumEvents(), len(res.Store.Files()))
	return nil
}

// analyze loads a dataset in the gendata line-JSON format and runs the
// measurement analytics over it: label mix, prevalence, top domains and
// infection transitions. Any telemetry shaped like the paper's 5-tuples
// works, not only the synthetic generator's.
func analyze(fs *flag.FlagSet, args []string) error {
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("want one dataset file, got %d arguments", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	store, oracle, err := export.ReadStoreWithOracle(f)
	if err != nil {
		return err
	}
	store.Freeze()
	an, err := analysis.New(store, oracle)
	if err != nil {
		return err
	}

	fmt.Printf("loaded %d events, %d files, %d machines across %d months\n\n",
		store.NumEvents(), len(store.DownloadedFiles()), len(store.Machines()),
		len(store.Months()))

	var counts [5]int
	files := store.DownloadedFiles()
	for _, fh := range files {
		counts[store.Label(fh)]++
	}
	tbl := report.NewTable("label mix", "label", "files", "share")
	for _, l := range []dataset.Label{
		dataset.LabelBenign, dataset.LabelLikelyBenign, dataset.LabelMalicious,
		dataset.LabelLikelyMalicious, dataset.LabelUnknown,
	} {
		tbl.AddRow(l.String(), report.Count(counts[l]),
			report.Pct(float64(counts[l])/float64(len(files))))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	ps := an.Prevalence()
	fmt.Printf("\nprevalence-1 share: %s; machines touching unknowns: %s\n",
		report.Pct(ps.All.Fraction(1)), report.Pct(an.MachinesTouchingUnknown()))

	overall, _, malicious := an.DomainPopularity(5)
	fmt.Println("\ntop domains by machines (overall):")
	for _, kv := range overall {
		fmt.Printf("  %-28s %s\n", kv.Key, report.Count(kv.Count))
	}
	fmt.Println("top domains by machines (malicious downloads):")
	for _, kv := range malicious {
		fmt.Printf("  %-28s %s\n", kv.Key, report.Count(kv.Count))
	}

	fmt.Println("\ninfection transitions:")
	for _, c := range an.AllTransitions() {
		if c.Anchored == 0 {
			continue
		}
		sameDay := 0.0
		if c.DeltaDays.Len() > 0 {
			sameDay = c.DeltaDays.At(1)
		}
		fmt.Printf("  %-8s anchored %s, transitioned %s (same-day %s)\n",
			c.Source, report.Count(c.Anchored), report.Count(c.Transitioned),
			report.Pct(sameDay))
	}
	return nil
}

// ruleMine trains the PART rule learner on one month of the synthetic
// telemetry and dumps the selected rules for an analyst to review. With
// -json the rule set is written in the format `longtaild -rules` and
// /admin/reload load.
func ruleMine(fs *flag.FlagSet, args []string) error {
	cfg := corpusFlags(fs)
	monthFlag := fs.String("month", "", "training month (YYYY-MM; default: first month)")
	tau := fs.Float64("tau", 0.001, "maximum training error rate for selected rules")
	showAll := fs.Bool("all", false, "also dump rules that failed selection")
	asJSON := fs.Bool("json", false, "emit the selected rules as JSON (load with longtaild -rules)")
	out := fs.String("o", "-", "output path for -json ('-' for stdout)")
	fs.Parse(args)

	p, err := experiments.Run(*cfg)
	if err != nil {
		return err
	}
	months := p.Store.Months()
	if len(months) == 0 {
		return fmt.Errorf("no data generated")
	}
	month := months[0]
	if *monthFlag != "" {
		found := false
		for _, m := range months {
			if m.String() == *monthFlag {
				month, found = m, true
				break
			}
		}
		if !found {
			return fmt.Errorf("month %q not in dataset (have %v)", *monthFlag, months)
		}
	}

	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return err
	}
	insts, err := ex.Instances(p.Store.EventIndexesInMonth(month))
	if err != nil {
		return err
	}
	clf, err := classify.Train(insts, *tau, classify.Reject)
	if err != nil {
		return err
	}
	if *asJSON {
		return writeFile(*out, func(w io.Writer) error { return serve.ExportRules(w, clf) })
	}
	malicious := 0
	for _, in := range insts {
		if in.Malicious {
			malicious++
		}
	}
	fmt.Printf("trained on %s: %d labeled instances (%d malicious, %d benign)\n",
		month, len(insts), malicious, len(insts)-malicious)
	fmt.Printf("PART produced %d rules; %d selected at tau=%.2f%%\n\n",
		len(clf.AllRules), len(clf.Rules), 100**tau)
	for _, r := range clf.Rules {
		fmt.Printf("[cov=%4d err=%2d] %s\n", r.Covered, r.Errors, r.String())
	}
	if *showAll {
		fmt.Printf("\nrules failing selection:\n")
		selected := make(map[string]bool, len(clf.Rules))
		for _, r := range clf.Rules {
			selected[r.String()] = true
		}
		for _, r := range clf.AllRules {
			if !selected[r.String()] {
				fmt.Printf("[cov=%4d err=%2d] %s\n", r.Covered, r.Errors, r.String())
			}
		}
	}
	return nil
}

// eachLabelLine calls fn with every non-empty line of r decoded as one
// JSON object of engine name → AV label: the input of avclass and avtype.
func eachLabelLine(r io.Reader, fn func(labels map[string]string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var labels map[string]string
		if err := json.Unmarshal(sc.Bytes(), &labels); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fn(labels)
	}
	return sc.Err()
}

// avClass is the family labeler the paper uses for Figure 1, after the
// AVclass tool: it prints each stdin line's family and the number of
// engines behind it, or SINGLETON when no token reaches support. With
// -aliases it first detects aliases over the whole input, prints the
// map to stderr and labels with it (AVclass's two-phase workflow).
func avClass(fs *flag.FlagSet, args []string) error {
	detectAliases := fs.Bool("aliases", false, "run alias detection over the input first")
	minSupport := fs.Int("support", 2, "minimum engines that must agree on a family token")
	fs.Parse(args)

	var corpus []map[string]string
	if err := eachLabelLine(os.Stdin, func(labels map[string]string) {
		corpus = append(corpus, labels)
	}); err != nil {
		return err
	}
	opts := []avclass.Option{avclass.WithMinSupport(*minSupport)}
	if *detectAliases {
		aliases := avclass.AliasMap(avclass.NewLabeler().DetectAliases(corpus, 20, 0.94))
		for alias, canonical := range aliases {
			fmt.Fprintf(os.Stderr, "alias: %s -> %s\n", alias, canonical)
		}
		opts = append(opts, avclass.WithAliases(aliases))
	}
	labeler := avclass.NewLabeler(opts...)
	for _, labels := range corpus {
		if res := labeler.Label(labels); res.HasFamily() {
			fmt.Printf("%s\t%d\n", res.Family, res.Support)
		} else {
			fmt.Println("SINGLETON")
		}
	}
	return nil
}

// avType is the behaviour-type extractor the paper released as an
// open-source tool (Section II-C): for each stdin line it prints the
// behaviour type and the rule that resolved it. The input line
//
//	{"Symantec":"Trojan.Zbot","McAfee":"Downloader-FYH!6C7411D1C043","Kaspersky":"Trojan-Spy.Win32.Zbot.ruxa","Microsoft":"PWS:Win32/Zbot"}
//
// prints
//
//	banker	voting
func avType(fs *flag.FlagSet, args []string) error {
	fs.Parse(args)
	ex := avtype.NewExtractor(nil)
	var stats avtype.Stats
	if err := eachLabelLine(os.Stdin, func(labels map[string]string) {
		typ, res := ex.Extract(labels)
		stats.Observe(res)
		fmt.Printf("%s\t%s\n", typ, res)
	}); err != nil {
		return err
	}
	if stats.Total > 1 {
		fmt.Fprintf(os.Stderr, "resolved: unanimous %.0f%%, voting %.0f%%, specificity %.0f%%, manual %.0f%% (paper: 44/28/23/5)\n",
			100*stats.Share(avtype.ResolvedUnanimous), 100*stats.Share(avtype.ResolvedVoting),
			100*stats.Share(avtype.ResolvedSpecificity), 100*stats.Share(avtype.ResolvedManual))
	}
	return nil
}
