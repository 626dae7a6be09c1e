package lintkit

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Main is the entry point of the driver binary (cmd/longtailvet):
// `longtailvet [-json] <packages>` loads the matched packages (Load),
// runs the analyzers over them and prints findings in vet format. Exit
// code 2 means findings, 1 means an internal error, 0 means clean.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON instead of vet text")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] <packages>\n\n", progname)
		fmt.Fprintf(os.Stderr, "analyzers:\n")
		for _, a := range analyzers {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(emit(res, *jsonOut))
}

// jsonFinding is the machine-readable finding shape `-json` emits.
type jsonFinding struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col,omitempty"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressedBy,omitempty"`
}

// jsonReport is the `-json` document: active findings plus every
// //lint:allow-suppressed finding with its documented reason — the
// machine-readable audit trail CI archives as LINT_report.json.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed []jsonFinding `json:"suppressed"`
}

func toJSONFindings(diags []Diagnostic) []jsonFinding {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message, SuppressedBy: d.SuppressReason,
		})
	}
	return out
}

// emit prints findings and returns the process exit code. Only active
// findings fail the run; suppressed ones appear in -json output only.
func emit(res *Result, jsonOut bool) int {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(jsonReport{
			Findings:   toJSONFindings(res.Diags),
			Suppressed: toJSONFindings(res.Suppressed),
		})
	} else {
		for _, d := range res.Diags {
			fmt.Fprintln(os.Stderr, d.String())
		}
	}
	if len(res.Diags) > 0 {
		return 2
	}
	return 0
}
