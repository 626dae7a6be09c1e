# Tier-1 verification (ROADMAP.md): build + vet + race-enabled tests,
# plus a gofmt cleanliness gate, the project lint suite (longtailvet)
# and a short fuzz smoke over the wire codec and the journal recovery
# path. `make verify` is the one command CI and pre-commit hooks run;
# `make verify-fast` is the same gate minus the fuzz smoke, for tight
# edit-compile loops; it also runs every layer benchmark for one
# iteration, so one that stops compiling or panics fails the gate. The
# chaos scenarios are go tests (TestRunChaos*, TestChaos*), so `test`
# runs each exactly once and leaves the report CI archives; the
# `chaos-*` targets re-run one scenario verbosely and are part of no
# other target. Performance has two instruments: `go run ./bench`
# (e2e-bench, e2e-compare — real daemons, the numbers a PR is accepted
# on; e2e-record appends one run of it to the committed trajectory,
# PERF_history.jsonl) and `make bench-layers` (seconds-long
# microbenchmarks beside the code); `make bench` is the paper's
# reproduction run.

GO ?= go
LONGTAILVET ?= bin/longtailvet

.PHONY: verify verify-fast build vet test fmtcheck lint lint-report \
	longtailvet staticcheck govulncheck bench \
	chaos-serve chaos-cluster chaos-lifecycle fuzz-smoke \
	e2e-bench e2e-compare e2e-record bench-layers bench-layers-smoke loc daemon-deps \
	metrics-format

verify: verify-fast fuzz-smoke

verify-fast: build vet test fmtcheck lint daemon-deps metrics-format bench-layers-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	LIFECYCLE_REPORT=$(CURDIR)/LIFECYCLE_shadow.json $(GO) test -race ./...

fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; \
	fi

# Fault injection stays out of the daemons: the fault kit and the chaos
# fixture are linked by tests only (the chaos scenarios are _test.go
# files), so neither binary may depend on them.
daemon-deps:
	@out="$$($(GO) list -deps ./cmd/longtaild ./cmd/longtailrouter | grep -E '^repro/internal/(faults|chaoskit)$$')"; \
	if [ -n "$$out" ]; then \
		echo "the daemons depend on fault injection:"; echo "$$out"; exit 1; \
	fi

# One writer of the exposition format: internal/obs renders every
# /metrics line from the series declared on a registry, so a format
# string that starts with a longtail_ name and holds a % verb anywhere
# else (test files, testdata fixtures and bench/ aside) is a second
# writer.
metrics-format:
	@out="$$(grep -rnE --include='*.go' --exclude='*_test.go' '["`]longtail_[^"`]*%[-+# 0-9.]*[a-zA-Z]' . | grep -vE '^\./(internal/obs|bench)/|/testdata/')"; \
	if [ -n "$$out" ]; then \
		echo "exposition lines formatted outside internal/obs:"; printf '%s\n' "$$out"; exit 1; \
	fi

# The project's own static-analysis suite (internal/lint, DESIGN.md
# §10): five analyzers — determinism, lockguard, retrypolicy, errwrap
# and metricdrift, the last fed by the metric literals the loader
# collects for the whole module. One sweep loads every package once,
# _test.go files included; exit status 2 on findings fails the target.
longtailvet:
	@mkdir -p $(dir $(LONGTAILVET))
	$(GO) build -o $(LONGTAILVET) ./cmd/longtailvet

lint: longtailvet
	$(LONGTAILVET) ./...

# Machine-readable findings for CI: the same tree-wide sweep rendered
# as JSON — active findings plus every //lint:allow-suppressed site
# with its documented reason, the audit trail DESIGN.md §10 tabulates.
# The report file is written even when findings exist; the exit status
# still fails the target so CI cannot archive a red report silently.
lint-report: longtailvet
	$(LONGTAILVET) -json ./... > LINT_report.json

# Optional third-party gates: run only when the tool is installed, so
# `make verify` stays dependency-free (ROADMAP.md: stdlib only).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# Native-fuzzing smoke: the single-event codec the /classify endpoint
# parses on every request — the reference decoder, and the fast path
# that runs in front of it (canonical-line parser, string encoder and
# stamp codec, each held to its encoding/json or package-time oracle,
# and the verdict-line parser on the reply side) — the journal recovery
# path that must survive torn tails on any shard subset, arbitrary
# bytes in a segment and a compaction killed at any of its crash points
# (one fuzzer over the one on-disk format), the ledger held to its
# reference model through accepts, results, compactions, reopens,
# crashes, failing appends and handoffs, the routed cluster held to its
# reference model through sends, kill -9s, restarts, leaves, joins,
# partitions and probes under link faults (every input boots three
# replicas and a router and is dozens of loopback conversations, hence
# -fuzzminimizetime), the //lint:allow directive
# parser, and the compiled feature context's table (its seeds include a
# 70,000-byte key, and minimizing inputs that size for the default
# minute each would be the whole smoke, hence -fuzzminimizetime), and
# the router's link to its replicas against arbitrary reply bytes, with
# http.Transport as its oracle, and the node's and router's front against
# arbitrary request bytes, with http.Server as its oracle (every input is
# a few loopback conversations, so minimizing each new one for the
# default minute would stall it too). Nine at 20s,
# the fast path's four and the link at 15s: about four and a half
# minutes in all.
fuzz-smoke:
	$(GO) test -fuzz=FuzzUnmarshalEventLine -fuzztime=20s -run '^$$' ./internal/export/
	$(GO) test -fuzz=FuzzParseEventLineRaw -fuzztime=15s -run '^$$' ./internal/export/
	$(GO) test -fuzz=FuzzJSONStringEncoders -fuzztime=15s -run '^$$' ./internal/export/
	$(GO) test -fuzz=FuzzStampCodec -fuzztime=15s -run '^$$' ./internal/export/
	$(GO) test -fuzz=FuzzParseVerdictLineRaw -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzLinkResponse -fuzztime=15s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzFrontRequest -fuzztime=20s -fuzzminimizetime=10x -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzRecovery -fuzztime=20s -run '^$$' ./internal/journal/
	$(GO) test -fuzz=FuzzLedger -fuzztime=20s -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzCluster -fuzztime=20s -fuzzminimizetime=10x -run '^$$' ./internal/serve/
	$(GO) test -fuzz=FuzzParseAllowDirective -fuzztime=20s -run '^$$' ./internal/lint/lintkit/
	$(GO) test -fuzz='^FuzzBinaryEvents$$' -fuzztime=20s -run '^$$' ./internal/serve/
	$(GO) test -fuzz='^FuzzBinaryVerdicts$$' -fuzztime=20s -run '^$$' ./internal/serve/
	$(GO) test -fuzz='^FuzzContextLookup$$' -fuzztime=20s -fuzzminimizetime=10x -run '^$$' ./internal/features/

# Serving-layer chaos harness under the race detector: kill -9
# mid-replay with injected transport faults and a torn journal tail,
# then restart + recovery with exactly-once verdict accounting.
chaos-serve:
	$(GO) test -race -run TestChaosServe -count=1 -v ./internal/experiments/

# Cluster-wide chaos harness under the race detector: a 3-replica
# consistent-hash cluster behind the health-aware router, driven
# through link faults, a mid-replay replica kill -9 + journal
# recovery, a router-side partition, and a generation-consistent
# reload with one replica unreachable — holding the cluster to zero
# lost batches, zero duplicated work, byte-identical verdicts.
chaos-cluster:
	$(GO) test -race -run TestChaosCluster -count=1 -v ./internal/experiments/

# Lifecycle chaos harness under the race detector: champion/challenger
# shadow evaluation against a live 3-replica cluster — an over-broad
# challenger the FP gate must reject without serving, a garbage reload
# degrading one replica, and a retrained challenger whose promotion
# must converge the fleet through the router's generation-consistent
# fan-out with zero lost batches, zero wrong-generation verdicts and
# zero dropped shadow batches. The shadow-evaluation disagreement
# report lands in LIFECYCLE_shadow.json for CI to archive.
chaos-lifecycle:
	LIFECYCLE_REPORT=$(CURDIR)/LIFECYCLE_shadow.json \
		$(GO) test -race -run TestChaosLifecycle -count=1 -v ./internal/experiments/

# The repo benchmark (BENCHMARK.json, bench/README.md): real daemons
# over real sockets, all four workloads, every end-to-end and per-layer
# metric printed by name. Build outputs and journals land in
# .bench_work/ (gitignored).
e2e-bench:
	$(GO) run ./bench --workload all

# Compare two files of runs written with `go run ./bench ... -out F`
# by the bounds BENCHMARK.json fixes: make e2e-compare A=parent.jsonl B=change.jsonl
e2e-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make e2e-compare A=runs-a.jsonl B=runs-b.jsonl"; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# The trajectory in git: one run of every workload, each record as
# `-out` writes it plus the commit (`-dirty` when the tree has changes
# on top of it), the runner's shape and the toolchain, appended to
# PERF_history.jsonl; the file keeps the last 50 lines per (workload,
# nproc), so it stays a few hundred lines however long the project
# runs. Commit it with the change it measures: "which commit moved
# cpu_us_per_event" is then `git log -p PERF_history.jsonl`. bench/ is
# not involved beyond being run.
PERF_HISTORY ?= PERF_history.jsonl
e2e-record:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./bench -workload all -trace 0 -out "$$tmp" && \
	meta="\"sha\":\"$$(git describe --always --dirty --abbrev=12)\",\"nproc\":$$(nproc),\"gomaxprocs\":$${GOMAXPROCS:-$$(nproc)},\"go\":\"$$($(GO) env GOVERSION)\"" && \
	sed "s/}$$/,$$meta}/" "$$tmp" >> $(PERF_HISTORY) && \
	awk 'function key(l) { match(l, /"workload":"[^"]*"/); w = substr(l, RSTART, RLENGTH); match(l, /"nproc":[0-9]+/); return w substr(l, RSTART, RLENGTH) } \
		NR == FNR { total[key($$0)]++; next } \
		{ k = key($$0); if (++seen[k] > total[k] - 50) print }' $(PERF_HISTORY) $(PERF_HISTORY) > "$$tmp" && \
	cp "$$tmp" $(PERF_HISTORY)

# The layer benchmarks beside the code they measure: the engine's
# per-frame work on fresh, hot and Zipf-mixed keys (ns/event,
# allocs/event, bytes the worker state retains), feature extraction
# from several goroutines in trace order, in a shuffled order (every
# lookup cold, as fresh-key traffic is) and on the two defaulted
# lookups, the compile of the serving context it reads (ms, bytes,
# slots, longest probe run), the indexed match on the
# 35-rule set a daemon trains at boot beside the linear reference scan
# (0 allocs/op indexed), and the ledger on a full
# retention window of 2,048 replies — one compaction (ms, how long a
# writer stalls behind the shard locks, bytes written), one restart,
# one dedup lookup hit and miss — and the line codec under every JSON
# request: a 1,024-event batch parsed (canonical lines, lines with an
# offset stamp, lines that fall back to encoding/json) and rendered, a
# 1,024-verdict reply rendered and parsed (ns/event, allocs/event; 0 on
# the canonical paths) — and the durable small-batch path: a batch of
# 16 to 1,024 fresh events through the engine as the handler submits
# it, short frames on the caller or held to the workers; a 64-event
# accept record made durable, append and wait apart; and the journal's
# raw append on real files, durable and async, one and two shards, at
# the accept record's and the result record's size, into preallocated
# segments and into growing ones (fsyncs/op beside ns/op) — and the
# router hop: one 64-event batch through Router.Forward to a null
# replica over loopback, on the link and on net/http's transport
# (dials/op beside ns/op), and the ring pick — and the front: one
# router-shaped exchange (a 21 KB or 225 KB post read under the body
# cap, an 8 KB reply) served by serve.Front and by net/http's server
# (ns/op, allocs/op). Seconds per run: the
# first thing to look at before a 30-second real-process pair
# (e2e-compare).
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCHFLAGS) ./internal/serve ./internal/journal ./internal/cluster ./internal/export ./internal/features ./internal/classify ./internal/synth ./cmd/longtaild

bench-layers-smoke:
	$(MAKE) bench-layers BENCHFLAGS=-benchtime=1x

# The paper's reproduction run: one benchmark per table and figure plus
# the ablations, and the two in-process serve benches the shadow-tax
# figure reads.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Non-test lines of Go per package directory and tree-wide, the way the
# simplicity issues count them: every *.go that is not a *_test.go,
# lint testdata included, bench/ (the benchmark's own program) left
# out; then the two other totals ROADMAP items 6, 12 and 13 set
# targets for — the lint subtotal (internal/lint* and cmd/longtailvet*
# of the lines above) and the *_test.go lines outside bench/ — and the
# number of main packages under cmd/. CHANGES.md quotes this output,
# not a hand tally.
loc:
	@total=0; lint=0; \
	for d in $$(find . -path ./bench -prune -o -name '*.go' -not -name '*_test.go' -print | xargs -n1 dirname | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
		printf '%7d  %s\n' $$n $${d#./}; total=$$((total+n)); \
		case $$d in ./internal/lint*|./cmd/longtailvet*) lint=$$((lint+n));; esac; \
	done; \
	printf '%7d  total outside bench/\n' $$total; \
	printf '%7d  of them lint (internal/lint*, cmd/longtailvet*)\n' $$lint; \
	printf '%7d  *_test.go outside bench/\n' $$(find . -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l) && \
	printf '%7d  main packages under cmd/\n' $$($(GO) list -f '{{.Name}}' ./cmd/... | grep -cx main)
