.PHONY: all build test check bench budget-gate soc-reuse heap-gate parallel-smoke perf-smoke perf-trend hotpath-lint loc ledger-smoke serve-smoke serve-bench validate validate-smoke update-golden clean

# Worker domains for smoke runs (0 = auto); CI passes JOBS=2 so the
# parallel path is exercised on every push.
JOBS ?= 1

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: what CI runs on every push.
check:
	dune build && dune runtest

bench:
	dune exec bench/main.exe

# CI gate for the fast mode (--budget): fig1 and fig2 at scale 8, in
# full and cut to each kernel's first 160k measured instructions, each
# side from a cleared trace cache.  Fails unless every cell is within 5%
# of the full run and each figure runs at least 5x faster.  Release
# profile: it is a wall-clock ratio.
budget-gate:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- budget

# CI gate for SoC reuse: 3,000 cold scale-2 fig1/fig2 kernel cells
# (without MIP) in one process; fails if the major heap grows by more
# than 1% between cell 500 and cell 3,000.  Release profile, for speed.
soc-reuse:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- soc-reuse

# CI gate for heap accounting: every fig1/fig2 kernel at scale 1 (MIP
# included) plus one cell per platform; prints the cached trace words,
# the memoized chase permutations and the cache/TLB/predictor spares,
# and fails if the major heap exceeds their sum by more than 10%.
heap-gate:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- heap

# CI smoke for the Domain worker pool: fig1 regenerated with 2 worker
# domains must be byte-identical to the sequential run.
parallel-smoke: build
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 1 > _build/parallel-smoke-seq.txt
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 2 > _build/parallel-smoke-par.txt
	@cmp _build/parallel-smoke-seq.txt _build/parallel-smoke-par.txt \
		&& echo "parallel-smoke: OK (fig1 --jobs 2 byte-identical to --jobs 1)"

# CI smoke for the compiled-trace engine: every fig1/fig2 cell replayed
# from compiled traces (jobs=1) must be bit-identical to the reference
# interpreter in test/oracle, which feeds the lazy streams one
# instruction at a time.  Identity only: no throughput is measured.
# Release profile: the dev profile's -opaque makes the check needlessly
# slow.
perf-smoke:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- perf-identity

# The CI perf-trend gate: the identity check above plus the trace
# engine's host MIPS on a fixed kernel mix.  Writes BENCH_perf.json and
# a ledger run report whose aggregate_mips `history check` trends
# against earlier `bench perf` runs on the same host.
perf-trend:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- perf

# CI lint for the exact replay path and the app path: no function in the
# release objects of lib/{uarch,cache,dram,platform,branch,interconnect,
# smpi,trace,prog,workloads,isa} may call OCaml's polymorphic comparison
# (a C call per use); names each one that does.
hotpath-lint:
	dune build --profile release bench/main.exe bin/simbridge_cli.exe
	sh tools/hotpath-lint.sh

# Source size: the .ml + .mli line counts of lib/ and bin/.  CI appends
# this to each build's step summary, so the size of lib/ is tracked on
# every push.
loc:
	@for d in lib bin; do \
		printf '%s/: %s lines (.ml + .mli)\n' $$d \
			"$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

# CI smoke for the run ledger: a pooled fig1 run must emit a run report
# and a span-bearing Perfetto trace (both must load as JSON), two
# recorded runs must pass the regression gate, and an injected 20% MIPS
# drop must fail it.
ledger-smoke: build
	@rm -f _build/ledger-smoke-history.jsonl
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 2 \
		--report _build/ledger-report-1.json --trace _build/ledger-trace.json > /dev/null
	@grep -q '"cat":"span"' _build/ledger-trace.json \
		&& echo "ledger-smoke: trace carries spans"
	@grep -q '"parent":' _build/ledger-trace.json \
		&& echo "ledger-smoke: spans carry parent ids"
	@python3 -c 'import json; t = json.load(open("_build/ledger-trace.json")); r = json.load(open("_build/ledger-report-1.json")); assert t["traceEvents"] and r["schema"] == "simbridge-run-report/1"' \
		&& echo "ledger-smoke: trace and run report load as JSON"
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs $(JOBS) \
		--report _build/ledger-report-2.json --trace "" > /dev/null
	@dune exec bin/simbridge_cli.exe -- history record \
		--history _build/ledger-smoke-history.jsonl _build/ledger-report-1.json
	@dune exec bin/simbridge_cli.exe -- history record \
		--history _build/ledger-smoke-history.jsonl _build/ledger-report-2.json
	@dune exec bin/simbridge_cli.exe -- history show --history _build/ledger-smoke-history.jsonl
	@dune exec bin/simbridge_cli.exe -- history check --history _build/ledger-smoke-history.jsonl
	@python3 -c "import json; lines = open('_build/ledger-smoke-history.jsonl').read().splitlines(); r = json.loads(lines[-1]); r['run_id'] += '-regressed'; r['metrics']['aggregate_mips'] *= 0.8; open('_build/ledger-smoke-regressed.jsonl', 'w').write('\n'.join(lines + [json.dumps(r)]) + '\n')"
	@if dune exec bin/simbridge_cli.exe -- history check \
		--history _build/ledger-smoke-regressed.jsonl; then \
		echo "ledger-smoke: FAIL (injected 20% MIPS regression passed the gate)"; exit 1; \
	else \
		echo "ledger-smoke: OK (reports recorded, gate passes, injected regression caught)"; \
	fi

# The fidelity gate (ISSUE 5): recompute every fig1-7 cell through the
# Runner and verdict it against results/*.csv plus the transcribed paper
# expectation bands (results/paper-expectations.json).  --strict because
# the simulator is deterministic: a healthy tree is fully Exact, so even
# a within-band wobble is news.  Writes validate-report.json (uploaded
# as a CI artifact).
validate: build
	dune exec bin/simbridge_cli.exe -- validate --strict --jobs $(JOBS) --report validate-report.json \
		--run-report validate-run-report.json

# CI smoke alias: same gate, named like the other smoke steps.
validate-smoke: validate

# The single sanctioned way to refresh the golden CSVs: regenerates
# every figure, rewrites results/*.csv, and re-verifies (must end Exact).
# Commit the resulting diff together with the change that moved the
# numbers and an EXPERIMENTS.md note on why.
update-golden: build
	dune exec bin/simbridge_cli.exe -- validate --update-golden --strict --jobs $(JOBS) --report validate-report.json

clean:
	dune clean

# dune exec serialises on the build lock, so the daemon and its
# concurrent clients must run the built binary directly.
CLI := ./_build/default/bin/simbridge_cli.exe

# CI smoke for the serve daemon: boot it on a Unix socket, hit it with
# two concurrent clients (fig2 after fig1 so the cross-request trace
# cache is exercised), diff every payload against the one-shot CLI,
# check that a stats query is answered while a cold MIP cell computes,
# verify malformed flags (garbage --jobs, non-positive or non-finite
# --scale, non-positive --ranks/--budget) and empty-history handling, then SIGTERM and
# assert a clean drain (exit 0 + final run report written).
serve-smoke: build
	@rm -f _build/serve-smoke.sock _build/serve-report.json _build/serve-history.jsonl
	@if $(CLI) serve --jobs banana 2>_build/serve-usage.err; then \
		echo "serve-smoke: FAIL (--jobs banana accepted)"; exit 1; \
	else grep -qi "jobs" _build/serve-usage.err \
		&& echo "serve-smoke: garbage --jobs rejected with a usage error"; fi
	@for args in "workload MM -p banana-pi-sim --scale=0" "workload MM -p banana-pi-sim --scale=-1" \
		"workload MM -p banana-pi-sim --scale nan" "workload MM -p banana-pi-sim --scale=inf" \
		"csv fig1 --scale=0" "workload cg --ranks=-3" "workload cg --ranks 0" \
		"workload MM --budget=0" "workload MM --budget=-5"; do \
		$(CLI) $$args --report "" > /dev/null 2>_build/serve-usage.err; STATUS=$$?; \
		if [ $$STATUS -ne 124 ] || ! grep -q "option '--" _build/serve-usage.err; then \
			echo "serve-smoke: FAIL ('$$args' exited $$STATUS, want a usage error)"; exit 1; fi; \
	done; echo "serve-smoke: out-of-range --scale/--ranks/--budget rejected with usage errors"
	@$(CLI) history show --history _build/serve-history.jsonl \
		| grep -q "no history recorded yet" \
		&& echo "serve-smoke: empty history show exits 0 with a clear message"
	@$(CLI) history check --history _build/serve-history.jsonl; \
	STATUS=$$?; if [ $$STATUS -ne 2 ]; then \
		echo "serve-smoke: FAIL (empty-history check exited $$STATUS, want 2)"; exit 1; \
	else echo "serve-smoke: empty history check exits 2 (no data != regression)"; fi
	@$(CLI) csv fig1 --scale 0.1 > _build/serve-oracle-fig1.csv
	@$(CLI) csv fig2 --scale 0.1 > _build/serve-oracle-fig2.csv
	@$(CLI) serve --listen _build/serve-smoke.sock \
		--jobs $(JOBS) --report _build/serve-report.json --history _build/serve-history.jsonl & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do [ -S _build/serve-smoke.sock ] && break; sleep 0.1; done; \
	[ -S _build/serve-smoke.sock ] \
		|| { echo "serve-smoke: FAIL (socket never appeared)"; kill $$SERVE_PID 2>/dev/null; exit 1; }; \
	$(CLI) query fig1 --scale 0.1 \
		--connect _build/serve-smoke.sock > _build/serve-got-fig1.csv & C1=$$!; \
	$(CLI) query fig2 --scale 0.1 \
		--connect _build/serve-smoke.sock > _build/serve-got-fig2.csv & C2=$$!; \
	wait $$C1 && wait $$C2 \
		|| { echo "serve-smoke: FAIL (a query client errored)"; kill -TERM $$SERVE_PID; exit 1; }; \
	cmp _build/serve-oracle-fig1.csv _build/serve-got-fig1.csv \
		|| { echo "serve-smoke: FAIL (served fig1 differs from one-shot csv)"; kill -TERM $$SERVE_PID; exit 1; }; \
	cmp _build/serve-oracle-fig2.csv _build/serve-got-fig2.csv \
		|| { echo "serve-smoke: FAIL (served fig2 differs from one-shot csv)"; kill -TERM $$SERVE_PID; exit 1; }; \
	$(CLI) query --cell banana-pi-hw/MIP --scale 4 \
		--connect _build/serve-smoke.sock > _build/serve-got-mip.csv & C3=$$!; \
	for i in $$(seq 1 100); do \
		$(CLI) query --stats --connect _build/serve-smoke.sock > _build/serve-stats.json \
			|| { echo "serve-smoke: FAIL (stats query errored)"; kill -TERM $$SERVE_PID; exit 1; }; \
		grep -q '"running": 1' _build/serve-stats.json && break; sleep 0.05; \
	done; \
	grep -q '"running": 1' _build/serve-stats.json && kill -0 $$C3 2>/dev/null \
		|| { echo "serve-smoke: FAIL (stats not answered while a cold cell computes)"; kill -TERM $$SERVE_PID; exit 1; }; \
	wait $$C3 || { echo "serve-smoke: FAIL (the cold MIP query errored)"; kill -TERM $$SERVE_PID; exit 1; }; \
	echo "serve-smoke: stats answered (running 1) while a cold MIP cell computed"; \
	kill -TERM $$SERVE_PID; wait $$SERVE_PID; STATUS=$$?; \
	[ $$STATUS -eq 0 ] || { echo "serve-smoke: FAIL (daemon exited $$STATUS on SIGTERM)"; exit 1; }; \
	[ -f _build/serve-report.json ] \
		|| { echo "serve-smoke: FAIL (no final run report after drain)"; exit 1; }; \
	grep -q '"serve"' _build/serve-report.json \
		|| { echo "serve-smoke: FAIL (run report carries no serve section)"; exit 1; }; \
	$(CLI) history check --history _build/serve-history.jsonl \
		|| { echo "serve-smoke: FAIL (recorded serve run fails the history gate)"; exit 1; }; \
	echo "serve-smoke: OK (two concurrent clients byte-identical to one-shot CLI; clean SIGTERM drain)"

# The serve load gate: 1000 mixed fig1-7 queries from 4 concurrent
# pipelining clients against one daemon; every payload diffed against
# the sequential oracle, each of the 10 unique keys computed exactly
# once, and the cross-request trace-cache hit rate must be > 0.  Writes
# BENCH_serve.json (uploaded as a CI artifact).
serve-bench:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- serve
