.PHONY: all build test check bench sampling-smoke parallel-smoke perf-smoke perf-trend ledger-smoke serve-smoke serve-bench validate validate-smoke update-golden clean

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

# CI smoke for the sampled-simulation engine: re-run each workload in
# results/sampling-reference.csv under the default sampled policy and
# fail if the estimate drifts more than 10% from the checked-in full-run
# cycle count.
sampling-smoke: build
	@tail -n +2 results/sampling-reference.csv | while IFS=, read -r kernel platform scale cycles; do \
		dune exec bin/simbridge_cli.exe -- workload $$kernel --platform $$platform \
			--scale $$scale --sample default --jobs $(JOBS) --expect-cycles $$cycles --tolerance 0.10 \
			|| exit 1; \
	done

# CI smoke for the Domain worker pool: fig1 regenerated with 2 worker
# domains must be byte-identical to the sequential run.
parallel-smoke: build
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 1 > _build/parallel-smoke-seq.txt
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 2 > _build/parallel-smoke-par.txt
	@cmp _build/parallel-smoke-seq.txt _build/parallel-smoke-par.txt \
		&& echo "parallel-smoke: OK (fig1 --jobs 2 byte-identical to --jobs 1)"

# CI smoke for the compiled-trace engine: fig1/fig2 replayed from
# compiled traces must be bit-identical to the Seq reference path.
# Runs the identity half only — the 2x host-MIPS assertion (`bench perf`)
# is skipped because shared CI runners have no stable throughput to
# gate on.  Writes BENCH_perf.json (uploaded as a CI artifact).
# Release profile: the dev profile's -opaque makes throughput numbers
# meaningless and the identity check needlessly slow.
perf-smoke:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- perf-identity

# The CI perf-trend gate: remeasure the Seq baseline on THIS host first
# (ratio bars compared against another machine's baseline would gate on
# hardware, not code), then run the full replay gate — identity and
# trace >= 2x the same-host Seq baseline.  Writes BENCH_perf.json and a
# ledger run report whose aggregate_mips is the trace-engine number
# `history check` trends.
# Note: this overwrites results/perf-baseline.json in the working tree;
# don't commit the remeasured copy unless refreshing the baseline is
# the point of the change.
perf-trend:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- perf-baseline
	dune exec --profile release bench/main.exe -- perf

# CI smoke for the run ledger: a pooled fig1 run must emit a run report
# and a span-bearing Perfetto trace, two recorded runs must pass the
# regression gate, and an injected 20% MIPS drop must fail it.
ledger-smoke: build
	@rm -f _build/ledger-smoke-history.jsonl
	@dune exec bin/simbridge_cli.exe -- run fig1 --jobs 2 \
		--report _build/ledger-report-1.json --trace _build/ledger-trace.json > /dev/null
	@grep -q '"cat":"span"' _build/ledger-trace.json \
		&& echo "ledger-smoke: trace carries spans"
	@grep -q '"parent":' _build/ledger-trace.json \
		&& echo "ledger-smoke: spans carry parent ids"
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
# verify malformed flags (garbage --jobs, non-positive or non-finite
# --scale, non-positive --ranks) and empty-history handling, then SIGTERM and
# assert a clean drain (exit 0 + final run report written).
serve-smoke: build
	@rm -f _build/serve-smoke.sock _build/serve-report.json _build/serve-history.jsonl
	@if $(CLI) serve --jobs banana 2>_build/serve-usage.err; then \
		echo "serve-smoke: FAIL (--jobs banana accepted)"; exit 1; \
	else grep -qi "jobs" _build/serve-usage.err \
		&& echo "serve-smoke: garbage --jobs rejected with a usage error"; fi
	@for args in "workload MM -p banana-pi-sim --scale=0" "workload MM -p banana-pi-sim --scale=-1" \
		"workload MM -p banana-pi-sim --scale nan" "workload MM -p banana-pi-sim --scale=inf" \
		"csv fig1 --scale=0" "workload cg --ranks=-3" "workload cg --ranks 0"; do \
		$(CLI) $$args --report "" > /dev/null 2>_build/serve-usage.err; STATUS=$$?; \
		if [ $$STATUS -ne 124 ] || ! grep -q "option '--" _build/serve-usage.err; then \
			echo "serve-smoke: FAIL ('$$args' exited $$STATUS, want a usage error)"; exit 1; fi; \
	done; echo "serve-smoke: out-of-range --scale/--ranks rejected with usage errors"
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
# the sequential oracle, and the cross-request trace-cache hit rate
# must be > 0.  Writes BENCH_serve.json (uploaded as a CI artifact).
serve-bench:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- serve
