# Convenience entry points; dune does the real work.

BENCH := _build/default/bench/main.exe
REDFAT := _build/default/bin/redfat_cli.exe
EXAMPLES := $(wildcard examples/*.mc)
EXAMPLE_EXES := $(patsubst examples/%.ml,_build/default/examples/%.exe,$(wildcard examples/*.ml))

BENCH_DIFF := _build/default/tools/bench_diff.exe

# the experiments whose --out report is diffed against a committed
# bench/<exp>_baseline.json by tools/bench_diff
GATES := table1 serve rebuild fuzz

# every CI check, one matrix leg each; `make ci` runs the same list
CI_TARGETS := build test lint doc-check run-examples bench-smoke \
	pipeline-smoke fault-smoke serve-smoke rebuild-smoke fuzz-smoke \
	perf-smoke bench-table2-gate $(GATES:%=gate-%)

# the workloads of the repo benchmark (BENCHMARK.json, perfbench/)
PERF_WORKLOADS := table1-ref fuzz-short serve-mixed

.PHONY: all build test check lint doc-check run-examples bench bench-json \
	bench-smoke pipeline-smoke fault-smoke serve-smoke rebuild-smoke \
	fuzz-smoke perf-smoke bench-table2-gate gate $(GATES:%=gate-%) \
	$(GATES:%=baseline-%) ci ci-targets clean

all: build

build:
	dune build

test:
	dune runtest

# harden every MiniC example — with and without loop hoisting — and
# audit both with the rewrite-soundness linter: zero unaccounted
# memory accesses and zero unprovable hoists, or the build fails
lint: build
	@mkdir -p _build/lint
	@set -e; for src in $(EXAMPLES); do \
	  out=_build/lint/$$(basename $$src .mc); \
	  $(REDFAT) compile $$src -o $$out.relf >/dev/null; \
	  $(REDFAT) harden $$out.relf -o $$out.hard.relf >/dev/null; \
	  $(REDFAT) verify --quiet $$out.hard.relf; \
	  $(REDFAT) harden $$out.relf --hoist -o $$out.hoist.relf >/dev/null; \
	  $(REDFAT) verify --quiet $$out.hoist.relf; \
	done

# the docs-sync gate: CLI flags and the fault taxonomy in
# docs/MANUAL.md must match the code, and intra-repo markdown links
# must resolve
doc-check:
	dune build tools/doc_check.exe
	_build/default/tools/doc_check.exe

# run every OCaml example end to end; a nonzero exit fails the build
run-examples: build
	@set -e; for exe in $(EXAMPLE_EXES); do \
	  $$exe > /dev/null; \
	  echo "$$exe: OK"; \
	done

# the tier-1 gate plus the lint audit, the docs-sync gate, the
# examples, and a parallel-engine smoke run
check:
	dune build
	dune runtest
	$(MAKE) lint
	$(MAKE) doc-check
	$(MAKE) run-examples
	$(MAKE) bench-smoke

bench: build
	$(BENCH)

# one structured-report example: Table 1 fanned over 4 domains,
# artifacts cached in _redfat_cache/ so repeated runs start warm
bench-json: build
	$(BENCH) table1 --jobs 4 --out BENCH_table1.json
	@echo "wrote BENCH_table1.json"

# the parallel-engine smoke: a bench figure fanned over 2 domains
bench-smoke: build
	$(BENCH) fig4 --jobs 2

# the regression gates: regenerate an experiment's report and diff it
# against the committed baseline.  Cycle counts come from the
# deterministic VM cost model, so any regression is a code change, not
# machine noise.  tools/bench_diff fails on >10% cycle or overhead
# regressions and on any counter moving against the direction its
# report declares in "gates"; wall-clock facts are never gated.
$(GATES:%=gate-%): gate-%: build
	$(BENCH) $* --jobs 2 --out _build/BENCH_$*.json > /dev/null
	$(BENCH_DIFF) bench/$*_baseline.json _build/BENCH_$*.json

gate: $(GATES:%=gate-%)

# after an INTENTIONAL hardening/cost/cache/fuzzing change: refresh a
# baseline and commit it together with the change that explains it
$(GATES:%=baseline-%): baseline-%: build
	$(BENCH) $* --jobs 2 --out bench/$*_baseline.json > /dev/null
	@echo "wrote bench/$*_baseline.json -- commit it with the explaining change"

# the Table 2 / Table 2x gate: their stdout (detection counts per tool
# and per check backend) is deterministic, so regenerate both and diff
# against the committed expected files
bench-table2-gate: build
	$(BENCH) table2 > _build/table2.out
	diff -u bench/table2.expected _build/table2.out
	$(BENCH) table2x > _build/table2x.out
	diff -u bench/table2x.expected _build/table2x.out

# a pipeline run per backend: harden, audit and run a SPEC kernel plus
# the temporal probes (the temporal backend reports the probes' memory
# errors in Log mode), then the same with loop-aware check hoisting
# (temporal declines widening and must still complete)
pipeline-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) pipeline spec:mcf uaf:CWE416_write-after-free_v0 \
	    uaf:double-free --backend $$b --no-cache \
	    --out _build/pipeline-smoke-$$b.json > /dev/null; \
	  $(REDFAT) pipeline spec:mcf spec:bzip2 --hoist --backend $$b \
	    --no-cache --out _build/hoist-smoke-$$b.json > /dev/null; \
	  echo "backend $$b: pipeline smoke OK"; \
	done

# fault-injection smoke: fail the second rewrite of a four-target batch
# under a sequential and a parallel engine; both must degrade the
# faulting sites (rw.degrade.redzone > 0) and record identical
# counters and faults
fault-smoke: build
	@set -e; for j in 1 4; do \
	  $(REDFAT) pipeline synth:0 synth:1 synth:2 synth:3 --jobs $$j \
	    --inject 'rewrite@1' --out _build/fault-smoke-$$j.json > /dev/null; \
	  sed -n '/^  "counters"/p; /^  "faults"/,/^  ]/p' \
	    _build/fault-smoke-$$j.json > _build/fault-smoke-$$j.out; \
	  grep -Eq '"rw.degrade.redzone": [1-9]' _build/fault-smoke-$$j.out; \
	done
	diff -u _build/fault-smoke-1.out _build/fault-smoke-4.out
	@echo "fault smoke OK"

# serving-tier smoke: start the daemon on a Unix socket, drive a
# scripted request mix through the client on every backend, assert a
# nonzero hot-tier hit count, then check clean SIGTERM shutdown
serve-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  sock=/tmp/redfat-serve-smoke-$$b.sock; \
	  printf '%s\n' \
	    '{"id":"h1","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"h2","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"h3","op":"harden","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"v1","op":"verify","target":"spec:mcf","backend":"'$$b'"}' \
	    '{"id":"t1","op":"trace","target":"uaf:double-free","backend":"'$$b'"}' \
	    '{"id":"s1","op":"stats"}' \
	    > _build/serve-smoke-$$b.jsonl; \
	  $(REDFAT) serve --socket $$sock --no-cache \
	    > _build/serve-smoke-$$b.log & pid=$$!; \
	  $(REDFAT) serve --socket $$sock --send _build/serve-smoke-$$b.jsonl \
	    > _build/serve-smoke-$$b.out; \
	  grep -q '"serve.cache.hits": [1-9]' _build/serve-smoke-$$b.out; \
	  kill -TERM $$pid; wait $$pid; \
	  test ! -e $$sock; \
	  echo "backend $$b: serve smoke OK"; \
	done

# incremental-reuse smoke: harden a small fleet cold, perturb one
# function, re-harden.  Fails unless blueprints were shared on the
# cold pass, >= 900 permille of per-function artifacts were reused,
# and every incremental result is byte-identical (binary, .elimtab,
# verify verdict) to a cold monolithic rewrite on every backend
rebuild-smoke: build
	$(BENCH) rebuild --benches perlbench,gcc,calculix --nights 1 \
	  --min-reuse 900

# fuzzing-fleet smoke: a bounded deterministic campaign (fixed seed and
# budget) over the seeded-bug suite on every backend, plus both parser
# campaigns; each must find and deduplicate at least one planted bug
# and exit cleanly.  See docs/FUZZING.md for the triage contract.
fuzz-smoke: build
	@set -e; for b in redzone lowfat temporal; do \
	  $(REDFAT) fuzz bug:oob-write bug:oob-read bug:off-by-one bug:uaf \
	    bug:double-free bug:hang --backend $$b --budget 400 --seed 7 \
	    --jobs 2 --expect-bugs 6 \
	    --out _build/fuzz-smoke-$$b.json > /dev/null; \
	  echo "backend $$b: fuzz smoke OK"; \
	done
	$(REDFAT) fuzz relf minic --mode parse --budget 400 --seed 7 \
	  --expect-bugs 2 --out _build/fuzz-smoke-parse.json > /dev/null
	@echo "parser campaigns: fuzz smoke OK"

# benchmark smoke: one traced second of every perfbench workload.  The
# traced pass replays each layer from its public parts (Redfat.prepare,
# Vm.Cpu.create, the trap table, Memcheck.install) and compares the
# replay with the engine's own run; fails unless the report's last
# line says it is correct and no operation failed
perf-smoke: build
	@set -e; for w in $(PERF_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 1 > _build/perf-smoke-$$w.out; \
	  tail -n 1 _build/perf-smoke-$$w.out | grep -q '"correct": true,'; \
	  tail -n 1 _build/perf-smoke-$$w.out | grep -q '"failed": 0,'; \
	  echo "$$w: perf smoke OK"; \
	done

# everything CI runs, in one local command
ci: $(CI_TARGETS)

# CI_TARGETS as a JSON array: the CI workflow's matrix
comma := ,
ci-targets:
	@echo '[$(subst " ","$(comma)",$(patsubst %,"%",$(CI_TARGETS)))]'

clean:
	dune clean
	rm -rf _redfat_cache BENCH_*.json
