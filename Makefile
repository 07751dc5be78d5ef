# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench experiments micro cache-bench bench-json wire-bench chaos-bench chaos-bench-durable recovery-bench recovery-bench-tiny pushdown-bench sub-bench scale-bench scale-bench-tiny par-bench par-bench-tiny dict-bench dict-bench-tiny profile examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

experiments:
	dune exec bench/main.exe -- experiments

micro:
	dune exec bench/main.exe -- micro

cache-bench:
	dune exec bench/main.exe -- e9

# planner ablation -> BENCH_planner.json (machine-readable perf trajectory)
bench-json:
	dune exec bench/main.exe -- bench-json

# wire ablation -> BENCH_wire.json (batching x bloom, codec-sized)
wire-bench:
	dune exec bench/main.exe -- wire-json

# fault-injection sweep -> BENCH_chaos.json (loss rate x retries)
chaos-bench:
	dune exec bench/main.exe -- chaos-json

# same sweep with WAL durability on: every completeness gate must still hold
chaos-bench-durable:
	dune exec bench/main.exe -- chaos-json --durable

# crash-recovery bench -> BENCH_recovery.json (E16 chain with a mid-run crash;
# WAL recovery vs clear-and-refetch vs fault-free reference; the committed
# JSON embeds a tiny_reference block)
recovery-bench:
	dune exec bench/main.exe -- recovery-json

# CI smoke variant -> BENCH_recovery_tiny.json, gated against the committed
# tiny_reference in BENCH_recovery.json
recovery-bench-tiny:
	dune exec bench/main.exe -- recovery-json --tiny

# constraint pushdown ablation -> BENCH_pushdown.json (selective vs open x chain vs clique)
pushdown-bench:
	dune exec bench/main.exe -- pushdown-json

# standing-query maintenance -> BENCH_sub.json (incremental vs naive re-evaluation)
sub-bench:
	dune exec bench/main.exe -- sub-json

# storage-engine scale bench -> BENCH_scale.json (packed columnar vs boxed seed,
# >= 1k nodes / >= 1M tuples; the committed JSON embeds a tiny_reference block)
scale-bench:
	dune exec bench/main.exe -- scale-json

# CI smoke variant -> BENCH_scale_tiny.json, gated against the committed
# tiny_reference in BENCH_scale.json
scale-bench-tiny:
	dune exec bench/main.exe -- scale-json --tiny

# parallel-runtime race -> BENCH_par.json (1/2/4/8 domains over the
# two-phase step; digest/counter equality enforced unconditionally,
# speed floors only when the machine has that many cores)
par-bench:
	dune exec bench/main.exe -- par-json

# CI smoke variant: same equality gates, >= 1.5x floor at 4 domains
# on machines with >= 4 cores
par-bench-tiny:
	dune exec bench/main.exe -- par-json --tiny

# zone-map + dictionary bench -> BENCH_dict.json (chunk pruning, link-level
# wire dictionaries, dictionary-encoded WAL/snapshots; the committed JSON
# embeds a tiny_reference block)
dict-bench:
	dune exec bench/main.exe -- dict-json

# CI smoke variant -> BENCH_dict_tiny.json, gated against the committed
# tiny_reference in BENCH_dict.json
dict-bench-tiny:
	dune exec bench/main.exe -- dict-json --tiny

# per-layer profile of one repository-benchmark workload: a traced
# perfbench run (spans under perfbench/out/), filtered to the
# per-handler split (dbm.*), the query-overlay copy cost and the GC
# lines, e.g. make profile WORKLOAD=update-fixpoint SEED=2 PROFILE_S=10
WORKLOAD ?= query-clique
SEED ?= 1
PROFILE_S ?= 20

profile:
	@python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
	  --seconds $(PROFILE_S) --trace 1 | python3 -c '\
	import json, sys; \
	lines = sys.stdin.read().splitlines(); \
	sys.exit("profile: no result from perfbench") if not lines else None; \
	d = json.loads(lines[-1]); \
	print("$(WORKLOAD) seed $(SEED): correct=%s attempted=%d failed=%d" \
	      % (d["correct"], d["attempted"], d["failed"])); \
	[print("%-36s %14.3f %s" % (k, m["value"], m["unit"])) \
	 for k, m in d["metrics"].items() \
	 if k.startswith(("dbm.", "gc.")) or k == "relalg.copy_us_per_ktuple"]'

examples: build
	dune exec examples/quickstart.exe
	dune exec examples/university_hospital.exe
	dune exec examples/ring_exchange.exe
	dune exec examples/dynamic_network.exe
	dune exec examples/sensor_network.exe

clean:
	dune clean
