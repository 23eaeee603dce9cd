#!/usr/bin/env sh
# Pre-merge gate: domain lint, tier-1 tests, bench collection, smokes,
# bytecode compile.
#
# Run from anywhere inside the repo:
#     sh scripts/check.sh
#
# Exits non-zero on the first failing stage.  The lint stage enforces
# the reproducibility/units/RNG invariants (docs/linting.md); the test
# stage is the tier-1 suite; compileall catches syntax errors in files
# no test imports.

set -eu

cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== repro lint (per-file RPX001-RPX008 + semantic RPX101-RPX103)"
python -m repro.cli lint --semantic src/repro

echo "== pytest (tier 1)"
# Shard across cores when pytest-xdist is available (CI installs it);
# fall back to serial otherwise.  Always print the slowest tests so
# tier-1 creep is visible in every log.
if python -c "import xdist" 2>/dev/null; then
    python -m pytest -x -q -n auto --durations=5
else
    python -m pytest -x -q --durations=5
fi

echo "== benchmark collection (every bench file still imports)"
# benchmarks/ sits outside testpaths, so the tier-1 run never imports
# it; collecting catches an API cut that breaks a bench file.
python -m pytest benchmarks --collect-only -q

echo "== chaos smoke (fault injection + recovery reconciliation)"
# A small end-to-end chaos sweep: inject dropout + a node loss, stream
# through the self-healing ingest, and require exact fault
# reconciliation plus estimates inside the stated error bounds.
python -m repro.cli chaos --system l-csc --max-nodes 24 \
    --core-seconds 600 --dropout 0.02,0.05 --node-loss 1
# The correlated-pathology edition: aliasing meter, entropy-dependent
# power and device spread must reconcile their exact bias ledgers,
# stay inside the correlation-widened bounds, and trip the matching
# streaming detector in every cell.
python -m repro.cli chaos --system l-csc --max-nodes 16 \
    --core-seconds 600 --pathology all --intensity high

echo "== wire smoke (parser fuzz + codec frontier reconciliation)"
# Fuzz the frame parser (mutated streams must never crash it), then
# run a small bandwidth-vs-accuracy sweep: every cell must reconcile
# the reader's CRC/sequence counters against the injected ledger
# exactly and keep drift inside the codec's stated bounds.
python -m repro.cli wire --fuzz 100
python -m repro.cli wire --system l-csc --max-nodes 12 \
    --core-seconds 600 --codecs delta-varint,quant8 \
    --drop 0 0.1 --corrupt 0.1

echo "== shard smoke (inline vs fork pool vs stream, one-tick core phase)"
# The same sharded session inline and over a two-worker fork pool must
# print byte-identical JSON, and the stream route over the same run and
# batching the same result outside each route's declared provenance,
# the per-batch monitor and the snapshots; a core phase of a single
# tick has no correlation and must still summarise (NaN), not crash.
shard_dir=$(mktemp -d)
trap 'rm -rf "$shard_dir"' EXIT
for procs in 0 2; do
    python -m repro.cli shard --system calcul-quebec --core-seconds 60 \
        --shards 4 --format json --processes "$procs" \
        > "$shard_dir/processes-$procs.json"
done
cmp "$shard_dir/processes-0.json" "$shard_dir/processes-2.json"
python -m repro.cli stream --system calcul-quebec --core-seconds 60 \
    --format json > "$shard_dir/stream.json"
python - "$shard_dir/processes-0.json" "$shard_dir/stream.json" <<'PY'
import json, sys
skip = {"n_shards", "quality", "queue_stalls", "queue_high_watermark",
        "monitor", "snapshots"}
shard, stream = (
    {k: v for k, v in json.load(open(path)).items() if k not in skip}
    for path in sys.argv[1:]
)
assert shard == stream, sorted(
    k for k in shard.keys() | stream.keys()
    if shard.get(k) != stream.get(k)
)
PY
python -m repro.cli shard --system calcul-quebec --core-seconds 0.5 \
    > /dev/null

echo "== serve smoke (service self-test over one TCP lifecycle)"
# Boot the telemetry service on an ephemeral port, run a full
# create/ingest/verdict/close lifecycle against it over real sockets,
# and require the verdict to match the directly computed one.
python -m repro.cli serve --self-test

echo "== end-to-end benchmark self-test (tiny workloads, traced)"
# Runs every benchmark workload at toy size through its correctness
# checks and the outside-in layer trace: fails when a traced callable
# no longer resolves or a workload's output stops matching its
# independent reference.
python3 benchmarks/e2e/selftest.py

echo "== compileall"
python -m compileall -q src

# Opt-in perf gate: RUN_BENCH=1 re-runs the three pytest-benchmark gates
# no end-to-end workload covers (shard 8-way critical-path speedup, serve
# JSON ingest, faults 10k-node recovery) and compares them against the
# committed baselines with the 30% regression threshold.  Dispatch, RPWR
# ingest and the fold itself are gated at 25% by benchmarks/e2e
# (serve-mixed, fleet-fold).  On the same machine a baseline benchmark
# missing from the fresh run fails the gate; on a different machine the
# comparison prints a note and passes (timings from another box are not
# comparable).
if [ "${RUN_BENCH:-0}" = "1" ]; then
    echo "== shard benchmark + regression gate (RUN_BENCH=1)"
    python -m pytest benchmarks/bench_shard.py --benchmark-only \
        --benchmark-json=/tmp/bench_shard_fresh.json -q
    python scripts/bench_compare.py BENCH_shard.json \
        /tmp/bench_shard_fresh.json
    echo "== serve JSON ingest benchmark + regression gate (RUN_BENCH=1)"
    python -m pytest benchmarks/bench_serve.py --benchmark-only \
        --benchmark-json=/tmp/bench_serve_fresh.json -q
    python scripts/bench_compare.py BENCH_serve.json \
        /tmp/bench_serve_fresh.json
    echo "== faults benchmark + regression gate (RUN_BENCH=1)"
    python -m pytest benchmarks/bench_faults.py --benchmark-only \
        --benchmark-json=/tmp/bench_faults_fresh.json -q
    python scripts/bench_compare.py BENCH_faults.json \
        /tmp/bench_faults_fresh.json
fi

echo "all gates green"
