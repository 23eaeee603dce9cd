"""End-to-end benchmark: one workload through the real collector paths.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fleet-fold --seed 2015 \
        --seconds 10 --trace 0 [--out DIR]

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, from repeats run with the
layer wrappers of ``tracer.py`` installed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
``--out DIR`` also writes the run's full record (quartiles, counts,
checks, machine) to ``DIR`` for ``compare.py`` and, in trace mode, the
spans of the last traced repeat.

The parent process imports nothing from the program.  It runs the
workload in child processes of this same script: with ``--trace 0``,
``SETUP_RUNS - 1`` that only set up; then one that sets up, checks the
outputs of a warm-up repeat and measures for ``--seconds``.
``setup_s`` is the median of the children's set-up times, each taken
from the child's first line, before any import of the program.
"""

import time

_T0 = time.perf_counter()  # a child's set-up time starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from compare import summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The names of ``workloads.WORKLOADS``, which the parent cannot import:
#: it must not import the program.
WORKLOADS = ("fleet-fold", "wire-recover", "wide-stop", "serve-mixed")
SETUP_RUNS = 3
MIN_REPEATS = 3
#: Everything, children included, ends within this many seconds.
DEADLINE_S = 170.0

#: ``reference_time()`` on the host the benchmark was defined on (a
#: 2-vCPU Xeon VM, CPython 3.11) when it ran undisturbed.
REFERENCE_S = 0.0107
REFERENCE_PASSES = 9


# -- host speed --------------------------------------------------------
def _reference_values(n: int = 15000) -> list[float]:
    """Fixed pseudo-random readings (a 32-bit LCG), the same everywhere."""
    state, out = 2015, []
    for _ in range(n):
        state = (1103515245 * state + 12345) % 2**31
        out.append(300.0 + 10.0 * state / 2**31)
    return out


_REFERENCE_VALUES = _reference_values()


def _reference_pass(values: list[float], q: float = 0.5) -> float:
    """A fixed scalar marker-update loop shaped like a P² quantile.

    Benchmark-owned and never changed, so its speed measures the host,
    not the program: the workloads' time is dominated by this kind of
    interpreted scalar arithmetic.
    """
    h = sorted(values[:5])
    pos = [1.0, 2.0, 3.0, 4.0, 5.0]
    rate = [0.0, q / 2, q, (1 + q) / 2, 1.0]
    for v in values[5:]:
        if v < h[0]:
            h[0], k = v, 0
        elif v >= h[4]:
            h[4], k = v, 3
        else:
            k = 0
            while k < 3 and v >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        n = pos[4]
        for i in (1, 2, 3):
            d = 1.0 + rate[i] * (n - 1.0) - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                s = 1.0 if d >= 1.0 else -1.0
                j = i + int(s)
                h[i] += s * (h[j] - h[i]) / (pos[j] - pos[i])
                pos[i] += s
    return h[2]


def reference_time() -> float:
    """Mean wall time of one pass of the reference loop.

    The mean, not the median or the minimum: when the host time-slices
    the VM, the passes that lose the CPU are exactly what the workload
    suffers too.  On the 2-vCPU VM the mean of nine passes tracked the
    workloads best of the estimators tried.
    """
    t0 = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        _reference_pass(_REFERENCE_VALUES)
    return (time.perf_counter() - t0) / REFERENCE_PASSES


def host_speed() -> float:
    """This host's speed relative to the reference host, right now.

    Shared VMs run the same code up to 2x slower for minutes at a time.
    Every time the benchmark reports is multiplied by the speed measured
    around it, which turns it into the time the reference host would
    have taken; the speed itself is printed and recorded.
    """
    return REFERENCE_S / reference_time()


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="directory for the run record (and spans)")
    p.add_argument("--child", choices=("setup", "full"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- measurement (child process) ---------------------------------------
def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def _repeat(wl, tracer=None) -> dict:
    from workloads import OpLog

    gc.collect()
    ops = OpLog()
    if tracer is not None:
        tracer.reset()
    c0, w0 = time.process_time(), time.perf_counter()
    samples, output, counters = wl.repeat(ops)
    wall_s = time.perf_counter() - w0
    rec = {"wall_s": wall_s, "cpu_s": time.process_time() - c0,
           "samples": samples, "ops": ops, "output": output,
           "counters": counters}
    if tracer is not None:
        rec["window_ns"] = tracer.window_ns()
        rec["uncovered_ns"] = tracer.uncovered_ns
        rec["spans"] = tracer.spans
    return rec


def _measure(wl, seconds: float, tracer=None) -> list[dict]:
    """Repeat ``wl`` for ``seconds``, each with the host speed around it."""
    repeats: list[dict] = []
    speed = host_speed()
    deadline = time.perf_counter() + seconds
    while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
        rec = _repeat(wl, tracer)
        after = host_speed()
        rec["speed"] = (speed + after) / 2
        speed = after
        repeats.append(rec)
    return repeats


def _e2e_samples(repeats: list[dict]) -> dict:
    """End-to-end metric samples, one per repeat."""
    import numpy as np

    folded = [r for r in repeats if r["samples"] > 0]

    return {
        "samples_per_s": [
            r["samples"] / (r["wall_s"] * r["speed"]) for r in folded
        ],
        "cpu_ns_per_sample": [
            r["cpu_s"] * r["speed"] / r["samples"] * 1e9 for r in folded
        ],
        "op_p50_ms": [
            float(np.median(r["ops"].latencies_s)) * r["speed"] * 1e3
            for r in repeats
        ],
    }


def _layer_samples(traced: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metric samples, one value per traced repeat."""
    from tracer import layer_totals
    from workloads import COUNTERS

    out: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        out.setdefault(name, []).append(value)

    for rec in traced:
        speed = rec["speed"]
        for layer, row in layer_totals(rec["spans"]).items():
            add(f"{layer}.self_s", row["self_ns"] * speed / 1e9)
            add(f"{layer}.calls", row["calls"])
            add(f"{layer}.share", row["self_ns"] / rec["window_ns"])
        spans = rec["spans"]
        add("shard.critical_path_s", max(
            (s.duration_ns for s in spans if s.name == "run_shard"),
            default=0,
        ) * speed / 1e9)
        add("shard.reduce_s", sum(
            s.duration_ns for s in spans if s.name == "reduce_states"
        ) * speed / 1e9)
        add("trace.uncovered_s", rec["uncovered_ns"] * speed / 1e9)
        add("trace.overhead", rec["wall_s"] * speed / untraced_wall_s - 1.0)
        for name in COUNTERS:
            add(name, rec["counters"].get(name, 0))
    return out


def _accounting_error(rec: dict) -> float:
    """|Σ self + uncovered − harness wall| / harness wall, one repeat."""
    covered_ns = sum(s.self_ns for s in rec["spans"]) + rec["uncovered_ns"]
    wall_ns = rec["wall_s"] * 1e9
    return abs(covered_ns - wall_ns) / wall_ns


def layer_table(samples: dict) -> list[list]:
    """Rows of layer, calls, self s, share and calls per self second."""
    from tracer import LAYER_NAMES

    rows = []
    for layer in LAYER_NAMES:
        calls = statistics.median(samples[f"{layer}.calls"])
        self_s = statistics.median(samples[f"{layer}.self_s"])
        rows.append([layer, calls, self_s,
                     statistics.median(samples[f"{layer}.share"]),
                     calls / self_s if self_s > 0 else 0.0])
    return rows


def collect(wl, seconds: float, trace: bool) -> dict:
    """Check a warm-up repeat, then measure ``wl`` for ``seconds``.

    Returns the metric samples, the checks and the operation counts;
    with ``trace`` the second half of the time runs traced and the
    result also carries the layer table and the last repeat's spans.
    """
    warm = _repeat(wl)
    checks = {k: bool(v) for k, v in wl.check(warm["output"]).items()}
    out: dict = {"checks": checks}
    if trace:
        from tracer import Tracer

        untraced = _measure(wl, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _measure(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        repeats = untraced + traced
        samples = _layer_samples(traced, statistics.median(
            r["wall_s"] * r["speed"] for r in untraced
        ))
        checks["trace_accounts_for_wall_within_2pct"] = max(
            _accounting_error(r) for r in traced
        ) <= 0.02
        out["layers_table"] = layer_table(samples)
        out["spans"] = traced[-1]["spans"]
    else:
        repeats = _measure(wl, seconds)
        samples = _e2e_samples(repeats)
    samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ]
    out["samples"] = samples
    out["host_speed"] = statistics.median(r["speed"] for r in repeats)
    out["repeats"] = len(repeats)
    out["attempted"] = sum(r["ops"].attempted for r in repeats)
    out["failed"] = sum(r["ops"].failed for r in repeats)
    out["errors"] = [e for r in repeats for e in r["ops"].errors]
    return out


def child_main(args) -> int:
    # One CPU and (from _spawn) a fixed hash seed: children that migrate
    # or iterate dicts in another order time differently.  Together they
    # halved the run-to-run spread of samples_per_s on the 2-vCPU VM.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_program()
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.perf_counter() - _T0) * host_speed()
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        # A traced run wraps every layer callable; an untraced one only
        # resolves them, so a renamed one fails in both modes.
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    out = collect(wl, args.seconds, bool(args.trace))
    for err in out.pop("errors")[:3]:
        print(err, file=sys.stderr)
    spans = out.pop("spans", None)
    if spans is not None and args.out is not None:
        from tracer import Tracer

        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}.spans.json"
        path.write_text(json.dumps({
            "fields": list(Tracer.ROW_FIELDS),
            "spans": [s.to_row() for s in spans],
        }))
    out["setup_s"] = setup_s
    out["numpy"] = np.__version__
    print(json.dumps(out))
    return 0


# -- report (parent process) -------------------------------------------
def assemble(samples: dict, specs: list[dict]) -> dict:
    """Summarize every metric ``specs`` names; all must be measured."""
    missing = [s["name"] for s in specs if s["name"] not in samples]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"unit": s["unit"], **summarize(samples[s["name"]])}
            for s in specs}


def machine(numpy_version: str) -> dict:
    """Where a run was measured; stamped into every record."""
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", mode]
    if args.out is not None:
        cmd += ["--out", str(args.out)]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(args, child: dict, metrics: dict, host: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repeats {child['repeats']}  trace {args.trace}  "
          f"nproc {host['nproc']}  cpu {host['cpu']}  "
          f"python {host['python']}  numpy {host['numpy']}")
    print(f"  host speed {child['host_speed']:.3f} of the reference host; "
          "times below are reference-host times")
    for name, ok in child["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        print("| layer | calls | self s | share | ops/s |")
        print("|---|---:|---:|---:|---:|")
        for layer, calls, self_s, share, rate in child["layers_table"]:
            print(f"| {layer} | {calls:g} | {self_s:.4f} | {share:.1%} "
                  f"| {rate:,.0f} |")
    else:
        print(f"  operations timed: {child['attempted']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}  "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S

    # Set-up time is an end-to-end metric only; a traced run skips the
    # set-up-only children.
    setups = [] if args.trace else [
        _spawn(args, "setup", deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    child = _spawn(args, "full", deadline)
    samples = child["samples"]
    samples["setup_s"] = setups + [child["setup_s"]]
    metrics = assemble(
        samples, bench["per_layer" if args.trace else "end_to_end"]
    )
    host = machine(child["numpy"])
    _report(args, child, metrics, host)

    result = {
        "correct": all(child["checks"].values()),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        kind = "trace" if args.trace else "e2e"
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "machine": host,
            "host_speed": child["host_speed"],
            "repeats": child["repeats"], "checks": child["checks"],
            **result, "metrics": metrics,
            "layers_table": child.get("layers_table"),
        }
        path = args.out / f"{args.workload}-seed{args.seed}-{kind}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
