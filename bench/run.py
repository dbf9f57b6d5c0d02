"""denshift benchmark: one workload per run, end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload acceptance --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports denshift from `src/` and writes
only under `.bench_work/` (removed at exit) and `.bench_out/`. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones, measured
with nothing wrapped; with `--trace 1` they are the per-layer ones, taken
from spans recorded around each layer's public functions.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads: the pool workload starts
# nproc workers, and one BLAS thread per core each would oversubscribe the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import denshift  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import denshift from {ROOT / 'src'}: {exc}")
if Path(denshift.__file__).resolve().parent != ROOT / "src" / "denshift":
    sys.exit(f"bench: imported denshift from {denshift.__file__}, not from this checkout")

import numpy as np  # noqa: E402

from layers import TARGETS, layer_metrics, train_accounting  # noqa: E402
from spans import Tally, Tracer, median  # noqa: E402
from speed import REF_SECONDS, SpeedRef  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(wl, seconds: float, tracer=None):
    """Run operations until `seconds` have passed and at least one pass is done."""
    samples, first_pass_end = [], None
    deadline = perf_counter() + seconds
    i = 0
    while i < wl.ops_per_pass or perf_counter() < deadline:
        if tracer is not None:
            with tracer.span("bench.op", i // wl.ops_per_pass):
                sample = wl.op(i)
        else:
            sample = wl.op(i)
        if sample is not None:
            sample["i"] = i
            samples.append(sample)
        i += 1
        if i == wl.ops_per_pass:
            first_pass_end = perf_counter()
    return samples, first_pass_end


def overhead_ratio(wl, traced) -> tuple[float, list]:
    """Re-run the first traced operations untraced; traced over untraced scaled time of the same ops."""
    total = sum(s["scaled_s"] for s in traced)
    traced_s, plain_s, reruns = 0.0, 0.0, []
    for s in sorted(traced, key=lambda s: s["i"]):
        again = wl.op(s["i"])
        if again is None:
            continue
        again["i"] = s["i"]
        reruns.append((s, again))
        traced_s += s["scaled_s"]
        plain_s += again["scaled_s"]
        if traced_s >= 0.25 * total:
            break
    return (traced_s / plain_s if plain_s > 0 else 0.0), reruns


def fmt_value(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={fmt_value(v)}" for k, v in value.items())
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the frozen acceptance seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    facts = machine_facts()
    tally = Tally()
    workload = WORKLOADS[args.workload]
    speed = SpeedRef(workload.kernel_shape, workload.cores())
    wl = workload(args.seed, work, tally, speed)
    extras, metrics, samples = {}, {}, []
    try:
        setup_raw, setup_scaled = [], []
        for _ in range(wl.setup_reps):
            _, raw, scaled = speed.time(wl.setup)
            setup_raw.append(raw)
            setup_scaled.append(scaled)

        if args.trace:
            tracer = Tracer(work / "jobs")
            tracer.install(TARGETS)
            wl.tracer = tracer
            try:
                samples, first_pass_end = measure(wl, args.seconds, tracer)
            finally:
                tracer.close()
                wl.tracer = None
            overhead, reruns = overhead_ratio(wl, samples)
            for traced, plain in reruns:
                tally.check("untraced rerun gives the traced result", traced["result"] == plain["result"])
            absent = {name for dotted, name, _, _ in TARGETS if dotted in tracer.absent}
            layer = layer_metrics(tracer.spans, first_pass_end or float("inf"), absent)
            layer["trace.overhead_share"] = (overhead, "ratio")
            metrics = layer
            extras["train_span_accounted"] = (train_accounting(layer), "share")
            if tracer.absent:
                extras["absent_targets"] = (", ".join(tracer.absent), "")
            tracer.write(out_dir / f"trace-{args.workload}.csv")
        else:
            samples, _ = measure(wl, args.seconds)
            rss = peak_rss_mb()
            if samples:
                metrics = {"setup_s": (median(setup_scaled), "s"),
                           "unit_us": (wl.unit_us(samples), "us"),
                           "peak_rss_mb": (rss, "MB")}
                extras.update(wl.extras(samples))
                extras["raw_setup_s"] = (median(setup_raw), "s")
                extras["raw_unit_us"] = (wl.unit_us(samples, "op_s"), "us")
        wl.check(samples)
        extras["ops"] = (len(samples), "count")
        extras["ref_kernel_ms"] = ({"median": median(speed.readings) * 1e3, "n": len(speed.readings),
                                    "reference": REF_SECONDS * 1e3}, "ms")
        extras["failed_share"] = (tally.failed_share, "share")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {fmt_value(facts)}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name} = {fmt_value(value)} {unit}".rstrip())
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "result": result,
              "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
              "failures": tally.failures,
              "samples": [{k: v for k, v in s.items() if isinstance(v, (int, float, str))} for s in samples]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
