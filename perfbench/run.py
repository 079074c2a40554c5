"""adjustkit benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload select-p17 --seed 1 --seconds 10 --trace 0

The run imports adjustkit from ./src, makes and writes the workload's
inputs from --seed (three times, for a median), runs one warm-up
operation, runs whole operations until --seconds have passed (at least
three), checks the outputs, writes a result file under perfbench/out/ and
prints one JSON line: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  Every timed call is reported at a
reference host speed read from samples taken around it (speed.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 3
MIN_OPS = 3
MODULES = ("cli", "copula", "criterion", "dag_oracle", "data_model", "set_analysis", "sim_bench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("select-p17", "replicate-p10", "oracle-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_adjustkit() -> dict:
    import importlib

    sys.path.insert(0, str(ROOT / "src"))
    return {m: importlib.import_module(f"adjustkit.{m}") for m in MODULES}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _machine(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {
            "adjustkit": workload.threads,
            **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")},
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "adjustkit" / "__init__.py").is_file():
        print(f"perfbench: no adjustkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread, so the process never runs more threads than
    # select-p17's --threads 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    import speed

    host = speed.Speed()
    (ak,), import_calls = host.timed(_import_adjustkit)

    import spans
    import workloads

    outdir = HERE / "out"
    workdir = outdir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ak, workdir, args.seed)
        # inputs are made and written several times and the median taken; the
        # warm-up operation runs once, as a second one in the same process
        # would no longer pay the one-time costs it is there to catch
        setup_calls = []
        for _ in range(SETUPS):
            gc.collect()
            setup_calls.append(host.timed(wl.setup)[1])
        gc.collect()
        raw, warmup_calls = host.timed(*wl.parts(0))
        warm = wl.settle(0, raw)

        tracer = spans.Tracer()
        points = spans.trace_points(ak) if args.trace else []
        op_calls, outcomes = [], []
        with tracer.installed(points):
            start = time.perf_counter()
            while len(outcomes) < MIN_OPS or time.perf_counter() - start < args.seconds:
                tracer.op = i = len(outcomes)
                gc.collect()  # every operation starts from the same heap
                raw, calls = host.timed(*wl.parts(i))
                op_calls.append(calls)
                outcomes.append(wl.settle(i, raw))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = []
        # the untraced warm-up and the first timed operation share their inputs,
        # so a traced run must reproduce the warm-up's results exactly
        if warm.digest != outcomes[0].digest:
            problems.append("warm-up and first operation outputs differ")
        if wl.shared_inputs and len({o.digest for o in outcomes}) != 1:
            problems.append("operations on identical inputs wrote different outputs")
        problems += wl.check(outcomes)

        ops = len(outcomes)
        import_s, warmup_s = speed.scaled(import_calls), speed.scaled(warmup_calls)
        setup_times = [speed.scaled(c) for c in setup_calls]
        op_times = [speed.scaled(c) for c in op_calls]
        end_to_end = {
            "setup_s": {"value": import_s + statistics.median(setup_times) + warmup_s,
                        "unit": "s"},
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        totals = tracer.layer_totals() if args.trace else None
        per_layer = (spans.layer_metrics(totals, ops, sum(o.bytes for o in outcomes) / ops)
                     if args.trace else None)
        result = {
            "correct": not problems,
            "attempted": ops,
            "failed": sum(o.failed for o in outcomes),
            "metrics": per_layer or end_to_end,
        }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **result, "problems": problems,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "import_s": import_s, "setup_times": setup_times, "warmup_s": warmup_s,
            "op_times": op_times,
            "wall": {"import_s": speed.wall(import_calls),
                     "setup_times": [speed.wall(c) for c in setup_calls],
                     "warmup_s": speed.wall(warmup_calls),
                     "op_times": [speed.wall(c) for c in op_calls],
                     "op_s": statistics.median(speed.wall(c) for c in op_calls)},
            "speed": {"ref_s": speed.REF_S, "samples": host.samples,
                      "import": import_calls, "setup": setup_calls,
                      "warmup": warmup_calls, "ops": op_calls},
            "machine": _machine(wl),
            "span_totals": totals, "spans": tracer.dump() if args.trace else None,
        }
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (outdir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
