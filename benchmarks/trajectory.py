"""Write BENCH_<label>.json: adjustkit's end-to-end and per-layer numbers.

Usage, from the root of a source checkout:

    python3 benchmarks/trajectory.py --label NAME [--seconds S]

Each perfbench workload runs in its own process twice: with --trace 0 for
setup_s, op_s, peak_rss_mb and the number of operations, and with --trace 1
for the per-layer metrics that BENCHMARK.json names.  Then
`adjustkit select` on a model-1 sample with p = 20 and n = 2000 runs three
times as a child process with `--arm 0` (`select_p20`) and three times with
`--arm both` (`select_p20_both`, the default, whose second arm is selected
and written by a forked child).  `adjustkit oracle --output` runs five
times on model 1's graph at p = 10 (`cli_oracle_cold`, a command whose
wall time is mostly the interpreter's start-up and imports) and three times
on model 3's graph at p = 24, the dimension cap (`cli_oracle_p24`, the
command CI runs at the cap, whose time is mostly the d-separation oracle
and the structure analysis of a 2^24-subset collection).  Each child is
timed from start to exit, with its peak RSS from `os.wait4`.  On Linux that
peak covers the forked child too: wait4's `ru_maxrss` is the largest of the
child and the descendants it reaped (a child whose own forked child touched
60 MB reads about 70 MB).  Each run is also scaled to perfbench's
reference host speed (perfbench/speed.py, whose sample runs after each
child), so that the CLI times compare across files as perfbench's times do.
The file lands at the repository root, beside the host's core count, the
Python, numpy and scipy versions and the git commit, so that a later change
can be compared with it by running the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import speed  # noqa: E402  perfbench's host-speed sample

WORKLOADS = ("select-p17", "replicate-p10", "oracle-mix")
SEED = 7
# (p, n) of each workload's inputs, as perfbench/workloads.py makes them
SHAPES = {
    "select-p17": (17, 4000),
    "replicate-p10": (10, [400, 800]),
    "oracle-mix": ([18, 14], None),
}
SELECT_P, SELECT_N, SELECT_RUNS = 20, 2000, 3
# the file's key for each p = 20 select run and the --arm it passes
SELECT_ARMS = {"select_p20": "0", "select_p20_both": "both"}
# the file's key for each oracle run: (model, p, runs)
ORACLE_RUNS = {"cli_oracle_cold": (1, 10, 5), "cli_oracle_p24": (3, 24, 3)}
# the file's key for each CLI figure
CLI_KEYS = (*SELECT_ARMS, *ORACLE_RUNS)
# every child imports adjustkit from this checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="perfbench's time budget per run (default 25)")
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum() or args.seconds <= 0:
        parser.error("--label must be letters, digits, '-' or '_', and --seconds > 0")
    return args


def _perfbench(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """The printed result line of one perfbench run and the result file it wrote."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / "perfbench" / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return line, json.loads(record.read_text(encoding="utf-8"))


def _workload(name: str, seconds: float) -> dict:
    plain, record = _perfbench(name, seconds, 0)
    traced, _ = _perfbench(name, seconds, 1)
    p, n = SHAPES[name]
    return {
        "p": p,
        "n": n,
        "threads": record["machine"]["threads"]["adjustkit"],
        "ops": plain["attempted"],
        **{key: m["value"] for key, m in plain["metrics"].items()},
        "correct": plain["correct"] and traced["correct"],
        "failed": plain["failed"] + traced["failed"],
        "traced_ops": traced["attempted"],
        "per_layer": {key: m["value"] for key, m in traced["metrics"].items()},
    }


def _child(argv: list[str]) -> tuple[int, float]:
    """Run one child to its exit: its exit code and its peak RSS in MB."""
    child = subprocess.Popen(argv, env=CHILD_ENV, stdout=subprocess.DEVNULL)
    # wait4 gives this child's rusage (with its reaped descendants'), not
    # the maximum over all of this process's children
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def _child_runs(argv: list[str], runs: int) -> dict:
    """Run ``argv`` as a child process ``runs`` times, stopping at a failed
    run: the last exit code, the median wall time from start to exit (the
    host's speed drifts between runs) and the median of the same times scaled
    to the reference host speed, each run's wall and scaled time, and the
    largest of the children's peak RSS (with a forked child's)."""
    host = speed.Speed()
    walls, scaled, rss = [], [], []
    for _ in range(runs):
        [(exit_code, peak)], [(_, wall, at_ref)] = host.timed(lambda: _child(argv))
        walls.append(wall)
        scaled.append(at_ref)
        rss.append(peak)
        if exit_code:
            break
    return {
        "exit_code": exit_code,
        "wall_s": statistics.median(walls),
        "wall_runs": walls,
        "scaled_s": statistics.median(scaled),
        "scaled_runs": scaled,
        "peak_rss_mb": max(rss),
    }


def _make_input(code: str, path: Path) -> None:
    """Run ``code`` in a child, with ``path`` as sys.argv[1]."""
    subprocess.run([sys.executable, "-c", "import sys\n" + code, str(path)], env=CHILD_ENV,
                   check=True)


def _select_p20(arm: str) -> dict:
    """`adjustkit select --arm ARM` at p = 20, SELECT_RUNS times (see
    `_child_runs`), and the bytes one run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "m1.csv", Path(tmp) / "out"
        _make_input((
            "from adjustkit.data_model import save_csv\n"
            "from adjustkit.sim_bench import ModelSpec, generate_model\n"
            f"d = generate_model(ModelSpec(1, n={SELECT_N}, p={SELECT_P}, seed=0)).dataset\n"
            "save_csv(d, sys.argv[1])\n"), csv)
        argv = [sys.executable, "-m", "adjustkit.cli", "select", "--input", str(csv),
                "--arm", arm, "--output", str(out)]
        runs = _child_runs(argv, SELECT_RUNS)
        written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    return {"p": SELECT_P, "n": SELECT_N, "threads": 1, **runs, "bytes_written": written}


def _oracle(model: int, p: int, runs: int) -> dict:
    """`adjustkit oracle --output` on the model's graph at p, ``runs`` times
    (see `_child_runs`)."""
    with tempfile.TemporaryDirectory() as tmp:
        dag = Path(tmp) / "g.txt"
        # the bare X<p> line declares p, which model 1's edges do not reach
        _make_input((
            "from adjustkit.sim_bench import model_graph\n"
            f"edges = model_graph({model}, {p}).edges()\n"
            "text = ''.join(f'{a} -> {b}\\n' for a, b in edges)\n"
            f"open(sys.argv[1], 'w').write(text + 'X{p}\\n')\n"), dag)
        argv = [sys.executable, "-m", "adjustkit.cli", "oracle", "--dag", str(dag),
                "--output", str(Path(tmp) / "report.json")]
        return {"p": p, "n": None, "threads": 1, **_child_runs(argv, runs)}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    args = _parse(argv)
    import numpy
    import scipy

    doc = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        # uncommitted changes under src/ mean the numbers are not the commit's
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "seed": SEED,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workloads": {name: _workload(name, args.seconds) for name in WORKLOADS},
        **{key: _select_p20(arm) for key, arm in SELECT_ARMS.items()},
        **{key: _oracle(*spec) for key, spec in ORACLE_RUNS.items()},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{path.name}: " + ", ".join(
        f"{name} op_s {w['op_s']:.3f}" for name, w in doc["workloads"].items()
    ) + "".join(
        f", {key} {doc[key]['wall_s']:.2f} s ({doc[key]['scaled_s']:.2f} s scaled)"
        for key in CLI_KEYS
    ))
    ok = all(w["correct"] and not w["failed"] for w in doc["workloads"].values())
    return 0 if ok and not any(doc[key]["exit_code"] for key in CLI_KEYS) else 1


if __name__ == "__main__":
    sys.exit(main())
