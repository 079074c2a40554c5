"""Write BENCH_<label>.json: adjustkit's end-to-end and per-layer numbers.

Usage, from the root of a source checkout:

    python3 benchmarks/trajectory.py --label NAME [--seconds S]

Each perfbench workload runs in its own process twice: with --trace 0 for
setup_s, op_s, peak_rss_mb and the number of operations, and with --trace 1
for the per-layer metrics that BENCHMARK.json names.  Then
`adjustkit select` on a model-1 sample with n = 2000 runs as a child process:
at p = 20 three times with `--arm 0` (`select_p20`) and three times with
`--arm both` (`select_p20_both`, the default, whose second arm is walked,
selected and written by a child forked after the fit), and at p = 22 once
with `--arm both` (`select_p22_both`, 2^22 subsets per arm and about 1.2 GB
of output).  `adjustkit oracle --output` runs five
times on model 1's graph at p = 10 (`cli_oracle_cold`, a command whose
wall time is mostly the interpreter's start-up and imports) and three times
on model 3's graph at p = 24, the dimension cap (`cli_oracle_p24`, the
command CI runs at the cap, whose time is mostly the d-separation oracle
and the structure analysis of a 2^24-subset collection).  `adjustkit
simulate` runs three times over the paper's simulation grid (`cli_simulate`:
models 1-5, n 400 and 800, variants mn and gc, both arms, 10 replications
per cell, so 400 criterion tables of 2^10 subsets on one thread, with their
copula transforms, selections and recovery metrics).  Each of these
children is started by a launcher: a small Python process that this script
starts before it imports numpy, and that reads one argv per line, forks and
execs it, `os.wait4`s it and writes back its exit code, its wall time from
fork to exit and its peak RSS.  A child's `ru_maxrss` keeps the high-water
mark of the process it was forked from, so a child forked from this script
(numpy and scipy loaded) read 41-48 MB for an `oracle` run at p = 10 that
peaks at about 30 MB on its own.  On Linux the peak covers the forked child
too: wait4's `ru_maxrss` is the largest of the child and the descendants
it reaped (a child whose own forked child touched 60 MB reads about 70 MB).
Each run is also scaled to perfbench's reference host speed
(perfbench/speed.py, whose sample runs after each child), so that the CLI
times compare across files as perfbench's times do.
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
# every child imports adjustkit from this checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# The launcher: reads one argv per line, its words separated by NUL; runs
# it with its stdin and stdout on /dev/null, waits for it with wait4 and
# writes back a line "exit_code wall_seconds ru_maxrss_kb".  It imports
# only os, sys and time, so a child forked from it starts at a few MB.
LAUNCHER_CODE = """\
import os, sys, time
null = os.open(os.devnull, os.O_RDWR)
for line in sys.stdin:
    argv = line.rstrip("\\n").split("\\0")
    t = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(null, 0)
            os.dup2(null, 1)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, flush=True)
"""
# for perfbench's speed module, which loads numpy and so is imported only
# once the launcher has started
sys.path.insert(0, str(ROOT / "perfbench"))

WORKLOADS = ("select-p17", "replicate-p10", "oracle-mix")
SEED = 7
# (p, n) of each workload's inputs, as perfbench/workloads.py makes them
SHAPES = {
    "select-p17": (17, 4000),
    "replicate-p10": (10, [400, 800]),
    "oracle-mix": ([18, 14], None),
}
SELECT_N = 2000
# the file's key for each select run: (p, the --arm it passes, runs)
SELECT_RUNS = {
    "select_p20": (20, "0", 3),
    "select_p20_both": (20, "both", 3),
    "select_p22_both": (22, "both", 1),
}
# the file's key for each oracle run: (model, p, runs)
ORACLE_RUNS = {"cli_oracle_cold": (1, 10, 5), "cli_oracle_p24": (3, 24, 3)}
# the simulate run's flags and its number of runs
SIMULATE_FLAGS = ["--models", "1,2,3,4,5", "--n", "400,800", "--variants", "mn,gc",
                  "--reps", "10"]
SIMULATE_RUNS = 3
# the file's key for each CLI figure
CLI_KEYS = (*SELECT_RUNS, *ORACLE_RUNS, "cli_simulate")


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


def _start_launcher() -> subprocess.Popen:
    """The launcher process (LAUNCHER_CODE).  Start it before numpy is
    imported: a child's ru_maxrss keeps the high-water mark of the process
    it was forked from, so a child forked from this one could read no lower
    than this process's RSS."""
    return subprocess.Popen([sys.executable, "-c", LAUNCHER_CODE], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=CHILD_ENV, text=True)


def _child(launcher: subprocess.Popen, argv: list[str]) -> tuple[int, float, float]:
    """Run one child to its exit through the launcher: its exit code, its
    wall time from fork to exit and its peak RSS in MB (wait4's, so with its
    reaped descendants')."""
    launcher.stdin.write("\0".join(argv) + "\n")
    launcher.stdin.flush()
    exit_code, wall, maxrss_kb = launcher.stdout.readline().split()
    return int(exit_code), float(wall), int(maxrss_kb) / 1024.0


def _child_runs(launcher: subprocess.Popen, argv: list[str], runs: int) -> dict:
    """Run ``argv`` as a child process ``runs`` times, stopping at a failed
    run: the last exit code, the median wall time from start to exit (the
    host's speed drifts between runs) and the median of the same times scaled
    to the reference host speed, each run's wall and scaled time, and the
    largest of the children's peak RSS (with a forked child's)."""
    import speed  # perfbench's host-speed sample

    host = speed.Speed()
    walls, scaled, rss = [], [], []
    for _ in range(runs):
        [(exit_code, wall, peak)], [(_, outer, at_ref)] = host.timed(lambda: _child(launcher, argv))
        walls.append(wall)
        # the launcher's wall, scaled by the factor of the round trip that holds it
        scaled.append(at_ref * wall / outer)
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


def _select(launcher: subprocess.Popen, p: int, arm: str, runs: int) -> dict:
    """`adjustkit select --arm ARM` on a model-1 sample at p, ``runs`` times
    (see `_child_runs`), and the bytes one run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "m1.csv", Path(tmp) / "out"
        _make_input((
            "from adjustkit.data_model import save_csv\n"
            "from adjustkit.sim_bench import ModelSpec, generate_model\n"
            f"d = generate_model(ModelSpec(1, n={SELECT_N}, p={p}, seed=0)).dataset\n"
            "save_csv(d, sys.argv[1])\n"), csv)
        argv = [sys.executable, "-m", "adjustkit.cli", "select", "--input", str(csv),
                "--arm", arm, "--output", str(out)]
        timed = _child_runs(launcher, argv, runs)
        written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    return {"p": p, "n": SELECT_N, "threads": 1, **timed, "bytes_written": written}


def _oracle(launcher: subprocess.Popen, model: int, p: int, runs: int) -> dict:
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
        return {"p": p, "n": None, "threads": 1, **_child_runs(launcher, argv, runs)}


def _simulate(launcher: subprocess.Popen) -> dict:
    """`adjustkit simulate` with SIMULATE_FLAGS, SIMULATE_RUNS times (see
    `_child_runs`); it writes only its table to stdout."""
    argv = [sys.executable, "-m", "adjustkit.cli", "simulate", *SIMULATE_FLAGS]
    return {"p": 10, "n": [400, 800], "threads": 1,
            **_child_runs(launcher, argv, SIMULATE_RUNS)}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    args = _parse(argv)
    # Popen's exit closes the launcher's stdin, which ends it, and reaps it
    with _start_launcher() as launcher:
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
            **{key: _select(launcher, *spec) for key, spec in SELECT_RUNS.items()},
            **{key: _oracle(launcher, *spec) for key, spec in ORACLE_RUNS.items()},
            "cli_simulate": _simulate(launcher),
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
