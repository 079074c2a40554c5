"""Check that this checkout's outputs are byte-identical to another commit's.

Usage, from the root of a source checkout:

    python3 benchmarks/parity.py --against REV

REV is extracted with `git archive` into a temporary directory, so nothing is
registered in the repository and a killed run leaves only that directory.
The same fixed set of runs is made with each tree's `src/` on PYTHONPATH:

- `select`: mn, gc, SAVE x SAVE and `--hints` at p = 10, and the p = 17,
  n = 4000 model-1 input, alone, with a known fork and two pure colliders
  as `--hints`, and SAVE x SAVE (both arms each time);
- `oracle`: the README graph, two graphs of at most six covariates (whose
  members are listed), the complete DAG at p = 12, model 3's graph at
  p = 16 and model 1's graph at p = 18, each with its JSON report;
- `simulate`: models 1 and 4, n = 400, mn and gc, 2 reps, CSV and table;
- `ate`: the README sets and the empty sets;
- reruns: `select` at p = 10 (both arms) and `oracle` on the README graph,
  each run twice into the same output, the second over the first's files;
- the demos;
- the exit-2 and exit-3 cases that `tests/test_cli.py` lists;
- `criterion_fit(...).tables()` digests: models 1-5 x n in {400, 800} x mn/gc x the
  four method pairs, both arms, with the selection that `select` makes
  (the metadata's method names compared case-folded); and the same for
  three outcome shapes of model 1 at n = 400 that form other than h
  slices: y rounded and clipped to {-1, 0, 1}, y zeroed with probability
  0.7 (quantile slices merge) and y constant in arm 1 (one slice);
- population-table digests for the graphs of models 1 and 3, whose exact
  zeros tie, so the tie-breaking of the sort shows in their order;
- copula digests (`transform_dataset(...).x` and `fit_copula`'s `a`, `b` and
  `degenerate`) on tied inputs, one per tie path of the scorer: model 1's
  covariates rounded to one decimal, model 3's two binary columns, a column
  constant in the treated arm and a column of -0.0, 0.0 and 1.0.

Each run has its own working directory and names its inputs by the same
relative path in both trees, so every file it writes, its stdout, its
stderr and its exit code are compared as bytes, and so is the listing of
its directory, hidden names included, so a part file left behind shows.
Only the file and line of a Python warning are masked in stderr, since
they name the tree and a line of source.  The inputs are written once, by this checkout.  Every
difference is printed; the exit code is 1 when there is one.  It starts
about 110 processes and takes a minute or two, so it is not part of the
test suite.  No network access is used; REV must be in the local history.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = "../../inputs"  # from each run's working directory
WARNING_SITE = re.compile(r"^\S*?(adjustkit/\w+\.py):\d+:", re.M)

README_DAG = "X1 -> T\nX1 -> Y\nT -> X2\nX2 -> Y\nX3 -> X2\n"
UNIQUE_MIN_DAG = "X1 -> T\nX1 -> Y\nX2 -> Y\nX4 -> T\nX2 -> X3\nX4 -> X3\n"
DOUBLE_COLLIDER_DAG = (
    "X1 -> Y\nX1 -> X2\nX2 -> X5\nX2 -> X4\nX3 -> X2\nX3 -> T\nX4 -> Y\n"
    "X6 -> X5\nX6 -> T\n"
)
CYCLE_DAG = "X1 -> X2\nX2 -> X1\n"

# written by this checkout's library into the shared inputs directory
MAKE_INPUTS = """
import sys
from pathlib import Path
import numpy as np
from adjustkit.data_model import Dataset, save_csv
from adjustkit.sim_bench import ModelSpec, generate_model, model_graph

out = Path(sys.argv[1])
for name, model, n, p in (("m1.csv", 1, 400, 10), ("m4.csv", 4, 400, 10),
                          ("m1p17.csv", 1, 4000, 17)):
    save_csv(generate_model(ModelSpec(model, n=n, p=p, seed=0)).dataset, out / name)
rng = np.random.default_rng(0)
save_csv(Dataset(x=rng.normal(size=(120, 25)), t=np.tile([0, 1], 60),
                 y=rng.normal(size=120)), out / "wide.csv")
x = rng.normal(size=(200, 4))
x[:, 2] = 1.0
save_csv(Dataset(x=x, t=np.tile([0, 1], 100), y=rng.normal(size=200)), out / "constant.csv")
t = np.zeros(200, dtype=np.int8)
t[0] = 1
save_csv(Dataset(x=rng.normal(size=(200, 4)), t=t, y=rng.normal(size=200)), out / "one_treated.csv")
rng = np.random.default_rng(12)
x = rng.normal(size=(800, 3))
t = (rng.random(800) < 0.5).astype(np.int8)
y = x @ np.array([1.0, 0.5, -0.2]) + 2.0 * t + 0.1 * rng.normal(size=800)
save_csv(Dataset(x=x, t=t, y=y), out / "effect.csv")
dense = [f"X{i} -> X{j}" for i in range(1, 13) for j in range(i + 1, 13)]
dense += [f"T -> X{k}" for k in range(1, 13)] + [f"X{k} -> Y" for k in range(1, 13)]
(out / "dense12.txt").write_text("\\n".join(dense) + "\\n")
# the bare X<p> line declares p, which model 1's edges do not reach
for name, model, p in (("m3p16", 3, 16), ("m1p18", 1, 18)):
    edges = "".join(f"{a} -> {b}\\n" for a, b in model_graph(model, p).edges())
    (out / f"{name}.txt").write_text(edges + f"X{p}\\n")
"""

# prints one JSON object: a digest per criterion table and its selection
DIGESTS = """
import hashlib, json, warnings
from types import SimpleNamespace
import numpy as np
from adjustkit.copula import fit_copula, transform_dataset
from adjustkit.criterion import CriterionConfig, criterion_fit, population_values
from adjustkit.dag_oracle import linear_sem_population
from adjustkit.data_model import Dataset, subcube
from adjustkit.errors import AdjustKitError
from adjustkit.selection import SelectorConfig, select
from adjustkit.sim_bench import ModelSpec, generate_model, model_graph

warnings.simplefilter("ignore")
out = {}
for model, p in ((1, 10), (3, 10), (3, 14)):
    values = population_values(linear_sem_population(model_graph(model, p)))
    # every field that any tree's `select` reads of a table
    table = SimpleNamespace(p=p, masks=subcube(0, (1 << p) - 1), values=values, t=0,
                            universe=(0, (1 << p) - 1), metadata={"n": 400})
    result = select(table, SelectorConfig.for_sample(400))
    h = hashlib.blake2b(values.tobytes() + result.order.tobytes(), digest_size=16)
    h.update(repr(result.tau).encode() + result.selected.member_array.tobytes())
    out[f"population model {model} p {p}"] = h.hexdigest()


def digest_tables(name, d):
    for variant in ("mn", "gc"):
        for my in ("sir", "save"):
            for mt in ("sir", "save"):
                cfg = CriterionConfig(method_y=my, method_t=mt)
                for arm, table in zip((0, 1), criterion_fit(d, (0, 1), variant, cfg).tables()):
                    key = f"{name} {variant} {my}/{mt} arm {arm}"
                    if isinstance(table, AdjustKitError):
                        out[key] = f"{type(table).__name__}: {table}"
                        continue
                    h = hashlib.blake2b(digest_size=16)
                    for arr in (table.masks, table.values):
                        h.update(arr.dtype.str.encode() + arr.tobytes())
                    # older trees record the method as "SIR" or "SAVE", newer
                    # ones as the config's "sir" or "save": one name, two cases
                    meta = {k: v.lower() if k.startswith("method_") else v
                            for k, v in table.metadata.items()}
                    h.update(repr(sorted(meta.items())).encode())
                    result = select(table, SelectorConfig.for_sample(d.n))
                    h.update(result.order.tobytes() + repr(result.tau).encode())
                    out[key] = h.hexdigest()


for model in (1, 2, 3, 4, 5):
    for n in (400, 800):
        digest_tables(f"model {model} n {n}", generate_model(ModelSpec(model, n=n, seed=0)).dataset)
# outcomes that form other than h slices: discrete, heavily tied, constant in an arm
d = generate_model(ModelSpec(1, n=400, seed=0)).dataset
for shape, y in (
    ("rounded", np.round(d.y).clip(-1, 1)),
    ("mostly zero", np.where(np.random.default_rng(5).random(d.n) < 0.7, 0.0, d.y)),
    ("constant in arm 1", np.where(d.t == 1, 1.0, d.y)),
):
    digest_tables(f"model 1 n 400 y {shape}", Dataset(x=d.x, t=d.t, y=y))


def digest_copula(name, x, t):
    data = Dataset(x=x, t=t, y=np.zeros(t.size))
    tf = fit_copula(data)
    h = hashlib.blake2b(digest_size=16)
    for arr in (transform_dataset(data).x, tf.a, tf.b, tf.degenerate):
        h.update(arr.dtype.str.encode() + arr.tobytes())
    out[f"copula {name}"] = h.hexdigest()


digest_copula("rounded", np.round(d.x, 1), d.t)
m3 = generate_model(ModelSpec(3, n=400, seed=0)).dataset
digest_copula("model 3 binary", m3.x[:, 5:7], m3.t)
x = d.x.copy()
x[d.t == 1, 2] = 0.5
digest_copula("constant in arm 1", x, d.t)
x = d.x.copy()
x[:, 4] = np.random.default_rng(3).choice([-0.0, 0.0, 1.0], size=d.n)
digest_copula("signed zeros", x, d.t)
print(json.dumps(out))
"""


def _runs() -> list[tuple[str, list[str], dict, int]]:
    """(name, argv after the interpreter, files to write first, times to run
    it in the same directory) of each run."""
    cli = ["-m", "adjustkit.cli"]
    m1, m4, effect = f"{INPUTS}/m1.csv", f"{INPUTS}/m4.csv", f"{INPUTS}/effect.csv"
    select = [*cli, "select", "--input"]
    runs = [
        ("select-mn", [*select, m1, "--output", "out"], {}),
        ("select-gc", [*select, m1, "--variant", "gc", "--output", "out"], {}),
        ("select-save", [*select, m4, "--method-y", "save", "--method-t", "save",
                         "--output", "out"], {}),
        ("select-hints", [*select, m1, "--hints", "hints.json", "--output", "out"],
         {"hints.json": '{"known_forks": [3], "pure_noncolliders": [7]}'}),
        ("select-p17", [*select, f"{INPUTS}/m1p17.csv", "--output", "out"], {}),
        # a known fork and two pure colliders: pinned levels of the pivot tree
        ("select-p17-hints", [*select, f"{INPUTS}/m1p17.csv", "--hints", "hints.json",
                              "--output", "out"],
         {"hints.json": '{"known_forks": [17], "pure_colliders": [1, 9]}'}),
        # the only run whose walk splits ten levels deep (five for SIR at p = 17)
        ("select-p17-save", [*select, f"{INPUTS}/m1p17.csv", "--method-y", "save",
                             "--method-t", "save", "--output", "out"], {}),
        ("simulate", [*cli, "simulate", "--models", "1,4", "--n", "400", "--variants", "mn,gc",
                      "--reps", "2", "--output", "sim.csv"], {}),
        ("ate-readme", [*cli, "ate", "--input", m1, "--a0", "2,3", "--a1", "2,3"], {}),
        ("ate-empty", [*cli, "ate", "--input", effect], {}),
        ("ate-spaced", [*cli, "ate", "--input", effect, "--a0", " 3, 1 ", "--a1", " "], {}),
    ]
    for name, text in (("readme", README_DAG), ("unique-minimal", UNIQUE_MIN_DAG),
                       ("double-collider", DOUBLE_COLLIDER_DAG)):
        runs.append((f"oracle-{name}", [*cli, "oracle", "--dag", "g.txt", "--output", "r.json"],
                     {"g.txt": text}))
    for name in ("dense12", "m3p16", "m1p18"):
        runs.append((f"oracle-{name}", [*cli, "oracle", "--dag", f"{INPUTS}/{name}.txt",
                                        "--output", "r.json"], {}))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runs.append((f"demo-{demo.stem}", ["<tree>/demos/" + demo.name], {}))
    # the failures that tests/test_cli.py checks
    for i, flags in enumerate([["--c0", "1.5"], ["--cn", "0"], ["--slices", "1"],
                               ["--threads", "0"], ["--cn", "inf"], ["--bogus"]]):
        runs.append((f"exit-select-flag{i}", [*select, m1, "--output", "out", *flags], {}))
    runs += [
        ("exit-select-p25", [*select, f"{INPUTS}/wide.csv", "--output", "out"], {}),
        ("exit-select-missing", [*select, "absent.csv"], {}),
        ("exit-select-constant", [*select, f"{INPUTS}/constant.csv", "--output", "out"], {}),
        ("exit-select-one-treated", [*select, f"{INPUTS}/one_treated.csv", "--output", "out"], {}),
        ("exit-select-output-file", [*select, m1, "--arm", "0", "--output", "target"],
         {"target": ""}),
        ("exit-select-input-dir", [*select, "."], {}),
        ("exit-oracle-dir", [*cli, "oracle", "--dag", "."], {}),
        ("exit-oracle-cycle", [*cli, "oracle", "--dag", "g.txt"], {"g.txt": CYCLE_DAG}),
        ("exit-no-command", [*cli], {}),
    ]
    hints = [{"known_forks": [3], "pure_colliders": [3]}, {"known_forks": [True]}]
    hints += [{"pure_noncolliders": v} for v in (3, None, "12", [1.0], ["1"], [0], [11], [2, True])]
    for i, doc in enumerate(hints):
        runs.append((f"exit-hints{i}", [*select, m1, "--hints", "h.json", "--output", "out"],
                     {"h.json": json.dumps(doc)}))
    for i, flags in enumerate([["--models", "9"], ["--reps", "0"], ["--variants", "xx"],
                               ["--models", ""]]):
        runs.append((f"exit-simulate{i}", [*cli, "simulate", *flags], {}))
    for i, flags in enumerate([["--a0", "4"], ["--a0", "x"], ["--a1", "0"], ["--a1", "1,"],
                               ["--a1", "1.0"], ["--a1", "1,,2"]]):
        runs.append((f"exit-ate{i}", [*cli, "ate", "--input", effect, *flags], {}))
    # a rerun replaces the first run's files and must leave nothing else
    reruns = [
        ("rerun-select", [*select, m1, "--output", "out"], {}, 2),
        ("rerun-oracle-readme", [*cli, "oracle", "--dag", "g.txt", "--output", "r.json"],
         {"g.txt": README_DAG}, 2),
    ]
    return [(*run, 1) for run in runs] + reruns


def _python(tree: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    argv = [a.replace("<tree>", str(tree)) for a in argv]
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=600)


def _observe(tree: Path, work: Path, name: str, argv: list[str], files: dict,
             times: int) -> dict:
    """What ``times`` runs in one directory left behind: their exit codes,
    stdout, masked stderr, the directory's listing and the files written."""
    cwd = work / name
    cwd.mkdir(parents=True)
    for fname, text in files.items():
        (cwd / fname).write_text(text, encoding="utf-8")
    procs = [_python(tree, argv, cwd) for _ in range(times)]
    stderr = b"".join(proc.stderr for proc in procs).decode("utf-8", "replace")
    entries = sorted(cwd.rglob("*"))
    written = {str(p.relative_to(cwd)): p.read_bytes()
               for p in entries if p.is_file() and p.name not in files}
    return {"exit code": [proc.returncode for proc in procs],
            "stdout": b"".join(proc.stdout for proc in procs),
            "stderr": WARNING_SITE.sub(r"\1:<line>:", stderr).encode(),
            "listing": "".join(f"{p.relative_to(cwd)}\n" for p in entries).encode(),
            "files": written}


def _first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}: {x[:80]!r} vs {y[:80]!r}"
    return f"{len(la)} vs {len(lb)} lines"


def _compare(name: str, ours: dict, theirs: dict) -> list[str]:
    out = []
    for key in ("exit code", "stdout", "stderr", "listing"):
        if ours[key] != theirs[key]:
            detail = (f"{ours[key]} vs {theirs[key]}" if key == "exit code"
                      else _first_difference(ours[key], theirs[key]))
            out.append(f"{name}: {key} differs ({detail})")
    for fname in sorted(ours["files"].keys() | theirs["files"].keys()):
        a, b = ours["files"].get(fname), theirs["files"].get(fname)
        if a is None or b is None:
            out.append(f"{name}: {fname} written only {'there' if a is None else 'here'}")
        elif a != b:
            out.append(f"{name}: {fname} differs ({_first_difference(a, b)})")
    return out


def _digests(tree: Path, cwd: Path) -> dict:
    proc = _python(tree, ["-c", DIGESTS], cwd)
    if proc.returncode:
        return {"<digest run>": f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"}
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the commit to compare this checkout with")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "archive", "--format=tar", args.against], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        parser.error(f"git archive {args.against}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory(prefix="adjustkit-parity-") as tmp:
        base = Path(tmp)
        other = base / "against"
        other.mkdir()
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive.stdout, check=True)
        inputs = base / "inputs"
        inputs.mkdir()
        made = _python(ROOT, ["-c", MAKE_INPUTS, str(inputs)], base)
        if made.returncode:
            sys.stderr.write(made.stderr.decode())
            return 1
        trees = {"here": ROOT, "there": other}
        differences, checks = [], 0
        for name, run_argv, files, times in _runs():
            seen = {label: _observe(tree, base / label, name, run_argv, files, times)
                    for label, tree in trees.items()}
            checks += 4 + len(seen["here"]["files"])
            differences += _compare(name, seen["here"], seen["there"])
        digests = {label: _digests(tree, base) for label, tree in trees.items()}
        for key in sorted(digests["here"].keys() | digests["there"].keys()):
            checks += 1
            if digests["here"].get(key) != digests["there"].get(key):
                differences.append(f"digest of {key} differs")
    for line in differences:
        print(f"DIFF {line}")
    print(f"parity against {args.against}: {checks} outputs compared, "
          f"{len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
