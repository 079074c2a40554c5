"""Command-line surface: artifacts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adjustkit
from adjustkit import cli, sim_bench
from adjustkit.cli import _load_hint_masks, _write_selection, main
from adjustkit.criterion import CriterionConfig, CriterionFit, criterion_table
from adjustkit.data_model import Dataset, indices_mask, load_csv, save_csv
from adjustkit.selection import SelectionResult, SelectorConfig, default_cn, select
from adjustkit.errors import TooFewObservations
from adjustkit.set_analysis import AdjustmentCollection, upward_closure
from adjustkit.sim_bench import (
    GeneratedModel,
    MetricsRecord,
    ModelSpec,
    generate_model,
    model_graph,
)

UNIQUE_MIN_DAG = """\
X1 -> T
X1 -> Y
X2 -> Y
X4 -> T
X2 -> X3
X4 -> X3
"""

TRIPLE_DAG = """\
X1 -> Y
X4 -> Y
X3 -> X1
X3 -> X2
X4 -> X5
X6 -> X5
X2 -> T
X6 -> T
"""


def _fresh_python(*args):
    """Run a new interpreter on ``args`` with this adjustkit importable."""
    src = str(Path(adjustkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _model_csv(tmp_path, mid, n=300, seed=0, name="data.csv"):
    gm = generate_model(ModelSpec(mid, n=n, seed=seed))
    path = tmp_path / name
    save_csv(gm.dataset, path)
    return path


class TestSelect:
    def test_both_arms_write_artifacts(self, tmp_path):
        path = _model_csv(tmp_path, 2)
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out),
                   "--threads", "2"])
        assert rc == 0
        for t in (0, 1):
            doc = json.loads((out / f"selection_arm{t}.json").read_text())
            assert doc["arm"] == t
            assert doc["p"] == 10
            assert doc["subsets_evaluated"] == 1024
            assert doc["selected_count"] == len(doc["selected_sets"])
            assert doc["selected_count"] >= 1
            assert (out / f"criterion_arm{t}.csv").exists()
            assert (out / f"scree_arm{t}.csv").exists()

    def test_scree_rows_sorted_nonincreasing(self, tmp_path):
        path = _model_csv(tmp_path, 2)
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out),
                   "--arm", "0"])
        assert rc == 0
        scree = np.loadtxt(out / "scree_arm0.csv", delimiter=",", skiprows=1)
        assert scree.shape == (1024, 2)
        finite = scree[np.isfinite(scree[:, 1]), 1]
        assert np.all(np.diff(finite) <= 0)
        assert not (out / "selection_arm1.json").exists()

    def test_dimension_cap(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dataset(
            x=rng.normal(size=(120, 25)),
            t=np.tile([0, 1], 60),
            y=rng.normal(size=120),
        )
        path = tmp_path / "wide.csv"
        save_csv(d, path)
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_input(self, tmp_path):
        rc = main(["select", "--input", str(tmp_path / "absent.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--c0", "1.5"], ["--cn", "0"], ["--slices", "1"], ["--threads", "0"], ["--cn", "inf"]],
    )
    def test_flag_validation(self, tmp_path, flags):
        path = _model_csv(tmp_path, 1)
        out = tmp_path / "new-dir"
        rc = main(["select", "--input", str(path), "--output", str(out), *flags])
        assert rc == 2
        assert not out.exists()

    def test_slices_checked_before_the_covariance(self, tmp_path):
        # a bad flag is reported as one (exit 2), not as the numerical failure
        # (exit 3) that the data would have met further on
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 4))
        x[:, 2] = 1.0
        path = tmp_path / "data.csv"
        save_csv(Dataset(x=x, t=np.tile([0, 1], 100), y=rng.normal(size=200)), path)
        assert main(["select", "--input", str(path), "--slices", "1"]) == 2

    def test_hints_restrict_the_universe(self, tmp_path):
        path = _model_csv(tmp_path, 1)
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"known_forks": [3]}))
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out),
                   "--arm", "0", "--hints", str(hints)])
        assert rc == 0
        doc = json.loads((out / "selection_arm0.json").read_text())
        assert doc["subsets_evaluated"] == 512
        assert all(3 in s for s in doc["selected_sets"])

    def test_contradictory_hints(self, tmp_path):
        path = _model_csv(tmp_path, 1)
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"known_forks": [3], "pure_colliders": [3]}))
        out = tmp_path / "new-dir"
        rc = main(["select", "--input", str(path), "--output", str(out), "--hints", str(hints)])
        assert rc == 2
        assert not out.exists()

    def test_boolean_hint_index_rejected(self, tmp_path):
        # JSON true is a Python int; it used to be read as covariate 1
        rng = np.random.default_rng(5)
        d = Dataset(x=rng.normal(size=(80, 5)), t=np.tile([0, 1], 40), y=rng.normal(size=80))
        path = tmp_path / "p5.csv"
        save_csv(d, path)
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"known_forks": [True]}))
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out), "--hints", str(hints)])
        assert rc == 2
        assert not out.exists()

    def test_hints_byte_order_mark_ignored(self, tmp_path):
        text = json.dumps({"known_forks": [3], "pure_colliders": [1]})
        plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        want = _load_hint_masks(str(plain), 5)
        assert np.array_equal(_load_hint_masks(str(marked), 5), want)

    @pytest.mark.parametrize("value", [3, None, "12", [1.0], ["1"], [0], [6], [2, True]])
    def test_malformed_hint_values_rejected(self, tmp_path, value):
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"pure_noncolliders": value}))
        with pytest.raises(ValueError, match="pure_noncolliders"):
            _load_hint_masks(str(hints), 5)

    def test_threads_flag_changes_no_byte(self, tmp_path):
        path = _model_csv(tmp_path, 2)
        out1, out2 = tmp_path / "plain", tmp_path / "threads"
        assert main(["select", "--input", str(path), "--output", str(out1),
                     "--arm", "0"]) == 0
        assert main(["select", "--input", str(path), "--output", str(out2),
                     "--arm", "0", "--threads", "2"]) == 0
        for name in ("selection_arm0.json", "criterion_arm0.csv", "scree_arm0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["constant_covariate", "one_treated_row"])
    def test_numerical_failure_exits_3(self, tmp_path, case, capsys):
        rng = np.random.default_rng(8)
        x, t = rng.normal(size=(200, 4)), np.tile([0, 1], 100)
        if case == "constant_covariate":
            x[:, 2] = 1.0  # SingularCovariance
        else:
            t = np.zeros(200, dtype=np.int8)
            t[0] = 1  # TooFewObservations
        path = tmp_path / "data.csv"
        save_csv(Dataset(x=x, t=t, y=rng.normal(size=200)), path)
        assert main(["select", "--input", str(path), "--output", str(tmp_path / "run")]) == 3
        assert "numerical failure" in capsys.readouterr().err


def _names(mask, p):
    """1-based indices of a mask's bits below p, ascending."""
    return [i + 1 for i in range(p) if mask >> i & 1]


def _reference_files(header, result):
    """The select outputs as first written: one member or row at a time, with
    the members ordered by (cardinality, mask) and named here."""
    t = header["arm"]
    members = np.flatnonzero(result.selected.member_array).tolist()
    sets = sorted(members, key=lambda m: (bin(m).count("1"), m))
    doc = {
        **header,
        "selected_count": len(sets),
        "selected_sets": [_names(m, header["p"]) for m in sets],
        "selected_masks_hex": [f"{m:#x}" for m in sets],
    }
    crit = ["mask_hex,indices,f_value\n"]
    for mask, value in zip(result.order, result.sorted_values):
        idx = " ".join(map(str, _names(int(mask), header["p"])))
        crit.append(f"{int(mask):#x},{idx},{float(value)!r}\n")
    scree = ["k,f_value\n"]
    for k, value in enumerate(result.sorted_values, start=1):
        scree.append(f"{k},{float(value)!r}\n")
    return {
        f"selection_arm{t}.json": (json.dumps(doc, indent=2) + "\n").encode(),
        f"criterion_arm{t}.csv": "".join(crit).encode(),
        f"scree_arm{t}.csv": "".join(scree).encode(),
    }


class TestOutputBytes:
    """The select writer renders its files from arrays; the bytes stay those of
    the per-member formulation in `_reference_files`."""

    def _assert_cli_matches_reference(self, csv_path, out, hints=None):
        d = load_csv(csv_path)
        masks = _load_hint_masks(str(hints), d.p) if hints else None
        sel_cfg = SelectorConfig(cn=default_cn(d.n))
        for t in (0, 1):
            table = criterion_table(d, t, config=CriterionConfig(masks=masks))
            result = select(table, sel_cfg)
            header = {
                "arm": t, "n": d.n, "p": d.p, "variant": "mn", "method_y": "sir",
                "method_t": "sir", "h": 5, "c0": sel_cfg.c0, "cn": sel_cfg.cn,
                "subsets_evaluated": int(table.values.size),
                "singular_blocks": table.metadata["singular_blocks"], "tau": result.tau,
            }
            for name, expected in _reference_files(header, result).items():
                assert (out / name).read_bytes() == expected, name

    def test_model2_both_arms(self, tmp_path):
        path = _model_csv(tmp_path, 2)
        out = tmp_path / "run"
        assert main(["select", "--input", str(path), "--output", str(out),
                     "--arm", "both"]) == 0
        self._assert_cli_matches_reference(path, out)

    def test_hints_universe(self, tmp_path):
        path = _model_csv(tmp_path, 1)
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps({"known_forks": [3], "pure_noncolliders": [7]}))
        out = tmp_path / "run"
        assert main(["select", "--input", str(path), "--output", str(out),
                     "--hints", str(hints)]) == 0
        self._assert_cli_matches_reference(path, out, hints)

    @staticmethod
    def _assert_writer_matches_reference(tmp_path, p, order, tau):
        """Write a result that keeps ``order`` as it is and cuts it at ``tau``,
        and compare its files with the reference; return the reference's bytes."""
        values = np.array([np.inf, 3.0, 0.1 + 0.2, 1e-300] + [0.0] * order.size)
        cfg = SelectorConfig(c0=0.5, cn=0.01)
        result = SelectionResult(order, values[:order.size], tau,
                                 AdjustmentCollection.from_masks(p, order[tau:]), cfg)
        header = {"arm": 1, "n": 50, "p": p, "variant": "gc", "method_y": "save",
                  "method_t": "sir", "h": 3, "c0": cfg.c0, "cn": cfg.cn,
                  "subsets_evaluated": int(order.size), "singular_blocks": 1, "tau": tau}
        _write_selection(tmp_path, header, result)
        expected = _reference_files(header, result)
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name
        return expected

    def test_whole_universe_with_empty_set(self, tmp_path):
        # odd p and more rows than the writer renders at once
        p = 13
        order = np.random.default_rng(3).permutation(1 << p).astype(np.uint32)
        expected = self._assert_writer_matches_reference(tmp_path, p, order, 0)
        assert b"    []," in expected["selection_arm1.json"]

    @pytest.mark.parametrize("p, tau", [(1, 0), (1, 1), (2, 0), (2, 3)])
    def test_one_and_two_covariates(self, tmp_path, p, tau):
        # the name tables split the bits at k = p // 2 = 0 and 1
        order = np.random.default_rng(p).permutation(1 << p).astype(np.uint32)
        expected = self._assert_writer_matches_reference(tmp_path, p, order, tau)
        assert (b"    []" in expected["selection_arm1.json"]) == (0 in order[tau:])

    def test_pruned_universe_without_empty_set(self, tmp_path):
        # 6,000 of the 8,191 nonempty masks at p = 13, 5,500 selected: both
        # the CSV rows and the JSON items end in a partial block
        rng = np.random.default_rng(4)
        order = rng.choice(np.arange(1, 1 << 13, dtype=np.uint32), 6000, replace=False)
        expected = self._assert_writer_matches_reference(tmp_path, 13, order, 500)
        assert b'"selected_sets": [\n    [\n      ' in expected["selection_arm1.json"]


@pytest.mark.parametrize("p", range(1, 13))
def test_mask_namer_matches_subset_indices(p):
    masks = np.arange(1 << p, dtype=np.uint32)
    indices = [_names(m, p) for m in range(1 << p)]
    csv = cli._mask_namer(p, " ")(masks)
    assert list(map("".join, zip(*csv))) == [" ".join(map(str, i)) for i in indices]
    sets = cli._mask_namer(p, ",\n      ", "\n      ", "\n    ")(masks)
    item = len('{\n  "s": [\n    ')
    assert ["[%s%s]" % pair for pair in zip(*sets)] == [
        json.dumps({"s": [list(i)]}, indent=2)[item:-len("\n  ]\n}")] for i in indices]


@pytest.mark.parametrize("case", ["select --output file", "select --input dir", "oracle --dag dir"])
def test_file_system_errors_exit_2(tmp_path, case, capsys):
    command, flag, kind = case.split()
    target = tmp_path / "target"
    if kind == "file":
        target.write_text("")
        argv = ["--input", str(_model_csv(tmp_path, 1, n=200)), "--arm", "0"]
    else:
        target.mkdir()
        argv = []
    assert main([command, flag, str(target), *argv]) == 2
    assert capsys.readouterr().err.startswith("adjustkit: ")


@pytest.mark.parametrize("below", ["", "sub"])
def test_output_file_refused_before_the_sweep(tmp_path, monkeypatch, below, capsys):
    def sweep(*args, **kwargs):
        raise AssertionError("criterion_fit was called")

    monkeypatch.setattr(cli, "criterion_fit", sweep)
    data = _model_csv(tmp_path, 1, n=200)
    target = tmp_path / "target"
    target.write_text("")
    out = target / below if below else target
    assert main(["select", "--input", str(data), "--arm", "0", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("adjustkit: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "target"]
    assert target.is_file()


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("kind", ["missing parent", "directory"])
def test_output_file_refused_before_any_work(tmp_path, monkeypatch, capsys, command, kind):
    def never(*args, **kwargs):
        raise AssertionError("work started")

    calls = []
    monkeypatch.setattr(sim_bench, "_one_rep", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "true_collection", never)
    out = tmp_path / "missing" / "out.csv" if kind == "missing parent" else tmp_path
    if command == "simulate":
        argv = ["simulate", "--models", "1,4", "--n", "400", "--variants", "mn,gc",
                "--reps", "20", "--output", str(out)]
    else:
        dag = tmp_path / "dag.txt"
        dag.write_text(UNIQUE_MIN_DAG)
        argv = ["oracle", "--dag", str(dag), "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("adjustkit: --output: ")
    assert captured.out == ""
    assert calls == []
    assert not (tmp_path / "missing").exists()


class TestArmFailure:
    """An arm whose outcome candidate cannot be built fails on its own: arm 1
    below has 8 rows, fewer than the 2h = 10 that h = 5 slices need."""

    @staticmethod
    def _dataset():
        rng = np.random.default_rng(5)
        t = np.repeat([0, 1], [40, 8])
        x = rng.normal(size=(48, 3))
        return Dataset(t=t, y=x[:, 0] + rng.normal(size=48), x=x)

    def _run(self, tmp_path, arm):
        path = tmp_path / "thin.csv"
        save_csv(self._dataset(), path)
        out = tmp_path / "run"
        rc = main(["select", "--input", str(path), "--output", str(out), "--arm", arm])
        return rc, sorted(p.name for p in out.iterdir())

    ARM0_FILES = ["criterion_arm0.csv", "scree_arm0.csv", "selection_arm0.json"]

    def test_arm0_alone_never_builds_arm1(self, tmp_path):
        assert self._run(tmp_path, "0") == (0, self.ARM0_FILES)

    def test_both_arms_write_arm0_then_fail(self, tmp_path, capsys):
        assert self._run(tmp_path, "both") == (3, self.ARM0_FILES)
        assert "arm 1 has 8 rows" in capsys.readouterr().err

    def test_replication_keeps_the_other_arm(self, monkeypatch):
        d = self._dataset()
        gen = GeneratedModel(
            dataset=d,
            truth=upward_closure(d.p, [indices_mask(d.p, (1,))]),
            colliders=0,
        )
        monkeypatch.setattr(sim_bench, "generate_model", lambda spec: gen)
        out = sim_bench._one_rep(1, 100, ("mn", "gc"), (0, 1), seed=0, rep=0)
        for variant in ("mn", "gc"):
            assert isinstance(out[(variant, 0)], MetricsRecord)
            assert isinstance(out[(variant, 1)], TooFewObservations)


class TestForkedWriter:
    """`select --arm both` forks right after the fit: a child walks, checks,
    selects and writes arm 1 while this process does arm 0, and writes only
    once arm 0's table has passed its check.  Either side's failure exits as
    the in-process run does, an arm that passed its check is still written,
    and no child outlives the run."""

    ARM1_FILES = ["criterion_arm1.csv", "scree_arm1.csv", "selection_arm1.json"]

    @pytest.fixture(params=["forked", "in-process"])
    def forks(self, request, monkeypatch):
        """The os.fork calls made, or None when os.fork is missing."""
        if request.param == "in-process":
            monkeypatch.delattr(os, "fork")
            return None
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or fork())
        return calls

    def _run(self, tmp_path, forks, blocked=None):
        data = _model_csv(tmp_path, 1, n=200)
        out = tmp_path / "run"
        if blocked:
            (out / blocked).mkdir(parents=True)
        rc = main(["select", "--input", str(data), "--arm", "both", "--output", str(out)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert forks is None or forks == [os.getpid()]
        return rc, sorted(p.name for p in out.iterdir() if p.is_file()) if out.exists() else None

    @staticmethod
    def _walks(monkeypatch, each):
        """Replace `CriterionFit.tables` by ``each(positions, tables)`` of the
        real call, in this process and in any child forked after this."""
        real = CriterionFit.tables
        monkeypatch.setattr(CriterionFit, "tables", lambda fit, positions=None: each(
            positions, real(fit, positions)))

    def test_both_arms_print_in_order(self, tmp_path, forks, capsys):
        assert self._run(tmp_path, forks) == (0, sorted(TestArmFailure.ARM0_FILES + self.ARM1_FILES))
        lines = capsys.readouterr().out.splitlines()
        assert [line[:6] for line in lines] == ["arm 0:", "arm 1:"]

    def test_arm1_write_fails(self, tmp_path, forks, capsys):
        assert self._run(tmp_path, forks, "selection_arm1.json") == (2, TestArmFailure.ARM0_FILES)
        std = capsys.readouterr()
        blocked = tmp_path / "run" / "selection_arm1.json"
        assert std.err == f"adjustkit: [Errno 21] Is a directory: '{blocked}'\n"
        assert std.out.startswith("arm 0: ") and "arm 1" not in std.out

    def test_arm1_select_fails(self, tmp_path, forks, monkeypatch, capsys):
        # the child's select error comes back as its write error does; each
        # process records the tables it walked, by position in the fit
        walked = {}

        def recorded(positions, tables):
            walked.update(zip(positions, tables))
            return tables

        self._walks(monkeypatch, recorded)

        def failing(table, config):
            if table is walked.get(1):
                raise ValueError("arm 1 cannot be cut")
            return select(table, config)

        monkeypatch.setattr(cli, "select", failing)
        assert self._run(tmp_path, forks) == (2, TestArmFailure.ARM0_FILES)
        std = capsys.readouterr()
        assert std.err == "adjustkit: arm 1 cannot be cut\n"
        assert std.out.startswith("arm 0: ") and "arm 1" not in std.out

    def test_arm0_check_closes_the_gate(self, tmp_path, forks, monkeypatch, capsys):
        # arm 1 is walked, checked and selected in the child, but never
        # written: arm 0's table fails its check, and no directory is made
        def arm0_singular(positions, tables):
            if positions == (0,):
                [table] = tables
                return (dataclasses.replace(table, values=np.full_like(table.values, np.inf)),)
            return tables

        self._walks(monkeypatch, arm0_singular)
        assert self._run(tmp_path, forks) == (3, None)
        std = capsys.readouterr()
        assert std.err == (
            "adjustkit: numerical failure: arm 0: every conditioning block is singular\n"
        )
        assert std.out == ""

    def test_child_dies_before_the_gate(self, tmp_path, monkeypatch, capsys):
        # the child ends before it walks; this process waits for that, without
        # reaping it, so its b"1" meets a gate with no reader (BrokenPipeError)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        parent, real = os.getpid(), CriterionFit.tables

        def walk(fit, positions=None):
            if os.getpid() != parent:
                os._exit(1)
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            return real(fit, positions)

        monkeypatch.setattr(CriterionFit, "tables", walk)
        assert self._run(tmp_path, forks) == (2, TestArmFailure.ARM0_FILES)
        std = capsys.readouterr()
        assert std.err == "adjustkit: the forked child ended with exit code 1\n"
        assert std.out.startswith("arm 0: ") and "arm 1" not in std.out

    def test_fit_warns_once_before_the_fork(self, tmp_path):
        # X1 and X3 separate the arms, so no observation lies inside both
        # arms' truncation bands and gc pools neither; the fit warns, in one
        # process, before the child is forked
        d = generate_model(ModelSpec(1, n=200, seed=0)).dataset
        x = d.x.copy()
        x[:, [0, 2]] += 10.0 * d.t[:, None]
        data = tmp_path / "data.csv"
        save_csv(d.with_x(x), data)
        out = tmp_path / "run"
        run = _fresh_python("-m", "adjustkit.cli", "select", "--input", str(data),
                            "--variant", "gc", "--arm", "both", "--output", str(out))
        assert run.returncode == 0, run.stderr
        assert [line[:6] for line in run.stdout.splitlines()] == ["arm 0:", "arm 1:"]
        warned = [line.split("DegeneratePooling: ")[1].split(":")[0]
                  for line in run.stderr.splitlines() if "DegeneratePooling: " in line]
        assert warned == ["coordinate 1", "coordinate 3"]

    def test_arm0_write_fails(self, tmp_path, forks, capsys):
        assert self._run(tmp_path, forks, "selection_arm0.json") == (2, self.ARM1_FILES)
        std = capsys.readouterr()
        blocked = tmp_path / "run" / "selection_arm0.json"
        assert std.err == f"adjustkit: [Errno 21] Is a directory: '{blocked}'\n"
        assert std.out == ""


class TestOracle:
    def test_large_dimension_does_not_warn(self, tmp_path):
        # only enumerate_masks, which materializes the 2^p masks, warns; the
        # oracle sweeps packed words and builds no mask array
        dag = tmp_path / "dag.txt"
        dag.write_text("".join(f"{a} -> {b}\n" for a, b in model_graph(3, 21).edges()))
        run = _fresh_python("-m", "adjustkit.cli", "oracle", "--dag", str(dag))
        assert run.returncode == 0, run.stderr
        assert "p = 21," in run.stdout
        assert "LargeDimension" not in run.stderr

    def test_unique_minimal_graph(self, tmp_path, capsys):
        dag = tmp_path / "dag.txt"
        dag.write_text(UNIQUE_MIN_DAG)
        report = tmp_path / "report.json"
        rc = main(["oracle", "--dag", str(dag), "--output", str(report)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "|collection| = 7 of 16" in text
        assert "unique minimal: {1}" in text
        assert "collider indices: {3}" in text
        doc = json.loads(report.read_text())
        assert doc["unique_minimal"] == [1]
        assert doc["colliders"] == [3]

    def test_three_route_graph(self, tmp_path, capsys):
        dag = tmp_path / "dag.txt"
        dag.write_text(TRIPLE_DAG)
        rc = main(["oracle", "--dag", str(dag)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "locally minimal: {1}, {2}, {3}" in text
        assert "unique minimal: none" in text
        assert "collider indices: {5}" in text

    def test_cycle_rejected(self, tmp_path):
        dag = tmp_path / "dag.txt"
        dag.write_text("X1 -> X2\nX2 -> X1\n")
        assert main(["oracle", "--dag", str(dag)]) == 2

    def test_empty_collection_lists_no_members(self, tmp_path, capsys):
        dag = tmp_path / "dag.txt"
        dag.write_text("T -> Y\nX1 -> Y\n")
        assert main(["oracle", "--dag", str(dag)]) == 0
        text = capsys.readouterr().out
        assert "|collection| = 0 of 2" in text
        assert "members: none\n" in text

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(UNIQUE_MIN_DAG, encoding="utf-8")
        marked.write_text(UNIQUE_MIN_DAG, encoding="utf-8-sig")
        assert main(["oracle", "--dag", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["oracle", "--dag", str(marked)]) == 0
        assert capsys.readouterr().out == want


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        args = ["simulate", "--models", "1", "--n", "400", "--variants", "mn",
                "--reps", "2", "--seed", "7"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--output", str(f1)]) == 0
        assert main([*args, "--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert "model" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--models", "9"],
            ["--reps", "0"],
            ["--variants", "xx"],
            ["--models", ""],
            ["--models", "1,1"],
            ["--n", "400,400"],
            ["--variants", "mn,mn"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_grid(self, flags):
        assert main(["simulate", *flags]) == 2


class TestAte:
    def _effect_csv(self, tmp_path, delta=2.0):
        rng = np.random.default_rng(12)
        n = 800
        x = rng.normal(size=(n, 3))
        t = (rng.random(n) < 0.5).astype(np.int8)
        y = x @ np.array([1.0, 0.5, -0.2]) + delta * t + 0.1 * rng.normal(size=n)
        path = tmp_path / "effect.csv"
        save_csv(Dataset(x=x, t=t, y=y), path)
        return path, Dataset(x=x, t=t, y=y)

    def test_constant_effect_recovered(self, tmp_path, capsys):
        path, _ = self._effect_csv(tmp_path)
        rc = main(["ate", "--input", str(path), "--a0", "1,2,3", "--a1", "1,2,3"])
        assert rc == 0
        value = float(capsys.readouterr().out.rsplit(":", 1)[1])
        assert value == pytest.approx(2.0, abs=0.25)

    def test_empty_sets_give_arm_mean_gap(self, tmp_path, capsys):
        path, d = self._effect_csv(tmp_path)
        rc = main(["ate", "--input", str(path)])
        assert rc == 0
        expected = float(d.y[d.t == 1].mean() - d.y[d.t == 0].mean())
        assert f"{expected:.6f}" in capsys.readouterr().out

    def test_out_of_range_index(self, tmp_path):
        path, _ = self._effect_csv(tmp_path)
        assert main(["ate", "--input", str(path), "--a0", "4"]) == 2

    def test_non_integer_index(self, tmp_path):
        path, _ = self._effect_csv(tmp_path)
        assert main(["ate", "--input", str(path), "--a0", "x"]) == 2

    @pytest.mark.parametrize("a1", ["0", "1,", "1.0", "1,,2"])
    def test_malformed_index_list(self, tmp_path, a1):
        path, _ = self._effect_csv(tmp_path)
        assert main(["ate", "--input", str(path), "--a1", a1]) == 2

    def test_spaced_index_list(self, tmp_path, capsys):
        path, _ = self._effect_csv(tmp_path)
        assert main(["ate", "--input", str(path), "--a0", " 3, 1 ", "--a1", " "]) == 0
        assert "a0={1, 3}, a1={}" in capsys.readouterr().out


class TestParser:
    def test_unknown_flag_exits(self):
        with pytest.raises(SystemExit) as err:
            main(["select", "--bogus"])
        assert err.value.code == 2

    def test_command_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestColdStart:
    """scipy is loaded only to fit a copula or to draw a model, so the other
    commands start without it, and the commands that need it load it on
    first use and write what they write in a warm process."""

    def test_no_scipy_outside_gc_and_models(self, tmp_path):
        rng = np.random.default_rng(5)
        t = (rng.random(120) < 0.5).astype(np.int8)
        x = rng.normal(size=(120, 6))
        data = tmp_path / "p6.csv"
        save_csv(Dataset(x=x, t=t, y=x[:, 0] + x[:, 1] + t), data)
        dag = tmp_path / "dag.txt"
        dag.write_text(TRIPLE_DAG)
        script = (
            "import sys\n"
            "import adjustkit.cli, adjustkit.copula, adjustkit.criterion, adjustkit.dag_oracle\n"
            "import adjustkit.data_model, adjustkit.set_analysis, adjustkit.sim_bench\n"
            "from adjustkit.cli import main\n"
            "data, dag, out = sys.argv[1:]\n"
            "assert main(['oracle', '--dag', dag]) == 0\n"
            "assert main(['ate', '--input', data, '--a0', '1,2', '--a1', '1']) == 0\n"
            "assert main(['select', '--input', data, '--variant', 'mn', '--output', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        run = _fresh_python("-c", script, str(data), str(dag), str(tmp_path / "sel"))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"
        assert len(list((tmp_path / "sel").iterdir())) == 6

    @pytest.mark.parametrize("command", [
        ["select", "--input", "{data}", "--variant", "gc", "--output", "{out}"],
        ["simulate", "--models", "4", "--reps", "1", "--output", "{out}"],
    ])
    def test_cold_run_writes_the_same_bytes(self, tmp_path, command):
        data = _model_csv(tmp_path, 1, n=200)
        outputs = {}
        for where in ("warm", "cold"):
            out = tmp_path / where
            argv = [a.format(data=data, out=out) for a in command]
            if where == "warm":
                assert main(argv) == 0
            else:
                run = _fresh_python("-m", "adjustkit.cli", *argv)
                assert run.returncode == 0, run.stderr
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            outputs[where] = [(f.name, f.read_bytes()) for f in files]
        assert outputs["cold"] == [(n.replace("warm", "cold"), b) for n, b in outputs["warm"]]
