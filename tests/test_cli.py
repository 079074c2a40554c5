"""Command-line surface: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from adjustkit.cli import _load_hint_masks, _write_selection, main
from adjustkit.criterion import CriterionConfig, criterion_table
from adjustkit.data_model import Dataset, SubsetId, load_csv, save_csv
from adjustkit.selection import SelectorConfig, default_cn, select, select_tail
from adjustkit.sim_bench import ModelSpec, generate_model

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


def _reference_files(header, result):
    """The select outputs as first written: one SubsetId per member and per row."""
    t = header["arm"]
    sets = list(result.selected.subset_ids())
    doc = {
        **header,
        "selected_count": len(sets),
        "selected_sets": [list(s.indices) for s in sets],
        "selected_masks_hex": [f"{s.mask:#x}" for s in sets],
    }
    crit = ["mask_hex,indices,f_value\n"]
    for mask, value in zip(result.order, result.sorted_values):
        idx = " ".join(map(str, SubsetId(int(mask), result.p).indices))
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
                "method_t": "sir", "h": 5, "c0": result.c0, "cn": result.cn,
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

    def test_whole_universe_with_empty_set(self, tmp_path):
        # odd p and more rows than the writer renders at once
        p = 13
        order = np.random.default_rng(3).permutation(1 << p).astype(np.uint32)
        values = np.array([np.inf, 3.0, 0.1 + 0.2, 1e-300] + [0.0] * ((1 << p) - 4))
        ratios = np.ones(1 << p)
        ratios[0] = 0.5
        result = select_tail(ratios, order, p, sorted_values=values, t=1,
                             config=SelectorConfig(c0=0.5, cn=0.01))
        assert result.tau == 0
        header = {"arm": 1, "n": 50, "p": p, "variant": "gc", "method_y": "save",
                  "method_t": "sir", "h": 3, "c0": result.c0, "cn": result.cn,
                  "subsets_evaluated": 1 << p, "singular_blocks": 1, "tau": result.tau}
        _write_selection(tmp_path, header, result)
        expected = _reference_files(header, result)
        assert b"    []," in expected["selection_arm1.json"]
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name


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


class TestOracle:
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
