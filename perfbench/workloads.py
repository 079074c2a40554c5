"""The three workloads: inputs made from the seed, one operation, checks.

A workload's `parts(i)` are the calls that make up operation i, timed one
by one; `settle(i, raw)`, given the list of their results, runs after the
clock stops and reduces the operation to an `Outcome`
(failed or not, a digest of everything it computed, bytes it wrote);
`check(outcomes)` runs once after the timed loop.  `shared_inputs` marks
the workloads whose operations all get the same inputs and so must all
write the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference as ref


@dataclass
class Outcome:
    failed: bool
    digest: str
    bytes: int = 0
    data: object = None


def _quiet_main(cli, argv) -> tuple[int, str]:
    """adjustkit's CLI entry point with its stdout captured."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _digest_files(paths, extra: str) -> tuple[str, int]:
    h = hashlib.blake2b(extra.encode(), digest_size=16)
    size = 0
    for path in paths:
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode())
        h.update(data)
    return h.hexdigest(), size


class Workload:
    def parts(self, i: int) -> list:
        raise NotImplementedError

    def op(self, i: int) -> list:
        """Operation i, untimed, as the checks' tests run it."""
        return [part() for part in self.parts(i)]


class SelectP17(Workload):
    """`adjustkit select --arm both --variant mn --threads 2` on a model-1 CSV."""

    name = "select-p17"
    threads = 2
    shared_inputs = True
    n, p = 4000, 17
    sample_size = 200

    def __init__(self, ak, workdir: Path, seed: int):
        self.ak, self.workdir, self.seed = ak, workdir, seed
        self.input = workdir / "input.csv"
        self.outdir = workdir / "select"

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.p)))
        self.x, self.t, self.y = ref.model1_sample(rng, self.n, self.p)
        ref.write_csv(self.input, self.x, self.t, self.y)

    def parts(self, i: int) -> list:
        return [lambda: _quiet_main(self.ak["cli"], [
            "select", "--input", str(self.input), "--arm", "both", "--variant", "mn",
            "--threads", str(self.threads), "--output", str(self.outdir)])]

    def settle(self, i: int, raw) -> Outcome:
        [(rc, stdout)] = raw
        files = sorted(self.outdir.iterdir())
        digest, size = _digest_files(files, stdout)
        return Outcome(failed=rc != 0, digest=digest, bytes=size)

    def check(self, outcomes) -> list[str]:
        """Outputs of the last operation; every operation wrote the same bytes."""
        problems = []
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.p, 1)))
        sample = np.sort(rng.choice((1 << self.p) - 1, self.sample_size, replace=False))
        for arm in (0, 1):
            out = checks.read_select_outputs(self.outdir, arm)
            problems += [f"arm {arm}: {s}" for s in checks.select_files(self.p, out)]
            problems += [f"arm {arm}: {s}" for s in checks.select_truth(
                self.p, out["doc"]["selected_masks_hex"])]
            expected = ref.criterion_reference(self.x, self.t, self.y, arm, sample)
            problems += [f"arm {arm}: {s}" for s in checks.criterion_sample(
                out["masks"], out["values"], sample, expected)]
        return problems


class ReplicateP10(Workload):
    """`sim_bench.run_benchmark`: models 1-5, n 400 and 800, mn and gc, both arms, reps=1."""

    name = "replicate-p10"
    threads = 1
    shared_inputs = False
    models, n_values, variants, arms = (1, 2, 3, 4, 5), (400, 800), ("mn", "gc"), (0, 1)

    def __init__(self, ak, workdir: Path, seed: int):
        self.ak, self.seed = ak, seed

    def op_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def setup(self) -> None:
        """The program draws its own samples from each operation's seed."""

    def parts(self, i: int) -> list:
        return [lambda: self.ak["sim_bench"].run_benchmark(
            model_ids=self.models, n_values=self.n_values, variants=self.variants,
            arms=self.arms, reps=1, seed=self.op_seed(i), threads=self.threads)]

    def settle(self, i: int, raw) -> Outcome:
        [raw] = raw
        digest = hashlib.blake2b(repr(raw.rows).encode(), digest_size=16).hexdigest()
        return Outcome(failed=any(raw.failures.values()), digest=digest, data=raw.rows)

    def _samples(self, op_seed: int) -> list:
        """(model, n, dataset) of every cell of operation `op_seed`, drawn as run_benchmark draws them."""
        sb = self.ak["sim_bench"]
        return [(model, n, sb.generate_model(sb.ModelSpec(
                    model, n, 10, seed=np.random.SeedSequence((op_seed, model, n, 0)))).dataset)
                for model in self.models for n in self.n_values]

    def _cells(self, samples):
        crit = self.ak["criterion"]
        for model, n, d in samples:
            cfg = crit.CriterionConfig(method_t="save" if model in (4, 5) else "sir")
            for variant in self.variants:
                for arm in self.arms:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        table = crit.criterion_table(d, arm, variant, cfg)
                    yield model, n, variant, arm, table.masks, table.values

    def check(self, outcomes) -> list[str]:
        """Recompute the first and the last operation's cells; copula invariance on their samples."""
        dm, copula = self.ak["data_model"], self.ak["copula"]

        def transform(x, t, y):
            return copula.transform_dataset(dm.Dataset(x=x, t=t, y=y)).x

        problems = []
        for i in sorted({0, len(outcomes) - 1}):
            samples = self._samples(self.op_seed(i))
            problems += [f"op {i}: {s}" for s in checks.replicate_metrics(
                outcomes[i].data, self._cells(samples))]
            for _, _, d in samples:
                problems += [f"op {i}: {s}" for s in checks.copula_invariance(
                    transform, d.x, d.t, d.y)]
        return problems


class OracleMix(Workload):
    """`adjustkit oracle` over two wide sparse graphs and two path-rich random graphs.

    The four graph shapes are fixed, so every seed asks for the same work:
    the seed relabels the X nodes of each graph and shuffles its edge lines.
    """

    name = "oracle-mix"
    threads = 1
    shared_inputs = True
    wide_p = 18
    random_p, random_count, paths = 14, 2, (11_000, 13_000)
    sample_size = 500

    def __init__(self, ak, workdir: Path, seed: int):
        self.ak, self.workdir, self.seed = ak, workdir, seed
        p = self.wide_p
        # (file stem, p, edges, closed-form collection, closed-form size)
        self.shapes = [
            ("wide-model1", p, ref.MODEL1_EDGES, ref.model1_truth, 448 << (p - 10)),
            ("wide-model3", p, ref.model3_edges(p), ref.model3_truth, 736 << (p - 10)),
        ]
        # the first random graphs of a fixed stream whose Y-T path count is in range
        rng = np.random.default_rng(np.random.SeedSequence((0, self.random_p)))
        lo, hi = self.paths
        while len(self.shapes) < 2 + self.random_count:
            edges = ref.random_dag_edges(rng, self.random_p)
            count = ref.count_yt_paths(ref.Graph(self.random_p, edges), hi)
            if count is not None and count >= lo:
                self.shapes.append((f"random{len(self.shapes) - 1}", self.random_p,
                                    edges, None, None))

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.random_p)))
        self.graphs, self.files = [], []
        for stem, p, edges, closed_form, size in self.shapes:
            perm = rng.permutation(p)
            edges = [edges[k] for k in rng.permutation(len(edges))]
            expected = None
            if closed_form is not None:
                masks = np.arange(1 << p)
                expected = np.zeros(1 << p, dtype=bool)
                expected[ref.permute_masks(masks, perm)] = closed_form(masks)
            self.graphs.append((stem, p, ref.relabel(edges, perm), expected, size))
            path = self.workdir / f"{stem}.txt"
            path.write_text(ref.edge_text(p, self.graphs[-1][2]), encoding="utf-8")
            self.files.append(path)

    def _report(self, path: Path) -> Path:
        return path.with_suffix(".json")

    def parts(self, i: int) -> list:
        """One `adjustkit oracle` call per graph file."""
        cli = self.ak["cli"]
        return [lambda f=f: _quiet_main(cli, ["oracle", "--dag", str(f),
                                              "--output", str(self._report(f))])
                for f in self.files]

    def settle(self, i: int, raw) -> Outcome:
        digest, size = _digest_files([self._report(f) for f in self.files],
                                     "".join(out for _, out in raw))
        return Outcome(failed=any(rc != 0 for rc, _ in raw), digest=digest, bytes=size)

    def check(self, outcomes) -> list[str]:
        """Reports of the last operation against d-separation written here."""
        Dag, true_collection = self.ak["dag_oracle"].Dag, self.ak["dag_oracle"].true_collection
        problems = []
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.random_p, 1)))
        for path, (stem, p, edges, expected, size) in zip(self.files, self.graphs):
            report = json.loads(self._report(path).read_text(encoding="utf-8"))
            member = true_collection(Dag.from_text(path.read_text(encoding="utf-8"))).member_array
            g = ref.Graph(p, edges)

            def separated(mask, g=g):
                return ref.yt_separated(g, mask)

            if expected is not None:
                sample = rng.choice(1 << p, self.sample_size, replace=False)
                off = [int(m) for m in sample if separated(int(m)) != member[m]]
                if off:
                    problems.append(f"{stem}: {len(off)} sampled masks disagree with "
                                    f"d-separation, e.g. {off[0]:#x}")
            else:
                expected = np.array([separated(m) for m in range(1 << p)])
            problems += [f"{stem}: {s}" for s in checks.oracle_report(
                p, report, member, expected, separated, size)]
        return problems


WORKLOADS = {w.name: w for w in (SelectP17, ReplicateP10, OracleMix)}
