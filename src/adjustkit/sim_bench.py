"""Benchmark models and seeded replication harness.

Five synthetic designs exercise the selector: linear and nonlinear outcomes
over a shared confounded DAG (models 1-2), a logistic treatment with binary
noise coordinates (model 3), and heavy-tailed copula designs where only the
within-arm covariance carries the treatment signal (models 4-5).  The
harness reruns selection over seeded replications and averages the recovery
metrics.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, fdtri, ndtr

from .criterion import CriterionConfig, criterion_table
from .data_model import Dataset, SubsetId
from .dag_oracle import Dag, true_collection
from .errors import AdjustKitError, DegenerateData, UnknownModel
from .selection import SelectorConfig, select
from .set_analysis import (
    AdjustmentCollection,
    collider_indices,
    locally_minimal,
    upward_closure,
)

__all__ = [
    "ModelSpec",
    "GeneratedModel",
    "MetricsRecord",
    "BenchmarkResult",
    "MODEL_IDS",
    "generate_model",
    "model_graph",
    "compute_metrics",
    "run_benchmark",
]

MODEL_IDS = (1, 2, 3, 4, 5)
NOISE_SD = np.sqrt(0.2)

METRIC_NAMES = ("rho", "omega", "pi", "true_colliders", "false_colliders")


@dataclass(frozen=True)
class ModelSpec:
    """One benchmark model instantiation."""

    model_id: int
    n: int
    p: int = 10
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise UnknownModel(f"model id {self.model_id} not in {MODEL_IDS}")
        if self.n < 100:
            raise ValueError("need n >= 100")
        if self.p < 10:
            raise ValueError("benchmark models need p >= 10")


@dataclass(frozen=True)
class GeneratedModel:
    """Sample plus ground truth for one replication."""

    dataset: Dataset
    truth: AdjustmentCollection
    colliders: SubsetId
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsRecord:
    """Recovery metrics of one selection against the ground truth.

    rho is the recalled fraction of the truth, omega the precision of
    the selection, pi the indicator that every locally minimal true set
    was selected; the collider counts compare detected collider indices
    against the true ones.
    """

    rho: float
    omega: float
    pi: float
    true_colliders: int
    false_colliders: int

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "omega": self.omega,
            "pi": self.pi,
            "true_colliders": self.true_colliders,
            "false_colliders": self.false_colliders,
        }


def model_graph(model_id: int, p: int = 10) -> Dag:
    """Structural DAG of models 1-3; models 4-5 have no X-level DAG."""
    if model_id in (1, 2):
        return Dag(p, [
            ("T", "X1"), ("T", "X2"), ("X1", "X4"), ("X3", "X4"),
            ("X2", "Y"), ("X3", "Y"),
        ])
    if model_id == 3:
        edges = [
            ("X4", "X1"), ("X4", "X2"), ("X4", "X3"), ("X4", "X5"),
            ("X2", "T"), ("X5", "T"),
            ("X1", "Y"), ("X3", "Y"), ("X6", "Y"), (f"X{p}", "Y"),
        ]
        return Dag(p, edges)
    raise UnknownModel(f"model {model_id} has no DAG over X")


def _truth(model_id: int, p: int) -> tuple[AdjustmentCollection, SubsetId, str]:
    if model_id in (1, 2, 3):
        coll = true_collection(model_graph(model_id, p))
        colliders = SubsetId.from_indices(p, (4,) if model_id in (1, 2) else ())
        return coll, colliders, "dag"
    # treatment moves only the (1,2) covariance block; every set containing
    # both coordinates is sufficient, nothing else is
    coll = upward_closure(p, [SubsetId.from_indices(p, (1, 2))])
    return coll, SubsetId.from_indices(p, ()), "analytic"


def _gen_linear(rng, n: int, p: int, model_id: int) -> tuple[np.ndarray, ...]:
    if model_id == 1:
        var, mu = 0.8, 0.6
    else:
        var, mu = 0.6, 0.5
    t = (rng.random(n) < expit(0.0)).astype(np.int8)
    x = rng.normal(0.0, np.sqrt(var), (n, p))
    x[t == 1, 0] += mu
    x[t == 1, 1] += mu
    e4 = rng.normal(0.0, NOISE_SD, n)
    if model_id == 1:
        x[:, 3] = 1.5 * x[:, 2] + x[:, 0] + e4
        y0 = 4.0 * (x[:, 1] + x[:, 2]) + 2.2 * rng.normal(0.0, NOISE_SD, n)
        y1 = 5.0 * (x[:, 1] + x[:, 2]) + 2.2 * rng.normal(0.0, NOISE_SD, n)
    else:
        x[:, 3] = 2.0 * x[:, 2] + 2.0 * x[:, 0] + e4
        y0 = 9.0 * np.sin(x[:, 1]) + 9.0 * x[:, 2] ** 3 \
            + 2.2 * rng.normal(0.0, NOISE_SD, n)
        y1 = 10.0 * np.sin(x[:, 1]) + 10.0 * np.sin(x[:, 2]) \
            + 2.2 * rng.normal(0.0, NOISE_SD, n)
    return x, t, np.where(t == 1, y1, y0)


def _gen_logistic(rng, n: int, p: int) -> tuple[np.ndarray, ...]:
    roots = [3] + list(range(7, p))
    x = np.zeros((n, p))
    x[:, roots] = rng.normal(0.0, np.sqrt(0.6), (n, len(roots)))
    for j in (0, 1, 2, 4):
        x[:, j] = 2.0 * x[:, 3] + rng.normal(0.0, NOISE_SD, n)
    x[:, 5] = (rng.random(n) < 0.5).astype(np.float64)
    x[:, 6] = (rng.random(n) < 0.5).astype(np.float64)
    t = (rng.random(n) < expit(x[:, 1] + x[:, 4])).astype(np.int8)
    base = 2.0 * x[:, 5] + 7.0 * x[:, 2] / (0.5 + (x[:, 0] + 2.0) ** 3)
    y0 = base + 0.4 * x[:, p - 1] ** 3 + rng.normal(0.0, NOISE_SD, n)
    y1 = base + 0.8 * x[:, p - 1] ** 3 + rng.normal(0.0, NOISE_SD, n)
    return x, t, np.where(t == 1, y1, y0)


def _gen_copula(rng, n: int, p: int, model_id: int) -> tuple[np.ndarray, ...]:
    t = (rng.random(n) < expit(0.0)).astype(np.int8)
    z = rng.normal(0.0, 1.0, (n, p))
    # arm-1 rows get corr(Z1, Z2) = .5 via the Cholesky factor of the block
    treated = t == 1
    z1 = z[treated, 0].copy()
    z2 = z[treated, 1]
    z[treated, 1] = 0.5 * z1 + np.sqrt(0.75) * z2
    # F(2, 3) quantiles of the normal scores; scipy.stats.f.ppf is this same
    # call, and importing scipy.stats would double the CLI's start-up time
    x = fdtri(2, 3, ndtr(z))
    scale = 1.0 if model_id == 4 else 10.0
    y0 = x[:, 0] + 1.5 * x[:, 1] + np.sin(x[:, 2]) \
        + scale * rng.normal(0.0, NOISE_SD, n)
    y1 = x[:, 0] + 1.0 * x[:, 1] + np.sin(x[:, 2]) \
        + scale * rng.normal(0.0, NOISE_SD, n)
    return x, t, np.where(t == 1, y1, y0)


def generate_model(spec: ModelSpec) -> GeneratedModel:
    """Draw one replication of a benchmark model.

    Parameters
    ----------
    spec : ModelSpec

    Returns
    -------
    GeneratedModel
        Dataset plus the exact sufficient-set collection (identical for
        both arms in all five models) and the true collider indices.

    Notes
    -----
    Models 1-2 draw T, then X given T, then the derived coordinate,
    then both potential outcomes; model 3 draws X first and T from a
    logistic in X2 + X5; models 4-5 draw correlated normals and push
    them through the F(2,3) quantile per coordinate.
    """
    seed = spec.seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed)
    n, p = spec.n, spec.p
    if spec.model_id in (1, 2):
        x, t, y = _gen_linear(rng, n, p, spec.model_id)
    elif spec.model_id == 3:
        x, t, y = _gen_logistic(rng, n, p)
    else:
        x, t, y = _gen_copula(rng, n, p, spec.model_id)
    truth, colliders, source = _truth(spec.model_id, p)
    return GeneratedModel(
        dataset=Dataset(x=x, t=t, y=y),
        truth=truth,
        colliders=colliders,
        metadata={"model_id": spec.model_id, "truth_source": source},
    )


def compute_metrics(
    estimated: AdjustmentCollection,
    truth: AdjustmentCollection,
    collider_truth: SubsetId,
) -> MetricsRecord:
    """Recovery metrics of a selected collection against the truth.

    rho = |est ∩ truth| / |truth|; omega = |est ∩ truth| / |est|;
    pi = 1 iff every locally minimal member of the truth was selected;
    collider counts compare detected collider indices (unrefined union
    of minimal blocking obstructions) with the true collider set.
    """
    if estimated.p != truth.p:
        raise ValueError("collections live on different dimensions")
    inter = int(np.count_nonzero(estimated.member_array & truth.member_array))
    rho = inter / len(truth) if len(truth) else 0.0
    omega = inter / len(estimated) if len(estimated) else 0.0
    lm = locally_minimal(truth)
    pi = float(all(s.mask in estimated for s in lm))
    detected = set(collider_indices(estimated).indices)
    actual = set(collider_truth.indices)
    return MetricsRecord(
        rho=rho,
        omega=omega,
        pi=pi,
        true_colliders=len(detected & actual),
        false_colliders=len(detected - actual),
    )


@dataclass(frozen=True)
class BenchmarkResult:
    """Averaged benchmark metrics, one row per table cell."""

    rows: tuple
    reps: int
    seed: int
    failures: dict

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("model,variant,n,metric,arm,value\n")
        for r in self.rows:
            buf.write(
                f"{r['model']},{r['variant']},{r['n']},"
                f"{r['metric']},{r['arm']},{r['value']:.6f}\n"
            )
        return buf.getvalue()

    def render(self) -> str:
        cells = {}
        keys = []
        for r in self.rows:
            key = (r["model"], r["n"], r["variant"], r["arm"])
            if key not in cells:
                cells[key] = {}
                keys.append(key)
            cells[key][r["metric"]] = r["value"]
        lines = [
            f"{'model':>5} {'n':>6} {'variant':>8} {'arm':>3} "
            f"{'rho':>7} {'omega':>7} {'pi':>7} {'T':>6} {'F':>6}"
        ]
        for key in keys:
            m = cells[key]
            lines.append(
                f"{key[0]:>5} {key[1]:>6} {key[2]:>8} {key[3]:>3} "
                f"{m.get('rho', float('nan')):>7.1f} "
                f"{m.get('omega', float('nan')):>7.1f} "
                f"{m.get('pi', float('nan')):>7.1f} "
                f"{m.get('true_colliders', float('nan')):>6.1f} "
                f"{m.get('false_colliders', float('nan')):>6.1f}"
            )
        if any(self.failures.values()):
            parts = [f"{k}: {v}" for k, v in self.failures.items() if v]
            lines.append("excluded failed replications -- " + "; ".join(parts))
        return "\n".join(lines)


def _method_t(model_id: int) -> str:
    # the within-arm covariance carries the whole treatment signal in 4-5
    return "save" if model_id in (4, 5) else "sir"


def _one_rep(model_id, n, p, variants, arms, seed, rep, h):
    spec = ModelSpec(
        model_id, n, p, seed=np.random.SeedSequence((seed, model_id, n, rep))
    )
    gen = generate_model(spec)
    out = {}
    for variant in variants:
        cfg = CriterionConfig(method_y="sir", method_t=_method_t(model_id), h=h)
        for arm in arms:
            key = (variant, arm)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateData)
                    table = criterion_table(gen.dataset, arm, variant, cfg)
                    result = select(table, SelectorConfig.for_sample(n))
                out[key] = compute_metrics(
                    result.selected, gen.truth, gen.colliders
                )
            except (AdjustKitError, np.linalg.LinAlgError) as exc:
                out[key] = exc
    return out


def run_benchmark(
    model_ids=(1, 2, 3, 4, 5),
    n_values=(400, 800),
    variants=("mn", "gc"),
    reps: int = 200,
    seed: int = 0,
    p: int = 10,
    arms=(0, 1),
    h: int = 5,
    threads: int = 1,
) -> BenchmarkResult:
    """Replicate the benchmark grid and average the metrics.

    Parameters
    ----------
    model_ids, n_values, variants : iterables
        Grid to run; variants are "mn" (raw covariates) and "gc"
        (copula-transformed).
    reps : int
        Replications per cell; each rep derives its generator from
        (seed, model, n, rep), so cells are reproducible independently.
    threads : int
        Accepted and ignored: replications run on the calling thread.

    Returns
    -------
    BenchmarkResult
        Mean metrics times 100 per (model, variant, n, arm, metric);
        failed replications are excluded from the mean and counted.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    model_ids = tuple(model_ids)
    n_values = tuple(n_values)
    variants = tuple(variants)
    arms = tuple(arms)
    for mid in model_ids:
        if mid not in MODEL_IDS:
            raise UnknownModel(f"model id {mid} not in {MODEL_IDS}")

    rows = []
    failures = {}
    for model_id in model_ids:
        for n in n_values:
            per_rep = [
                _one_rep(model_id, n, p, variants, arms, seed, rep, h)
                for rep in range(reps)
            ]
            for variant in variants:
                for arm in arms:
                    records = [r[(variant, arm)] for r in per_rep]
                    good = [r for r in records if isinstance(r, MetricsRecord)]
                    failed = len(records) - len(good)
                    cell = f"model {model_id} n {n} {variant} arm {arm}"
                    failures[cell] = failed
                    if failed:
                        warnings.warn(
                            f"{cell}: excluded {failed} failed replications",
                            stacklevel=2,
                        )
                    for metric in METRIC_NAMES:
                        vals = [getattr(r, metric) for r in good]
                        mean = float(np.mean(vals)) if vals else float("nan")
                        rows.append({
                            "model": model_id,
                            "variant": variant,
                            "n": n,
                            "metric": metric,
                            "arm": arm,
                            "value": 100.0 * mean,
                        })
    return BenchmarkResult(
        rows=tuple(rows), reps=reps, seed=seed, failures=failures
    )
