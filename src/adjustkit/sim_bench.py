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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criterion import VARIANTS, CriterionConfig, criterion_fit
from .criterion import criterion_table  # noqa: F401  perfbench's tracer wraps this name
from .data_model import Dataset, indices_mask
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
    colliders: int


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


@lru_cache(maxsize=16)
def _truth(model_id: int, p: int) -> tuple[AdjustmentCollection, int]:
    """The model's sufficient-set collection and true-collider mask, built
    once per (model, p) and shared by every replication: a collection's
    words are read-only."""
    if model_id in (1, 2, 3):
        coll = true_collection(model_graph(model_id, p))
        colliders = indices_mask(p, (4,) if model_id in (1, 2) else ())
        return coll, colliders
    # treatment moves only the (1,2) covariance block; every set containing
    # both coordinates is sufficient, nothing else is
    coll = upward_closure(p, [indices_mask(p, (1, 2))])
    return coll, 0


@lru_cache(maxsize=16)
def _minimal(truth: AdjustmentCollection) -> np.ndarray:
    """`locally_minimal(truth)`, read-only, computed once per collection:
    a collection hashes by identity and its words are read-only, so a
    memoized truth's members are found once, not in every metrics call."""
    minimal = locally_minimal(truth)
    minimal.setflags(write=False)
    return minimal


def _gen_linear(rng, n: int, p: int, model_id: int) -> tuple[np.ndarray, ...]:
    if model_id == 1:
        var, mu = 0.8, 0.6
    else:
        var, mu = 0.6, 0.5
    t = (rng.random(n) < 0.5).astype(np.int8)
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
    from scipy.special import expit

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
    from scipy.special import fdtri, ndtr

    t = (rng.random(n) < 0.5).astype(np.int8)
    z = rng.normal(0.0, 1.0, (n, p))
    # arm-1 rows get corr(Z1, Z2) = .5 via the Cholesky factor of the block
    treated = t == 1
    z1 = z[treated, 0].copy()
    z2 = z[treated, 1]
    z[treated, 1] = 0.5 * z1 + np.sqrt(0.75) * z2
    # F(2, 3) quantiles of the normal scores; scipy.stats.f.ppf is this same
    # call.  scipy.special is imported here and in _gen_logistic, not at module
    # level: loading it takes about 0.2 s, three times what the CLI's other
    # imports take, and a command that draws no model never needs it
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
        both arms in all five models, and one shared read-only object for
        every draw of a model at one p) and the mask of the true colliders.

    Notes
    -----
    Models 1-2 draw T, then X given T, then the derived coordinate,
    then both potential outcomes; model 3 draws X first and T from a
    logistic in X2 + X5; models 4-5 draw correlated normals and push
    them through the F(2,3) quantile per coordinate.
    """
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    if spec.model_id in (1, 2):
        x, t, y = _gen_linear(rng, n, p, spec.model_id)
    elif spec.model_id == 3:
        x, t, y = _gen_logistic(rng, n, p)
    else:
        x, t, y = _gen_copula(rng, n, p, spec.model_id)
    truth, colliders = _truth(spec.model_id, p)
    return GeneratedModel(dataset=Dataset(x=x, t=t, y=y), truth=truth, colliders=colliders)


def compute_metrics(
    estimated: AdjustmentCollection,
    truth: AdjustmentCollection,
    collider_truth: int,
) -> MetricsRecord:
    """Recovery metrics of a selected collection against the truth.

    rho = |est ∩ truth| / |truth|; omega = |est ∩ truth| / |est|;
    pi = 1 iff every locally minimal member of the truth was selected;
    collider counts compare the mask of detected collider indices
    (unrefined union of minimal blocking obstructions) with the mask of
    the true colliders.
    """
    if estimated.p != truth.p:
        raise ValueError("collections live on different dimensions")
    inter = int(np.bitwise_count(estimated.words & truth.words).sum())
    rho = inter / len(truth) if len(truth) else 0.0
    omega = inter / len(estimated) if len(estimated) else 0.0
    minimal = _minimal(truth)
    pi = float(np.all(estimated.words[minimal >> 6] >> (minimal & 63) & 1))
    detected = collider_indices(estimated)
    return MetricsRecord(
        rho=rho,
        omega=omega,
        pi=pi,
        true_colliders=(detected & collider_truth).bit_count(),
        false_colliders=(detected & ~collider_truth).bit_count(),
    )


@dataclass(frozen=True)
class BenchmarkResult:
    """Averaged benchmark metrics, one row per table cell."""

    rows: tuple
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
        for r in self.rows:
            key = (r["model"], r["n"], r["variant"], r["arm"])
            cells.setdefault(key, {})[r["metric"]] = r["value"]
        lines = [
            f"{'model':>5} {'n':>6} {'variant':>8} {'arm':>3} "
            f"{'rho':>7} {'omega':>7} {'pi':>7} {'T':>6} {'F':>6}"
        ]
        for key, m in cells.items():
            values = [m.get(name, float("nan")) for name in METRIC_NAMES]
            lines.append(
                f"{key[0]:>5} {key[1]:>6} {key[2]:>8} {key[3]:>3} "
                + " ".join(f"{v:>{w}.1f}" for v, w in zip(values, (7, 7, 7, 6, 6)))
            )
        if any(self.failures.values()):
            parts = [f"{k}: {v}" for k, v in self.failures.items() if v]
            lines.append("excluded failed replications -- " + "; ".join(parts))
        return "\n".join(lines)


def _method_t(model_id: int) -> str:
    # the within-arm covariance carries the whole treatment signal in 4-5
    return "save" if model_id in (4, 5) else "sir"


def _one_rep(model_id, n, variants, arms, seed, rep):
    """Metrics of one replication per (variant, arm), or the error that
    stopped that cell; an arm's failed outcome candidate fails only its own
    cell."""
    spec = ModelSpec(model_id, n, seed=np.random.SeedSequence((seed, model_id, n, rep)))
    gen = generate_model(spec)
    failures = (AdjustKitError, np.linalg.LinAlgError)
    out = {}
    for variant in variants:
        cfg = CriterionConfig(method_t=_method_t(model_id))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateData)
            try:
                tables = criterion_fit(gen.dataset, arms, variant, cfg).tables()
            except failures as exc:
                tables = (exc,) * len(arms)
            for arm, table in zip(arms, tables):
                try:
                    if isinstance(table, failures):
                        raise table
                    result = select(table, SelectorConfig.for_sample(n))
                    out[(variant, arm)] = compute_metrics(
                        result.selected, gen.truth, gen.colliders
                    )
                except failures as exc:
                    out[(variant, arm)] = exc
    return out


def run_benchmark(
    model_ids=(1, 2, 3, 4, 5),
    n_values=(400, 800),
    variants=("mn", "gc"),
    reps: int = 200,
    seed: int = 0,
    arms=(0, 1),
    threads: int = 1,
) -> BenchmarkResult:
    """Replicate the benchmark grid and average the metrics.

    Models are drawn at p = 10; tables use `CriterionConfig` defaults
    except `method_t`.

    Parameters
    ----------
    model_ids, n_values, variants : iterables
        Grid to run; variants are "mn" (raw covariates) and "gc"
        (copula-transformed); others, and a value given twice, are refused
        before any work.
    arms : iterable
        Treatment arms to score, each 0 or 1; others, and an arm given
        twice, are refused before any work.
    reps : int
        Replications per cell; each rep derives its generator from
        (seed, model, n, rep), so cells are reproducible independently.
    seed : int
        Non-negative; a negative seed is refused before any work.
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
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    model_ids = tuple(model_ids)
    n_values = tuple(n_values)
    variants = tuple(variants)
    arms = tuple(arms)
    # every cell's spec is checked before the first replication is drawn; a
    # repeated grid value would rerun its cells and fold them into one count
    for name, values in (("model id", model_ids), ("n", n_values),
                         ("variant", variants), ("arm", arms)):
        if len(set(values)) != len(values):
            raise ValueError(f"repeated {name} in {values}")
    for model_id in model_ids:
        for n in n_values:
            ModelSpec(model_id, n)
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    for arm in arms:
        if arm not in (0, 1):
            raise ValueError(f"unknown arm {arm!r}")

    rows = []
    failures = {}
    for model_id in model_ids:
        for n in n_values:
            per_rep = [
                _one_rep(model_id, n, variants, arms, seed, rep)
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
    return BenchmarkResult(rows=tuple(rows), failures=failures)
