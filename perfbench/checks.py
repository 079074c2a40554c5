"""Correctness checks on the program's outputs.

Each check takes outputs already read into plain values and returns a
list of problems; an empty list means the check passed.  The expected
values come from `reference` (computed apart from adjustkit) or from
properties the method must have, never from a saved copy of earlier
output.  The checks run outside the timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref


def _indices_mask(indices) -> int:
    mask = 0
    for k in indices:
        mask |= 1 << (int(k) - 1)
    return mask


def _mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------- select


def read_select_outputs(outdir: Path, arm: int) -> dict:
    """Parse one arm's selection JSON, criterion CSV and scree CSV."""
    doc = json.loads((outdir / f"selection_arm{arm}.json").read_text(encoding="utf-8"))
    masks, indices, values = [], [], []
    with open(outdir / f"criterion_arm{arm}.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
        for line in fh:
            hex_mask, idx, value = line.rstrip("\n").split(",")
            masks.append(int(hex_mask, 16))
            indices.append(idx)
            values.append(float(value))
    scree_k, scree = [], []
    with open(outdir / f"scree_arm{arm}.csv", encoding="utf-8") as fh:
        scree_header = fh.readline().strip()
        for line in fh:
            k, value = line.rstrip("\n").split(",")
            scree_k.append(int(k))
            scree.append(float(value))
    return {
        "doc": doc,
        "headers": (header, scree_header),
        "masks": np.array(masks, dtype=np.int64),
        "indices": indices,
        "values": np.array(values),
        "scree_k": np.array(scree_k, dtype=np.int64),
        "scree": np.array(scree),
    }


def select_files(p: int, out: dict) -> list[str]:
    """The JSON and the two CSVs of one arm agree with each other."""
    problems = []
    doc, masks, values = out["doc"], out["masks"], out["values"]
    size = 1 << p
    if out["headers"] != ("mask_hex,indices,f_value", "k,f_value"):
        problems.append(f"unexpected CSV headers {out['headers']}")
    if masks.size != size or not np.array_equal(np.sort(masks), np.arange(size)):
        problems.append(f"criterion CSV does not list each of the {size} masks once")
        return problems
    if np.any(np.diff(values) > 0):
        problems.append("criterion CSV is not sorted by descending value")
    bad_idx = sum(idx != " ".join(map(str, _mask_indices(int(m))))
                  for m, idx in zip(masks, out["indices"]))
    if bad_idx:
        problems.append(f"{bad_idx} criterion CSV rows list indices that differ from the mask")
    if not (np.array_equal(out["scree_k"], np.arange(1, size + 1))
            and np.array_equal(out["scree"], values)):
        problems.append("scree CSV differs from the criterion CSV values")
    tau = doc["tau"]
    if doc["subsets_evaluated"] != size:
        problems.append(f"subsets_evaluated {doc['subsets_evaluated']} != {size}")
    if doc["selected_count"] != size - tau:
        problems.append(f"selected_count {doc['selected_count']} != 2^p - tau = {size - tau}")
    sets, hexes = doc["selected_sets"], doc["selected_masks_hex"]
    if not len(sets) == len(hexes) == doc["selected_count"]:
        problems.append("selected_sets, selected_masks_hex and selected_count disagree in length")
    hex_masks = [int(h, 16) for h in hexes]
    mismatched = sum(m != _indices_mask(s) for m, s in zip(hex_masks, sets))
    if mismatched:
        problems.append(f"{mismatched} hex masks differ from their index lists")
    if set(hex_masks) != set(masks[tau:].tolist()):
        problems.append("selected masks differ from the criterion CSV rows after tau")
    return problems


def select_truth(p: int, selected_hex: list[str]) -> list[str]:
    """The selected collection equals the closed-form model-1 collection."""
    truth = set(np.flatnonzero(ref.model1_truth(np.arange(1 << p))).tolist())
    got = {int(h, 16) for h in selected_hex}
    if got == truth:
        return []
    return [f"selection differs from the model-1 truth: {len(got - truth)} extra, "
            f"{len(truth - got)} missing of {len(truth)}"]


def criterion_sample(masks: np.ndarray, values: np.ndarray, sample: np.ndarray,
                     expected: np.ndarray, rtol: float = 1e-9) -> list[str]:
    """Table values at the sampled masks match the reference within rtol."""
    position = np.empty(masks.size, dtype=np.int64)
    position[masks] = np.arange(masks.size)
    got = values[position[sample]]
    bad = np.abs(got - expected) > rtol * np.abs(expected)
    if not bad.any():
        return []
    j = int(np.flatnonzero(bad)[0])
    return [f"{int(bad.sum())} of {sample.size} sampled criterion values off the "
            f"Schur-complement reference, e.g. mask {int(sample[j]):#x}: "
            f"{got[j]!r} vs {expected[j]!r}"]


# ---------------------------------------------------------------- replicate


def replicate_metrics(rows, cells) -> list[str]:
    """rho, omega and pi of each cell match a cut made here against the truth.

    ``rows`` are the program's result rows (metric values x100, one
    replication per cell); ``cells`` yields (model, n, variant, arm,
    masks, values) for the criterion table of the regenerated sample.
    """
    reported = {(r["model"], r["n"], r["variant"], r["arm"], r["metric"]): r["value"]
                for r in rows}
    problems = []
    checked = 0
    for model, n, variant, arm, masks, values in cells:
        selected = ref.ridge_cut(np.asarray(masks, dtype=np.int64), values, n)
        p = int(np.asarray(masks).size).bit_length() - 1
        truth = ref.TRUTH[model](np.arange(1 << p))
        hit = int(truth[selected].sum())
        mine = {
            "rho": hit / int(truth.sum()),
            "omega": hit / selected.size,
            "pi": float(all(m in set(selected.tolist()) for m in ref.TRUE_MINIMAL[model])),
        }
        for metric, value in mine.items():
            got = reported.get((model, n, variant, arm, metric))
            if got is None or abs(got - 100.0 * value) > 1e-9:
                problems.append(f"model {model} n {n} {variant} arm {arm}: {metric} "
                                f"reported {got}, recomputed {100.0 * value}")
        checked += 1
    if checked == 0:
        problems.append("no replicate cells were checked")
    return problems


def increasing_map(x: np.ndarray) -> np.ndarray:
    """A strictly increasing map of every covariate."""
    return 3.0 * np.arcsinh(x) + 1.0


def copula_invariance(transform, x: np.ndarray, t: np.ndarray, y: np.ndarray) -> list[str]:
    """transform(x) is bit-identical to transform(increasing_map(x))."""
    mapped = increasing_map(x)
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        if not np.array_equal(np.sign(np.diff(x[order, j])),
                              np.sign(np.diff(mapped[order, j]))):
            return [f"the increasing map changed the order of column {j + 1}"]
    a = transform(x, t, y)
    b = transform(mapped, t, y)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return ["copula transform changed under a strictly increasing map of the covariates"]


# ---------------------------------------------------------------- oracle


def oracle_report(p: int, report: dict, program_member: np.ndarray,
                  expected_member: np.ndarray, separated,
                  expected_count: int | None = None) -> list[str]:
    """An oracle report and collection agree with d-separation.

    ``program_member`` is the program's collection as a bool array over
    all masks, ``expected_member`` the reference one, ``separated(mask)``
    the benchmark's own d-separation test.
    """
    problems = []
    wrong = np.flatnonzero(program_member != expected_member)
    if wrong.size:
        problems.append(f"{wrong.size} masks disagree with d-separation, "
                        f"e.g. {int(wrong[0]):#x}")
    count = int(expected_member.sum())
    if expected_count is not None and count != expected_count:
        problems.append(f"reference collection has {count} members, closed form {expected_count}")
    if report["n_members"] != count:
        problems.append(f"report n_members {report['n_members']} != {count}")
    minimal = [_indices_mask(s) for s in report["locally_minimal"]]
    if set(minimal) != set(ref.locally_minimal(expected_member, p).tolist()):
        problems.append("locally minimal sets differ from the reference collection's")
    for mask in minimal:
        if not separated(mask):
            problems.append(f"locally minimal {mask:#x} does not d-separate Y and T")
        for i in _mask_indices(mask):
            smaller = mask ^ (1 << (i - 1))
            if separated(smaller) or program_member[smaller]:
                problems.append(f"locally minimal {mask:#x} has a member one smaller: {smaller:#x}")
    return problems
