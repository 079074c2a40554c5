"""Command-line front end.

Four subcommands: ``select`` runs the full selection pipeline on a CSV
and writes per-arm JSON plus criterion/scree CSV exports; ``oracle``
reports the exact collection of a DAG given as an edge list; ``simulate``
reruns the benchmark grid; ``ate`` computes the matching ATE for a pair
of adjustment sets.  Exit codes: 0 success, 2 invalid input or flags,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .criterion import CriterionConfig, criterion_table
from .dag_oracle import Dag, true_collection
from .data_model import SubsetId, load_csv, mask_popcounts
from .errors import (
    AdjustKitError,
    EmptyGroup,
    SingularBlock,
    SingularCovariance,
    SliceTooSmall,
    TooFewObservations,
)
from .selection import SelectorConfig, default_cn, select
from .set_analysis import estimate_ate, prune_hints, structure_report
from .sim_bench import run_benchmark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    SingularCovariance,
    SingularBlock,
    EmptyGroup,
    TooFewObservations,
    SliceTooSmall,
    np.linalg.LinAlgError,
)
# LinAlgError is a ValueError, so the numerical errors are caught first
_USAGE_ERRORS = (AdjustKitError, OSError, ValueError)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_index_list(text: str, p: int, what: str) -> int:
    """Comma-separated 1-based indices to a mask; empty string is the empty set."""
    try:
        indices = [int(tok) for tok in text.split(",")] if text.strip() else []
        return SubsetId.from_indices(p, indices).mask
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _load_hint_masks(path: str, p: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("hints file must hold a JSON object")
    known = set(doc) - {"known_forks", "pure_colliders", "pure_noncolliders"}
    if known:
        raise ValueError(f"unknown hint keys: {sorted(known)}")

    def as_mask(key: str) -> int:
        indices = doc.get(key, [])
        # not isinstance: bool is an int subclass, so JSON true would be index 1
        if not isinstance(indices, list) or any(type(i) is not int for i in indices):
            raise ValueError(f"{key}: expected a list of integer indices")
        try:
            return SubsetId.from_indices(p, indices).mask
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    return prune_hints(
        p,
        known_forks=as_mask("known_forks"),
        pure_colliders=as_mask("pure_colliders"),
        pure_noncolliders=as_mask("pure_noncolliders"),
    )


def _fmt_subset(s: SubsetId | None) -> str:
    if s is None:
        return "none"
    if not s.indices:
        return "{}"
    return "{" + ", ".join(map(str, s.indices)) + "}"


def _index_names(first: int, count: int) -> list[str]:
    """names[j] = the 1-based indices of mask ``j << first``, joined by single
    spaces, for every j below 2^count; built by doubling, one bit per pass."""
    names = [""]
    for i in range(first, first + count):
        tok = str(i + 1)
        names += [a + " " + tok if a else tok for a in names]
    return names


def _mask_namer(p: int) -> Callable[[list[int]], Iterator[str]]:
    """A function giving the space-joined 1-based indices of each of a list of
    masks, looked up in two tables of about 2^(p/2) names, for the low and
    the high bits, instead of one of 2^p."""
    k = p // 2
    low, high = _index_names(0, k), _index_names(k, p - k)
    low_bits = (1 << k) - 1

    def names(masks: list[int]) -> Iterator[str]:
        for m in masks:
            lo, hi = low[m & low_bits], high[m >> k]
            yield f"{lo} {hi}" if lo and hi else lo or hi

    return names


_ROWS = 4096


def _write_selection(outdir: Path, header: dict, result) -> Path:
    """Write one arm's ``selection_arm{t}.json``, ``criterion_arm{t}.csv`` and
    ``scree_arm{t}.csv``.

    The bytes are those of ``json.dumps(doc, indent=2)``, where ``doc`` is
    ``header`` followed by ``selected_count``, ``selected_sets`` and
    ``selected_masks_hex``, and of one ``f"{mask:#x},{indices},{value!r}"``
    row per table entry.  The long lists are rendered here from plain ints
    and strings (the indented ``json.dumps`` runs in pure Python), and the
    CSVs are written ``_ROWS`` rows at a time, so no file is held in memory
    whole.
    """
    t = header["arm"]
    names = _mask_namer(result.p)
    sel = result.order[result.tau:]
    sel = sel[np.lexsort((sel, mask_popcounts(sel)))].tolist()
    # the header's own closing "\n}" is cut off and written after the lists
    head = json.dumps({**header, "selected_count": len(sel)}, indent=2)[:-2]
    json_path = outdir / f"selection_arm{t}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n  "selected_sets": ')
        _write_json_list(fh, (
            "[\n      " + n.replace(" ", ",\n      ") + "\n    ]" if n else "[]"
            for n in names(sel)
        ))
        fh.write(',\n  "selected_masks_hex": ')
        _write_json_list(fh, (f'"{m:#x}"' for m in sel))
        fh.write("\n}\n")
    with (
        open(outdir / f"criterion_arm{t}.csv", "w", encoding="utf-8") as fc,
        open(outdir / f"scree_arm{t}.csv", "w", encoding="utf-8") as fs,
    ):
        fc.write("mask_hex,indices,f_value\n")
        fs.write("k,f_value\n")
        for lo in range(0, result.order.size, _ROWS):
            masks = result.order[lo:lo + _ROWS].tolist()
            values = list(map(repr, result.sorted_values[lo:lo + _ROWS].tolist()))
            fc.writelines(f"{m:#x},{n},{v}\n" for m, n, v in zip(masks, names(masks), values))
            fs.writelines(f"{k},{v}\n" for k, v in enumerate(values, start=lo + 1))
    return json_path


def _write_json_list(fh, items: Iterator[str]) -> None:
    """Write rendered items as ``json.dumps(doc, indent=2)`` lays out a list
    held by a key of ``doc``."""
    first = next(items, None)
    if first is None:
        fh.write("[]")
        return
    fh.write("[\n    " + first)
    fh.writelines(",\n    " + item for item in items)
    fh.write("\n  ]")


def cmd_select(args: argparse.Namespace) -> int:
    # the configs and hints are checked before the first table, and the
    # output directory is made only when an arm is ready to write, so a
    # rejected run leaves nothing behind
    d = load_csv(args.input)
    masks = _load_hint_masks(args.hints, d.p) if args.hints else None
    crit_cfg = CriterionConfig(
        method_y=args.method_y, method_t=args.method_t, h=args.slices, masks=masks
    )
    sel_cfg = SelectorConfig(c0=args.c0, cn=args.cn if args.cn is not None else default_cn(d.n))
    outdir = Path(args.output)
    for t in (0, 1) if args.arm == "both" else (int(args.arm),):
        table = criterion_table(d, t, variant=args.variant, config=crit_cfg)
        if not np.isfinite(table.values).any():
            raise SingularCovariance(f"arm {t}: every conditioning block is singular")
        result = select(table, sel_cfg)
        header = {
            "arm": t,
            "n": d.n,
            "p": d.p,
            "variant": args.variant,
            "method_y": args.method_y,
            "method_t": args.method_t,
            "h": args.slices,
            "c0": result.c0,
            "cn": result.cn,
            "subsets_evaluated": int(table.values.size),
            "singular_blocks": table.metadata.get("singular_blocks", 0),
            "tau": result.tau,
        }
        outdir.mkdir(parents=True, exist_ok=True)
        json_path = _write_selection(outdir, header, result)
        print(
            f"arm {t}: {len(result.selected)} of {table.values.size} subsets selected "
            f"(tau={result.tau}, cn={result.cn:.6g}) -> {json_path}"
        )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    text = Path(args.dag).read_text(encoding="utf-8")
    g = Dag.from_text(text)
    coll = true_collection(g)
    rep = structure_report(coll)
    print(f"p = {g.p}, |collection| = {rep.n_members} of {1 << g.p}")
    if g.p <= 6:
        members = ", ".join(_fmt_subset(s) for s in coll.subset_ids())
        print(f"members: {members}")
    print(f"locally minimal: {', '.join(_fmt_subset(s) for s in rep.locally_minimal) or 'none'}")
    print(f"unique minimal: {_fmt_subset(rep.unique_minimal)}")
    print(f"collider indices: {_fmt_subset(rep.colliders)}")
    print(f"refined collider indices: {_fmt_subset(rep.refined_colliders)}")
    for flag in rep.flags:
        print(f"note: {flag}")
    if args.output:
        Path(args.output).write_text(json.dumps(rep.to_dict(), indent=2) + "\n", encoding="utf-8")
        print(f"report -> {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    result = run_benchmark(
        model_ids=args.models, n_values=args.n, variants=args.variants,
        reps=args.reps, seed=args.seed,
    )
    if args.output:
        Path(args.output).write_text(result.to_csv(), encoding="utf-8")
        print(f"csv -> {args.output}")
    print(result.render())
    return EXIT_OK


def cmd_ate(args: argparse.Namespace) -> int:
    d = load_csv(args.input)
    m0 = _parse_index_list(args.a0, d.p, "--a0")
    m1 = _parse_index_list(args.a1, d.p, "--a1")
    value = estimate_ate(d, m0, m1)
    print(
        f"matching ATE with a0={_fmt_subset(SubsetId(m0, d.p))}, "
        f"a1={_fmt_subset(SubsetId(m1, d.p))}: {value:.6f}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjustkit",
        description="Exhaustive sufficient-adjustment-set search for binary treatments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sel = sub.add_parser("select", help="run the selection pipeline on a CSV dataset")
    sel.add_argument("--input", required=True, help="CSV with columns T, Y, X1..Xp")
    sel.add_argument("--variant", choices=("mn", "gc"), default="mn")
    sel.add_argument("--method-y", choices=("sir", "save"), default="sir")
    sel.add_argument("--method-t", choices=("sir", "save"), default="sir")
    sel.add_argument("--slices", type=int, default=5, metavar="H")
    sel.add_argument("--c0", type=float, default=0.6)
    sel.add_argument("--cn", type=float, default=None, help="override the default ridge")
    sel.add_argument("--arm", choices=("0", "1", "both"), default="both")
    sel.add_argument("--output", default=".", metavar="DIR")
    sel.add_argument("--hints", default=None, metavar="FILE", help="JSON pruning hints")
    sel.add_argument("--threads", type=int, default=1, help="accepted and ignored (runs on one thread)")

    orc = sub.add_parser("oracle", help="exact collection of a DAG edge list")
    orc.add_argument("--dag", required=True, metavar="FILE", help="edge list, one 'A -> B' per line")
    orc.add_argument("--output", default=None, metavar="FILE", help="also write the JSON report")

    sim = sub.add_parser("simulate", help="rerun the benchmark grid")
    sim.add_argument("--models", type=_int_list, default="1", help="comma-separated ids in 1..5")
    sim.add_argument("--n", type=_int_list, default="400", help="comma-separated sample sizes")
    sim.add_argument("--variants", type=_name_list, default="mn", help="comma-separated from {mn,gc}")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", default=None, metavar="FILE")

    ate = sub.add_parser("ate", help="matching ATE for a pair of adjustment sets")
    ate.add_argument("--input", required=True, help="CSV with columns T, Y, X1..Xp")
    ate.add_argument("--a0", default="", help="comma-separated indices for the control metric")
    ate.add_argument("--a1", default="", help="comma-separated indices for the treated metric")
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Reject flag values that parse, that the command cannot use and that no
    library function checks: `SelectorConfig`, `CriterionConfig` and
    `run_benchmark` refuse the other values before they do any work."""
    if args.command == "select":
        if args.threads < 1:
            raise ValueError("--threads must be a positive integer")
    elif args.command == "simulate":
        if not args.models or not args.n or not args.variants:
            raise ValueError("--models, --n, and --variants must be nonempty")
        for v in args.variants:
            if v not in ("mn", "gc"):
                raise ValueError(f"unknown variant {v!r}")


_COMMANDS = {
    "select": cmd_select,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "ate": cmd_ate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"adjustkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"adjustkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
