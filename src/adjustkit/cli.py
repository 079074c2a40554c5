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
import contextlib
import json
import os
import pickle
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .criterion import VARIANTS, CriterionConfig, CriterionFit, CriterionTable, criterion_fit
from .criterion import criterion_table  # noqa: F401  perfbench's tracer wraps this name
from .dag_oracle import Dag, true_collection
from .data_model import by_size, indices_mask, load_csv, mask_indices
from .errors import (
    AdjustKitError,
    EmptyGroup,
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
        return indices_mask(p, indices)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _load_hint_masks(path: str, p: int) -> np.ndarray:
    with open(path, encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("hints file must hold a JSON object")
    known = set(doc) - {"known_forks", "pure_colliders", "pure_noncolliders"}
    if known:
        raise ValueError(f"unknown hint keys: {sorted(known)}")

    def hint_mask(key: str) -> int:
        indices = doc.get(key, [])
        # not isinstance: bool is an int subclass, so JSON true would be index 1
        if not isinstance(indices, list) or any(type(i) is not int for i in indices):
            raise ValueError(f"{key}: expected a list of integer indices")
        try:
            return indices_mask(p, indices)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    return prune_hints(
        p,
        known_forks=hint_mask("known_forks"),
        pure_colliders=hint_mask("pure_colliders"),
        pure_noncolliders=hint_mask("pure_noncolliders"),
    )


def _fmt_subset(mask: int | None) -> str:
    if mask is None:
        return "none"
    return "{" + ", ".join(map(str, mask_indices(mask))) + "}"


def _index_names(first: int, count: int, sep: str) -> list[str]:
    """names[j] = the 1-based indices of mask ``j << first``, joined by
    ``sep``, for every j below 2^count; built by doubling, one bit per pass."""
    names = [""]
    for i in range(first, first + count):
        tok = str(i + 1)
        names += [a + sep + tok if a else tok for a in names]
    return names


def _mask_namer(p: int, sep: str, start: str = "", end: str = "") -> Callable:
    """A function giving, for an array of masks, the two parts of each name
    (``start``, the 1-based indices joined by ``sep``, ``end``; "" for mask 0)
    from tables of about 2^(p/2) entries: ``low[i] + high[m >> k]``, where i is
    ``m & (2^k - 1)``, plus 2^k for a low name ending in ``sep`` if m >= 2^k."""
    k = p // 2
    low, high = _index_names(0, k, sep), _index_names(k, p - k, sep)
    low = [a and start + a + end for a in low] + [start + a + sep if a else start for a in low]
    high = [a and a + end for a in high]

    def names(masks: np.ndarray) -> tuple[Iterator[str], Iterator[str]]:
        hi = masks >> k
        lo = masks & ((1 << k) - 1) | (hi != 0) << k
        return map(low.__getitem__, lo.tolist()), map(high.__getitem__, hi.tolist())

    return names


_ROWS = 4096
# a list item starts with the ",\n    " that json.dumps(indent=2) puts before it
_TABLE_ROW, _SCREE_ROW = "%#x,%s%s,%s\n", "%d,%s\n"
_SET_ITEM, _HEX_ITEM = ",\n    [%s%s]", ',\n    "%#x"'


def _write_selection(outdir: Path, header: dict, result) -> Path:
    """Write one arm's ``selection_arm{t}.json``, ``criterion_arm{t}.csv`` and
    ``scree_arm{t}.csv``.

    The bytes are those of ``json.dumps(doc, indent=2)``, where ``doc`` is
    ``header`` followed by ``selected_count``, ``selected_sets`` and
    ``selected_masks_hex``, and of one ``f"{mask:#x},{indices},{value!r}"``
    row per table entry.  Only the header goes through ``json.dumps``, whose
    indented encoder runs in pure Python.  Each row and list item is one
    %-format that ``map`` applies to columns of ``_ROWS`` rows, so no Python
    code runs per row, no file is held whole, and ``repr`` runs once per value.
    A block of CSV rows is joined before it is written; JSON items are not, as
    joined blocks (450 KB) raised the benchmark's peak RSS by 4-7 MB 1 run in 4.
    """
    t = header["arm"]
    sel = by_size(result.order[result.tau:])
    sets = _mask_namer(result.selected.p, ",\n      ", "\n      ", "\n    ")
    # the header's own closing "\n}" is cut off and written after the lists
    head = json.dumps({**header, "selected_count": sel.size}, indent=2)[:-2]
    json_path = outdir / f"selection_arm{t}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for key, item, columns in (
            ("selected_sets", _SET_ITEM, lambda part: zip(*sets(part))),
            ("selected_masks_hex", _HEX_ITEM, lambda part: part.tolist()),
        ):
            fh.write(f',\n  "{key}": ')
            for lo in range(0, sel.size, _ROWS):
                items = map(item.__mod__, columns(sel[lo:lo + _ROWS]))
                fh.write(next(items) if lo else "[" + next(items)[1:])
                fh.writelines(items)
            fh.write("\n  ]" if sel.size else "[]")
        fh.write("\n}\n")
    names = _mask_namer(result.selected.p, " ")
    with (
        open(outdir / f"criterion_arm{t}.csv", "w", encoding="utf-8") as fc,
        open(outdir / f"scree_arm{t}.csv", "w", encoding="utf-8") as fs,
    ):
        fc.write("mask_hex,indices,f_value\n")
        fs.write("k,f_value\n")
        for lo in range(0, result.order.size, _ROWS):
            masks = result.order[lo:lo + _ROWS]
            values = list(map(repr, result.sorted_values[lo:lo + _ROWS].tolist()))
            fc.write("".join(map(_TABLE_ROW.__mod__, zip(masks.tolist(), *names(masks), values))))
            fs.write("".join(map(_SCREE_ROW.__mod__, zip(range(lo + 1, lo + _ROWS + 1), values))))
    return json_path


def _outcome(work: Callable[[], object]) -> object:
    """What ``work()`` returns, or the exception it raises."""
    try:
        return work()
    except Exception as exc:
        return exc


def _fork(work: Callable[[], object]) -> Callable[[], object]:
    """Start ``work()`` in a child made by ``os.fork`` and return a function
    that waits for the child, reaps it and gives ``_outcome(work)``.

    The child inherits its inputs copy-on-write, so nothing is pickled on the
    way in.  Its outcome comes back pickled over a pipe, and it ends with
    ``os._exit``, so no buffer, ``atexit`` hook or ``finally`` of this process
    runs twice.  A child that ends without sending an outcome gives a
    ``ChildProcessError``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork when other threads exist, such as
        # OpenBLAS's pool; the child's only LAPACK call, SAVE's eigvalsh in
        # the walk, runs on OpenBLAS, whose fork handlers reset that pool
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_outcome(work), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    def wait() -> object:
        try:
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            return ChildProcessError(f"the forked child ended with exit code {code}")
        return pickle.loads(data)

    return wait


def _walked(fit: CriterionFit, i: int, t: int) -> CriterionTable:
    """Arm ``t``'s table, walked alone from position ``i`` of ``fit``; raises
    the error of its outcome candidate, or `SingularCovariance` when no
    value is finite."""
    [table] = fit.tables((i,))
    if isinstance(table, AdjustKitError):
        raise table
    if not np.isfinite(table.values).any():
        raise SingularCovariance(f"arm {t}: every conditioning block is singular")
    return table


def _select_and_write(
    outdir: Path, header: dict, table, sel_cfg: SelectorConfig, gate=None
) -> str | None:
    """Select one checked arm and, unless ``gate()`` returns False, write its
    files and return its summary line; the header gets the table's size and
    singular-block count and ``tau`` as its last keys."""
    result = select(table, sel_cfg)
    if gate is not None and not gate():
        return None
    header = {
        **header,
        "subsets_evaluated": int(table.values.size),
        "singular_blocks": table.metadata.get("singular_blocks", 0),
        "tau": result.tau,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    json_path = _write_selection(outdir, header, result)
    return (
        f"arm {header['arm']}: {len(result.selected)} of {header['subsets_evaluated']} "
        f"subsets selected (tau={result.tau}, cn={header['cn']:.6g}) -> {json_path}"
    )


def _run_arms(outdir: Path, fit: CriterionFit, headers: list, sel_cfg: SelectorConfig) -> None:
    """Walk, check, select and write every arm of ``fit``; then, in arm order,
    print each arm's line up to the first arm that failed, and raise that
    failure.

    An arm whose table fails its check (`_walked`) stops the arms after it;
    an arm that passed is selected and written whatever happens to the
    others.  With two arms, a child forked right after the fit walks,
    checks, selects and writes arm 1 while this process does arm 0, so each
    arm's walk, sort and writer run on a core of their own (the writer
    holds the interpreter lock; a child has its own).  Before its write the
    child reads one byte from a gate pipe: b"1", sent once arm 0's table has
    passed its check, or end of file, when this process closes the gate
    after arm 0 failed it.  The child is reaped whatever happens to arm 0.
    With one arm, or without ``os.fork``, the arms run here, one after the
    other.
    """

    def walk(i: int) -> object:
        return _outcome(partial(_walked, fit, i, headers[i]["arm"]))

    def write(i: int, table, gate=None) -> object:
        # a table that failed its check is its arm's outcome
        if isinstance(table, Exception):
            return table
        return _outcome(partial(_select_and_write, outdir, headers[i], table, sel_cfg, gate))

    outcomes = []
    if len(headers) == 2 and hasattr(os, "fork"):
        gate_read, gate_write = os.pipe()

        def arm1() -> object:
            os.close(gate_write)
            return write(1, walk(1), gate=lambda: os.read(gate_read, 1) == b"1")

        child = _fork(arm1)
        os.close(gate_read)
        try:
            with open(gate_write, "wb", buffering=0) as gate:
                table = walk(0)
                if not isinstance(table, Exception):
                    # a child that has ended closed its end; reaping it says how
                    with contextlib.suppress(BrokenPipeError):
                        gate.write(b"1")
            outcomes.append(write(0, table))
        finally:
            outcomes.append(child())
    else:
        for i in range(len(headers)):
            table = walk(i)
            outcomes.append(write(i, table))
            if isinstance(table, Exception):
                break
    for line in outcomes:
        if isinstance(line, Exception):
            raise line
        print(line)


def cmd_select(args: argparse.Namespace) -> int:
    # the configs, hints and output path are checked before the fit, and the
    # output directory is made only when an arm is ready to write, so a
    # rejected run leaves nothing behind
    d = load_csv(args.input)
    masks = _load_hint_masks(args.hints, d.p) if args.hints else None
    crit_cfg = CriterionConfig(
        method_y=args.method_y, method_t=args.method_t, h=args.slices, masks=masks
    )
    sel_cfg = SelectorConfig(c0=args.c0, cn=args.cn if args.cn is not None else default_cn(d.n))
    outdir = Path(args.output)
    # mkdir fails on a path that is, or lies under, an existing non-directory
    existing = next(path for path in (outdir, *outdir.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--output: {existing} is not a directory")
    arms = (0, 1) if args.arm == "both" else (int(args.arm),)
    fit = criterion_fit(d, arms, variant=args.variant, config=crit_cfg)
    headers = [
        {
            "arm": t,
            "n": d.n,
            "p": d.p,
            "variant": args.variant,
            "method_y": args.method_y,
            "method_t": args.method_t,
            "h": args.slices,
            "c0": sel_cfg.c0,
            "cn": sel_cfg.cn,
        }
        for t in arms
    ]
    _run_arms(outdir, fit, headers, sel_cfg)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    text = Path(args.dag).read_text(encoding="utf-8-sig")
    g = Dag.from_text(text)
    coll = true_collection(g)
    rep = structure_report(coll)
    print(f"p = {g.p}, |collection| = {rep.n_members} of {1 << g.p}")
    if g.p <= 6:
        members = ", ".join(map(_fmt_subset, by_size(coll.masks).tolist()))
        print(f"members: {members or 'none'}")
    minimal = ", ".join(map(_fmt_subset, rep.locally_minimal.tolist()))
    print(f"locally minimal: {minimal or 'none'}")
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
        f"matching ATE with a0={_fmt_subset(m0)}, a1={_fmt_subset(m1)}: {value:.6f}"
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
    sel.add_argument("--variant", choices=VARIANTS, default="mn")
    sel.add_argument("--method-y", choices=("sir", "save"), default="sir")
    sel.add_argument("--method-t", choices=("sir", "save"), default="sir")
    sel.add_argument("--slices", type=int, default=5, metavar="H")
    sel.add_argument("--c0", type=float, default=0.6)
    sel.add_argument("--cn", type=float, default=None, help="override the default ridge")
    sel.add_argument("--arm", choices=("0", "1", "both"), default="both")
    sel.add_argument("--output", default=".", metavar="DIR")
    sel.add_argument("--hints", default=None, metavar="FILE", help="JSON pruning hints")
    sel.add_argument("--threads", type=int, default=1, help=(
        "accepted and ignored: with --arm both a child forked after the fit "
        "walks, selects and writes arm 1"))

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
    if args.command in ("oracle", "simulate") and args.output:
        # the file is written last, so its path is checked first
        target = Path(args.output)
        if target.is_dir() or not target.parent.is_dir():
            raise ValueError(f"--output: {target} is not a file in an existing directory")
    if args.command == "select":
        if args.threads < 1:
            raise ValueError("--threads must be a positive integer")
    elif args.command == "simulate":
        if not args.models or not args.n or not args.variants:
            raise ValueError("--models, --n, and --variants must be nonempty")


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
