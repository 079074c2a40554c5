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
import os
import pickle
import stat
import sys
import warnings
from contextlib import contextmanager, suppress
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .criterion import VARIANTS, CriterionConfig, CriterionFit, criterion_fit
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


def _load_hints(path: str, p: int) -> tuple[int, int]:
    """The ``(fixed, free)`` universe of a hints file, by `prune_hints`."""
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


def _split(p: int) -> int:
    """The bit k at which the writer's lookup tables split a mask: every bit
    up to p = 8, above that a multiple of 4 near p/2, so the low bits are
    whole hex digits and no table has more than 2^13 entries."""
    return p if p <= 8 else (p + 4) // 8 * 4


def _halves(masks: np.ndarray, k: int) -> tuple[list[int], list[int]]:
    """Each mask's index into a low table, ``m & (2^k - 1)`` plus 2^k if
    ``m >> k`` is not 0, and into a high table, ``m >> k``."""
    hi = masks >> k
    return (masks & ((1 << k) - 1) | (hi != 0) << k).tolist(), hi.tolist()


def _name_tables(p: int, sep: str, start: str = "", end: str = "") -> tuple[list[str], list[str]]:
    """The low and high tables of a mask's name (``start``, the 1-based
    indices joined by ``sep``, ``end``; "" for mask 0), indexed by `_halves`:
    a low name is followed by ``sep`` when high bits are set."""
    k = _split(p)
    low, high = _index_names(0, k, sep), _index_names(k, p - k, sep)
    low = [a and start + a + end for a in low] + [start + a + sep if a else start for a in low]
    return low, [a and a + end for a in high]


def _hex_tables(p: int) -> tuple[list[str], list[str]]:
    """The low and high tables of ``hex(m)``, indexed by `_halves`: the low
    digits, zero-padded to k/4 when high bits are set, and ``"0x"`` followed
    by the high digits, if any."""
    k = _split(p)
    low = [f"{i:x}" for i in range(1 << k)] + [f"{i:0{k // 4}x}" for i in range(1 << k)]
    return low, ["0x", *map(hex, range(1, 1 << (p - k)))]


def _row_numberer() -> Callable[[int, int], tuple[list[str], list[str]]]:
    """A function giving the numbers ``first .. first + count - 1``, each
    followed by ``","``, in two parts: ``str(r // 1000)`` ("" below 1000) and
    the last three digits with the comma, from a table of 1,000 entries."""
    short = [f"{i}," for i in range(1000)]
    padded = [f"{i:03d}," for i in range(1000)]

    def numbers(first: int, count: int) -> tuple[list[str], list[str]]:
        heads, tails = [], []
        r, stop = first, first + count
        while r < stop:
            t, i = divmod(r, 1000)
            n = min(stop - r, 1000 - i)
            heads += [str(t) if t else ""] * n
            tails += (padded if t else short)[i:i + n]
            r += n
        return heads, tails

    return numbers


_ROWS = 256


def _part(path: Path) -> Path:
    """The hidden name, beside ``path``, that its file is written under."""
    return path.with_name(f".{path.name}.part")


def _discard(paths: Iterable[Path]) -> None:
    """Unlink each of ``paths`` that exists; an error here would only hide
    the one being reported."""
    for path in paths:
        with suppress(OSError):
            os.unlink(path)


def _regular_or_absent(path: Path) -> bool:
    """Whether ``path`` names a regular file, not through a link, or
    nothing."""
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        return True


@contextmanager
def _replacing(*targets: Path) -> Iterator[list[TextIO]]:
    """Yield a file open for writing for each target and, once all are
    complete, put in place those written under their `_part` name.

    A target that is a regular file, not a link, or is absent, is written
    under its part name.  A stale part, left by a killed run, is unlinked
    and the part made new (``"x"``), so no part is truncated and none is
    written through a link.  Any other target, such as ``/dev/null``, a
    pipe, a link (such as ``/dev/stdout``) or a directory, is opened as it
    is with ``"w"``: being complete or absent means nothing for a device or
    a pipe, a link is written through rather than replaced, and a directory
    fails there, before any target is touched.  When the block ends, every
    file is closed; then the first part's target is unlinked, the other
    parts are put in place (old file unlinked, part renamed), and the first
    part renamed last, so that while the first target exists every other
    one comes from the same run.  On
    any exception, one from an unlink or a rename included, every file is
    closed and every part unlinked, and the exception goes on.  So each
    regular output is complete or absent, and none is ever truncated or
    renamed over.  On ext4 a truncating rewrite of a file that an earlier
    run wrote cost about 3x the unlink and rename, and `os.replace` of a
    part as much as the rewrite; this fits ext4's ``auto_da_alloc``
    heuristic, which flushes a file that replaces another.
    """
    parts = [_part(path) if _regular_or_absent(path) else None for path in targets]
    placed = [(target, part) for target, part in zip(targets, parts) if part]
    files = []
    try:
        for target, part in zip(targets, parts):
            if part:
                part.unlink(missing_ok=True)
                files.append(open(part, "x", encoding="utf-8"))
            else:
                files.append(open(target, "w", encoding="utf-8"))
        yield files
        for fh in files:
            fh.close()
        if placed:
            (first, first_part), *rest = placed
            first.unlink(missing_ok=True)
            for target, part in rest:
                target.unlink(missing_ok=True)
                os.rename(part, target)
            os.rename(first_part, first)
    except BaseException:
        for fh in files:
            with suppress(OSError):
                fh.close()
        _discard(part for _, part in placed)
        raise


def _arm_paths(outdir: Path, t: int) -> tuple[Path, Path, Path]:
    """Arm ``t``'s JSON, criterion CSV and scree CSV in ``outdir``."""
    return (outdir / f"selection_arm{t}.json", outdir / f"criterion_arm{t}.csv",
            outdir / f"scree_arm{t}.csv")


def _write_selection(outdir: Path, header: dict, result) -> Path:
    """Write one arm's ``selection_arm{t}.json``, ``criterion_arm{t}.csv`` and
    ``scree_arm{t}.csv``, through one `_replacing`, so the three are put in
    place only once all three are complete, the JSON last: while an arm's
    JSON exists, its two CSVs come from the same run.

    The bytes are those of ``json.dumps(doc, indent=2)``, where ``doc`` is
    ``header`` followed by ``selected_count``, ``selected_sets`` and
    ``selected_masks_hex``, and of one ``f"{mask:#x},{indices},{value!r}"``
    row per table entry.  Only the header goes through ``json.dumps``, whose
    indented encoder runs in pure Python.  The rows and list items are
    written in blocks of ``_ROWS``: a block is one ``"".join`` over a list
    that holds its columns interleaved with constant separators.  Every
    CSV column but the values, and every JSON set, comes from tables built
    once per call: the hex and name halves of `_hex_tables` and
    `_name_tables`, indexed by the block's `_halves`, and the row numbers of
    `_row_numberer`.  So no Python code, ``hex`` or ``str`` runs per CSV
    row, no file is held whole, and ``repr`` runs once per value, for both
    CSVs.  Blocks of 1,024 rows were faster, but their joined JSON blocks
    (about 100 KB) raised the benchmark's peak RSS by 5 MB.
    """
    t, p = header["arm"], result.selected.p
    sel = by_size(result.order[result.tau:])
    k = _split(p)
    set_low, set_high = _name_tables(p, ",\n      ", "\n      ", "\n    ")

    # a list item starts with the ",\n    " that json.dumps(indent=2) puts
    # before it; the list's first item has "[" for its comma
    def set_items(part: np.ndarray) -> str:
        lo, hi = _halves(part, k)
        items = [",\n    [", "", "", "]"] * part.size
        items[1::4] = map(set_low.__getitem__, lo)
        items[2::4] = map(set_high.__getitem__, hi)
        return "".join(items)

    # one join with the separator beats two table lookups per item here
    def hex_items(part: np.ndarray) -> str:
        return ',\n    "' + '",\n    "'.join(map(hex, part.tolist())) + '"'

    # the header's own closing "\n}" is cut off and written after the lists
    head = json.dumps({**header, "selected_count": sel.size}, indent=2)[:-2]
    # a row's low piece is its low hex digits, "," and its name's low part;
    # its high piece is the name's high part and ","
    hex_low, hex_high = _hex_tables(p)
    low, high = _name_tables(p, " ")
    low = [a + "," + b for a, b in zip(hex_low, low)]
    high = [a + "," for a in high]
    numbers = _row_numberer()
    paths = _arm_paths(outdir, t)
    with _replacing(*paths) as (fh, fc, fs):
        fh.write(head)
        for key, items in (("selected_sets", set_items), ("selected_masks_hex", hex_items)):
            fh.write(f',\n  "{key}": ')
            for first in range(0, sel.size, _ROWS):
                block = items(sel[first:first + _ROWS])
                fh.write(block if first else "[" + block[1:])
            fh.write("\n  ]" if sel.size else "[]")
        fh.write("\n}\n")
        fc.write("mask_hex,indices,f_value\n")
        fs.write("k,f_value\n")
        for first in range(0, result.order.size, _ROWS):
            lo, hi = _halves(result.order[first:first + _ROWS], k)
            values = list(map(repr, result.sorted_values[first:first + _ROWS].tolist()))
            rows = ["", "", "", "", "\n"] * len(lo)
            rows[0::5] = map(hex_high.__getitem__, hi)
            rows[1::5] = map(low.__getitem__, lo)
            rows[2::5] = map(high.__getitem__, hi)
            rows[3::5] = values
            fc.write("".join(rows))
            scree = ["", "", "", "\n"] * len(lo)
            scree[0::4], scree[1::4] = numbers(first + 1, len(lo))
            scree[2::4] = values
            fs.write("".join(scree))
    return paths[0]


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


def _arm(outdir: Path, fit: CriterionFit, i: int, header: dict, sel_cfg: SelectorConfig) -> str:
    """Walk the arm at position ``i`` of ``fit`` alone, check, select and
    write it, and return its summary line.

    The check raises the arm's outcome-candidate error from the fit, or
    `SingularCovariance` when no value is finite.  The header gets the
    table's size and singular-block count and ``tau`` as its last keys.
    """
    [table] = fit.tables((i,))
    if isinstance(table, AdjustKitError):
        raise table
    if not np.isfinite(table.values).any():
        raise SingularCovariance(f"arm {header['arm']}: every conditioning block is singular")
    result = select(table, sel_cfg)
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
    """Run `_arm` for every arm of ``fit``; then, in arm order, print each
    arm's line up to the first arm that failed, and raise that failure.

    An arm whose outcome candidate failed in the fit stops the arms after
    it: when that is the first arm, it runs alone and nothing is forked.
    Every other failure is the failing arm's own, and an arm that passed its
    check is written whatever happens to the other.  No check needs the other arm's result: a value is
    singular (+inf) exactly where a pivot of `_lattice_values` falls to its
    floor, and pivots and floor come from the two arm covariances, never
    from an outcome candidate, so both arms' tables are singular at the same
    subsets and "no finite value" holds of both or of neither.  With two
    arms, a child forked right after the fit runs arm 1 while this process
    runs arm 0, so each arm's walk, sort and writer run on a core of their
    own (the writer holds the interpreter lock; a child has its own), and
    the child is reaped whatever happens to arm 0.  A child that dies
    without an outcome cannot clean up, so this process unlinks arm 1's
    part files for it.  With one arm, or without ``os.fork``, the arms run
    here, one after the other.
    """
    arms = [partial(_arm, outdir, fit, i, header, sel_cfg) for i, header in enumerate(headers)]
    if isinstance(fit.arms[0], AdjustKitError):
        arms = arms[:1]
    if len(arms) == 2 and hasattr(os, "fork"):
        child = _fork(arms[1])
        try:
            outcomes = [_outcome(arms[0])]
        finally:
            outcomes.append(child())
        if isinstance(outcomes[1], ChildProcessError):
            _discard(_part(path) for path in _arm_paths(outdir, headers[1]["arm"]))
    else:
        outcomes = [_outcome(arm) for arm in arms]
    for line in outcomes:
        if isinstance(line, Exception):
            raise line
        print(line)


def cmd_select(args: argparse.Namespace) -> int:
    # the configs, hints and output path are checked before the fit, and the
    # output directory is made only when an arm is ready to write, so a
    # rejected run leaves nothing behind
    d = load_csv(args.input)
    universe = _load_hints(args.hints, d.p) if args.hints else None
    crit_cfg = CriterionConfig(
        method_y=args.method_y, method_t=args.method_t, h=args.slices, universe=universe
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
        with _replacing(Path(args.output)) as (fh,):
            fh.write(json.dumps(rep.to_dict(), indent=2) + "\n")
        print(f"report -> {args.output}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    result = run_benchmark(
        model_ids=args.models, n_values=args.n, variants=args.variants,
        reps=args.reps, seed=args.seed,
    )
    if args.output:
        with _replacing(Path(args.output)) as (fh,):
            fh.write(result.to_csv())
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call.

    Building it (four subparsers, about 27 arguments) takes about 1 ms,
    twice an in-process `oracle` run on a small graph, so a process that
    calls `main` again reuses it.  `parse_args` leaves a parser as it found
    it, and nothing changes this one after it is built.
    """
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
        # the file is written last, so its path is checked first, as given:
        # Path drops a trailing separator and a last "." component
        target = Path(args.output)
        last = os.path.basename(args.output)
        if last in ("", ".", "..") or target.is_dir() or not target.parent.is_dir():
            raise ValueError(f"--output: {args.output} is not a file in an existing directory")
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
