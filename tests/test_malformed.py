"""Generated malformed inputs: edge lists for `adjustkit oracle`, hints
files for `adjustkit select --hints`, CSVs for `adjustkit select` and
`adjustkit ate`, and flag values for `select`, `ate` and `simulate`.

Each example mutates a valid text (a p = 4 edge list, a hints file for a
p = 4 CSV, or a p = 4, n = 40 CSV), or draws flag values, and runs
`cli.main` in this process, so every example reuses the process's one
parser.  A run must end with exit 0, 2 or 3, print one `adjustkit:` line on
stderr when it fails, and let no exception escape `main`; the one exception
is a flag value that argparse itself refuses, which exits through
`SystemExit(2)` after its usage text, as `test_cli.TestParser` pins.  The edits that only change an edge list's layout
(CRLF, a byte-order mark, `#` comments, blank lines, extra spaces) must give
the canonical list's output byte for byte, and so must the edits that only
change a CSV's layout (CRLF, a byte-order mark, spaces after commas, a
quoted header, T written as a float, T and Y moved); a `select` run that
succeeds must write both arms' three files.
"""

import contextlib
import functools
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjustkit.cli import _build_parser, main
from adjustkit.data_model import Dataset, save_csv

CANONICAL = [
    ["X1", "->", "T"],
    ["X1", "->", "Y"],
    ["X2", "->", "Y"],
    ["X4", "->", "T"],
    ["X2", "->", "X3"],
    ["X4", "->", "X3"],
]
# X indices stay at most 12 (4096 subsets), so an example runs in milliseconds;
# X0, X-1 and X25 are the names the parser or the dimension cap refuses
NAMES = ["Y", "T", "X0", "X-1", "X25", *(f"X{i}" for i in range(1, 13))]
# text that may land anywhere: a byte-order mark, CRLF, quotes, a comment
# mark, a line break, a space, an arrow
INSERTS = ["\ufeff", "\r\n", '"', "'", "#", "\n", " ", "->"]
# where --output points, relative to the example's directory; "" is no file
OUTPUTS = [None, "", "report.json", "report.json/", ".", "missing/report.json",
           "dag.txt/report.json", "a b é.json"]


def _text(lines, eol="\n"):
    return "".join(" ".join(tokens) + eol for tokens in lines)


def _main(argv):
    """exit code, stdout and stderr of one in-process `cli.main` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(text, output=None):
    """exit code, stdout, stderr and the bytes of report.json in the run's
    directory (None if no such file was written) of one in-process `oracle`
    run on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        dag = Path(tmp) / "dag.txt"
        dag.write_bytes(text.encode("utf-8"))
        argv = ["oracle", "--dag", str(dag)]
        if output is not None:
            # joined as text, so that a trailing "/" stays
            argv += ["--output", f"{tmp}/{output}" if output else ""]
        code, out, err = _main(argv)
        report = Path(tmp) / "report.json"
        written = report.read_bytes() if report.is_file() else None
        return code, out.replace(tmp, "<tmp>"), err, written


@functools.cache
def _canonical_run():
    run = _run(_text(CANONICAL), "report.json")
    assert run[0] == 0 and run[3] is not None
    return run


def _check_outcome(code, err):
    assert code in (0, 2, 3)
    if code:
        assert err.startswith("adjustkit: ") and err.count("\n") == 1, err


@st.composite
def _mutated(draw):
    """The canonical list after one to three token edits or insertions."""
    lines = [list(tokens) for tokens in CANONICAL]
    for _ in range(draw(st.integers(1, 3), label="edits")):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "rename", "insert", "chain"]))
        if kind == "insert":
            text = _text(lines)
            at = draw(st.integers(0, len(text)))
            what = draw(st.sampled_from(INSERTS))
            lines = [line.split(" ") for line in (text[:at] + what + text[at:]).split("\n")]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if not lines[i]:
            continue
        j = draw(st.integers(0, len(lines[i]) - 1))
        if kind == "delete":
            del lines[i][j]
        elif kind == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif kind == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            if lines[k]:
                m = draw(st.integers(0, len(lines[k]) - 1))
                lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif kind == "rename":
            lines[i][j] = draw(st.sampled_from(NAMES))
        else:  # the line's nodes, and maybe one more, joined by unspaced arrows
            tail = draw(st.lists(st.sampled_from(NAMES), max_size=1))
            lines[i] = ["->".join([tok for tok in lines[i] if tok != "->"] + tail)]
    return "\n".join(" ".join(tokens) for tokens in lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_mutated(), output=st.sampled_from(OUTPUTS))
def test_mutated_edge_list(text, output):
    code, _, err, written = _run(text, output)
    _check_outcome(code, err)
    # a node outside X1..X24 named outside a comment is never read as another
    if any(re.search(r"X(0|-1|25)(?!\d)", line.split("#", 1)[0]) for line in text.splitlines()):
        assert code == 2, text
    if code == 0 and output == "report.json":
        assert written is not None
    # a path whose last component is empty or "." names no file to write
    if output in ("report.json/", "."):
        assert code == 2 and written is None, (text, output)


@st.composite
def _relaid(draw):
    """The canonical list with only its layout changed: the edges, in a drawn
    order, with spaces, blank lines and `#` comments around them, CRLF line
    ends and a leading byte-order mark."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    comment = st.sampled_from(["", "#", "# X12 -> T", "#X1->Y->T", " # note"])
    lines = []
    for a, arrow, b in draw(st.permutations(CANONICAL)):
        lines += [draw(space) + draw(comment)] * draw(st.integers(0, 2))
        gap = space if draw(st.booleans()) else st.just(" ")
        lines.append(draw(space) + a + draw(gap) + arrow + draw(gap) + b + draw(space)
                     + draw(comment))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_relaid())
def test_relaid_edge_list_gives_the_canonical_report(text):
    assert _run(text, "report.json") == _canonical_run()


HINTS = ["{", '"known_forks"', ":", "[", "3", "]", ",", '"pure_colliders"', ":", "[", "4",
         "]", "}"]
# what a token may become: values of the wrong type, outside 1..4, nested
VALUES = ["true", "1.0", '"3"', "0", "5", "-1", "null", "[[1]]"]
# an unknown key, a near miss of a known one, and the known key not in HINTS,
# which with [4] contradicts "pure_colliders"
KEYS = ['"unknown"', '"Known_forks"', '"pure_noncolliders"']
SELECT_FILES = sorted(f"{stem}_arm{t}.{ext}" for t in (0, 1)
                      for stem, ext in (("selection", "json"), ("criterion", "csv"),
                                        ("scree", "csv")))


@pytest.fixture(scope="module")
def select_input(tmp_path_factory):
    """A p = 4 CSV, written once for the module, that `select` accepts."""
    path = tmp_path_factory.mktemp("select") / "p4.csv"
    rng = np.random.default_rng(0)
    save_csv(Dataset(x=rng.normal(size=(120, 4)), t=np.tile([0, 1], 60),
                     y=rng.normal(size=120)), path)
    return path


@st.composite
def _mutated_hints(draw):
    """HINTS after one to three token edits, a key inserted, a byte-order
    mark or a CRLF inserted."""
    tokens = list(HINTS)
    for _ in range(draw(st.integers(1, 3), label="edits")):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "value", "key", "insert"]))
        if kind == "insert":
            at = draw(st.integers(0, len(tokens)))
            tokens.insert(at, draw(st.sampled_from(["\ufeff", "\r\n"])))
            continue
        # a value goes where one stands, after ":" (for the whole list) or
        # "[", and a key after "{" or ","; anywhere when the edits left no
        # such place
        after = {"value": ":[", "key": "{,"}.get(kind, "")
        places = [i + 1 for i, tok in enumerate(tokens) if tok in after]
        at = draw(st.sampled_from(places or range(len(tokens) + 1)))
        if kind == "key":
            tokens[at:at] = [draw(st.sampled_from(KEYS)), ":", "[4]", ","]
        elif kind == "value" and tokens[at:at + 1] == ["["] and "]" in tokens[at:]:
            tokens[at:tokens.index("]", at) + 1] = [draw(st.sampled_from(VALUES))]
        elif at < len(tokens):
            if kind == "delete":
                del tokens[at]
            elif kind == "duplicate":
                tokens.insert(at, tokens[at])
            elif kind == "swap":
                k = draw(st.integers(0, len(tokens) - 1))
                tokens[at], tokens[k] = tokens[k], tokens[at]
            else:
                tokens[at] = draw(st.sampled_from(VALUES))
    return " ".join(tokens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_mutated_hints())
def test_mutated_hints(select_input, text):
    with tempfile.TemporaryDirectory() as tmp:
        hints = Path(tmp) / "hints.json"
        hints.write_bytes(text.encode("utf-8"))
        outdir = Path(tmp) / "out"
        argv = ["select", "--input", str(select_input), "--hints", str(hints),
                "--output", str(outdir)]
        code, _, err = _main(argv)
        _check_outcome(code, err)
        if code == 0:
            assert sorted(f.name for f in outdir.iterdir()) == SELECT_FILES, text


@functools.cache
def _canonical_csv():
    """The rows of a p = 4, n = 40 CSV written by `save_csv`, each a tuple of
    fields, the header first."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 4))
    t = np.tile([0, 1], 20)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(Dataset(x=x, t=t, y=x[:, 0] + t + rng.normal(size=40)), path)
        text = path.read_text(encoding="utf-8")
    return tuple(tuple(line.split(",")) for line in text.splitlines())


def _csv_runs(text):
    """exit code and stderr of `select --arm both` and of `ate --a0 1 --a1 1`
    on ``text``, in that order, then the ate run's stdout and the bytes of
    every file the select run wrote, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_bytes(text.encode("utf-8"))
        outdir = Path(tmp) / "out"
        code, _, err = _main(["select", "--input", str(data), "--arm", "both",
                              "--output", str(outdir)])
        files = {f.name: f.read_bytes() for f in outdir.iterdir()} if outdir.exists() else {}
        ate_code, ate_out, ate_err = _main(["ate", "--input", str(data), "--a0", "1",
                                            "--a1", "1"])
    return (code, err), (ate_code, ate_err), ate_out, files


@functools.cache
def _canonical_csv_runs():
    runs = _csv_runs("".join(",".join(row) + "\n" for row in _canonical_csv()))
    assert runs[0][0] == runs[1][0] == 0 and sorted(runs[3]) == SELECT_FILES
    return runs


# what a field may become, and text that may land anywhere
CSV_VALUES = ["nan", "inf", "-inf", "1e400", "", '"0.5"', "1e-400", "0x1"]
CSV_INSERTS = ["\ufeff", "\r\n", '"', " ", ","]
CSV_NAMES = ["T", "Y", "X0", "X1", "X5", "x1", "t", '"X2"', "X 3"]


@st.composite
def _mutated_csv(draw):
    """The canonical CSV after one to three edits: a field deleted,
    duplicated, swapped with another or replaced by a value of CSV_VALUES; T
    set to 2, 0.5 or 1.0 in a row; a header field renamed, or the header
    alone reordered; or text of CSV_INSERTS inserted."""
    rows = [list(row) for row in _canonical_csv()]
    for _ in range(draw(st.integers(1, 3), label="edits")):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "value", "treatment",
                                     "rename", "reorder", "insert"]))
        if kind == "insert":
            text = "\n".join(",".join(row) for row in rows)
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(CSV_INSERTS)) + text[at:]
            rows = [line.split(",") for line in text.split("\n")]
            continue
        if kind == "reorder":
            rows[0] = draw(st.permutations(rows[0]))
            continue
        i = 0 if kind == "rename" else draw(st.sampled_from(range(len(rows))))
        if kind == "treatment":
            # the T column of the canonical header
            rows[max(i, 1)][:1] = [draw(st.sampled_from(["2", "0.5", "1.0"]))]
            continue
        if not rows[i]:
            continue
        j = draw(st.integers(0, len(rows[i]) - 1))
        if kind == "delete":
            del rows[i][j]
        elif kind == "duplicate":
            rows[i].insert(j, rows[i][j])
        elif kind == "swap":
            k = draw(st.sampled_from(range(len(rows))))
            if rows[k]:
                m = draw(st.integers(0, len(rows[k]) - 1))
                rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
        else:
            rows[i][j] = draw(st.sampled_from(CSV_NAMES if kind == "rename" else CSV_VALUES))
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_mutated_csv())
def test_mutated_csv(text):
    (code, err), (ate_code, ate_err), _, files = _csv_runs(text)
    _check_outcome(code, err)
    _check_outcome(ate_code, ate_err)
    if code == 0:
        assert sorted(files) == SELECT_FILES, text


@st.composite
def _relaid_csv(draw):
    """The canonical CSV with only its layout changed: the columns in a drawn
    order with X1..X4 kept ascending, T written as integers or floats, a
    quoted header, spaces after commas, CRLF line ends and a leading
    byte-order mark."""
    rows = _canonical_csv()
    order = [2, 3, 4, 5]
    for col in (0, 1):  # T, then Y, each put anywhere
        order.insert(draw(st.integers(0, len(order))), col)
    zero, one = draw(st.sampled_from([("0", "1"), ("0", "1.0"), ("0.0", "1.0")]))
    quote = draw(st.sampled_from(["", '"']))
    sep = draw(st.sampled_from([",", ", ", ",  "]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [sep.join(quote + rows[0][c] + quote for c in order)]
    for row in rows[1:]:
        row = (one if row[0] == "1" else zero, *row[1:])
        lines.append(sep.join(row[c] for c in order))
    return draw(st.sampled_from(["", "\ufeff"])) + eol.join(lines) + eol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(text=_relaid_csv())
def test_relaid_csv_gives_the_canonical_files(text):
    assert _csv_runs(text) == _canonical_csv_runs()


# each flag's values: the usual ones, edge values and values of the wrong
# type or outside the choices, which the parser itself refuses
SELECT_FLAGS = {
    "--variant": ["mn", "gc", "MN", ""],
    "--method-y": ["sir", "save", "pca"],
    "--method-t": ["sir", "save", ""],
    "--slices": ["2", "5", "1", "0", "-3", "60", "1000000000", "2.5", "x"],
    "--c0": ["0.6", "0", "1", "0.999", "1.5", "-0.1", "nan", "inf", "-inf", "1e-300", "x"],
    "--cn": ["0.01", "1e-300", "1e300", "0", "-1", "nan", "inf", "-inf", "", "x"],
    "--arm": ["0", "1", "both", "2"],
    # accepted and ignored, so a large count starts nothing
    "--threads": ["1", "2", "0", "-1", "64", "x"],
}
ATE_FLAGS = {
    flag: ["", "1", "1,2", "4", "3,4,1,2", "1,1", "0", "5", "-1", "1,,2", " 2 ", "1.5", "x"]
    for flag in ("--a0", "--a1")
}
SIMULATE_FLAGS = {
    "--models": ["1", "5", "2,4", "1,1", "0", "6", "", ",", "-1", "x"],
    "--n": ["40", "100", "40,100", "12", "1", "0", "-40", "", "1e2", "x"],
    "--variants": ["mn", "gc", "mn,gc", "gc,gc", "", "MN", " gc ", "x"],
    "--seed": ["0", "7", "-1", "18446744073709551616", "x"],
}
FLAGS = {"select": SELECT_FLAGS, "ate": ATE_FLAGS, "simulate": SIMULATE_FLAGS}


@st.composite
def _drawn_flags(draw):
    """A command and up to four of its flags, each once, with drawn values."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(FLAGS[command])), unique=True, max_size=4)):
        argv += [flag, draw(st.sampled_from(FLAGS[command][flag]), label=flag)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_drawn_flags())
def test_drawn_flags(select_input, argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + {
            "select": ["--input", str(select_input), "--output", str(Path(tmp) / "out")],
            "ate": ["--input", str(select_input)],
            "simulate": ["--reps", "1"],
        }[argv[0]]
        try:
            code, _, err = _main(argv)
        except SystemExit as exc:
            # a value of the wrong type or outside the choices: argparse
            # prints its usage and an error line and exits 2, as
            # test_cli.TestParser pins; only the parser may end a run so
            assert exc.code == 2
            with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
                _build_parser().parse_args(argv)
            return
        _check_outcome(code, err)
