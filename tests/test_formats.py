"""Matrix file parsing/formatting and JSON document round trips."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spinlab as sl
from spinlab import formats, forms, gf
from spinlab.errors import InvariantError, MatrixFormatError

from conftest import canonical_grid_masks, explicit_matrix_table

PAULI = sl.commutation_matrix(2, [[0, 1], [1, 0]])
CLIFF3 = sl.clifford_matrix(2, 3)


def test_parse_explicit_round_trip():
    for mat in (PAULI, CLIFF3, sl.random_alternating(5, 4, seed=3)):
        text = formats.format_matrix_file(mat)
        parsed = formats.parse_matrix_file(text)
        assert parsed.pattern is None
        assert parsed.materialize() == mat


def test_parse_builds_the_explicit_matrix_once():
    text = formats.format_matrix_file(sl.random_alternating(3, 6, seed=1))
    real = forms.CommutationMatrix.__post_init__
    with mock.patch.object(
        forms.CommutationMatrix, "__post_init__", autospec=True, side_effect=real
    ) as built:
        parsed = formats.parse_matrix_file(text)
        assert parsed.materialize() is parsed.matrix
        assert parsed.materialize(4) is parsed.matrix  # explicit files ignore n
    assert built.call_count == 1


def test_parse_allows_comments_and_blanks():
    text = "# a matrix\n\n2 2  # header\n0 1\n1 0\n"
    assert formats.parse_matrix_file(text).materialize() == PAULI


def test_parse_toeplitz():
    parsed = formats.parse_matrix_file("2 toeplitz 3\n1 0 1\n")
    assert parsed.matrix is None
    assert parsed.pattern == (1, 0, 1)
    mat = parsed.materialize(5)
    assert mat == sl.toeplitz_matrix(2, [1, 0, 1], 5)
    # default materialization: twice the pattern length
    assert parsed.materialize().n == 6


def test_parse_toeplitz_empty_pattern():
    parsed = formats.parse_matrix_file("3 toeplitz 0\n")
    assert parsed.materialize(3) == sl.toeplitz_matrix(3, [], 3)


def test_materialize_raises_the_constructors_value_error():
    # the CLI turns it into a bad option (exit 2) in one place, cli._from_options
    parsed = formats.parse_matrix_file("2 toeplitz 1\n1\n")
    for build in (parsed.materialize, lambda n: sl.toeplitz_matrix(2, [1], n)):
        with pytest.raises(ValueError, match="matrix size must be at least 1, got 0"):
            build(0)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("2 2\n0 1\n", 2),  # missing row
        ("2 2\n0 1 1\n1 0\n", 2),  # row too long
        ("2 2\n0 2\n2 0\n", 2),  # entry out of range
        ("2 2\n1 1\n1 0\n", 2),  # nonzero diagonal
        ("3 2\n0 1\n1 0\n", 2),  # breaks skew-symmetry over GF(3)
        ("2 2\n0 x\n1 0\n", 2),  # not an integer
        ("2 toeplitz 2\n1\n", 1),  # too few pattern values
        ("2 toeplitz 1\n1 1\n", 2),  # too many pattern values
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixFormatError) as err:
        formats.parse_matrix_file(text)
    assert err.value.line == line


# Pattern values are read by the same located reader as matrix rows: on
# each line, parse, then range, then the running count.
@pytest.mark.parametrize(
    "text,message",
    [
        ("3 toeplitz 3\n1 2\n0 3\n", "line 3: entry 3 out of range [0, 3)"),
        ("3 toeplitz 3\n# c\n-1 1 1\n", "line 3: entry -1 out of range [0, 3)"),
        ("3 toeplitz 2\n1 5 x\n", "line 2: expected an integer, got 'x'"),
        ("3 toeplitz 3\n1 2\n0 x\n", "line 3: expected an integer, got 'x'"),
        ("3 toeplitz 2\n1 1.5\n", "line 2: expected an integer, got '1.5'"),
        ("3 toeplitz 1\n1 5\n", "line 2: entry 5 out of range [0, 3)"),
        ("3 toeplitz 1\n1 1\nx\n", "line 2: more than 1 pattern values"),
    ],
)
def test_pattern_value_faults_carry_message_and_line(text, message):
    with pytest.raises(MatrixFormatError) as err:
        formats.parse_matrix_file(text)
    assert str(err.value) == message


# Each row of these files is checked in the order length, range, diagonal,
# and the first faulty row is reported.
@pytest.mark.parametrize(
    "text,line,message",
    [
        ("2 3\n0 1 0\n1 0 7\n0 1 1 1\n", 3, "entry 7 out of range"),
        ("2 3\n0 1 0\n1 0 0 0\n0 7 0\n", 3, "row has 4 entries"),
        ("2 3\n0 1 0\n1 0 0 7\n0 0 0\n", 3, "row has 4 entries"),
        ("2 3\n0 1 0\n1 1 7\n0 0 0\n", 3, "entry 7 out of range"),
        ("2 3\n0 1 0\n1 1 0\n0 -1 0\n", 3, "diagonal entry must be zero"),
        ("2 3\n0 1 0\n1 1 0\n0 x 0\n", 3, "diagonal entry must be zero"),
        ("2 3\n0 1 0\n1 0 x\n0 9 0\n", 3, "expected an integer, got 'x'"),
        ("2 3\n0 1 0\n1 0 0\n0 1 99999999999999999999\n", 4, "entry 99999999999999999999 out"),
    ],
)
def test_parse_reports_first_row_fault_in_order(text, line, message):
    with pytest.raises(MatrixFormatError, match=message) as err:
        formats.parse_matrix_file(text)
    assert err.value.line == line


# Explicit files with tokens that are not the canonical decimal of a
# value in [0, p), each with the matrix or the error message that the
# row-by-row int() reading of earlier versions gives.
@pytest.mark.parametrize(
    "text,expected",
    [
        ("13 3\n0 +1 0\n12 0 0\n0 0 0\n", [[0, 1, 0], [12, 0, 0], [0, 0, 0]]),
        ("13 3\n0 01 0\n12 0 0\n0 0 0\n", [[0, 1, 0], [12, 0, 0], [0, 0, 0]]),
        ("13 3\n0 1_0 0\n3 0 0\n0 0 0\n", [[0, 10, 0], [3, 0, 0], [0, 0, 0]]),
        ("13 3\n0 \u0663 0\n10 0 0\n0 0 0\n", [[0, 3, 0], [10, 0, 0], [0, 0, 0]]),
        ("13 3\n-0 1 0\n12 +0 0\n0 0 00\n", [[0, 1, 0], [12, 0, 0], [0, 0, 0]]),
        ("5 2\n0 \u0661\n\u0664 0\n", [[0, 1], [4, 0]]),
        ("5 2\n+0 1\n4 -0\n", [[0, 1], [4, 0]]),
        ("5 3\n0 1_0 0\n4 0 0\n0 0 0\n", "line 2: entry 10 out of range [0, 5)"),
        ("5 3\n0 +1 0\n4 \u0663 0\n0 0 0\n", "line 3: diagonal entry must be zero"),
        (
            "5 3\n0 01 0\n1 0 0\n0 0 0\n",
            "line 2: entry (0, 1) breaks skew-symmetry c_ji = -c_ij",
        ),
        ("5 3\n0 1 0\n4 0 0x1\n0 0 0\n", "line 3: expected an integer, got '0x1'"),
        ("5 3\n0 1 0\n4 0 0\n0 -1 0\n", "line 4: entry -1 out of range [0, 5)"),
        ("5 3\n0 1 0\n4 0 1_0\nx 0 0\n", "line 3: entry 10 out of range [0, 5)"),
        ("5 3\n0 1 0\n4 +0\n0 0 0\n", "line 3: row has 2 entries, expected 3"),
        (
            "5 2\n0 +100000000000000000000000\n4 0\n",
            "line 2: entry 100000000000000000000000 out of range [0, 5)",
        ),
        ("5 2\n0 1\n\uff15 0\n", "line 3: entry 5 out of range [0, 5)"),
    ],
)
def test_parse_non_canonical_tokens(text, expected):
    if isinstance(expected, str):
        with pytest.raises(MatrixFormatError) as err:
            formats.parse_matrix_file(text)
        assert str(err.value) == expected
    else:
        assert formats.parse_matrix_file(text).materialize().entries.tolist() == expected


# Near-valid matrix and basis files: a well-formed file (a valid header
# and an alternating body, or a banded pattern) with a few tokens or lines
# replaced, dropped, duplicated or commented out.  Tokens include
# out-of-range, negative, beyond-int64 and non-numeric values.
_token = st.integers(-3, 8).map(str) | st.sampled_from(
    [
        "251",
        "1000000000000000000000000000000",
        "-9223372036854775809",
        "9223372036854775807",
        "x",
        "1.5",
        "0x1",
        "1e3",
        "1_0",
        "toeplitz",
        "",
        "#",
    ]
)


@st.composite
def _near_valid_lines(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        upper = np.triu(
            np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(0, p, (n, n)), 1
        )
        body = (upper - upper.T) % p
        if draw(st.booleans()):  # a skew (or, at n = 1, diagonal) fault
            body[0, -1] = draw(st.integers(0, p - 1))
        lines = [[str(p), str(n)]] + [[str(v) for v in row] for row in body.tolist()]
    else:
        pattern = draw(st.lists(st.integers(0, p - 1), max_size=5))
        lines = [[str(p), "toeplitz", str(len(pattern))], [str(v) for v in pattern]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "drop", "insert", "drop_line", "dup_line", "comment"]))
        row = lines[i]
        j = draw(st.integers(0, len(row)))
        if op == "replace" and row:
            row[min(j, len(row) - 1)] = draw(_token)
        elif op == "drop" and row:
            del row[min(j, len(row) - 1)]
        elif op == "insert":
            row.insert(j, draw(_token))
        elif op == "drop_line":
            del lines[i]
            if not lines:
                break
        elif op == "dup_line":
            lines.insert(i, list(row))
        else:
            row.insert(j, "#")
    return "\n".join(" ".join(row) for row in lines) + "\n"


@settings(deadline=None, max_examples=500)
@given(_near_valid_lines())
def test_parse_matrix_file_fuzz(text):
    try:
        parsed = formats.parse_matrix_file(text)
    except MatrixFormatError:
        return
    mat = parsed.materialize()
    assert isinstance(mat, sl.CommutationMatrix)
    assert mat.p == parsed.p


@pytest.mark.parametrize("body", ["", "\n", "#\n"])
def test_an_empty_body_is_refused_at_any_size(body):
    # the byte route's empty grid is refused before numpy shapes it 10^30 wide
    with pytest.raises(MatrixFormatError, match=f"line 1: expected {10 ** 30} matrix rows, got 0"):
        formats.parse_matrix_file(f"2 {10 ** 30}\n" + body)


def _traced_parse_error(text):
    tracemalloc.start()
    try:
        with pytest.raises(MatrixFormatError) as err:
            formats.parse_matrix_file(text)
        return str(err.value), err.value.line, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_located_skew_fault_keeps_one_byte_per_entry():
    # a canonical body with one skew fault is refused by the constructor and
    # read again line by line, its rows one uint8 array each, stacked once and
    # checked by forms._skew_fault: the peak is below 12 n^2 bytes (6.6 n^2
    # measured, the body's bytes and content lines included; an int64 grid
    # and its sum with its transpose peaked at 36.7 n^2)
    n = 1024
    lines = formats.format_matrix_file(sl.random_alternating(3, n, 1)).split("\n")
    row = lines[6].split()
    row[700] = str((int(row[700]) + 1) % 3)
    lines[6] = " ".join(row)
    message, line, peak = _traced_parse_error("\n".join(lines))
    assert (message, line) == ("line 7: entry (5, 700) breaks skew-symmetry c_ji = -c_ij", 7)
    assert peak <= 12 * n * n


def test_a_short_row_is_refused_before_an_n_squared_array():
    # n = 10^5 rows, the second of one token: the fault is raised from the
    # first two rows, with nothing of n^2 = 10^10 entries made (11.3 MB measured)
    n = 100_000
    text = f"2 {n}\n" + " ".join(["0"] * n) + "\n" + "0\n" * (n - 1)
    message, line, peak = _traced_parse_error(text)
    assert (message, line) == (f"line 3: row has 1 entries, expected {n}", 3)
    assert peak < 500 * n


@pytest.mark.parametrize("p", [11, 251])
def test_parse_memory_multi_digit(p):
    # a multi-digit body is read by token ends a block of lines at a time,
    # straight into the uint16 grid: the encoded text, the grid, the
    # matrix's uint8 copy and one block's temporaries stay below 10 n^2
    # bytes (6.01 and 8.03 n^2 measured; one token pass over the whole body
    # peaked at 24.75 and 36.51 n^2)
    n = 1024
    mat = sl.random_alternating(p, n, 1)
    text = formats.format_matrix_file(mat)
    tracemalloc.start()
    try:
        parsed = formats.parse_matrix_file(text).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == mat
    assert peak <= 10 * n * n


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spelled(v: int, how: str) -> str:
    s = str(v)
    return {
        "canonical": s,
        "zero": "0" + s,
        "plus": "+" + s,
        "minus": "-" + s,
        "underscore": s[0] + "_" + s[1:] if len(s) > 1 else s,
        "arabic": s.translate(_ARABIC_INDIC),
    }[how]


# Explicit files whose body mixes spellings of each value (canonical,
# "00", "+1", "-0", "1_0", Arabic-Indic digits), blanks (spaces, tabs,
# "\x0b", which splitlines ends a line at), comment and blank lines, short
# and long rows, out-of-range values, nonzero diagonals and asymmetry.
@st.composite
def _spelled_grids(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.integers(1, 5))
    upper = np.triu(np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(0, p, (n, n)), 1)
    grid = ((upper - upper.T) % p).tolist()
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(["none", "none", "none", "diagonal", "asymmetry", "range"]))
    if fault == "diagonal":
        grid[i][i] = draw(st.integers(1, p - 1))
    elif fault == "asymmetry":
        grid[i][j] = (grid[i][j] + 1) % p
    elif fault == "range":
        grid[i][j] = draw(st.sampled_from([p, p + 1, 999, 1000, 10 ** 20]))
    hows = st.sampled_from(["canonical"] * 8 + ["zero", "plus", "minus", "underscore", "arabic"])
    lines = [f"{p} {n}"]
    for row in grid:
        tokens = [_spelled(v, draw(hows) if v == 0 or draw(st.booleans()) else "canonical") for v in row]
        length = draw(st.sampled_from(["same"] * 6 + ["short", "long"]))
        if length == "short":
            tokens.pop()
        elif length == "long":
            tokens.append(_spelled(draw(st.integers(0, p - 1)), draw(hows)))
        line = draw(st.sampled_from([" "] * 4 + ["  ", "\t", " \t", " \x0b "])).join(tokens)
        if draw(st.integers(0, 4)) == 0:
            line += " # note"
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", " \t "])))
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([2, 3, 5, 251]), st.integers(1, 6), st.data())
def test_canonical_grid_reads_every_canonical_grid(p, n, data):
    # any grid of canonical tokens in range, alternating or not
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    text = "\n".join(data.draw(st.sampled_from([" ", "  ", "\t", " \t"])).join(map(str, row))
                     for row in rows)
    assert formats._canonical_grid(text.encode(), n).tolist() == rows


@st.composite
def _near_grids(draw):
    """Lines of n tokens or about n: values 0..999, leading zeros and
    four-digit tokens, between spaces, tabs and runs of them, with blank
    lines, and now and then a byte "\\r", "x" or "-" put in.  Some lines
    are one-digit tokens between single blanks, the layout read by stride,
    so one body mixes blocks read by stride and by token ends."""
    n = draw(st.integers(1, 5))
    spell = {"canonical": str, "zero": lambda v: f"0{v}", "four": lambda v: str(1000 + v)}
    hows = st.sampled_from(["canonical"] * 30 + ["zero", "four"])
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([n] * 12 + [n - 1, n + 1]))
        if draw(st.integers(0, 2)) == 0:
            lines.append(" ".join(str(draw(st.integers(0, 9))) for _ in range(size)))
            continue
        row = [spell[draw(hows)](draw(st.integers(0, 999))) for _ in range(size)]
        lines.append(draw(st.sampled_from([" ", "  ", "\t", " \t", "   "])).join(row))
    text = draw(st.sampled_from(["\n"] * 12 + ["\n\n", "\n \n"])).join(lines)
    if draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["\r", "x", "-"])) + text[i:]
    return text.strip().encode(), n


@settings(deadline=None, max_examples=400)
@given(_near_grids())
def test_canonical_grid_equals_the_mask_reader(case):
    # the block reader against the whole-array mask reader: the same grid,
    # or None, with its lines in one block, one line per block, and blocks
    # of 8 // n lines whose edges fall between stride and token-end blocks
    data, n = case
    want = canonical_grid_masks(data, n)
    for cells in (gf.BLOCK_CELLS, 1, 8):
        with mock.patch.object(gf, "BLOCK_CELLS", cells):
            got = formats._canonical_grid(data, n)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == np.uint16 and got.tolist() == want.tolist()


@st.composite
def _one_digit_bodies(draw):
    """k lines of n one-digit tokens between single blanks, the layout read
    by stride, with its grid; or a near miss of it, with None: a tab, a
    double blank, a two-digit token, a line one token short, a newline off
    its slot, or a byte "/" or ":" (one below "0", one above "9") at a
    digit slot."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, 9)) for _ in range(n)] for _ in range(k)]
    tokens = [list(map(str, row)) for row in rows]
    miss = draw(st.sampled_from(["none"] * 4 + ["tab", "double", "two", "short", "newline", "/", ":"]))
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
    if miss == "two":
        tokens[i][j] = str(draw(st.integers(10, 99)))
    elif miss == "short":
        tokens[i].pop(j)
    elif miss in ("/", ":"):
        tokens[i][j] = miss
    text = "\n".join(" ".join(row) for row in tokens)
    blanks = [s for s, c in enumerate(text) if c == " "]
    if miss in ("tab", "double", "newline") and blanks:
        s = draw(st.sampled_from(blanks))
        text = text[:s] + {"tab": "\t", "double": "  ", "newline": "\n"}[miss] + text[s + 1 :]
        if miss == "newline" and k > 1:  # moved, not added: a blank takes the place of one
            t = draw(st.sampled_from([t for t, c in enumerate(text) if c == "\n" and t != s]))
            text = text[:t] + " " + text[t + 1 :]
    return text.strip().encode(), n, rows if miss == "none" else None


@settings(deadline=None, max_examples=500)
@given(_one_digit_bodies())
def test_canonical_grid_reads_one_digit_bodies_as_the_mask_reader(case):
    # the stride route, and the token-end route it falls through to, against
    # the mask reader, on raw bytes and on a uint8 view of plain ones, with
    # the stride route's rows in one block and one row per block
    data, n, rows = case
    want = canonical_grid_masks(data, n)
    assert rows is None or want.tolist() == rows
    plain = not data.translate(None, b"0123456789 \t\n")
    for cells in (gf.BLOCK_CELLS, 1):
        for given_as in [data] + [np.frombuffer(data, dtype=np.uint8)] * plain:
            with mock.patch.object(gf, "BLOCK_CELLS", cells):
                got = formats._canonical_grid(given_as, n)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == np.uint16 and got.tolist() == want.tolist()


@settings(deadline=None, max_examples=500)
@given(_spelled_grids())
def test_parse_matches_the_token_table_oracle(text):
    def outcome():
        try:
            return formats.parse_matrix_file(text).materialize().entries.tolist()
        except MatrixFormatError as exc:
            return str(exc), exc.line

    got = outcome()
    with mock.patch.object(formats, "_explicit_matrix", explicit_matrix_table):
        assert outcome() == got


# Files that differ from a canonical grid only by the header's bytes ("\x0b",
# "\r\n", "#"), leading blank lines, trailing blanks, tabs, "00" tokens, blank
# body lines, a short or long row, or a fault the constructor finds.
@st.composite
def _near_canonical_files(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.integers(1, 5))
    upper = np.triu(np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(0, p, (n, n)), 1)
    grid = [[str(v) for v in row] for row in ((upper - upper.T) % p).tolist()]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none"] * 6 + ["00", "short", "long", "diagonal", "asymmetry", "range"]))
    if change == "00":
        grid[i][j] = "0" + grid[i][j]
    elif change == "short":
        grid[i].pop()
    elif change == "long":
        grid[i].append("0")
    elif change == "diagonal":
        grid[i][i] = str(draw(st.integers(1, p - 1)))
    elif change == "asymmetry":
        grid[i][j] = str((int(grid[i][j]) + 1) % p)
    elif change == "range":
        grid[i][j] = str(draw(st.sampled_from([p, 999, 1000])))
    blanks = st.sampled_from([" "] * 4 + ["\t", "  ", " \t"])
    header = f"{p}{draw(blanks)}{n}" + draw(st.sampled_from([""] * 6 + [" ", "\t", "\x0b", "\r", " # h", "#"]))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + draw(blanks).join(row) for row in grid]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, n)), draw(st.sampled_from(["", " \t"])))
    lead = draw(st.sampled_from([""] * 6 + ["\n", " \n", "\t\n\n"]))
    tail = draw(st.sampled_from(["\n"] * 4 + ["", " ", "\t\n", "\n\n", " \n \n"]))
    return lead + header + "\n" + "\n".join(lines) + tail


@settings(deadline=None, max_examples=500)
@given(_near_canonical_files())
def test_plain_files_read_as_the_per_line_route_reads_them(text):
    def outcome(text):
        try:
            return formats.parse_matrix_file(text).materialize().entries.tolist()
        except MatrixFormatError as exc:
            return str(exc), exc.line

    with mock.patch.object(formats, "_explicit_matrix", wraps=formats._explicit_matrix) as body:
        got = outcome(text)
    plain = set(text) <= set("0123456789 \t\n") and text.split("\n", 1)[0].strip() != ""
    assert not body.called or isinstance(body.call_args.args[0], bytes) == plain
    # a closing "#" adds no content line but sends the file down the per-line route
    assert outcome(text + "#") == got


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.lists(st.integers(0, 2).map(str) | _token, max_size=4), max_size=4)
    .map(lambda rows: "\n".join(" ".join(r) for r in rows))
)
def test_parse_basis_file_fuzz(text):
    try:
        vectors = formats.parse_basis_file(text, 3, 3)
    except MatrixFormatError:
        return
    assert vectors.dtype == np.int64 and vectors.ndim == 2
    assert len(vectors) >= 1 and vectors.shape[1] == 3
    assert ((vectors >= 0) & (vectors < 3)).all()


def test_parse_basis_file():
    vectors = formats.parse_basis_file("# basis\n1 0 1\n\n0 1 1  # last\n", 2, 3)
    assert vectors.dtype == np.int64 and vectors.tolist() == [[1, 0, 1], [0, 1, 1]]
    for text, message in [
        ("1 0\n", "line 1: row has 2 entries, expected 3"),
        ("# a\n1 0 1\n1 2 1\n", "line 3: entry 2 out of range [0, 2)"),
        ("1 0 1\n\n0 x 1\n", "line 3: expected an integer, got 'x'"),
        ("# nothing\n", "line 1: basis file contains no vectors"),
    ]:
        with pytest.raises(MatrixFormatError) as err:
            formats.parse_basis_file(text, 2, 3)
        assert str(err.value) == message


# Basis files: k rows of n values in [0, p), each spelled in one of the
# ways above, between blanks, with comment and blank lines, and at times a
# short or long row, a value out of range or a token that is not an integer.
@st.composite
def _basis_files(draw):
    p = draw(st.sampled_from([2, 3, 5, 251]))
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=1, max_size=6))
    hows = st.sampled_from(["canonical"] * 8 + ["zero", "plus", "underscore", "arabic"])
    lines, clean = [], True
    for row in rows:
        tokens = [_spelled(v, draw(hows)) for v in row]
        fault = draw(st.sampled_from(["none"] * 8 + ["short", "long", "range", "token"]))
        i = draw(st.integers(0, n - 1))
        if fault == "short":
            tokens.pop()
        elif fault == "long":
            tokens.append("0")
        elif fault == "range":
            tokens[i] = str(draw(st.sampled_from([p, 999, 1000, -1])))
        elif fault == "token":
            tokens[i] = draw(st.sampled_from(["x", "1.5", "0x1"]))
        clean &= fault == "none"
        line = draw(st.sampled_from([" ", "  ", "\t", " \t"])).join(tokens)
        lines.append(line + draw(st.sampled_from([""] * 4 + [" ", " # note"])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", " \t "])))
    tail = draw(st.sampled_from(["\n"] * 4 + ["", "\n\n"]))
    return p, n, "\n".join(lines) + tail, rows if clean else None


@settings(deadline=None, max_examples=500)
@given(_basis_files())
def test_basis_files_read_as_the_per_line_route_reads_them(file):
    p, n, text, rows = file

    def outcome(text):
        try:
            return formats.parse_basis_file(text, p, n).tolist()
        except MatrixFormatError as exc:
            return str(exc), exc.line

    order = []

    def spy(name):
        fn = getattr(formats, name)
        return lambda *args: order.append(name) or fn(*args)

    with mock.patch.object(formats, "_canonical_grid", spy("_canonical_grid")), \
            mock.patch.object(formats, "_content_lines", spy("_content_lines")):
        got = outcome(text)
    assert rows is None or got == rows
    # a plain file's raw bytes go to the grid before any content line is made
    plain = set(text) <= set("0123456789 \t\n") and text.strip() != ""
    assert order[0] == ("_canonical_grid" if plain else "_content_lines")
    # a closing "#" adds no content line but sends the file down the per-line
    # route; the located reader alone reads the same
    assert outcome(text + "#") == got
    with mock.patch.object(formats, "_canonical_grid", return_value=None):
        assert outcome(text) == got


_int64 = st.integers(0, 2 ** 63 - 1) | st.integers(-(2 ** 63), 2 ** 63 - 1) | st.integers(0, 300)


def _one_width(w: int, sign: int):
    """Integers of w decimal digits (0 too for w = 1), all of one sign."""
    lo, hi = (0 if w == 1 else 10 ** (w - 1)), min(10 ** w - 1, 2 ** 63 - 1)
    return st.integers(lo, hi).map(lambda v: sign * v)


_array_shapes = st.tuples(st.integers(0, 6), st.integers(0, 6)) | st.integers(0, 6)


@settings(deadline=None, max_examples=500)
@given(
    arrays(np.int64, _array_shapes, elements=_int64)
    | arrays(np.int64, _array_shapes, elements=st.integers(0, 9))
    | st.tuples(st.integers(1, 19), st.sampled_from([1, -1])).flatmap(
        lambda ws: arrays(np.int64, _array_shapes, elements=_one_width(*ws))
    )
    | arrays(np.int64, _array_shapes, elements=st.integers(-(2 ** 63), -1))
    | arrays(np.int64, _array_shapes, elements=st.sampled_from([-(2 ** 63), 1 - 2 ** 63, 2 ** 63 - 1, -1, 0]))
)
def test_compact_json_writes_arrays_as_json_dumps(a):
    assert "".join(formats.json_pieces(a)) == json.dumps(a.tolist(), separators=(",", ":"))


# Arrays of one or more gf.BLOCK_CELLS = 2^16-entry chunks of the writer,
# with rows across chunk ends.
@pytest.mark.parametrize(
    "shape", [(140000,), (65535,), (65536,), (65537,), (3, 30001), (65537, 1), (32768, 2), (2, 40000)]
)
def test_compact_json_writes_large_arrays_as_json_dumps(shape):
    rng = np.random.default_rng(len(shape) * 10 ** 6 + shape[0])
    a = rng.integers(-(10 ** 6), 10 ** 6, shape) // rng.integers(1, 10 ** 6, shape)
    assert "".join(formats.json_pieces(a)) == json.dumps(a.tolist(), separators=(",", ":"))


# Chunks of 1 and 7 entries put a chunk end inside rows, at their ends and
# past the last entry, each chunk with its own sign and width.
@settings(deadline=None, max_examples=300)
@given(
    arrays(np.int64, st.tuples(st.integers(0, 5), st.integers(0, 8)) | st.integers(0, 40), elements=_int64),
    st.sampled_from([1, 7]),
)
def test_json_pieces_equal_json_dumps_in_small_chunks(a, cells):
    with mock.patch.object(gf, "BLOCK_CELLS", cells):
        text = "".join(formats.json_pieces({"a": a, "b": [a[:1], 0]}))
    assert text == json.dumps({"a": a.tolist(), "b": [a[:1].tolist(), 0]}, separators=(",", ":"))


def test_compact_json_writes_a_shared_array_once():
    mat = sl.commutation_matrix(2, np.zeros((4, 4), dtype=np.int64))
    invariants = sl.enumerate_invariants(mat)
    doc = formats.classification_doc(mat, invariants)
    plain = formats._plain(doc)
    with mock.patch.object(formats, "_int_array_json", wraps=formats._int_array_json) as writer:
        text = "".join(formats.json_pieces(doc))
    assert writer.call_count == 1
    assert text == json.dumps(plain, ensure_ascii=False, separators=(",", ":"))


@st.composite
def _documents(draw):
    """Nested dicts, lists and tuples of JSON scalars and int64 arrays of 0-2
    dimensions (empty ones too), some array objects appearing more than once."""
    shapes = st.tuples() | st.tuples(st.integers(0, 4)) | st.tuples(st.integers(0, 3), st.integers(0, 3))
    pool = draw(st.lists(arrays(np.int64, shapes, elements=_int64), min_size=1, max_size=3))
    # any text that cannot read as an array's token (see json_pieces)
    text = st.text().filter(lambda s: s != "\0" and not s.endswith('"\0'))
    leaves = st.integers() | text | st.booleans() | st.none() | st.sampled_from(pool)
    return draw(
        st.recursive(
            leaves,
            lambda kids: st.lists(kids, max_size=4)
            | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(text, kids, max_size=4),
            max_leaves=16,
        )
    )


@settings(deadline=None, max_examples=300)
@given(_documents())
def test_json_pieces_equal_json_dumps_of_the_plain_document(doc):
    expected = json.dumps(formats._plain(doc), ensure_ascii=False, separators=(",", ":"))
    assert "".join(formats.json_pieces(doc)) == expected


@pytest.mark.parametrize("doc", [{"a": "\0", "k": np.eye(2, dtype=np.int64)}, ["x\"\0"], {"\0": 1}])
def test_json_pieces_refuse_a_string_that_reads_as_an_array(doc):
    with pytest.raises(ValueError, match="reads as an array"):
        "".join(formats.json_pieces(doc))


def test_invariant_dict_round_trip():
    f0 = sl.reference_invariant(CLIFF3)
    doc = formats.invariant_to_dict(f0)
    assert doc == {"kernel_basis": [[1, 1, 1]], "values_exp_mod_p2": [3]}
    back = formats.invariant_from_dict(doc, CLIFF3)
    assert back == f0


def test_representation_dict_round_trip():
    rep = sl.irreducible_rep(CLIFF3)
    doc = formats.representation_to_dict(rep)
    assert doc["p"] == 2 and doc["n"] == 3 and doc["dim"] == 2
    assert all(set(g) == {"perm", "phase_exps"} for g in doc["generators"])
    back = formats.representation_from_dict(doc, CLIFF3)
    assert sl.verify_relations(back).ok
    assert all(a == b for a, b in zip(back.generators, rep.generators))


def test_representation_dict_mismatch():
    doc = formats.representation_to_dict(sl.irreducible_rep(CLIFF3))
    with pytest.raises(MatrixFormatError):
        formats.representation_from_dict(doc, PAULI)
    doc["generators"][1] = {"perm": [0], "phase_exps": [0]}
    with pytest.raises(MatrixFormatError, match="dimension"):
        formats.representation_from_dict(doc, CLIFF3)


@pytest.mark.parametrize("rows", [[], [0], [0, 1, 0]])
def test_representation_dict_rejects_wrong_generator_count(rows):
    # the count is checked once, by Representation.from_stack
    doc = formats.representation_to_dict(sl.irreducible_rep(PAULI))
    doc["generators"] = [doc["generators"][i] for i in rows]
    message = f"bad representation document: expected 2 generators, got {len(rows)}"
    with pytest.raises(MatrixFormatError, match=message):
        formats.representation_from_dict(doc, PAULI)


def test_representation_dict_rejects_zero_dimension():
    doc = {"p": 2, "n": 3, "dim": 0, "generators": [{"perm": [], "phase_exps": []}] * 3}
    with pytest.raises(MatrixFormatError, match="dimension >= 1"):
        formats.representation_from_dict(doc, CLIFF3)


@pytest.mark.parametrize(
    "perm", [[-1, 0], [0, 5], [0.9, 1.2], [0, 2 ** 70], [True, 0], "01"]
)
def test_representation_dict_rejects_bad_perm(perm):
    doc = formats.representation_to_dict(sl.irreducible_rep(CLIFF3))
    doc["generators"][0]["perm"] = perm
    with pytest.raises(MatrixFormatError):
        formats.representation_from_dict(doc, CLIFF3)


@pytest.mark.parametrize(
    "field,value",
    [
        ("kernel_basis", [[1, 1, 10 ** 29]]),
        ("kernel_basis", [[1, 1, -(10 ** 29)]]),
        ("kernel_basis", [[1, 1.7, 1]]),
        ("kernel_basis", [[1, "1", 1]]),
        ("kernel_basis", [[1, 1]]),
        ("values_exp_mod_p2", [2 ** 64]),
        ("values_exp_mod_p2", [3.0]),
        ("values_exp_mod_p2", [3, 1]),
    ],
)
def test_invariant_dict_rejects_non_integers(field, value):
    doc = {"kernel_basis": [[1, 1, 1]], "values_exp_mod_p2": [3]}
    doc[field] = value
    with pytest.raises(MatrixFormatError):
        formats.invariant_from_dict(doc, CLIFF3)


# JSON-shaped values: what json.loads can return, with unbounded integers.
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)
_int_lists = st.lists(st.integers(-3, 3) | st.integers(), max_size=5)


@settings(deadline=None, max_examples=300)
@given(
    _json
    | st.fixed_dictionaries(
        {
            "kernel_basis": st.lists(_int_lists | _json, max_size=3) | _json,
            "values_exp_mod_p2": _int_lists | _json,
        }
    )
)
def test_invariant_from_dict_fuzz(doc):
    try:
        f = formats.invariant_from_dict(doc, CLIFF3)
    except (MatrixFormatError, InvariantError):  # a basis that is no kernel basis
        return
    assert isinstance(f, sl.StandardInvariant)


@settings(deadline=None, max_examples=300)
@given(
    _json
    | st.fixed_dictionaries(
        {
            "p": st.just(2) | _json,
            "n": st.just(2) | _json,
            "generators": st.lists(
                st.fixed_dictionaries({"perm": _int_lists, "phase_exps": _int_lists})
                | _json,
                max_size=3,
            )
            | _json,
        }
    )
)
def test_representation_from_dict_fuzz(doc):
    try:
        rep = formats.representation_from_dict(doc, PAULI)
    except MatrixFormatError:
        return
    assert isinstance(rep, sl.Representation)
    for g in rep.generators:
        assert np.array_equal(np.sort(g.perm), np.arange(rep.dim))


def test_report_dict_fields():
    doc = formats.report_to_dict(sl.structure_report(CLIFF3))
    assert doc["schema"] == 1
    assert doc["descriptor"] == "C(X_2) ⊗ M_2"
    assert doc["class_count"] == 2
    assert doc["source"] == "explicit"
    assert not {"pattern", "prefix_ranks", "infinite_rank_conjectured"} & set(doc)
    source = formats.parse_matrix_file("2 toeplitz 5\n1 1 1 1 1\n")
    band = formats.report_to_dict(sl.structure_report(source.materialize(6)), source.pattern)
    assert band["source"] == "toeplitz"
    assert band["pattern"] == [1, 1, 1, 1, 1]
    assert band["prefix_ranks"] == [0, 2, 2, 4, 4, 6]
    assert band["infinite_rank_conjectured"] is True


@pytest.mark.parametrize(
    "text",
    [
        "1000000000000000000000000000000 2\n0 1\n1 0\n",
        "-1000000000000000000000000000000 2\n0 1\n1 0\n",
        "1000000000000000000000000000000 toeplitz 1\n1\n",
        "4 2\n0 1\n3 0\n",
        "4 toeplitz 1\n1\n",
        "0 2\n0 1\n1 0\n",
    ],
)
def test_parse_rejects_bad_modulus_on_header(text):
    # the header modulus is checked before the body's int64 arithmetic
    with pytest.raises(MatrixFormatError, match="modulus") as err:
        formats.parse_matrix_file(text)
    assert err.value.line == 1
