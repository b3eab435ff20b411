"""Text and JSON wire formats.

Matrix files are UTF-8, newline-delimited, with '#' comments:

    # explicit matrix
    p n
    <n rows of n integers in [0, p)>

    # banded (Toeplitz) pattern, values at separations 1..m
    p toeplitz m
    <m integers in [0, p)>

Basis files (``generate --from-basis``) hold one vector of n integers in
[0, p) per line, with the same comments.  The integer rows of all three
are read by ``_canonical_grid``, else line by line by ``_rows``.  Parse
and validation failures raise MatrixFormatError carrying the offending
1-based line number.  A file of digits, blanks and newlines alone
(a matrix file with its header on line 1, as ``format_matrix_file``
writes it) has its body read by numpy from its raw bytes, in place: a
uint8 view of the encoded text; any other file has its content lines
joined.  The body is read a block of lines at a time, each block
straight into its rows of one uint16 grid: by stride if its tokens are
one digit between single blanks, as in every file written at p <= 7
(the digits sit at the even offsets), else by token ends.  The
CommutationMatrix constructor checks the grid's range before it makes
the matrix's one uint8 copy, on which it checks the diagonal and then
skew-symmetry (``forms._skew_fault``).  Only a body that the grid reader
or the constructor refuses is read line by line, to the same rows and
errors.
The CLI writes each JSON document as one line of compact JSON with a
fixed field order: the bytes of the standard library encoder with
separators "," and ":" and non-ASCII text kept, from one encoder pass
with integer arrays written by numpy in fixed-width slots
(``json_pieces``).  Documents never contain floats: phases are always
integer exponents mod p^2.  The report, basis, classification and grow
documents carry ``"schema": SCHEMA_VERSION``; the invariant and
representation documents do not.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import gf
from ._version import __version__
from .errors import MatrixFormatError
from .forms import CommutationMatrix, SymplecticBasis, _skew_fault, toeplitz_matrix
from .reps import Representation, StructureReport
from .words import StandardInvariant

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# matrix files


@dataclass(frozen=True)
class ParsedMatrixFile:
    """Parsed header and body of a matrix file, the source of its matrices.
    An explicit file holds its validated matrix; a banded one holds p and
    the pattern (pattern[k-1] the entry at separation k above the
    diagonal, negated below), materialized on request, and no matrix.
    Only the source keeps a pattern; ``report_doc`` and ``grow_doc`` take it."""

    p: int
    matrix: CommutationMatrix | None
    pattern: tuple[int, ...] | None

    def materialize(self, n: int | None = None) -> CommutationMatrix:
        """The commutation matrix.

        Explicit files return their matrix and ignore ``n``.  Banded
        files materialize their n x n prefix; when ``n`` is omitted the
        default is twice the pattern length (at least 2), enough to show
        the full band.  A bad ``n`` raises ``toeplitz_matrix``'s ValueError.
        """
        if self.pattern is None:
            return self.matrix
        size = n if n is not None else max(2, 2 * len(self.pattern))
        return toeplitz_matrix(self.p, self.pattern, size)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


_PLAIN = b"0123456789 \t\n"


def _plain_bytes(text: str) -> bytes:
    """The bytes of ``text`` if each is a digit, space, tab or newline, else b""."""
    data = text.encode() if text.isascii() else b""
    return b"" if data.translate(None, _PLAIN) else data


def _body_start(data: bytes) -> int:
    """The offset just past line 1 of ``data``: after its first newline, else its length."""
    return data.find(b"\n") + 1 or len(data)


def _stripped(data: bytes, lo: int = 0) -> np.ndarray:
    """``data[lo:]`` without its leading and trailing blanks (space, tab,
    newline), as a uint8 view of ``data``, not a copy."""
    hi = len(data)
    while lo < hi and data[lo] in b" \t\n":
        lo += 1
    while hi > lo and data[hi - 1] in b" \t\n":
        hi -= 1
    return np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:  # one of them fails: int is deterministic
            try:
                int(tok)
            except ValueError:
                raise MatrixFormatError(f"expected an integer, got {tok!r}", lineno)


def _canonical_grid(data: bytes | np.ndarray, n: int) -> np.ndarray | None:
    """The (k, n) uint16 grid in ``data`` if each of its k >= 1 lines holds n
    canonical decimals of up to three digits between spaces or tabs, else
    None; callers check k and the range.  ``data`` has no leading or
    trailing blanks: raw bytes, or a uint8 view (``_stripped``) of bytes
    that ``_plain_bytes`` has passed.

    One reader, by blocks of max(1, ``gf.BLOCK_CELLS`` // n) lines, each
    decoded straight into its rows of the grid.  The line ends are
    arithmetic if the body is k lines of 2n - 1 bytes (one strided check of
    the newline slots), else one newline index, found ``gf.BLOCK_CELLS``
    bytes at a time; more lines than (size + 1) // 2n, the most that lines
    of n tokens fit in, are refused first.  A block of r lines in 2nr - 1
    bytes is tried by stride, as one-digit tokens between single blanks
    (every file ``format_matrix_file`` writes at p <= 7): each (digit,
    separator) pair of bytes, a little-endian uint16, less the pair ("0",
    the separator of its slot) is the digit's value, and at most 9 exactly
    when both bytes are right (bytes below "0" wrap, and a wrong separator
    adds 256 s for some 0 < |s| < 256); the last digit has no separator.
    Any other block goes by token ends, on its own bytes: foreign bytes by
    one ``bytes.translate`` of raw bytes at the first such block, the token
    ends by one ``flatnonzero``, and the values by one ``take`` of the (up
    to three) digits that end at each byte."""
    b = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    size, step = b.size, gf.BLOCK_CELLS
    cuts = np.arange(-1, size + 1, 2 * n) if (size + 1) % (2 * n) == 0 else None
    if cuts is None or (b[cuts[1:-1]] != 10).any():  # line i is b[cuts[i] + 1 : cuts[i + 1]]
        cuts = np.concatenate([[-1], *(np.flatnonzero(b[lo : lo + step] == 10) + lo
                                       for lo in range(0, size, step)), [size]])
    k = cuts.size - 1
    if k > (size + 1) // (2 * n):
        return None
    m = min(k, max(1, step // n))
    slots = np.full(m * n, 48 + 256 * 32, dtype=np.uint16)  # "0" and a blank
    slots[n - 1 :: n] = 48 + 256 * 10  # "0" and a newline
    grid = np.empty((k, n), dtype=np.uint16)
    unchecked = isinstance(data, bytes)
    for i in range(0, k, m):
        r = min(m, k - i)
        block, out = b[cuts[i] + 1 : cuts[i + r]], grid[i : i + r].reshape(-1)
        if block.size == 2 * n * r - 1:
            np.subtract(block[:-1].view("<u2"), slots[: r * n - 1], out=out[:-1])
            np.subtract(block[-1:], np.uint8(48), out=out[-1:])
            if out.max() <= 9:
                continue
        if unchecked and data.translate(None, _PLAIN):
            return None
        unchecked = False
        dig = np.zeros(block.size + 4, dtype=bool)  # dig[j + 3]: byte j is a digit
        np.greater_equal(block, np.uint8(48), out=dig[3:-1])
        ends = np.flatnonzero(dig[3:-1] > dig[4:])
        rows = np.searchsorted(ends, np.flatnonzero(block == 10))  # tokens before each newline
        if (ends.size != r * n or not np.array_equal(rows, np.arange(n, r * n, n))
                or (dig[3:-1] & dig[2:-2] & dig[1:-3] & dig[:-4]).any()  # four digits
                or ((block == np.uint8(48)) & (dig[4:] > dig[2:-2])).any()):  # a leading zero
            return None
        val = np.zeros(block.size + 2, dtype=np.uint16)  # val[j + 2]: byte j's digit, 0 for a blank
        np.multiply(block - np.uint8(48), dig[3:-1], out=val[2:], dtype=np.uint16)
        three = val[2:] + val[1:-1] * np.uint16(10)
        three += val[:-2] * dig[2:-2] * np.uint16(100)  # if the tens are a digit
        out[:] = three.take(ends)
    return grid


def _rows(lines: list[tuple[int, str]], p: int, n: int | None) -> Iterator[tuple[int, list[int]]]:
    """Each content line with its integers, read with ``int`` ("00" and "+1"
    pass) and checked for n of them (any number if n is None), then for the
    range [0, p): the first fault raises with its line."""
    for lineno, line in lines:
        row = _ints(line.split(), lineno)
        if n is not None and len(row) != n:
            raise MatrixFormatError(f"row has {len(row)} entries, expected {n}", lineno)
        for v in row:
            if not 0 <= v < p:
                raise MatrixFormatError(f"entry {v} out of range [0, {p})", lineno)
        yield lineno, row


def _explicit_matrix(
    body: bytes | list[tuple[int, str]], p: int, n: int, header_line: int
) -> CommutationMatrix:
    """The matrix of an explicit file's body: in the raw bytes of a plain
    file (see ``parse_matrix_file``), after its header line 1, else the
    content lines after the header.  Its n x n ``_canonical_grid``, checked
    once by the CommutationMatrix constructor, else the content lines checked
    in order (row count, then ``_rows`` and the diagonal row by row, then
    ``forms._skew_fault`` on the rows, one uint8 array each, stacked once
    the last has passed) to report the first fault with its line."""
    raw = isinstance(body, bytes)
    data = _stripped(body, _body_start(body)) if raw else "\n".join([ln for _, ln in body]).encode()
    grid = _canonical_grid(data, n)
    if grid is not None and len(grid) == n:
        try:
            return CommutationMatrix(p, grid)
        except ValueError:
            pass  # located below
    del data, grid
    if raw:
        body = _content_lines(body.decode())[1:]
    if len(body) != n:
        raise MatrixFormatError(
            f"expected {n} matrix rows, got {len(body)}",
            body[-1][0] if body else header_line,
        )
    rows = []
    for i, (lineno, row) in enumerate(_rows(body, p, n)):
        if row[i]:
            raise MatrixFormatError("diagonal entry must be zero", lineno)
        rows.append(np.array(row, dtype=np.uint8))
    ent = np.stack(rows)
    fault = _skew_fault(ent, p)
    if fault is not None:
        i, j = fault
        raise MatrixFormatError(
            f"entry ({i}, {j}) breaks skew-symmetry c_ji = -c_ij", body[i][0]
        )
    return CommutationMatrix(p, ent)


def parse_matrix_file(text: str) -> ParsedMatrixFile:
    """Parse matrix file text; raises MatrixFormatError with a line number.

    A plain file (``_plain_bytes``) whose line 1 is not blank has its
    header on line 1 and its body read from the raw bytes after it, in
    place; any other file is read as content lines (comments and blank
    lines dropped), with the same matrices and errors."""
    data = _plain_bytes(text)
    head = data[: _body_start(data)].strip()
    if head:
        lines, body = [(1, head.decode())], data
    else:
        lines = _content_lines(text)
        body = lines[1:]
    if not lines:
        raise MatrixFormatError("empty matrix file", 1)
    header_line, header = lines[0]
    tokens = header.split()
    banded = len(tokens) == 3 and tokens[1] == "toeplitz"
    if len(tokens) != 2 and not banded:
        raise MatrixFormatError(
            "header must be 'p n' or 'p toeplitz m'", header_line
        )
    try:  # the modulus, validated before any int64 arithmetic uses it
        p = gf.validate_prime(_ints([tokens[0]], header_line)[0])
    except ValueError as exc:
        raise MatrixFormatError(str(exc), header_line)
    size = _ints([tokens[-1]], header_line)[0]
    if banded:
        if size < 0:
            raise MatrixFormatError("pattern length must be nonnegative", header_line)
        values: list[int] = []
        for lineno, row in _rows(body, p, None):
            values += row
            if len(values) > size:
                raise MatrixFormatError(
                    f"more than {size} pattern values", lineno
                )
        if len(values) != size:
            raise MatrixFormatError(
                f"expected {size} pattern values, got {len(values)}", header_line
            )
        return ParsedMatrixFile(p, None, tuple(values))
    if size < 1:
        raise MatrixFormatError("matrix size must be at least 1", header_line)
    return ParsedMatrixFile(p, _explicit_matrix(body, p, size, header_line), None)


def format_matrix_file(mat: CommutationMatrix) -> str:
    """Explicit matrix file text; parses back to an equal matrix."""
    rows = _int_array_json(mat.entries)[2:-2].replace("],[", "\n").replace(",", " ")
    return f"{mat.p} {mat.n}\n{rows}\n"


def parse_basis_file(text: str, p: int, n: int) -> np.ndarray:
    """The basis vectors over GF(p) in ``text``, one per content line, as one
    (k, n) int64 array: the ``_canonical_grid`` of a plain file's raw bytes
    (``_plain_bytes``), or of any other file's content lines, if its
    entries lie in [0, p), else the content lines read by ``_rows``, which
    raises the first fault with its line."""
    data = _stripped(_plain_bytes(text))
    lines = [] if data.size else _content_lines(text)
    if not (data.size or lines):
        raise MatrixFormatError("basis file contains no vectors", 1)
    grid = _canonical_grid(data if data.size else "\n".join([ln for _, ln in lines]).encode(), n)
    if grid is None or grid.max() >= p:
        lines = lines or _content_lines(text)
        grid = np.array([row for _, row in _rows(lines, p, n)], dtype=np.int64)
    return gf.as_int_array(grid)


# ---------------------------------------------------------------------------
# JSON documents


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _int_list(values, what: str) -> np.ndarray:
    """A document's list of integers as an int64 array.  Floats, strings,
    booleans and integers beyond int64 are rejected, not truncated."""
    if not isinstance(values, (list, tuple)) or not all(map(_is_int, values)):
        raise MatrixFormatError(f"{what} must be a list of integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise MatrixFormatError(f"{what} has an integer beyond 64 bits")


def _plain(doc):
    """``doc`` with each tuple as a list and each array as nested lists."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(v) for v in doc]
    return doc


def _int_array_json(a) -> str:
    """``json.dumps(a.tolist(), separators=(",", ":"))`` of an integer array,
    ``gf.BLOCK_CELLS`` entries at a time, each chunk widened to int64
    (``gf.as_int_array``) on its own, in fixed uint8 slots: a "-" place if
    some entry of the chunk is negative, one place per digit of its largest
    magnitude and the "," or ";" (later "],[") after the entry.  The places
    an entry does not use stay NUL, and one ``bytes.translate`` deletes them."""
    a = np.asarray(a)
    if a.ndim not in (1, 2) or not a.size:
        return json.dumps(gf.as_int_array(a).tolist(), separators=(",", ":"))
    n, flat, pieces, step = a.shape[-1], a.reshape(-1), [], gf.BLOCK_CELLS
    for lo in range(0, flat.size, step):
        v = flat[lo : lo + step]
        mag = np.abs(gf.as_int_array(v)).view(np.uint64)  # |-2^63| = 2^63
        s, d = int(v.min() < 0), len(str(mag.max()))
        buf = np.zeros((v.size, s + d + 1), dtype=np.uint8)
        buf[:, -1] = ord(",")
        buf[(-lo - 1) % n :: n, -1] = ord(";")
        if s:
            buf[:, 0] = (v < 0) * ord("-")
        for j in range(d):  # the digit of 10^j; NUL where mag < 10^j, that is q = 0
            q = mag // 10 ** j if j else mag
            place = (q % 10 if j < d - 1 else q) + ord("0")  # the leading q is below 10
            buf[:, s + d - 1 - j] = place * (q > 0) if j else place
        pieces.append(buf.tobytes().translate(None, b"\0"))
    return "[" * a.ndim + b"".join(pieces)[:-1].decode().replace(";", "],[") + "]" * a.ndim


def json_pieces(doc) -> Iterator[str]:
    """``json.dumps(doc, ensure_ascii=False, separators=(",", ":"))`` in pieces: one encoder
    pass holds each integer array as ``"\\u0000"``, where ``_int_array_json`` writes it."""
    arrays = []

    def hold(a):
        arrays.append(a)
        return "\0"

    text = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), default=hold).encode(doc)
    parts = text.split('"\\u0000"')
    if len(parts) != len(arrays) + 1:  # a string is NUL, or ends in '"' and NUL
        raise ValueError("a document string reads as an array")
    yield parts[0]
    last = None, ""  # an array that repeats (a classification's basis) is written once
    for a, part in zip(arrays, parts[1:]):
        last = last if last[0] is a else (a, _int_array_json(a))
        yield from (last[1], part)


def invariant_doc(f: StandardInvariant) -> dict:
    return {"kernel_basis": f.kernel_basis, "values_exp_mod_p2": f.values}


def invariant_from_dict(doc: dict, mat: CommutationMatrix) -> StandardInvariant:
    try:
        basis = [_int_list(k, "kernel basis vector") for k in doc["kernel_basis"]]
        values = _int_list(doc["values_exp_mod_p2"], "values_exp_mod_p2")
        return StandardInvariant(mat, tuple(basis), tuple(values.tolist()))
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(f"bad invariant document: {exc}")


def basis_doc(mat: CommutationMatrix, basis: SymplecticBasis) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p": mat.p,
        "n": mat.n,
        "r": basis.r,
        "d": basis.d,
        "e": basis.e,
        "f": basis.f,
        "kernel": basis.kernel,
    }


def representation_doc(rep: Representation) -> dict:
    gens = [{"perm": g, "phase_exps": h} for g, h in zip(rep.perm, rep.phases)]
    return {"p": rep.mat.p, "n": rep.mat.n, "dim": rep.dim, "generators": gens}


def representation_from_dict(doc: dict, mat: CommutationMatrix) -> Representation:
    try:
        if not (_is_int(doc["p"]) and _is_int(doc["n"])):
            raise MatrixFormatError("representation p and n must be integers")
        if doc["p"] != mat.p or doc["n"] != mat.n:
            raise MatrixFormatError(
                "representation document does not match the matrix (p or n differ)"
            )
        gens = doc["generators"]
        perm = [_int_list(g["perm"], "perm") for g in gens]
        phases = [_int_list(g["phase_exps"], "phase_exps") for g in gens]
        if len({a.shape for a in perm + phases}) > 1:
            raise MatrixFormatError("generators must share one dimension")
        return Representation.from_stack(mat, np.array(perm), np.array(phases))
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFormatError(f"bad representation document: {exc}")


def report_doc(report: StructureReport, pattern: tuple[int, ...] | None = None) -> dict:
    """The report document; a band's ``pattern`` adds the band fields."""
    doc = {
        "schema": SCHEMA_VERSION,
        "tool": "spinlab",
        "version": __version__,
        "p": report.p,
        "n": report.n,
        "rank": report.rank,
        "kernel_dim": report.kernel_dim,
        "kernel_basis": report.kernel_basis,
        "center_dim": report.center_dim,
        "matrix_factor": report.matrix_factor,
        "descriptor": report.descriptor,
        "simple": report.simple,
        "class_count": report.class_count,
        "source": "toeplitz" if pattern is not None else "explicit",
    }
    if pattern is not None:
        doc["pattern"] = pattern
        doc["prefix_ranks"] = report.prefix_ranks
        doc["infinite_rank_conjectured"] = report.infinite_rank_conjectured
    return doc


def classification_doc(mat: CommutationMatrix, invariants: list[StandardInvariant]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p": mat.p,
        "n": mat.n,
        "kernel_dim": invariants[0].d if invariants else 0,
        "class_count": len(invariants),
        "invariants": [invariant_doc(f) for f in invariants],
    }


def grow_doc(pattern: tuple[int, ...], report: StructureReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "p": report.p,
        "pattern": pattern,
        "n_max": report.n,
        "ranks": [{"n": k + 1, "rank": r} for k, r in enumerate(report.prefix_ranks)],
        "infinite_rank_conjectured": report.infinite_rank_conjectured,
    }


def _listed(build):
    """The plain-list form of a ``*_doc`` builder (see json_pieces)."""
    return lambda *args: _plain(build(*args))


invariant_to_dict = _listed(invariant_doc)
representation_to_dict = _listed(representation_doc)
report_to_dict = _listed(report_doc)
