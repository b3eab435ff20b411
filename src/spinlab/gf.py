"""Exact dense linear algebra over the prime fields Z_p.

``matmul`` and ``rref`` widen integer input (uint8 too) to int64 and return
int64 arrays reduced mod p.  Pivoting is deterministic (first nonzero entry
scanning top-left), so every routine gives the same answer on every run;
golden tests rely on this.  Columns and rows are 0-indexed.

``rref`` is the single elimination kernel: O(m n rank) arithmetic, with
one vectorised rank-1 update per pivot.  Reduction mod p is deferred:
the working array is reduced only where a value is read (the pivot
column and the pivot row) and once at the end.  There is no null-space,
solve or inverse routine: ker(omega) comes from the symplectic pass
(``forms.form_kernel``).

Primes are restricted to 2 <= p <= 251 so that the unreduced
intermediate values stay far inside int64 (see ``rref`` for the bound).
Every float (BLAS) product that the package reduces into int64 is
``_mulmod``, in the type that ``exact_float``, the one rule, picks.
Input must be integer-typed: floats, complex numbers and non-integer
objects raise ValueError rather than being truncated.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import SizeBoundError

_MAX_PRIME = 251

# Entries that one block of a blocked pass over a large array holds at once,
# read at call time by every such pass in the package.
BLOCK_CELLS = 1 << 16


def as_int(value, what: str) -> int:
    """``value`` as an exact int (``operator.index``): floats and strings
    raise ValueError, naming ``what``, instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def validate_prime(p: int) -> int:
    """Check that p is a supported prime modulus (an exact integer) and
    return it as an int."""
    p = as_int(p, "modulus")
    if p < 2 or p > _MAX_PRIME:
        raise ValueError(f"modulus must be a prime in [2, {_MAX_PRIME}], got {p}")
    if any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def as_int_array(a) -> np.ndarray:
    """Coerce integer input to an int64 array (not a copy if ``a`` already
    is one).  Booleans and integer dtypes are accepted; floats, complex
    numbers, strings, objects and integers beyond int64 raise ValueError
    instead of being truncated or wrapped.  An empty input of any dtype
    is an empty int64 array."""
    arr = np.asarray(a)
    if arr.dtype == np.int64:
        return arr
    kind = arr.dtype.kind
    if arr.size and (
        kind not in "biu" or (arr.dtype == np.uint64 and arr.max() > np.iinfo(np.int64).max)
    ):
        raise ValueError(f"expected integer input within int64, got {arr.dtype} values")
    return arr.astype(np.int64)


def as_gf_array(a, p: int) -> np.ndarray:
    """Coerce integer input (see ``as_int_array``) to a new int64 array
    reduced mod p."""
    return as_int_array(a) % p


def exact_float(terms: int, p: int) -> type:
    """The float type in which a sum of ``terms`` products of integers below p
    in absolute value, plus one such integer, is exact in any order: float32
    while terms (p-1)^2 + p < 2^24, float64 while below 2^53, else SizeBoundError."""
    for dtype, bits in ((np.float32, 24), (np.float64, 53)):
        if terms * (p - 1) ** 2 + p < 2 ** bits:
            return dtype
    raise SizeBoundError(f"{terms} terms at p={p} are too many for an exact float64 product")


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as a new int64 array, for operands of one float type that
    ``exact_float`` gave for at least the inner dimension, holding integers
    below p in absolute value: then every sum of the product is exact in
    any summation order, and so is its widening to int64.  The caller
    picks the type and reduces the operands; nothing is checked here."""
    out = (a @ b).astype(np.int64)
    out %= p
    return out


def matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p as a new int64 array: ``_mulmod`` of the operands reduced
    mod p, in the type ``exact_float`` gives for the inner dimension."""
    x, y = (as_int_array(m) % p for m in (a, b))
    dtype = exact_float(x.shape[-1], p)
    return _mulmod(x.astype(dtype), y.astype(dtype), p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(p).

    Returns (R, pivot_cols) where R is the RREF of ``mat`` and
    pivot_cols is the strictly increasing list of pivot column indices
    (its length is the rank).  One vectorised rank-1 update per pivot,
    with deferred reduction: a pivot reduces only the column it reads
    (the pivot search and the multipliers, 0 at the pivot row) and the
    pivot row from ``col`` on, scaled by the pivot's inverse; then
    R[rows, col:] -= outer(mult[rows], prow) over the rows with a nonzero
    multiplier clears the column mod p with no ``%`` (on sparse or banded
    input those are few), and R is reduced once at the end.  After t
    pivots every |entry| < p + t (p-1)^2 < 2^63 for any matrix numpy can
    hold.  An m x n matrix of rank k takes O(m n k) arithmetic and k
    Python iterations; the RREF is unique, so reduction order cannot
    change it.
    """
    r = as_gf_array(mat, p)  # a new array, so mat is never written
    m, n = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        mult = r[:, col] % p
        nz = np.flatnonzero(mult[row:])
        if nz.size == 0:
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
            mult[[row, pivot]] = mult[[pivot, row]]
        prow = r[row, col:] * pow(int(mult[row]), -1, p) % p
        mult[row] = 0
        others = np.flatnonzero(mult)
        r[others, col:] -= np.outer(mult[others], prow)
        r[row, col:] = prow
        pivot_cols.append(col)
        row += 1
    r %= p
    return r, pivot_cols


def rank(mat: np.ndarray, p: int) -> int:
    """Rank of a matrix over GF(p)."""
    _, pivots = rref(mat, p)
    return len(pivots)
