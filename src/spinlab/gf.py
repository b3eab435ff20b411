"""Exact dense linear algebra over the prime fields Z_p.

Matrices and vectors are numpy int64 arrays with entries reduced mod p.
All pivoting is deterministic (first nonzero entry scanning top-left), so
every routine returns the same answer on every run; golden tests rely on
this.  Columns and rows are 0-indexed.

Every routine here is built on ``rref``, the single elimination kernel:
O(m n rank) arithmetic, with one vectorised rank-1 update per pivot.

Primes are restricted to 2 <= p <= 251 so that all intermediate products
fit comfortably in int64.
"""

from __future__ import annotations

import numpy as np

_MAX_PRIME = 251


def validate_prime(p: int) -> int:
    """Check that p is a supported prime modulus and return it."""
    p = int(p)
    if p < 2 or p > _MAX_PRIME:
        raise ValueError(f"modulus must be a prime in [2, {_MAX_PRIME}], got {p}")
    if any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def as_gf_array(a, p: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(p).

    Returns (R, pivot_cols) where R is the RREF of ``mat`` and
    pivot_cols is the strictly increasing list of pivot column indices
    (its length is the rank).  Each pivot costs one numpy update: the
    pivot row is scaled, then the pivot column is cleared in the other
    rows where it is nonzero by a single outer product restricted to
    columns col: (earlier columns of the pivot row are already zero), so
    an m x n matrix of rank k takes O(m n k) arithmetic and k Python
    iterations.
    """
    r = as_gf_array(mat, p).copy()
    m, n = r.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        inv = pow(int(r[row, col]), -1, p)
        r[row, col:] = (r[row, col:] * inv) % p
        others = np.flatnonzero(r[:, col])
        others = others[others != row]
        block = r[others, col:]
        block -= np.outer(block[:, 0], r[row, col:])
        block %= p
        r[others, col:] = block
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols


def rank(mat: np.ndarray, p: int) -> int:
    """Rank of a matrix over GF(p)."""
    _, pivots = rref(mat, p)
    return len(pivots)


def kernel_from_rref(
    r: np.ndarray, pivots: list[int], n: int, p: int
) -> list[np.ndarray]:
    """Right null space basis read off an RREF (as returned by ``rref``).

    One basis vector per free column, taken in increasing column order;
    the free coordinate is 1 and the pivot coordinates are the negated
    entries of that column of R.  Each vector is its own array.
    """
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    k = np.zeros((free.size, n), dtype=np.int64)
    k[np.arange(free.size), free] = 1
    k[:, pivots] = (-r[: len(pivots), free].T) % p
    return [v.copy() for v in k]


def kernel_basis(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Deterministic basis of the right null space {v : mat v = 0}.

    One elimination followed by ``kernel_from_rref``.
    """
    mat = as_gf_array(mat, p)
    r, pivots = rref(mat, p)
    return kernel_from_rref(r, pivots, mat.shape[1], p)


def solve(mat: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of mat x = b over GF(p), or None if inconsistent.

    Free variables are set to zero, making the choice deterministic.
    """
    mat = as_gf_array(mat, p)
    b = as_gf_array(b, p)
    m, n = mat.shape
    if b.shape != (m,):
        raise ValueError(f"rhs length {b.shape} does not match {m} rows")
    aug = np.concatenate([mat, b.reshape(m, 1)], axis=1)
    r, pivots = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = r[row, n]
    return x


def inverse(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over GF(p); raises if singular."""
    mat = as_gf_array(mat, p)
    m, n = mat.shape
    if m != n:
        raise ValueError("only square matrices can be inverted")
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(p)")
    return r[:, n:]


def extend_functional(
    basis: list[np.ndarray], values: list[int], n: int, p: int
) -> np.ndarray:
    """Extend a linear functional from a subspace to all of GF(p)^n.

    Given independent vectors k_1..k_m and target values t_1..t_m, returns
    gamma with gamma . k_i = t_i for every i: the ``solve`` solution,
    whose free variables are zero, so the output is deterministic and
    vanishes off the pivot columns of the k_i.

    Raises ValueError if the basis vectors are linearly dependent or the
    value list has the wrong length.
    """
    if len(values) != len(basis):
        raise ValueError("values must match basis length")
    if not basis:
        return np.zeros(n, dtype=np.int64)
    rows = np.array([as_gf_array(k, p) for k in basis], dtype=np.int64)
    if rows.shape[1] != n:
        raise ValueError("basis vectors must have length n")
    if rank(rows, p) != len(basis):
        raise ValueError("basis vectors are linearly dependent")
    return solve(rows, as_gf_array(values, p), p)
