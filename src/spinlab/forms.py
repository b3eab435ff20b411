"""Commutation matrices and their bilinear forms over GF(p).

A commutation matrix C is alternating: zero diagonal and c_ji = -c_ij
(mod p).  It induces two forms on coordinate vectors:

    omega(x, y) = x^T C y          (commutation form, skew-symmetric)
    q_form(x, y) = x^T L y         (Weyl/reordering form, L = strict
                                    lower triangle of C)

oriented so that omega(u_i, u_j) = c_ij on standard unit vectors and
omega = q_form - q_form^T holds identically.  With this orientation the
word and matrix layers of the package reproduce the generator relation
u_i u_j = zeta^{c_ij} u_j u_i exactly for every prime, including odd p
where transposition flips signs.

The constructive basis algorithm splits GF(p)^n into ker(omega) plus
hyperbolic pairs (e_i, f_i) with omega(e_i, f_j) = delta_ij, in one
deterministic pass over the coordinates in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf
from .errors import SizeBoundError

# Largest n that the generated families (toeplitz_matrix, clifford_matrix,
# random_alternating) materialize, checked with n >= 1 by ``_check_size``
# before anything of size n^2 is built: the n x n matrix, its private copy
# and its lower triangle take 3 x 32 MB at n = 2048.
MAX_TOEPLITZ_N = 2048


@dataclass(frozen=True, eq=False)
class CommutationMatrix:
    """An n x n alternating matrix over GF(p).

    ``pattern`` records the banded (Toeplitz) source when the matrix was
    materialized from one, as provenance that ``==`` does not compare:
    pattern[k-1] is the entry at separation k on the upper triangle, the
    lower triangle carrying the negated mirror.
    ``lower`` is the strict lower triangle L of ``entries`` (the matrix
    of q_form), computed on first read and frozen like ``entries``.
    """

    p: int
    entries: np.ndarray
    pattern: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", gf.validate_prime(self.p))
        ent = np.array(gf.as_int_array(self.entries))  # private copy, frozen below
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"entries must be square, got shape {ent.shape}")
        if ent.shape[0] == 0:
            raise ValueError("empty commutation matrix")
        if ent.min() < 0 or ent.max() >= self.p:
            raise ValueError(f"entries must lie in [0, {self.p})")
        if np.diagonal(ent).any():
            raise ValueError("diagonal entries must be zero")
        s = ent + ent.T  # in [0, 2p - 2]: 0 mod p only at 0 and p
        if ((s != 0) & (s != self.p)).any():
            raise ValueError("matrix must satisfy c_ji = -c_ij mod p")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @cached_property
    def lower(self) -> np.ndarray:
        lower = np.tril(self.entries, -1)
        lower.flags.writeable = False
        return lower

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommutationMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.entries, other.entries)

    def prefix(self, k: int) -> "CommutationMatrix":
        """The upper-left k x k corner, keeping the pattern source."""
        k = gf.as_int(k, "prefix size")
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix size {k} out of range 1..{self.n}")
        return CommutationMatrix(self.p, self.entries[:k, :k].copy(), self.pattern)


def commutation_matrix(p: int, entries) -> CommutationMatrix:
    """Validate and wrap an explicit entry grid."""
    return CommutationMatrix(p, entries)


def _check_size(n: int, kind: str) -> int:
    """n as an int, refusing n > MAX_TOEPLITZ_N (SizeBoundError) and n < 1 (ValueError)."""
    n = gf.as_int(n, "matrix size")
    if n > MAX_TOEPLITZ_N:
        raise SizeBoundError(f"{kind} matrix size {n} > bound {MAX_TOEPLITZ_N}")
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    return n


def toeplitz_matrix(p: int, pattern, n: int) -> CommutationMatrix:
    """Materialize the n x n prefix of a banded commutation matrix.

    ``pattern`` lists the values at separations 1..m; separations beyond
    the pattern are zero.  The upper triangle takes the pattern value,
    the lower triangle its negation mod p.
    """
    gf.validate_prime(p)
    pat = gf.as_int_array(pattern)
    if pat.ndim != 1 or ((pat < 0) | (pat >= p)).any():
        raise ValueError(f"pattern values must lie in [0, {p})")
    n = _check_size(n, "banded")
    # band[n - 1 + s] is the entry at separation s = j - i, so row i is
    # the window band[n - 1 - i : 2n - 1 - i]; the constructor copies the
    # strided view of those windows into the matrix.
    k = min(pat.size, n - 1)
    band = np.zeros(2 * n - 1, dtype=np.int64)
    band[n : n + k] = pat[:k]
    band[n - 1 - k : n - 1] = (-pat[:k][::-1]) % p
    rows = np.lib.stride_tricks.sliding_window_view(band, n)[::-1]
    return CommutationMatrix(p, rows, pattern=tuple(pat.tolist()))


def clifford_matrix(p: int, n: int) -> CommutationMatrix:
    """All-ones off the diagonal: the matrix of n pairwise anticommuting
    self-adjoint unitaries.  Defined in characteristic 2 only."""
    if p != 2:
        raise ValueError("the Clifford matrix is defined for p = 2 only")
    n = _check_size(n, "Clifford")
    ent = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return CommutationMatrix(2, ent)


def standard_form(p: int, r: int, d: int = 0) -> CommutationMatrix:
    """Block matrix of r hyperbolic 2x2 blocks [[0,1],[-1,0]] plus a d x d
    zero block: the standard model of rank 2r and kernel dimension d.
    p, r and d >= 0 (``gf.as_int``) are checked before anything is allocated."""
    p, r, d = gf.validate_prime(p), gf.as_int(r, "r"), gf.as_int(d, "d")
    if r < 0 or d < 0:
        raise ValueError(f"r and d must be nonnegative, got r={r}, d={d}")
    n = 2 * r + d
    ent = np.zeros((n, n), dtype=np.int64)
    for i in range(r):
        ent[2 * i, 2 * i + 1] = 1
        ent[2 * i + 1, 2 * i] = (-1) % p
    return CommutationMatrix(p, ent)


def random_alternating(p: int, n: int, seed: int) -> CommutationMatrix:
    """Uniformly random alternating matrix, deterministic per seed.

    The strict upper triangle is filled i.i.d. uniform over [0, p) in
    row-major order and mirrored with negation.  The values are those of
    successive ``randrange(p)`` calls on ``random.Random(seed)``, drawn the
    way ``randrange`` draws them (the top ``p.bit_length()`` bits of each
    32-bit Mersenne output, values >= p rejected) by numpy's MT19937 set
    to that generator's state.  The bytes so rest on numpy's MT19937 being
    the reference generator too; the tests check them against a
    ``randrange`` loop.
    """
    import random

    p = gf.validate_prime(p)
    n = _check_size(n, "random")
    upper = np.triu_indices(n, 1)
    words = random.Random(seed).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:-1], dtype=np.uint32), "pos": words[-1]},
    }
    k, vals = p.bit_length(), np.zeros(0, dtype=np.uint64)
    while vals.size < upper[0].size:  # about 2^k / p draws per value
        draws = mt.random_raw(((upper[0].size - vals.size) << k) // p + 64) >> (32 - k)
        vals = np.concatenate([vals, draws[draws < p]])
    vals = vals[: upper[0].size].astype(np.int64)
    ent = np.zeros((n, n), dtype=np.int64)
    ent[upper] = vals
    ent[upper[::-1]] = (-vals) % p
    return CommutationMatrix(p, ent)


def _gf_vector(mat: CommutationMatrix, x) -> np.ndarray:
    """x as a new int64 vector reduced mod p: one ``% p`` of an int64 array,
    else ``gf.as_gf_array``.  Raises ValueError unless it has length n."""
    int64 = isinstance(x, np.ndarray) and x.dtype == np.int64
    a = x % mat.p if int64 else gf.as_gf_array(x, mat.p)
    if a.shape != (mat.n,):
        raise ValueError(f"vector length {a.shape} does not match n={mat.n}")
    return a


def omega(mat: CommutationMatrix, x, y) -> int:
    """The commutation form x^T C y mod p; omega(u_i, u_j) = c_ij."""
    return int(_gf_vector(mat, x) @ mat.entries @ _gf_vector(mat, y) % mat.p)


def q_form(mat: CommutationMatrix, x, y) -> int:
    """The word-reordering form x^T L y mod p, L the strict lower
    triangle of C.  Satisfies omega(x,y) = q_form(x,y) - q_form(y,x)."""
    return int(_gf_vector(mat, x) @ mat.lower @ _gf_vector(mat, y) % mat.p)


@dataclass(frozen=True, eq=False)
class SymplecticBasis:
    """Hyperbolic pairs plus a kernel basis spanning GF(p)^n.

    omega(e_i, e_j) = omega(f_i, f_j) = 0 and omega(e_i, f_j) = delta_ij;
    the kernel vectors span ker(omega) and e + f + kernel is a basis.  Each
    family, any sequence of integer vectors of length n = 2r + d (``()``
    if empty), is kept as one frozen int64 array, (r, n) or (d, n).
    """

    e: np.ndarray
    f: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        if len(self.f) != len(self.e):
            raise ValueError(f"expected one f per e, got {len(self.e)} e and {len(self.f)} f")
        n = 2 * len(self.e) + len(self.kernel)
        for name in ("e", "f", "kernel"):
            vs = getattr(self, name)  # ragged rows or a length other than n raise
            rows = gf.as_int_array(vs).reshape(len(vs), n).copy()
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @property
    def r(self) -> int:
        return len(self.e)

    @property
    def d(self) -> int:
        return len(self.kernel)

    def column_matrix(self) -> np.ndarray:
        """Columns (e_1, f_1, ..., e_r, f_r, k_1, ..., k_d)."""
        pairs = np.hstack([self.e, self.f]).reshape(2 * self.r, self.kernel.shape[1])
        return np.concatenate([pairs, self.kernel]).T


def _symplectic_pass(
    mat: CommutationMatrix, start: np.ndarray, r: int
) -> tuple[SymplecticBasis, list[int]]:
    """Symplectic Gram-Schmidt over the unit vectors in coordinate order.

    The state is a symplectic basis of the leading k x k block, the
    columns of one float64 n x n array w: r interleaved pairs (e_i, f_i),
    then a basis u of its radical, from the k columns of ``start`` (a
    reduced ``column_matrix``, 0 x 0 when fresh).  Step k computes
    omega(e_k, x) for the k columns x of w, row k of C w, with one
    product C[k, lo:k] w[lo:k, :k], lo the first nonzero column of row k
    of C, found once for all rows (so a band of width m costs O(m k)).  It
    projects e_k to v = e_k - sum omega(e_k, f_i) e_i + sum omega(e_k, e_i) f_i;
    then w_j = omega(u_j, v) = -omega(e_k, u_j).  The first u_j with
    w_j != 0 pairs with v / w_j and each later u_i loses (w_i / w_j) u_j,
    in order; with none, v joins u.  Each O(n^2) step keeps the given
    pairs and yields the rank of the leading k + 1 block.  The radical
    comes back in the normal form that defines ``form_kernel``: the
    reduced echelon form of u with its columns reversed, one vector per
    free column j of C in increasing order, with 1 at j and 0 at the
    other free columns (the kernel vector read off the RREF of C at j).

    A fresh pass makes no elimination, because its u is already in that
    form.  Call the pivot of u_j the step at which it joined (its last
    nonzero coordinate); by induction over the steps, each u_j is 1 at its
    own pivot and 0 at the other live pivots, and every pair vector is 0
    at every live pivot: a new v is e_k plus pair vectors, a pairing
    consumes u_j with its pivot, and it changes only the u_i after u_j,
    by a multiple of u_j.  A resumed pass (``start`` not empty) inherits
    old pairs that may be nonzero at the pivots, so it ends with one
    ``gf.rref`` of u, which also checks that u is independent.

    The float64 (BLAS) products are exact in any summation order: w holds
    integers in [0, p), so every sum has at most n terms below (p-1)^2 and
    stays below n (p-1)^2 + p < 2^53, which is n < 1.4 x 10^11 at p = 251;
    the int64 scaling of v then stays below n (p-1)^3 < 2^61.
    """
    n, p = mat.n, mat.p
    if n * (p - 1) ** 2 + p >= 2 ** 53:
        raise SizeBoundError(f"matrix size {n} too large for the exact float64 pass at p={p}")
    n_old, k0 = start.shape
    lo = (mat.entries != 0).argmax(axis=1).tolist()  # 0 for a zero row
    # v's coefficients on (e_1, f_1, ...) are row[swap] * sign, that is
    # (-omega(e_k, f_1), omega(e_k, e_1), ...)
    swap = np.arange(n) ^ 1
    sign = np.resize(np.array([-1, 1]), n)
    w = np.zeros((n, n))
    w[:n_old, :k0] = start  # zero-padded to length n
    ranks = []
    for k in range(k0, n):
        pairs, j = 2 * r, lo[k]
        row = (mat.entries[k, j:k] @ w[j:k, :k]).astype(np.int64) % p
        v = w[: k + 1, :pairs] @ (row[swap[:pairs]] * sign[:pairs])
        v[k] += 1
        ou = row[pairs:]  # omega(e_k, u_j) = -w_j
        nz = ou.nonzero()[0]
        if nz.size:
            i = int(nz[0])
            inv = pow(int(p - ou[i]), -1, p)  # 1 / w_i
            ui = w[:k, pairs + i].copy()
            if i + 1 < ou.size:  # u_j - (w_j / w_i) u_i = u_j + (-w_j / w_i) u_i after u_i
                w[:k, pairs + i + 2 : k + 1] = (
                    w[:k, pairs + i + 1 : k] + ui[:, None] * (ou[i + 1 :] * inv)
                ).astype(np.int64) % p
            if i:
                w[:k, pairs + 2 : pairs + i + 2] = w[:k, pairs : pairs + i]  # w_j = 0 before u_i
            w[:k, pairs] = ui
            w[: k + 1, pairs + 1] = v.astype(np.int64) * inv % p
            r += 1
        else:
            w[: k + 1, k] = v.astype(np.int64) % p
        ranks.append(2 * r)
    w = w.astype(np.int64)  # exact: every entry lies in [0, p)
    kernel = w[:, 2 * r :].T
    if k0:
        rows, pivots = gf.rref(kernel[:, ::-1], p)
        if len(pivots) != n - 2 * r:
            raise ValueError("existing basis is inconsistent")
        kernel = rows[::-1, ::-1]
    pairs = w[:, : 2 * r].T
    return SymplecticBasis(pairs[0::2], pairs[1::2], kernel), ranks


def symplectic_basis(mat: CommutationMatrix) -> SymplecticBasis:
    """Constructive decomposition GF(p)^n = ker(omega) + hyperbolic pairs,
    by ``_symplectic_pass`` from the empty state: deterministic, O(n^3)."""
    return _symplectic_pass(mat, np.zeros((0, 0), dtype=np.int64), 0)[0]


def form_kernel(mat: CommutationMatrix) -> np.ndarray:
    """Deterministic basis of ker(omega) = {x : Cx = 0}, one frozen (d, n)
    int64 array: the kernel of ``symplectic_basis``."""
    return symplectic_basis(mat).kernel


def form_rank(mat: CommutationMatrix) -> int:
    """Rank 2r of the form, from the pairs of ``symplectic_basis``."""
    return 2 * symplectic_basis(mat).r


def prefix_ranks(mat: CommutationMatrix) -> tuple[SymplecticBasis, list[int]]:
    """The symplectic basis and the form rank of every leading k x k
    block, k = 1..n, from one pass."""
    return _symplectic_pass(mat, np.zeros((0, 0), dtype=np.int64), 0)


def extend_symplectic_basis(
    mat: CommutationMatrix, existing: SymplecticBasis
) -> SymplecticBasis:
    """Grow a basis to a larger matrix that extends the old one.

    ``mat`` must have the same modulus and contain the old matrix as its
    upper-left block.  ``_symplectic_pass`` resumes from the zero-padded
    old vectors, so the old pairs stay verbatim as a prefix of e/f.
    Raises ValueError unless the old vectors, under that block, have the
    Gram matrix ``standard_form(p, r, d)``; for a genuine basis of the old
    matrix this holds exactly when the block is the old matrix.
    """
    n, p = mat.n, mat.p
    t = existing.column_matrix() % p
    n_old = len(t)
    if n < n_old:
        raise ValueError(f"matrix size {n} smaller than existing basis {n_old}")
    gram = gf.matmul(gf.matmul(t.T, mat.entries[:n_old, :n_old], p), t, p)
    if n_old and not np.array_equal(
        gram, standard_form(p, existing.r, existing.d).entries
    ):
        raise ValueError(
            "existing basis is not a symplectic basis of the upper-left block"
        )
    return _symplectic_pass(mat, t, existing.r)[0]


def congruence_to_standard(mat: CommutationMatrix) -> np.ndarray:
    """Invertible T with T^T C T equal to the standard block form.

    Columns are (e_1, f_1, ..., e_r, f_r, k_1, ..., k_d), so T^T C T is
    a direct sum of r blocks [[0,1],[-1,0]] followed by a zero block,
    exactly over GF(p).
    """
    return symplectic_basis(mat).column_matrix()


def matrix_from_basis(ref: CommutationMatrix, vectors) -> CommutationMatrix:
    """The commutation matrix of a family of vectors under omega_ref:
    entry (i, j) is omega_ref(v_i, v_j).  Alternating by construction;
    nondegenerate whenever the vectors form a basis and ref does.  The
    family, a (k, n) array or k vectors of length n, is reduced mod p in one
    array operation; more than max(ref.n, MAX_TOEPLITZ_N) vectors raise
    SizeBoundError before any is read."""
    if len(vectors) > (bound := max(ref.n, MAX_TOEPLITZ_N)):
        raise SizeBoundError(f"basis family of {len(vectors)} vectors > bound {bound}")
    v = gf.as_gf_array(vectors, ref.p)  # refuses ragged rows
    if v.ndim != 2 or v.shape[1] != ref.n:
        raise ValueError(f"basis vectors must have length n={ref.n}")
    ent = gf.matmul(gf.matmul(v, ref.entries, ref.p), v.T, ref.p)
    return CommutationMatrix(ref.p, ent)
