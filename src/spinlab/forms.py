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
where transposition flips signs.  The constructor and the file parser
check c_ji = -c_ij by one routine, ``_skew_fault``, in square tiles.

The constructive basis algorithm splits GF(p)^n into ker(omega) plus
hyperbolic pairs (e_i, f_i) with omega(e_i, f_j) = delta_ij, in one
deterministic pass over the coordinates in order (``_symplectic_pass``),
in blocks of 256, every product a ``gf._mulmod`` in the one type that
``gf.exact_float(n, p)`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf
from .errors import SizeBoundError

# Largest n that the generated families (toeplitz_matrix, clifford_matrix,
# random_alternating) materialize, checked with n >= 1 by ``_check_size``
# before anything of size n^2 is built: the n x n uint8 matrix and its int64
# lower triangle take 4 and 32 MB at n = 2048.
MAX_TOEPLITZ_N = 2048


@dataclass(frozen=True, eq=False)
class CommutationMatrix:
    """An n x n alternating matrix over GF(p), equal to another exactly
    when ``p`` and ``entries`` are.
    ``entries`` is uint8, so arithmetic on it widens first.  ``lower`` is
    the strict lower triangle L of ``entries`` (the matrix of q_form) in
    int64, the word layer's table, computed on first read and frozen.
    """

    p: int
    entries: np.ndarray

    def __post_init__(self):
        """Check integer input for range, diagonal and skew-symmetry, and keep
        the matrix's own copy, one frozen uint8 array (p <= 251), whatever the
        source.  Skew-symmetry is checked on that copy by ``_skew_fault``."""
        p = gf.validate_prime(self.p)
        object.__setattr__(self, "p", p)
        src = np.asarray(self.entries)
        if src.dtype.kind not in "biu":
            src = gf.as_int_array(src)  # raises ValueError unless empty
        if src.ndim != 2 or src.shape[0] != src.shape[1]:
            raise ValueError(f"entries must be square, got shape {src.shape}")
        n = src.shape[0]
        if n == 0:
            raise ValueError("empty commutation matrix")
        if src.min() < 0 or src.max() >= p:
            raise ValueError(f"entries must lie in [0, {p})")
        ent = src.astype(np.uint8)
        if np.diagonal(ent).any():
            raise ValueError("diagonal entries must be zero")
        if _skew_fault(ent, p) is not None:
            raise ValueError("matrix must satisfy c_ji = -c_ij mod p")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @cached_property
    def lower(self) -> np.ndarray:
        lower = np.tril(self.entries, -1).astype(np.int64)
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
        """The upper-left k x k corner."""
        k = gf.as_int(k, "prefix size")
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix size {k} out of range 1..{self.n}")
        return CommutationMatrix(self.p, self.entries[:k, :k])


def _skew_fault(ent: np.ndarray, p: int) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with c_ij + c_ji != 0 mod p, as
    ``np.argwhere((ent + ent.T) % p)[0]``, else None, for square uint8
    entries below p with a zero diagonal.  Square tiles of side
    isqrt(``gf.BLOCK_CELLS``) are summed in uint16, tile (I, J) with tile
    (J, I)^T for each J >= I; a sum in [0, 2p - 2] is 0 mod p only at 0
    and p.  The faults are symmetric and off the diagonal, so the first
    one is the least of the first faults of the tiles of the first row
    band with a fault."""
    n, t = ent.shape[0], math.isqrt(gf.BLOCK_CELLS)
    for i in range(0, n, t):
        faults = []
        for j in range(i, n, t):
            s = np.add(ent[i : i + t, j : j + t], ent[j : j + t, i : i + t].T, dtype=np.uint16)
            bad = (s != 0) & (s != p)
            if bad.any():
                r, c = divmod(int(bad.argmax()), bad.shape[1])
                faults.append((i + r, j + c))
        if faults:
            return min(faults)
    return None


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
    band = np.zeros(2 * n - 1, dtype=np.uint8)
    band[n : n + k] = pat[:k]
    band[n - 1 - k : n - 1] = (-pat[:k][::-1]) % p
    rows = np.lib.stride_tricks.sliding_window_view(band, n)[::-1]
    return CommutationMatrix(p, rows)


def clifford_matrix(p: int, n: int) -> CommutationMatrix:
    """All-ones off the diagonal: the matrix of n pairwise anticommuting
    self-adjoint unitaries.  Defined in characteristic 2 only."""
    if p != 2:
        raise ValueError("the Clifford matrix is defined for p = 2 only")
    n = _check_size(n, "Clifford")
    ent = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(ent, 0)
    return CommutationMatrix(2, ent)


def standard_form(p: int, r: int, d: int = 0) -> CommutationMatrix:
    """Block matrix of r hyperbolic 2x2 blocks [[0,1],[-1,0]] plus a d x d
    zero block: the standard model of rank 2r and kernel dimension d.
    p, r and d >= 0 (``gf.as_int``) are checked before anything is allocated."""
    p, r, d = gf.validate_prime(p), gf.as_int(r, "r"), gf.as_int(d, "d")
    if r < 0 or d < 0:
        raise ValueError(f"r and d must be nonnegative, got r={r}, d={d}")
    n = 2 * r + d
    ent = np.zeros((n, n), dtype=np.uint8)
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
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    size = n * (n - 1) // 2
    words = random.Random(seed).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:-1], dtype=np.uint32), "pos": words[-1]},
    }
    k, vals = p.bit_length(), np.zeros(0, dtype=np.uint8)
    while vals.size < size:  # about 2^k / p draws per value
        draws = mt.random_raw(((size - vals.size) << k) // p + 64)
        draws >>= 32 - k
        draws = draws.astype(np.uint8)  # below 2^k <= 256
        vals = np.concatenate([vals, draws[draws < p]])
    vals = vals[:size]
    ent = np.zeros((n, n), dtype=np.uint8)
    ent[upper] = vals  # row-major, as the mask is read
    ent.T[upper] = (p - vals) % p  # entry (j, i) of each (i, j) above, in the same order
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
    family, integer vectors of length n = 2r + d in [0, 256) (``()`` if
    empty), is a slice of one frozen (n, n) uint8 array: widen to compute.
    """

    e: np.ndarray
    f: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        if len(self.f) != len(self.e):
            raise ValueError(f"expected one f per e, got {len(self.e)} e and {len(self.f)} f")
        n = 2 * len(self.e) + len(self.kernel)
        families = (self.e, self.f, self.kernel)  # ragged rows or a length other than n raise
        rows = np.concatenate([gf.as_int_array(vs).reshape(len(vs), n) for vs in families])
        if ((rows < 0) | (rows > 255)).any():
            raise ValueError("basis entries must lie in [0, 256)")
        self.__dict__.update(vars(_gathered_basis(rows.astype(np.uint8), len(self.e))))

    @property
    def r(self) -> int:
        return len(self.e)

    @property
    def d(self) -> int:
        return len(self.kernel)

    def column_matrix(self) -> np.ndarray:
        """Columns (e_1, f_1, ..., e_r, f_r, k_1, ..., k_d), one new int64 array."""
        pairs = np.hstack([self.e, self.f]).reshape(2 * self.r, self.kernel.shape[1])
        return np.concatenate([pairs, self.kernel], dtype=np.int64).T


def _gathered_basis(rows: np.ndarray, r: int) -> SymplecticBasis:
    """The SymplecticBasis on a fresh (n, n) uint8 array that nothing else
    holds, its rows e_1..e_r, f_1..f_r, then the kernel: the array is frozen
    and the three families are its slices, with no copy."""
    rows.flags.writeable = False
    basis = object.__new__(SymplecticBasis)
    basis.__dict__.update(e=rows[:r], f=rows[r : 2 * r], kernel=rows[2 * r :])
    return basis


# Coordinates per block of the symplectic pass: one block covers every
# n <= 256, where the pass is ``_pass_steps`` on C itself.
_PASS_BLOCK = 256


def _pass_steps(gram: np.ndarray, w: np.ndarray, t: int, p: int) -> tuple[int, list, list]:
    """Steps t..m-1 of the symplectic pass on an m x m alternating integer
    Gram matrix with entries in [0, p), from the state whose radical is the
    first t unit vectors; returns (r, ranks, joined).

    The state is written in place into w, a zero m x m float array or
    view, one vector per row: r interleaved pairs (e_i, f_i), then the
    radical u in the order its vectors joined, joined[j] the step at which
    u_j joined (j < t for the start).  A second row table holds (f_i, -e_i).
    Step k reads omega(e_k, x) for the k state rows x as one product of w
    with row k of the Gram matrix, from that row's first nonzero column (a
    zero row costs nothing).  v = e_k - sum omega(e_k,
    f_i) e_i + sum omega(e_k, e_i) f_i is one product of those values with
    the second table; then w_j = omega(u_j, v) = -omega(e_k, u_j).  The
    first u_j with w_j != 0 pairs with v / w_j and each later u_i loses
    (w_i / w_j) u_j, one row down; the pairing with the first and only u_j
    moves no row.  With none, v joins u.  ranks[k - t] is 2r after step k.
    Both products are ``gf._mulmod`` in w's type, which the caller picks
    for at least m terms.  The Gram matrix comes in any integer type, or
    in w's float type, and then it is read in place, not copied.
    """
    m, dtype = len(gram), w.dtype
    nonzero = gram != 0
    lo = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), m).tolist()
    gram = gram.astype(dtype, copy=False)
    np.fill_diagonal(w[:t, :t], 1)
    tw = np.zeros((m, m), dtype=dtype)
    red = np.tile(np.arange(p, dtype=dtype), p)  # red[x] = x mod p for 0 <= x < p^2
    joined, ranks, r = list(range(t)), [], 0
    for k in range(t, m):
        pairs, j = 2 * r, lo[k]
        row = gf._mulmod(w[:k, j:k], gram[k, j:k], p)
        v = gf._mulmod(row[:pairs].astype(dtype), tw[:pairs, : k + 1], p)
        v[k] = 1  # tw is 0 in column k
        nz = row[pairs:].nonzero()[0]  # omega(e_k, u_j) = -w_j
        if nz.size:
            i, ou = int(nz[0]), row[pairs:]
            inv = pow(int(p - ou[i]), -1, p)  # 1 / w_i
            ui = w[pairs + i, :k].copy() if i else w[pairs, :k]
            if i + 1 < ou.size:  # u_j + (-w_j / w_i) u_i for the u_j after u_i
                w[pairs + i + 2 : k + 1, :k] = (
                    w[pairs + i + 1 : k, :k] + np.outer(ou[i + 1 :] * inv, ui)
                ).astype(np.int64) % p
            if i:  # w_j = 0 before u_i: those rows move down by two
                w[pairs + 2 : pairs + i + 2, :k] = w[pairs : pairs + i, :k]
                w[pairs, :k] = ui
            w[pairs + 1, : k + 1] = tw[pairs, : k + 1] = red[v * inv]  # v / w_i
            np.negative(ui, out=tw[pairs + 1, :k])
            joined.pop(i)
            r += 1
        else:
            w[k, : k + 1] = v
            joined.append(k)
        ranks.append(2 * r)
    return r, ranks, joined


def _pass_block(
    ent: np.ndarray, w: np.ndarray, joined: np.ndarray, r: int, b0: int, b1: int, p: int
) -> tuple[int, list[int]]:
    """Steps b0..b1-1 of ``_symplectic_pass`` on its state w in place: r
    pairs in rows 0..2r-1, the radical in the other rows below b0, in any
    order, joined[x] the step at which row x joined.  Returns the new r and
    the ranks of the steps."""
    b, pairs, dtype = b1 - b0, 2 * r, w.dtype
    cols = np.flatnonzero((ent[b0:b1, :b0] != 0).any(axis=0))
    lo = int(cols[0]) if cols.size else b0
    g = gf._mulmod(ent[b0:b1, lo:b0].astype(dtype), w[:b0, lo:b0].T, p)  # omega(e_{b0+s}, row x)
    coef = np.empty((b, pairs), dtype=dtype)  # y_s = e_{b0+s} + coef[s] @ w[:pairs]
    coef[:, 0::2] = -g[:, 1:pairs:2]
    coef[:, 1::2] = g[:, 0:pairs:2]
    slots = pairs + np.flatnonzero(g[:, pairs:b0].any(axis=0))
    slots = slots[np.argsort(joined[slots], kind="stable")]  # the touched radical rows
    t = slots.size
    gram = np.zeros((t + b, t + b), dtype=dtype)  # integers in [0, p), exact in w's type
    gram[t:, :t] = g[:, slots]  # omega(y_s, u) = omega(e_{b0+s}, u)
    gram[:t, t:] = -g[:, slots].T % p
    gram[t:, t:] = (gf._mulmod(g[:, :pairs].astype(dtype), coef.T, p) + ent[b0:b1, b0:b1]) % p
    del g  # the block's (b, b0) arrays live one or two at a time
    local = np.zeros((t + b, t + b), dtype=dtype)
    rl, ranks, jl = _pass_steps(gram, local, t, p)
    uy = np.concatenate([w[slots, :b0], gf._mulmod(coef, w[:pairs, :b0], p)], dtype=dtype)
    del coef
    new = gf._mulmod(local, uy, p)  # the local vectors, columns 0..b0-1
    del uy
    labels = np.concatenate([joined[slots], np.arange(b0, b1)])[jl]
    # The new pairs take rows pairs..top-1: the untouched radical rows
    # there move to freed rows, and the local radical takes the others.
    top = pairs + 2 * rl
    freed = np.sort(np.concatenate([slots, np.arange(b0, b1)]))
    kept = np.setdiff1d(np.arange(pairs, b0), slots)
    move, free = kept[kept < top], freed[freed >= top]
    w[free[: move.size]], joined[free[: move.size]] = w[move], joined[move]
    rows = np.concatenate([np.arange(pairs, top), free[move.size :]])
    w[rows, :b0] = new
    w[rows, b0:b1] = local[:, t:]
    joined[rows[2 * rl :]] = labels
    return r + rl, [pairs + x for x in ranks]


def _symplectic_pass(
    mat: CommutationMatrix, start: np.ndarray, r: int
) -> tuple[SymplecticBasis, list[int]]:
    """Symplectic Gram-Schmidt over the unit vectors in coordinate order.

    The state is a symplectic basis of the leading k x k block, the rows
    of one n x n float array w: r interleaved pairs (e_i, f_i), then a
    basis u of its radical, ordered by the step at which each vector joined
    (``joined``), from the k columns of ``start`` (a reduced
    ``column_matrix``, 0 x 0 when fresh).  Step k projects e_k to
    v = e_k - sum omega(e_k, f_i) e_i + sum omega(e_k, e_i) f_i; then
    w_j = omega(u_j, v) = -omega(e_k, u_j).  The first u_j with w_j != 0
    pairs with v / w_j and each later u_i loses (w_i / w_j) u_j, in order;
    with none, v joins u.  Each step keeps the given pairs and yields the
    rank of the leading k + 1 block.  The radical comes back in the
    normal form that defines ``form_kernel``: the reduced echelon form of u
    with its columns reversed, one vector per free column j of C in
    increasing order, with 1 at j and 0 at the other free columns (the
    kernel vector read off the RREF of C at j).

    The steps run in blocks of ``_PASS_BLOCK`` coordinates b0..b1-1
    (``_pass_block``) with delayed, level-3 updates (as in Dumas, Giorgi
    and Pernet, ACM TOMS 35(3), 2008):

    - ``C[b0:b1, lo:b0] @ w[:b0, lo:b0].T`` gives g[s, x] =
      omega(e_{b0+s}, x) for every state row x, lo the first column below
      b0 at which a row of the block is nonzero (a band of width m costs
      O(m k));
    - ``coef @ w[:2r]``, coef read off the pair columns of g, projects each
      unit vector of the block off the old pairs, to y_s;
    - the old radical vectors u that some row of g touches and the y_s span
      the block's local space; its Gram matrix, built once in the state's
      type, is omega(y_s, u) = g[s, u] = -omega(u, y_s), 0 among the u, and
      omega(y_s, y_t) = c_st + (g[:, :2r] @ coef.T)[s, t] (b x 2r x b);
    - ``_pass_steps`` runs the block's steps on that Gram matrix, with the
      touched u, in their order, as its radical, and ``local @ [u; y]``
      maps its pairs and radical back.

    An untouched u has w_j = 0 at every step of the block, so it neither
    pairs nor changes, and keeps its place in the order: a row moves only
    to make room for the new pairs, and ``joined`` keeps the order.  Step
    k depends only on omega values mod p and every map is linear, so each
    block gives the vectors of the one-step-at-a-time pass, byte for byte.
    A fresh pass's first block is C's own leading block, with the identity
    as its map: for n <= ``_PASS_BLOCK`` the pass is ``_pass_steps`` on C.

    A fresh pass makes no elimination, because its u is already in the
    normal form.  Call the pivot of u_j the step at which it joined (its
    last nonzero coordinate); by induction over the steps, each u_j is 1 at
    its own pivot and 0 at the other live pivots, and every pair vector is
    0 at every live pivot: a new v is e_k plus pair vectors, a pairing
    consumes u_j with its pivot, and it changes only the u_i after u_j, by
    a multiple of u_j.  So the radical rows, ordered by the step at which
    they joined, are the kernel.  A resumed pass (``start`` not empty)
    inherits old pairs that may be nonzero at the pivots, so it ends with
    one ``gf.rref`` of u, which also checks that u is independent.

    The state and every product, each a ``gf._mulmod``, take the float type
    ``gf.exact_float(n, p)``, chosen before the entries are read: no product
    has more than n terms (b0 - lo in g, 2r in the projections and the local
    Gram matrix, t + b <= b1 in the map back and the local steps).
    """
    n, p = mat.n, mat.p
    dtype, ent = gf.exact_float(n, p), mat.entries  # the bound is checked first
    w = np.zeros((n, n), dtype=dtype)
    n_old, k0 = start.shape
    resumed, joined = k0 > 0, np.arange(n)
    if resumed:
        w[:k0, :n_old] = start.T  # zero-padded to length n
        ranks = []
    else:
        k0 = min(_PASS_BLOCK, n)
        r, ranks, first = _pass_steps(ent[:k0, :k0], w[:k0, :k0], 0, p)
        joined[2 * r : k0] = first
    for b0 in range(k0, n, _PASS_BLOCK):
        r, steps = _pass_block(ent, w, joined, r, b0, min(b0 + _PASS_BLOCK, n), p)
        ranks += steps
    rows = np.empty((n, n), dtype=np.uint8)  # exact: every entry lies in [0, p)
    rows[:r], rows[r : 2 * r], rows[2 * r :] = w[0 : 2 * r : 2], w[1 : 2 * r : 2], w[2 * r :]
    del w
    if k0 < n:  # the blocks leave the radical rows in any order
        rows[2 * r :] = rows[2 * r :][np.argsort(joined[2 * r :], kind="stable")]
    if resumed:
        kernel, pivots = gf.rref(rows[2 * r :, ::-1], p)
        if len(pivots) != n - 2 * r:
            raise ValueError("existing basis is inconsistent")
        rows[2 * r :] = kernel[::-1, ::-1]
    return _gathered_basis(rows, r), ranks


def symplectic_basis(mat: CommutationMatrix) -> SymplecticBasis:
    """Constructive decomposition GF(p)^n = ker(omega) + hyperbolic pairs,
    by ``_symplectic_pass`` from the empty state: deterministic, O(n^3)."""
    return _symplectic_pass(mat, np.zeros((0, 0), dtype=np.int64), 0)[0]


def form_kernel(mat: CommutationMatrix) -> np.ndarray:
    """Deterministic basis of ker(omega) = {x : Cx = 0}, one frozen (d, n)
    uint8 array: the kernel of ``symplectic_basis``."""
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
    return CommutationMatrix(ref.p, gf.matmul(gf.matmul(v, ref.entries, ref.p), v.T, ref.p))
