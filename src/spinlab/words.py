"""Exact arithmetic in the algebra of phased words.

A word is lambda * u_1^{x_1} ... u_n^{x_n} for an exponent vector x over
GF(p) and a scalar lambda in the p^2-th roots of unity, stored as an
integer exponent mod p^2.  With zeta = e^{2*pi*i/p} (exponent p) the
product rule is

    w_x w_y = zeta^{Q(x, y)} w_{x+y}

with Q the strict-lower-triangle form of the commutation matrix, and
two words commute up to zeta^{omega(x, y)}.  Everything here is exact
integer arithmetic; large products run in float64 (BLAS) only where every
sum stays below 2^53.

One p-th power law holds at every prime: a plain word has w_x^p =
zeta'^{p s(x)}, zeta' = e^{2 pi i/p^2}, with s(x) = C(p, 2) Q(x, x) mod p
(Q(x, x) mod 2 at p = 2, 0 at odd p).  It gives the canonical normaliser,
the model's phases and the law of a valid invariant.

Standard invariants live on ker(omega): the scalar values taken by
central words in an irreducible system, given on any basis of the kernel
and extended through the product rule.  The basis is one frozen (d, n)
uint8 array, checked once when an invariant is built, in a ``_KernelFrame``
that the invariants derived from it share with its coordinate map and
float64 Gram table, each built once, on first use; equality evaluates
each invariant at the other's basis, and retargeting the target at the
reference's basis (``_values_at``), so neither depends on it.
Multiplying generator k by zeta^{gamma_k} adds p (gamma . x) to the
invariant at every kernel vector x, so the valid invariants, those with
f(k) = s(k) mod p, form p^d classes for a d-dimensional kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf
from .errors import InvariantError, SizeBoundError
from .forms import (
    CommutationMatrix,
    SymplecticBasis,
    _gf_vector,
    omega,
    q_form,
    symplectic_basis,
)

# enumerate_invariants lists the p^d invariants while p^d <= 2^MAX_KERNEL_DIM.
MAX_KERNEL_DIM = 16


@dataclass(frozen=True, eq=False)
class Word:
    """phase * u_1^{x_1} ... u_n^{x_n}; phase is an exponent mod p^2."""

    phase: int
    x: np.ndarray
    mat: CommutationMatrix

    def __post_init__(self):
        object.__setattr__(self, "phase", gf.as_int(self.phase, "phase") % self.mat.p ** 2)
        x = _gf_vector(self.mat, self.x)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (
            self.mat == other.mat
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
        )

    @property
    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x.any()


def _reduced_word(phase: int, x: np.ndarray, mat: CommutationMatrix) -> Word:
    """A Word from a phase already in [0, p^2) and a fresh length-n
    int64 vector already reduced mod p, skipping the coercion and
    checks of ``Word.__post_init__``."""
    w = object.__new__(Word)
    x.setflags(write=False)
    w.__dict__.update(phase=phase, x=x, mat=mat)
    return w


def identity_word(mat: CommutationMatrix) -> Word:
    return Word(0, np.zeros(mat.n, dtype=np.int64), mat)


def word_mul(a: Word, b: Word) -> Word:
    """Product of two words; associative and exact."""
    mat = a.mat
    if mat is not b.mat and mat != b.mat:
        raise ValueError("words belong to different commutation matrices")
    p = mat.p
    q = int(a.x @ mat.lower @ b.x) % p  # q_form on vectors Word keeps reduced
    return _reduced_word((a.phase + b.phase + p * q) % (p * p), (a.x + b.x) % p, mat)


def word_pow(w: Word, k: int) -> Word:
    """w^k in closed form: (lambda w_x)^k = lambda^k zeta^{Q(x,x) C(k,2)} w_{kx}."""
    k = gf.as_int(k, "word power")
    if k < 0:
        raise ValueError("negative word powers are not needed or supported")
    p = w.mat.p
    phase = k * w.phase + p * int(w.x @ w.mat.lower @ w.x) * (k * (k - 1) // 2)
    return _reduced_word(phase % (p * p), w.x * (k % p) % p, w.mat)


def _power_exponent(q, p: int):
    """s = C(p, 2) q mod p for q = Q(x, x), an int or an array: w_x^p =
    zeta'^{p s} (``word_pow``'s phase over p)."""
    return p * (p - 1) // 2 * q % p


def commutation_phase(x, y, mat: CommutationMatrix) -> int:
    """Exponent (mod p^2) by which w_x w_y and w_y w_x differ:
    p * omega(x, y).  Zero exactly when the words commute."""
    p = mat.p
    return (p * omega(mat, x, y)) % (p * p)


def normalize(x, mat: CommutationMatrix) -> Word:
    """The canonical word lambda_x w_x whose p-th power is the identity:
    lambda_x = zeta'^{-s(x) mod p} (i^{Q(x,x)} at p = 2, 1 at odd p)."""
    return Word(-_power_exponent(q_form(mat, x, x), mat.p) % mat.p, x, mat)


def is_central(x, mat: CommutationMatrix) -> bool:
    """True iff w_x commutes with every word, i.e. x is in ker(omega)."""
    return not ((mat.entries @ _gf_vector(mat, x)) % mat.p).any()


@dataclass(frozen=True, eq=False)
class StandardInvariant:
    """A function on the span of an independent basis inside ker(omega),
    stored as phase exponents (mod p^2) on that basis and extended through
    the word product rule; ``==`` compares functions, not bases: each
    invariant is evaluated on the other's basis.

    The basis, any sequence of length-n integer vectors, is kept reduced
    mod p as one frozen (d, n) uint8 array in a ``_KernelFrame``, which the
    invariants derived from this one share (``_checked_invariant``).  Values
    must be integers (``gf.as_int``, as for ``Word``): floats and strings
    raise ValueError.  A dependent basis, or one outside ker(omega), raises
    InvariantError, the first from the frame's one elimination."""

    mat: CommutationMatrix
    kernel_basis: np.ndarray
    values: tuple[int, ...]

    def __post_init__(self):
        n, p = self.mat.n, self.mat.p
        k = gf.as_gf_array(self.kernel_basis, p).astype(np.uint8)  # refuses ragged rows
        if k.shape == (0,):
            k = k.reshape(0, n)  # the empty basis
        if k.ndim != 2 or k.shape[1] != n:
            raise ValueError(f"kernel basis vectors must have length n={n}")
        if len(k) != len(self.values):
            raise ValueError("one value per kernel basis vector required")
        k.flags.writeable = False
        values = tuple(gf.as_int(v, "invariant value") % p ** 2 for v in self.values)
        object.__setattr__(self, "kernel_basis", k)
        object.__setattr__(self, "values", values)
        if gf.matmul(self.mat.entries, k.T, p).any():
            raise InvariantError("kernel basis vector is not in ker(omega)")
        object.__setattr__(self, "_frame", _KernelFrame(self.mat, k))
        self._frame.coord_map  # built now: its one elimination refuses a dependent basis

    @property
    def d(self) -> int:
        return len(self.kernel_basis)

    @cached_property
    def _values_f(self) -> np.ndarray:
        """The values as float64, for ``_values_at``."""
        return np.array(self.values, dtype=np.float64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardInvariant):
            return NotImplemented
        if self.mat != other.mat or self.d != other.d:
            return False
        try:  # both ways, so that == is symmetric on invalid invariants too
            there = _values_at(other, self.kernel_basis).tolist()
            back = _values_at(self, other.kernel_basis).tolist()
        except InvariantError:  # the two bases span different subspaces
            return False
        return there == list(self.values) and back == list(other.values)


class _KernelFrame:
    """An independent basis K inside ker(omega) of ``mat``, one frozen (d, n)
    uint8 array with a float64 copy, and the float64 tables of every
    invariant on K, each built once, on first use: products of these with
    vectors mod p stay below n (p-1)^2 + p < 2^53, so BLAS makes them exact."""

    def __init__(self, mat: CommutationMatrix, basis: np.ndarray):
        self.mat, self.basis, self.basis_f = mat, basis, basis.astype(np.float64)

    @cached_property
    def coord_map(self) -> np.ndarray:
        """n x d: x in the span of K has coordinates x @ coord_map mod p.  One
        elimination, rref([K | I_d]) = [R | E]: E K = R, so E at the pivot rows
        inverts K's pivot minor, and a pivot past column n (or d > n) means
        K is dependent."""
        k, p = self.basis, self.mat.p
        d, n = k.shape
        if d > n:
            raise InvariantError("kernel basis vectors are linearly dependent")
        r, pivots = gf.rref(np.concatenate([k, np.eye(d, dtype=np.int64)], axis=1), p)
        if pivots and pivots[-1] >= n:
            raise InvariantError("kernel basis vectors are linearly dependent")
        coord_map = np.zeros((n, d))
        coord_map[pivots] = r[:, n:]
        return coord_map

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """triu(G) + triu(G, 1)^T and diag(G) for the Gram matrix G = K L K^T mod p."""
        p = self.mat.p
        g = gf.matmul(gf.matmul(self.basis, self.mat.lower, p), self.basis.T, p).astype(np.float64)
        return np.triu(g) + np.triu(g, 1).T, np.diagonal(g)


def _checked_invariant(frame: _KernelFrame, values: tuple[int, ...]) -> StandardInvariant:
    """A StandardInvariant on the frame's basis, shared with its tables,
    and a tuple of ints in [0, p^2), skipping the checks of
    ``StandardInvariant.__post_init__``."""
    f = object.__new__(StandardInvariant)
    f.__dict__.update(mat=frame.mat, kernel_basis=frame.basis, values=values, _frame=frame)
    return f


def _coordinates(f: StandardInvariant, x: np.ndarray) -> np.ndarray:
    """Coordinates on f's basis of a reduced int64 vector x or of every row
    of an (m, n) int64 x, in one check: raises if one is outside the span.
    They come back as exact float64 integers in [0, p)."""
    t, p, xf = f._frame, f.mat.p, x.astype(np.float64)
    a = xf @ t.coord_map % p
    if (a @ t.basis_f % p).tobytes() != xf.tobytes():
        raise InvariantError("vector is not in ker(omega) or not in the span of the basis")
    return a


def kernel_coordinates(f: StandardInvariant, x) -> np.ndarray:
    """Coordinates of x in the stored kernel basis; raises InvariantError
    unless x is in its span."""
    return _coordinates(f, _gf_vector(f.mat, x)).astype(np.int64)


def _reordering_exponent(a: np.ndarray, sym: np.ndarray, diag: np.ndarray, p: int):
    """E(a; G) = sum_{i<j} a_i a_j G_ij + sum_i C(a_i, 2) G_ii mod p, for a
    vector a or for each row of a matrix a, from 2E = (a S - diag(G)) . a
    with the symmetric sym = S = triu(G) + triu(G, 1)^T and diag = diag(G),
    as exact float64 integers.

    When factors merge with a bilinear phase, F_x F_y = zeta^{B(x,y)}
    F_{x+y}, the ordered product prod_i F_{v_i}^{a_i} is zeta^{E(a; G)}
    F_{sum_i a_i v_i} with G_ij = B(v_i, v_j).  sym and diag are float64,
    for a BLAS product.  s = a S - diag(G) is reduced mod 2p before its
    product with a, which changes s . a = 2E by a multiple of 2p, so
    E mod p = (s . a mod 2p) / 2.  For rows a of k entries below p, each
    sum stays below 2 k p^2, exact while k < 7 x 10^10 at p = 251.
    """
    s = (a @ sym - diag) % (2 * p)
    return (s @ a if a.ndim == 1 else (s * a).sum(axis=1)) % (2 * p) / 2


def _values_at(f: StandardInvariant, x: np.ndarray) -> np.ndarray:
    """f at x or at every row of x (as ``_coordinates``), mod p^2.

    Expands x = sum_i a_i k_i in the stored basis and combines the stored
    values with the exact reordering phase zeta^E of the plain-word
    product prod_i W_{k_i}^{a_i} in fixed basis order: the scalar of
    W_x = zeta^{-E} prod_i W_{k_i}^{a_i} is sum_i a_i f(k_i) - p E, with
    E = E(a; G) (``_reordering_exponent``) on the Gram matrix
    G_ij = Q(k_i, k_j) of the basis: a few small float64 products once
    the frame's tables exist, exact, with the values as float64 integers.
    """
    a, p = _coordinates(f, x), f.mat.p
    e = _reordering_exponent(a, *f._frame.gram, p)
    return (a @ f._values_f - p * e) % (p * p)


def evaluate_invariant(f: StandardInvariant, x) -> int:
    """Value of f at a kernel vector, as an exponent mod p^2
    (``_values_at``).  The result satisfies f(x)f(y) = zeta^{Q(x,y)}
    f(x+y) for all kernel pairs of a valid invariant, and f(0) = 1."""
    return int(_values_at(f, _gf_vector(f.mat, x)))


def invariant_square_check(f: StandardInvariant) -> bool:
    """True iff f obeys the p-th power law f(k) = s(k) mod p on every
    stored basis vector, the law of every valid invariant (the square law
    f(k)^2 = (-1)^{Q(k,k)} at p = 2)."""
    q, p = f._frame.gram[1], f.mat.p  # diag(G) = Q(k, k) for each k
    return not ((np.array(f.values) - _power_exponent(q, p)) % p).any()


def phase_shift_invariant(f: StandardInvariant, gamma) -> StandardInvariant:
    """The invariant of the system whose generator k is multiplied by
    zeta^{gamma_k}, zeta = e^{2 pi i / p}: each stored value gains the
    exponent p (gamma . k) mod p^2.  At p = 2 this is the sign flip
    (-1)^{gamma . k}."""
    p = f.mat.p
    shift = p * (f.kernel_basis @ _gf_vector(f.mat, gamma) % p)
    values = (np.array(f.values, dtype=np.int64) + shift) % (p * p)
    return _checked_invariant(f._frame, tuple(values.tolist()))


def gammas_equivalent(gamma1, gamma2, kernel_basis, p: int) -> bool:
    """True iff gamma1 and gamma2 induce the same linear functional on
    the kernel, i.e. (gamma1 - gamma2) . k = 0 for every basis vector k;
    raises ValueError unless p is a supported prime (``gf.validate_prime``)
    and all of these vectors have one length n."""
    p = gf.validate_prime(p)
    g1, g2, k = (gf.as_gf_array(a, p) for a in (gamma1, gamma2, kernel_basis))
    if g1.ndim != 1 or g2.shape != g1.shape or k.size and k.shape[1:] != g1.shape:
        raise ValueError("gamma1, gamma2 and the basis vectors need one length n")
    return not (k.reshape(-1, g1.size) @ (g1 - g2) % p).any()


def realize_invariant(
    target: StandardInvariant, reference: StandardInvariant
) -> np.ndarray:
    """A deterministic gamma with phase_shift_invariant(reference, gamma)
    equal to target.

    target - reference must be p theta_i (mod p^2) at every reference
    basis vector k_i, where the target's basis must span; gamma is the
    functional with gamma . k_i = theta_i that vanishes off the pivot
    columns of the k_i.  Raises InvariantError otherwise, which happens
    for a valid reference exactly when target violates the p-th power law
    (the square law at p = 2) or lives on another matrix or span.
    """
    if target.mat != reference.mat:
        raise InvariantError("target and reference belong to different commutation matrices")
    if target.d != reference.d:
        raise InvariantError("the target's kernel basis does not span the reference kernel")
    p = target.mat.p
    diff = _values_at(target, reference.kernel_basis) - reference.values
    theta, rest = np.divmod(diff % (p * p), p)
    if rest.any():
        raise InvariantError(
            "target - reference is not a multiple of p on the kernel "
            "basis; the target violates the p-th power (square) law"
        )
    return gf._mulmod(reference._frame.coord_map, theta, p)


def count_classes(d: int, p: int) -> int:
    """Number of equivalence classes of irreducible systems with kernel
    dimension d over GF(p): exactly p^d.  (For an infinite-dimensional
    kernel the class count is the cardinality of the continuum; this
    artifact only handles finite truncations.)  d must be an integer
    (``gf.as_int``) and p a supported prime, else ValueError."""
    d, p = gf.as_int(d, "kernel dimension"), gf.validate_prime(p)
    if d < 0:
        raise ValueError("kernel dimension must be nonnegative")
    return p ** d


def pair_coordinates(mat: CommutationMatrix, basis: SymplecticBasis) -> tuple[np.ndarray, ...]:
    """The tables (alpha, beta, mu) of the Weyl model on ``basis``, the
    symplectic basis of ``mat``, whose generator j is zeta'^{mu_j} (x)_i
    S^{alpha_ji} V^{beta_ji}, zeta' = e^{2 pi i / p^2}: alpha_ji = omega(u_j,
    f_i) and beta_ji = -omega(u_j, e_i) (as omega(e_i, f_j) = delta_ij), and
    mu_j = C(p, 2) (alpha_j . beta_j) mod p, the canonical normalizing phase."""
    p = mat.p
    alpha = gf.matmul(mat.entries, basis.f.T, p)
    beta = -gf.matmul(mat.entries, basis.e.T, p) % p
    return alpha, beta, _power_exponent((alpha * beta).sum(axis=1), p)


def _model_invariant(mat: CommutationMatrix, kernel, alpha, beta, mu) -> StandardInvariant:
    """The invariant, on the frozen basis ``kernel`` of ker(omega), of the
    Weyl model with tables (alpha, beta, mu): slot parts merge with the
    phase zeta^{-beta . alpha'}, so (x)_i S^a V^b has p-th power
    zeta^{-C(p, 2) a . b}, which the canonical mu_j cancels, and the ordered
    product over a kernel vector k is the scalar with exponent k . mu -
    p E(k; beta alpha^T) mod p^2 (``_reordering_exponent``)."""
    p = mat.p
    g = gf.matmul(beta, alpha.T, p).astype(np.float64)  # k @ sym < n (p-1)^2 < 2^53
    e = _reordering_exponent(kernel, np.triu(g) + np.triu(g, 1).T, np.diagonal(g), p)
    values = (kernel @ mu - p * e.astype(np.int64)) % (p * p)
    return _checked_invariant(_KernelFrame(mat, kernel), tuple(values.tolist()))


def reference_invariant(mat: CommutationMatrix) -> StandardInvariant:
    """The invariant achieved by the canonical irreducible construction:
    the exact scalars of the ordered generator products over the kernel
    basis, in the closed form of ``_model_invariant``."""
    basis = symplectic_basis(mat)
    return _model_invariant(mat, basis.kernel, *pair_coordinates(mat, basis))


def enumerate_invariants(mat: CommutationMatrix) -> list[StandardInvariant]:
    """All p^d standard invariants reference + p theta, one per linear
    functional theta on the kernel, in increasing functional order: digit
    i of the radix-p index is theta on basis vector i (at p = 2, bit i
    flips the sign on basis vector i)."""
    p = mat.p
    basis = symplectic_basis(mat)
    d = basis.d
    if p ** d > 2 ** MAX_KERNEL_DIM:
        bound = len(np.base_repr(2 ** MAX_KERNEL_DIM, p)) - 1  # largest such d
        raise SizeBoundError(f"kernel dimension {d} exceeds the enumeration bound {bound}")
    f0 = _model_invariant(mat, basis.kernel, *pair_coordinates(mat, basis))
    theta = np.arange(p ** d)[:, None] // p ** np.arange(d) % p
    values = (np.array(f0.values, dtype=np.int64) + p * theta) % (p * p)
    return [_checked_invariant(f0._frame, tuple(v)) for v in values.tolist()]
