"""Exact monomial-matrix representations of spin systems.

Generators, words, and all relation checks live on monomial matrices:
one nonzero entry per row and column, each a p^2-th root of unity kept
as an integer exponent.  Products, tensor products, and powers are
therefore integer-exact, so the generator relations, orders, kernel
scalars and the commutant dimension (orbits of index pairs, joined by
root hooking and pointer jumping in O(dim^2) memory) are verified with
zero tolerance.  Dense complex matrices enter only where sums are
unavoidable: the spectral projections of the matrix units.

A representation stores its n generators as one (n, dim) perm stack and
one phase stack, handled whole by the builder, the loader and the
relation check.  Each stack from outside or from the builder gets one
permutation check; products, powers and tensor products of validated
matrices get none.  ``verify_relations`` takes U_i against a block of at
most max(1, gf.BLOCK_CELLS // dim) generators per step, so its working
set stays a small multiple of one generator.  A word product
U_1^{x_1} ... U_n^{x_n} reads one row per chunk, by index, of a word
table cached on the representation (the products of every exponent
pattern on a few chunks of consecutive generators); a word that one
chunk covers is that chunk's frozen rows, and only compositions allocate.

Both constructions are one Weyl-generator builder with different
exponent tables: generator j acts on tensor slot i as S^alpha[j,i]
V^beta[j,i] (shift S, clock V), times the p^2-th root of unity with
exponent mu[j]:

* ``prop11_rep``: the tensor-ladder solution on p^n dimensions, which
  realizes any commutation matrix (usually reducibly);
* ``irreducible_rep``: the minimal p^r-dimensional irreducible model
  built from a hyperbolic-pair basis, one clock/shift slot per pair,
  with any prescribed standard invariant.  The invariant of its
  canonical phases is the closed form of ``words._model_invariant``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf
from .errors import InvariantError, SizeBoundError
from .forms import CommutationMatrix, _gf_vector, form_kernel, prefix_ranks, symplectic_basis
from .words import (
    StandardInvariant,
    _checked_invariant,
    _KernelFrame,
    _model_invariant,
    count_classes,
    pair_coordinates,
    realize_invariant,
)

DEFAULT_MAX_DIM = 1 << 20
COMMUTANT_MAX_DIM = 1024
# (perm, phase) entries in one representation's word table: two int64
# arrays of 2^14 entries are 256 KB.
WORD_TABLE_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class MonomialMatrix:
    """A unitary with entry exp(2*pi*i*phases[j]/p^2) at (perm[j], j)."""

    p: int
    perm: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        p = gf.validate_prime(self.p)
        perm = np.array(gf.as_int_array(self.perm))  # private copies, frozen below
        phases = np.array(gf.as_int_array(self.phases))
        _check_stack(perm[None], phases[None])
        self.__dict__.update(vars(_composed(p, perm, phases)))

    @property
    def dim(self) -> int:
        return self.perm.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        # Both arrays are always int64, so equal bytes mean equal entries.
        return (
            self.p == other.p
            and self.perm.tobytes() == other.perm.tobytes()
            and self.phases.tobytes() == other.phases.tobytes()
        )


def _check_stack(perm: np.ndarray, phases: np.ndarray) -> None:
    """The one permutation check, run once on every (n, dim) stack of
    generators from outside or from the generator builder."""
    if perm.ndim != 2 or phases.shape != perm.shape or not perm.shape[1]:
        raise ValueError("perm and phases must be rows of one dimension >= 1")
    n, dim = perm.shape
    if perm.min() < 0 or perm.max() >= dim:
        raise ValueError(f"perm entries out of range [0, {dim})")
    hit = np.zeros((n, dim), dtype=bool)
    hit[np.arange(n)[:, None], perm] = True
    if not hit.all():
        raise ValueError("perm is not a permutation")


def _composed(p: int, perm: np.ndarray, phases: np.ndarray) -> MonomialMatrix:
    """A MonomialMatrix composed from validated ones, with no permutation
    check, on int64 arrays that are either fresh or frozen.  Fresh phases
    are reduced mod p^2 in place; frozen ones (word-table rows) are
    reduced by construction and kept as they are.  Both are frozen."""
    m = object.__new__(MonomialMatrix)
    if phases.flags.writeable:
        np.remainder(phases, p * p, out=phases)
        phases.setflags(write=False)
    perm.setflags(write=False)
    m.__dict__.update(p=p, perm=perm, phases=phases)
    return m


def mono_identity(dim: int, p: int) -> MonomialMatrix:
    return MonomialMatrix(p, np.arange(dim), np.zeros(dim, dtype=np.int64))


def clock(p: int) -> MonomialMatrix:
    """V = diag(1, zeta, ..., zeta^{p-1}), zeta = e^{2*pi*i/p}."""
    gf.validate_prime(p)
    return MonomialMatrix(p, np.arange(p), p * np.arange(p))


def shift(p: int) -> MonomialMatrix:
    """S with S e_j = e_{j-1 mod p}; satisfies S V = zeta V S and
    S V^k = zeta^k V^k S, with S^p = V^p = 1."""
    gf.validate_prime(p)
    return MonomialMatrix(p, (np.arange(p) - 1) % p, np.zeros(p, dtype=np.int64))


def mono_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.p != b.p or a.dim != b.dim:
        raise ValueError("dimension or modulus mismatch")
    return _composed(a.p, a.perm[b.perm], b.phases + a.phases[b.perm])


def mono_tensor(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    nb = b.dim
    perm = (a.perm[:, None] * nb + b.perm[None, :]).reshape(-1)
    phases = (a.phases[:, None] + b.phases[None, :]).reshape(-1)
    return _composed(a.p, perm, phases)


def mono_inverse(a: MonomialMatrix) -> MonomialMatrix:
    inv = np.argsort(a.perm)
    return _composed(a.p, inv, -a.phases[inv])


def mono_pow(a: MonomialMatrix, k: int) -> MonomialMatrix:
    """a^k by square-and-multiply over the bits of |k| (of the inverse if
    k < 0), exact because the product is associative."""
    k = gf.as_int(k, "matrix power")
    if k < 0:
        a, k = mono_inverse(a), -k
    out = mono_identity(a.dim, a.p)
    while k:
        out, a, k = mono_mul(out, a) if k & 1 else out, mono_mul(a, a), k >> 1
    return out


def mono_scale(a: MonomialMatrix, exp: int) -> MonomialMatrix:
    """Multiply by the p^2-th root of unity with integer exponent exp."""
    return _composed(a.p, a.perm, a.phases + gf.as_int(exp, "phase exponent") % a.p ** 2)


def is_scalar(a: MonomialMatrix) -> int | None:
    """The common phase exponent if a is a scalar multiple of the
    identity, else None (constant phases equal themselves shifted by one)."""
    if (a.perm.tobytes() != np.arange(a.dim).tobytes()
            or a.phases[1:].tobytes() != a.phases[:-1].tobytes()):
        return None
    return int(a.phases[0])


def to_dense(a: MonomialMatrix) -> np.ndarray:
    """Complex matrix; for verification oracles only."""
    m = np.zeros((a.dim, a.dim), dtype=np.complex128)
    m[a.perm, np.arange(a.dim)] = np.exp(2j * np.pi * a.phases / a.p ** 2)
    return m


@dataclass(frozen=True, eq=False)
class Representation:
    """Monomial generators satisfying the commutation matrix exactly:
    ``generators`` are the row views of frozen (n, dim) stacks ``perm``
    and ``phases``."""

    mat: CommutationMatrix
    generators: tuple[MonomialMatrix, ...]

    def __post_init__(self):
        gens = self.generators
        if any(g.p != self.mat.p or g.dim != gens[0].dim for g in gens):
            raise ValueError("generators must share the modulus and dimension")
        stack = np.array([g.perm for g in gens]), np.array([g.phases for g in gens])
        rep = Representation.from_stack(self.mat, *stack)
        self.__dict__.update(vars(rep))

    @classmethod
    def from_stack(cls, mat, perm, phases) -> "Representation":
        """Keeps ``perm`` and the fresh ``phases``, reduced mod p^2 in place."""
        if len(perm) != mat.n:
            raise ValueError(f"expected {mat.n} generators, got {len(perm)}")
        _check_stack(perm, phases)
        gens = tuple(map(_composed, [mat.p] * len(perm), perm, phases))
        perm.flags.writeable = phases.flags.writeable = False
        rep = object.__new__(cls)
        rep.__dict__.update(mat=mat, generators=gens, perm=perm, phases=phases)
        return rep

    @property
    def dim(self) -> int:
        return self.perm.shape[1]

    @cached_property
    def _word_table(self) -> "_WordTable | None":
        """Built on the first ``word_matrix`` call, then kept on the
        instance; None when not even one-generator chunks fit."""
        return _word_table(self)


class _WordTable(NamedTuple):
    """Products of the generators in consecutive chunks: the row of
    exponents e in the chunk of width b starting at generator c holds
    U_c^{e_0} ... U_{c+b-1}^{e_{b-1}}, at row offsets[chunk] + the
    radix-p number e_0 e_1 ... e_{b-1} (e_0 most significant)."""

    weights: np.ndarray  # n x chunks: the radix weight of x_k in its chunk
    offsets: np.ndarray  # the first row of each chunk
    perm: np.ndarray  # rows x dim
    phases: np.ndarray  # rows x dim, reduced mod p^2


def _chunk_widths(n: int, p: int, dim: int) -> list[int]:
    """Widths of the fewest chunks of the n generators whose tables hold
    at most WORD_TABLE_ENTRIES (perm, phase) entries in all; [] when not
    even one-generator chunks fit.  For a given number of chunks, widths
    that differ by at most one need the fewest rows (p^b is convex in b).
    """
    for k in range(1, n + 1):
        b, wide = divmod(n, k)
        if (wide * p ** (b + 1) + (k - wide) * p ** b) * dim <= WORD_TABLE_ENTRIES:
            return [b + 1] * wide + [b] * (k - wide)
    return []


def _word_table(rep: Representation) -> _WordTable | None:
    """Chunk tables composed from the generators' own arrays, one
    generator at a time and vectorised over the rows built so far (so
    they hold for loaded generators of any order, not only of order p)."""
    p, n, dim = rep.mat.p, rep.mat.n, rep.dim
    widths = _chunk_widths(n, p, dim)
    if not widths:
        return None
    starts = np.cumsum([0] + widths)
    weights = np.zeros((n, len(widths)), dtype=np.int64)
    perms, phases = [], []
    for c, (start, b) in enumerate(zip(starts, widths)):
        weights[start:start + b, c] = p ** np.arange(b)[::-1]
        perm = np.arange(dim)[None, :]
        ph = np.zeros((1, dim), dtype=np.int64)
        for g in rep.generators[start:start + b]:
            # g^0 ... g^(p-1), then every row times each power.
            g_perm, g_ph = [np.arange(dim)], [np.zeros(dim, dtype=np.int64)]
            for _ in range(p - 1):
                g_ph.append(g.phases + g_ph[-1][g.perm])
                g_perm.append(g_perm[-1][g.perm])
            g_perm, g_ph = np.array(g_perm), np.array(g_ph)
            ph = ((g_ph + ph[:, g_perm]) % (p * p)).reshape(-1, dim)
            perm = perm[:, g_perm].reshape(-1, dim)
        perms.append(perm)
        phases.append(ph)
    offsets = np.cumsum([0] + [len(t) for t in perms[:-1]])
    table = _WordTable(weights, offsets, np.concatenate(perms), np.concatenate(phases))
    for a in table:
        a.flags.writeable = False
    return table


def _check_dim(dim: int, n: int, max_dim: int, what: str) -> None:
    """Refuse dim > max_dim, and (n, dim) generator stacks past 64 max_dim entries."""
    if dim > max_dim:
        raise SizeBoundError(f"{what} needs dimension {dim} > bound {max_dim}")
    if n * dim > 64 * max_dim:  # two int64 stacks of 512 MiB each at the default
        raise SizeBoundError(f"{what} needs {n} x {dim} entries > bound {64 * max_dim}")


def _weyl_stack(alpha: np.ndarray, beta: np.ndarray, mu: np.ndarray, p: int):
    """The (n, dim) perm and phase stacks of the generators
    j = zeta^mu[j] (x)_i S^alpha[j,i] V^beta[j,i], zeta = e^{2 pi i / p^2},
    slot 0 the most significant tensor factor.  S^a V^b has perm
    (t - a) mod p and phases p b t at column t, so with the rule of
    ``mono_tensor`` slot i moves column digit t of every generator j to
    t - alpha[j, i] and adds the phase p beta[j, i] t.  The slots are
    folded in from the least significant up, in place: the m columns
    folded so far are the last ones, the block of the new digit p - 1."""
    n, dim = len(mu), p ** alpha.shape[1]
    perm = np.zeros((n, dim), dtype=np.int64)
    phases = np.zeros_like(perm)
    phases[:, -1], m = mu, 1
    for a, b in zip(alpha.T[::-1], beta.T[::-1]):
        for d in range(p):  # digit p - 1 last, as its block is the input
            at = slice(dim - (p - d) * m, dim - (p - d - 1) * m)
            np.add(perm[:, dim - m:], ((d - a) % p * m)[:, None], out=perm[:, at])
            np.add(phases[:, dim - m:], p * d * b[:, None], out=phases[:, at])
        m *= p
    return perm, phases


def prop11_rep(mat: CommutationMatrix, max_dim: int = DEFAULT_MAX_DIM) -> Representation:
    """Tensor-ladder generators on p^n dimensions.

    Slot k carries the cyclic shift; slots i < k carry the clock raised
    to c_ik.  Orders and pairwise relations hold entry-exact for every
    alternating matrix; the representation is faithful on words (the
    only scalar word matrix is the empty word) but usually reducible.
    """
    p, n = mat.p, mat.n
    _check_dim(p ** n, n, max_dim, "prop11 representation")
    eye, zero = np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    stack = _weyl_stack(eye, np.triu(mat.entries, 1).T.astype(np.int64), zero, p)
    return Representation.from_stack(mat, *stack)


def word_matrix(rep: Representation, x) -> MonomialMatrix:
    """Ordered product of generator powers U_1^{x_1} ... U_n^{x_n}, with
    x reduced mod p.

    The product is composed from one row per chunk of the
    representation's cached word table (the products of all exponent
    patterns on chunks of consecutive generators, as few chunks as keep
    the whole table within WORD_TABLE_ENTRIES), read by index, with the
    rule of ``mono_mul`` (perm a.perm[b.perm], phases b.phases +
    a.phases[b.perm]); a word that one chunk covers is that chunk's
    frozen row, a view of the table.  When the representation is too
    large for even one-generator chunks (n p dim > WORD_TABLE_ENTRIES),
    no table is built and the generator factors are composed one at a
    time instead.  Only the product is built as a MonomialMatrix, and it
    is not re-validated.
    """
    p = rep.mat.p
    x = _gf_vector(rep.mat, x)
    table = rep._word_table
    if table is None:
        perm, phases = np.arange(rep.dim), np.zeros(rep.dim, dtype=np.int64)
        for k in np.flatnonzero(x):
            for _ in range(int(x[k])):
                phases = rep.phases[k] + phases[rep.perm[k]]
                perm = perm[rep.perm[k]]
        return _composed(p, perm, phases)
    first, *rows = (x @ table.weights + table.offsets).tolist()
    perm, phases = table.perm[first], table.phases[first]
    for r in rows:
        q = table.perm[r]
        phases = table.phases[r] + phases[q]
        perm = perm[q]
    return _composed(p, perm, phases)


def extract_invariant(rep: Representation) -> StandardInvariant:
    """Read the standard invariant off the kernel-basis word scalars.

    Raises InvariantError when some kernel word is not scalar, which
    signals a reducible representation whose invariant is undefined.
    """
    kernel = form_kernel(rep.mat)  # frozen, independent and inside ker(omega)
    values = tuple(is_scalar(word_matrix(rep, k)) for k in kernel)
    if None in values:
        raise InvariantError(
            "kernel word is not scalar; representation is reducible and "
            "its standard invariant is undefined"
        )
    return _checked_invariant(_KernelFrame(rep.mat, kernel), values)


def irreducible_rep(
    mat: CommutationMatrix,
    invariant: StandardInvariant | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Representation:
    """Irreducible generators on p^r dimensions with a prescribed
    standard invariant.

    Each generator coordinate vector is decomposed against the
    hyperbolic-pair basis; pair i acts on tensor slot i with the shift
    standing for e_i and the clock for f_i, so the pair relations come
    out with omega(e_i, f_j) = delta_ij.  A canonical per-generator
    phase makes every generator order p, and the invariant this achieves
    is the closed form of ``_model_invariant``.  Generator k is then
    multiplied by zeta^{gamma_k}, zeta = e^{2 pi i / p}, with gamma from
    ``realize_invariant``, onto the requested invariant: any valid
    invariant is reachable this way, for every prime (at p = 2 these are
    sign flips).  The requested invariant may be written on any basis of
    ker(omega); ``extract_invariant`` reads the invariant of the result
    back off its stacks, on the basis of ``form_kernel``.

    Raises SizeBoundError past ``max_dim`` dimensions or 64 ``max_dim``
    generator entries, and InvariantError when the requested invariant
    violates the p-th power law (the square law at p = 2) or its basis
    does not span ker(omega).
    """
    p = mat.p
    basis = symplectic_basis(mat)
    _check_dim(p ** basis.r, mat.n, max_dim, "irreducible representation")
    alpha, beta, mu = pair_coordinates(mat, basis)
    if invariant is not None:
        f0 = _model_invariant(mat, basis.kernel, alpha, beta, mu)
        mu = mu + p * realize_invariant(invariant, f0)
    return Representation.from_stack(mat, *_weyl_stack(alpha, beta, mu, p))


def phase_shift_rep(rep: Representation, gamma) -> Representation:
    """Multiply generator k by zeta^{gamma_k}, zeta = e^{2 pi i / p} (a
    sign flip at p = 2).  Relations and orders are preserved, and
    ``extract_invariant`` of the result is ``phase_shift_invariant(f,
    gamma)`` for the invariant f of ``rep``."""
    g = _gf_vector(rep.mat, gamma)
    phases = rep.phases + rep.mat.p * g[:, None]
    return Representation.from_stack(rep.mat, rep.perm, phases)


@dataclass(frozen=True)
class RelationReport:
    """Outcome of the entry-exact relation check.  Indices are 0-based
    generator positions."""

    pair_failures: tuple[tuple[int, int], ...]
    order_failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.pair_failures and not self.order_failures


def verify_relations(rep: Representation) -> RelationReport:
    """Check U_i U_j = zeta^{c_ij} U_j U_i for all pairs and U_k^p = 1
    for all generators, entry-exact on the stacks with the rule of
    ``mono_mul``: U_i against a block of the U_j, j > i, per step, and
    the orders block by block (blocks as in the module docstring)."""
    p, n, dim, p2 = rep.mat.p, rep.mat.n, rep.dim, rep.mat.p ** 2
    perm, phases = rep.perm, rep.phases
    block = max(1, gf.BLOCK_CELLS // dim)
    pair_failures = []
    for i, (pi, fi) in enumerate(zip(perm[:-1], phases[:-1])):
        for lo in range(i + 1, n, block):
            pj, fj = perm[lo:lo + block], phases[lo:lo + block]
            c = p * rep.mat.entries[i, lo:lo + block, None].astype(np.int64)
            bad = (pi[pj] != pj[:, pi]).any(axis=1)
            bad |= ((fj + fi[pj] - fi - fj[:, pi] - c) % p2).any(axis=1)
            pair_failures += [(i, lo + int(j)) for j in np.flatnonzero(bad)]
    order_failures = []
    for lo in range(0, n, block):
        pk, fk = perm[lo:lo + block], phases[lo:lo + block]
        at, q, f = np.arange(len(pk))[:, None], pk, fk
        for _ in range(p - 1):  # U^p, one factor of U at a time
            q, f = q[at, pk], fk + f[at, pk]
        bad = (q != np.arange(dim)).any(axis=1) | (f % p2).any(axis=1)
        order_failures += (lo + np.flatnonzero(bad)).tolist()
    return RelationReport(tuple(pair_failures), tuple(order_failures))


def commutant_dim(rep: Representation) -> int:
    """Dimension of {X : X U_k = U_k X for all k}, exactly in integers: the
    number of orbits of index pairs under the links X[perm a, perm b] =
    zeta^(phi_a - phi_b) X[a, b], zeta = e^{2 pi i / p^2}, whose cycles close
    with phase 0 mod p^2 (Serre, Linear Representations of Finite Groups,
    2.3); 1 iff the generators are irreducible.

    Pair u = a dim + b has a root root[u] <= u, with X[u] = zeta^pot[u]
    X[root[u]] (pots are below p^2 <= 251^2, so int32 holds their sums).  For
    each block of max(1, gf.BLOCK_CELLS // dim^2) generators, every link
    between two roots offers the larger one the key smaller root 2^s + pot,
    p^2 <= 2^s.  A scatter-min hooks each root under its least offer and
    pointer jumping flattens the trees (Shiloach and Vishkin, J. Algorithms
    3, 1982), until every link joins a root to itself; a link whose pots
    then disagree marks its orbit.  A round is O(dim^2) time per generator,
    in a few dim^2-sized arrays made after the COMMUTANT_MAX_DIM check."""
    dim, n, p2 = rep.dim, rep.mat.n, rep.mat.p ** 2
    _check_dim(dim, 1, COMMUTANT_MAX_DIM, "commutant computation")  # dim^2 arrays for any n
    nodes, s = dim * dim, (p2 - 1).bit_length()
    block = max(1, gf.BLOCK_CELLS // nodes)
    root, pot, broken = np.arange(nodes), np.zeros(nodes, np.int32), np.zeros(nodes, bool)
    for lo in range(0, n, block):
        perm, ph = rep.perm[lo:lo + block], rep.phases[lo:lo + block].astype(np.int32)
        target = (perm[:, :, None] * dim + perm[:, None, :]).reshape(len(perm), -1)
        offset = (ph[:, :, None] - ph[:, None, :]).reshape(len(perm), -1)
        while (i := np.flatnonzero(root[target] != root)).size:
            u, v = i % nodes, target.reshape(-1)[i]
            a, b = root[u], root[v]  # X[b] = zeta^d X[a], so X[max] = zeta^(d sign(b - a)) X[min]
            d = (pot[u] + offset.reshape(-1)[i] - pot[v]) * np.sign(b - a) % p2
            key = np.arange(nodes) << s
            np.minimum.at(key, np.maximum(a, b), np.minimum(a, b) << s | d)
            root, pot = np.minimum(root, key >> s), pot + (key & (1 << s) - 1).astype(np.int32)
            while not np.array_equal(up := root[root], root):
                pot, root = (pot + pot[root]) % p2, up
        broken[root[np.flatnonzero((pot + offset - pot[target]) % p2) % nodes]] = True
    free = root == np.arange(nodes)
    free[root[broken]] = False
    return int(np.count_nonzero(free))


def matrix_units(v: MonomialMatrix, w: MonomialMatrix) -> list[np.ndarray]:
    """The p^2 matrix units generated by a Weyl pair.

    Requires, and checks exactly, V^p = W^p = 1 and V W = zeta W V.
    P_j = (1/p) sum_k zeta^{-jk} W^k projects onto the zeta^j eigenspace
    of W, and e_ij = V^{j-i} P_j (V lowers the eigenvalue index for this
    orientation of the Weyl relation; at p = 2 this is the same as
    V^{i-j} P_j).  Returned row-major: e_00, e_01, ..., e_{p-1,p-1},
    satisfying the product/adjoint/sum laws to high precision.
    """
    p = v.p
    pair = CommutationMatrix(p, np.array([[0, 1], [p - 1, 0]]))
    if not verify_relations(Representation(pair, (v, w))).ok:
        raise ValueError("V and W must have order p and satisfy V W = zeta W V exactly")
    zeta = np.exp(2j * np.pi / p)
    w_pows = [to_dense(mono_pow(w, k)) for k in range(p)]
    projections = [
        sum(zeta ** (-j * k) * w_pows[k] for k in range(p)) / p for j in range(p)
    ]
    units = []
    for i in range(p):
        for j in range(p):
            units.append(to_dense(mono_pow(v, (j - i) % p)) @ projections[j])
    return units


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Shape of the algebra generated by a truncated spin system; its
    kernel basis is one frozen (d, n) uint8 array (``form_kernel``), and
    ``prefix_ranks`` the form rank of each leading k x k block, k = 1..n."""

    p: int
    n: int
    rank: int
    kernel_dim: int
    kernel_basis: np.ndarray  # (d, n), frozen
    center_dim: int
    matrix_factor: str
    descriptor: str
    simple: bool
    class_count: int | None
    prefix_ranks: tuple[int, ...]
    infinite_rank_conjectured: bool


def structure_report(mat: CommutationMatrix) -> StructureReport:
    """Report the algebra structure C(X) (x) M_{p^r} of the truncation.

    The center has dimension p^d (spanned by the central words), the
    matrix factor is M_{p^r} with 2r the form rank, and the algebra is
    simple iff the kernel is trivial.  The class count p^d is set at
    p = 2 and left None at odd p (``enumerate_invariants`` lists the
    classes at every p).  The rank-growth table over all prefixes is
    included, with a heuristic flag set when the rank rose over the last
    two rows.  For a band the rank is in fact unbounded: with M the last
    nonzero separation, a kernel vector is fixed by its first M
    coordinates, so d(n) <= M and rank(n) >= n - M.  One symplectic pass
    gives the table and the kernel, ``form_kernel``.
    """
    basis, table = prefix_ranks(mat)
    ranks = tuple(table)
    r, d = basis.r, basis.d
    descriptor_parts = []
    if d > 0:
        descriptor_parts.append(f"C(X_{mat.p ** d})")
    if r > 0:
        descriptor_parts.append(f"M_{mat.p ** r}")
    return StructureReport(
        p=mat.p,
        n=mat.n,
        rank=2 * r,
        kernel_dim=d,
        kernel_basis=basis.kernel,
        center_dim=mat.p ** d,
        matrix_factor=f"M_{mat.p ** r}",
        descriptor=" ⊗ ".join(descriptor_parts),
        simple=d == 0,
        class_count=count_classes(d, mat.p) if mat.p == 2 else None,
        prefix_ranks=ranks,
        infinite_rank_conjectured=ranks[-1] > ranks[max(len(ranks) - 3, 0)],
    )
