"""Shared brute-force oracles and hypothesis strategies.

The oracles here are deliberately naive (exhaustive enumeration, explicit
double loops, dense complex arithmetic) and independent of the library's
elimination/monomial code paths, so they can vouch for derived expected
values.
"""

import itertools
import warnings

import numpy as np
from hypothesis import strategies as st

import spinlab as sl

# hypothesis imports libcst to write a patch for a failing example; an old
# libcst warns on import, and under ``-W error`` that warning turns the
# falsifying example into a pytest INTERNALERROR.  Importing the patch
# writer here, with the warning ignored, keeps the report readable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def enum_vectors(p, n):
    """All p^n coordinate vectors over GF(p)."""
    for tup in itertools.product(range(p), repeat=n):
        yield np.array(tup, dtype=np.int64)


def brute_kernel_set(entries, p):
    """The set {v : Mv = 0} by exhaustive search, as tuples."""
    m = np.asarray(entries) % p
    return {
        tuple(v)
        for v in enum_vectors(p, m.shape[1])
        if not ((m @ v) % p).any()
    }


def brute_rank(entries, p):
    """log_p of the image size, by exhaustive search."""
    m = np.asarray(entries) % p
    image = {tuple((m @ v) % p) for v in enum_vectors(p, m.shape[1])}
    r = 0
    while p ** r < len(image):
        r += 1
    assert p ** r == len(image)
    return r


def span_set(vectors, p, n):
    """All linear combinations of the given vectors, as tuples."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        v = np.zeros(n, dtype=np.int64)
        for c, vec in zip(coeffs, vectors):
            v = (v + c * np.asarray(vec)) % p
        out.add(tuple(v))
    return out


def omega_sum_oracle(mat, x, y):
    """Direct double-loop evaluation of sum_ij x_i c_ij y_j."""
    total = 0
    for i in range(mat.n):
        for j in range(mat.n):
            total += int(x[i]) * int(mat.entries[i, j]) * int(y[j])
    return total % mat.p


def q_sum_oracle(mat, x, y):
    """Direct evaluation of the strict-lower-triangle sum."""
    total = 0
    for i in range(mat.n):
        for j in range(i):
            total += int(mat.entries[i, j]) * int(x[i]) * int(y[j])
    return total % mat.p


def alternating_from_upper(p, n, upper):
    """Alternating matrix from a flat list of strict-upper entries."""
    ent = np.zeros((n, n), dtype=np.int64)
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            c = next(it) % p
            ent[i, j] = c
            ent[j, i] = (-c) % p
    return sl.commutation_matrix(p, ent)


def random_alternating_loop(p, n, seed):
    """The strict upper triangle from one ``randrange(p)`` per entry in
    row-major order, mirrored with negation, written entry by entry: the
    oracle of ``random_alternating``."""
    import random

    rng = random.Random(seed)
    ent = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randrange(p)
            ent[i, j] = c
            ent[j, i] = (-c) % p
    return ent


@st.composite
def commutation_matrices(draw, primes=(2, 3, 5), min_n=1, max_n=5):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(min_n, max_n))
    count = n * (n - 1) // 2
    upper = draw(st.lists(st.integers(0, p - 1), min_size=count, max_size=count))
    return alternating_from_upper(p, n, upper)


def invertible_matrix(rng, d, p):
    """A uniformly random d x d matrix in GL(d, p), by rejection."""
    while True:
        u = rng.integers(0, p, size=(d, d))
        if sl.gf.rank(u, p) == d:
            return u


def planted_matrix(p, r, d, seed):
    """C = B (J_r + 0_d) B^T for an invertible B = L U with unit diagonals."""
    n = 2 * r + d
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    return sl.matrix_from_basis(sl.standard_form(p, r, d), lower @ upper % p)


@st.composite
def matrices_with_vectors(draw, k=2, primes=(2, 3, 5), max_n=5):
    mat = draw(commutation_matrices(primes=primes, max_n=max_n))
    vecs = [
        np.array(
            draw(st.lists(st.integers(0, mat.p - 1), min_size=mat.n, max_size=mat.n)),
            dtype=np.int64,
        )
        for _ in range(k)
    ]
    return (mat, *vecs)


def check_symplectic_relations(mat, basis):
    """Assert the defining relations of a hyperbolic-pair basis."""
    for i, ei in enumerate(basis.e):
        for j, fj in enumerate(basis.f):
            assert sl.omega(mat, ei, fj) == (1 if i == j else 0)
    for a in basis.e:
        for b in basis.e:
            assert sl.omega(mat, a, b) == 0
    for a in basis.f:
        for b in basis.f:
            assert sl.omega(mat, a, b) == 0
    for k in basis.kernel.astype(np.int64):
        assert not ((mat.entries @ k) % mat.p).any()


def dense_commutant_dim(rep):
    """Commutant dimension from the stacked complex linear system, for
    tiny dims only (memory O(dim^4), time O(dim^6)).

    Candidate null directions come from the eigendecomposition of the
    normal matrix sum_k A_k^* A_k; each candidate's true stacked
    singular value is then measured as a direct residual norm (the
    normal equations alone would square the threshold into the noise
    floor).  Singular values below 1e-8 * dim count as zero.
    """
    n_dim = rep.dim
    dense = [sl.to_dense(g) for g in rep.generators]
    eye = np.eye(n_dim)
    s = np.zeros((n_dim * n_dim, n_dim * n_dim), dtype=np.complex128)
    for u in dense:
        a = np.kron(u, eye) - np.kron(eye, u.T)
        s += a.conj().T @ a
    lam, vecs = np.linalg.eigh(s)
    tau = 1e-8 * n_dim
    cut = max(tau * tau, 64 * np.finfo(float).eps * float(lam[-1]))
    count = 0
    for idx in np.nonzero(lam < cut)[0]:
        x = vecs[:, idx].reshape(n_dim, n_dim)
        residual_sq = sum(
            np.linalg.norm(u @ x - x @ u, "fro") ** 2 for u in dense
        )
        if np.sqrt(residual_sq) < tau:
            count += 1
    return count


def commutant_dim_union_find(rep):
    """``commutant_dim`` by a union-find with phase offsets mod p^2, one
    generator at a time: the exact oracle at every dim the package allows.

    Every node points straight at the root of its class and pot[u] is its
    phase relative to that root, X[u] = zeta^pot[u] X[parent[u]].  Each
    hooking round hooks every root with a linked root of smaller index
    under the smallest one, with the phase of one such link, and pointer
    doubling then flattens the trees; a link whose ends share a root but
    whose phases disagree marks its class broken.
    """
    dim, p2 = rep.dim, rep.mat.p ** 2
    nodes = dim * dim
    parent = np.arange(nodes)
    pot = np.zeros(nodes, dtype=np.int64)
    broken = np.zeros(nodes, dtype=bool)
    for perm, phases in zip(rep.perm, rep.phases):
        target = (perm[:, None] * dim + perm[None, :]).reshape(-1)
        offset = (phases[:, None] - phases[None, :]).reshape(-1)
        while True:
            root_of_target = parent[target]
            u = np.flatnonzero(parent != root_of_target)
            if not u.size:
                break
            a, b = parent[u], root_of_target[u]
            # X[b] = zeta^d X[a]; hook the larger root under the smaller one.
            d = pot[u] + offset[u] - pot[target[u]]
            hi, lo = np.maximum(a, b), np.minimum(a, b)
            d = np.where(b > a, d, -d) % p2  # X[hi] = zeta^d X[lo]
            best = np.full(nodes, nodes)
            np.minimum.at(best, hi, lo)
            cand = np.flatnonzero(lo == best[hi])
            # One link per hooked root, so that its parent and phase agree.
            pick = np.empty(nodes, dtype=np.int64)
            pick[hi[cand]] = cand
            win = cand[pick[hi[cand]] == cand]
            parent[hi[win]] = lo[win]
            pot[hi[win]] = d[win]
            while True:
                up = parent[parent]
                if np.array_equal(up, parent):
                    break
                pot = (pot + pot[parent]) % p2
                parent = up
        broken[parent[(pot + offset - pot[target]) % p2 != 0]] = True
    free = parent == np.arange(nodes)
    free[parent[broken]] = False
    return int(np.count_nonzero(free))


def word_matrix_fold(rep, x):
    """U_1^{x_1} ... U_n^{x_n} as a fold of mono_mul, one factor at a time."""
    acc = sl.mono_identity(rep.dim, rep.mat.p)
    for k, e in enumerate(np.asarray(x) % rep.mat.p):
        for _ in range(int(e)):
            acc = sl.mono_mul(acc, rep.generators[k])
    return acc


def verify_relations_pairwise(rep):
    """(pair_failures, order_failures) of ``verify_relations`` one pair at
    a time: U_i U_j against zeta^{c_ij} U_j U_i with mono_mul and
    mono_scale, and U_k^p against the identity as p factors of mono_mul."""
    p, n = rep.mat.p, rep.mat.n
    u = rep.generators
    pair_failures = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = sl.mono_mul(u[i], u[j])
            rhs = sl.mono_scale(sl.mono_mul(u[j], u[i]), p * int(rep.mat.entries[i, j]))
            if lhs != rhs:
                pair_failures.append((i, j))
    ident = sl.mono_identity(rep.dim, p)
    order_failures = []
    for k in range(n):
        acc = ident
        for _ in range(p):
            acc = sl.mono_mul(acc, u[k])
        if acc != ident:
            order_failures.append(k)
    return tuple(pair_failures), tuple(order_failures)


def mono_pow_loop(a, k):
    """a^k for k >= 0 as k factors of mono_mul."""
    acc = sl.mono_identity(a.dim, a.p)
    for _ in range(k):
        acc = sl.mono_mul(acc, a)
    return acc


def word_pow_loop(w, k):
    """w^k for k >= 0 as k factors of word_mul."""
    acc = sl.identity_word(w.mat)
    for _ in range(k):
        acc = sl.word_mul(acc, w)
    return acc


def evaluate_invariant_loop(f, x):
    """f(x) by solving for the kernel coordinates and multiplying the plain
    basis words one at a time, picking up the reordering phase."""
    p = f.mat.p
    x = np.asarray(x, dtype=np.int64) % p
    if f.d:
        coords = gf_solve(np.stack(f.kernel_basis, axis=1), x, p)
    else:
        coords = None if x.any() else np.zeros(0, dtype=np.int64)
    if coords is None:
        return None
    acc = sl.identity_word(f.mat)
    stored = 0
    for a_i, k_i, v_i in zip(coords, f.kernel_basis, f.values):
        stored += int(a_i) * v_i
        for _ in range(int(a_i)):
            acc = sl.word_mul(acc, sl.Word(0, k_i, f.mat))
    assert np.array_equal(acc.x, x)
    return (stored - acc.phase) % (p * p)


def weyl_generators_fold(p, alpha, beta, mu):
    """Generator j = zeta^mu[j] (x)_i S^alpha[j,i] V^beta[j,i] as a fold of
    mono_pow, mono_mul and mono_tensor over the slots, one at a time."""
    s, v = sl.shift(p), sl.clock(p)
    gens = []
    for a_j, b_j, mu_j in zip(alpha, beta, mu):
        g = sl.mono_identity(1, p)
        for a, b in zip(a_j, b_j):
            slot = sl.mono_mul(sl.mono_pow(s, int(a)), sl.mono_pow(v, int(b)))
            g = sl.mono_tensor(g, slot)
        gens.append(sl.mono_scale(g, int(mu_j)))
    return gens


def reference_invariant_loop(mat):
    """Values of the canonical invariant by multiplying the modelled
    generators one factor at a time in pair coordinates: merging the
    accumulated (a, b) with a factor (alpha', beta') costs zeta^{-b.alpha'}."""
    p = mat.p
    basis = sl.symplectic_basis(mat)
    alpha, beta, mu = sl.words.pair_coordinates(mat, basis)
    values = []
    for k in basis.kernel:
        phase = 0
        acc_a = np.zeros(basis.r, dtype=np.int64)
        acc_b = np.zeros(basis.r, dtype=np.int64)
        for j in range(mat.n):
            for _ in range(int(k[j])):
                phase += int(mu[j]) - p * int(acc_b @ alpha[j])
                acc_a = (acc_a + alpha[j]) % p
                acc_b = (acc_b + beta[j]) % p
        assert not acc_a.any() and not acc_b.any()
        values.append(phase % (p * p))
    return tuple(values)


def rref_stepwise(mat, p):
    """RREF over GF(p) reducing the whole working block after every pivot:
    the pivot row is scaled, then the pivot column is cleared only in the
    rows where it is nonzero, gathered and scattered by index.  The oracle
    for the deferred-reduction ``gf.rref``."""
    r = np.asarray(mat, dtype=np.int64) % p
    m, n = r.shape
    pivot_cols = []
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


def gf_solve(mat, b, p):
    """One solution x of mat x = b over GF(p) from ``gf.rref`` of [mat | b],
    or None if inconsistent; free variables are zero, so the choice is
    deterministic.  The oracle for kernel coordinates and for the gamma
    tables of ``realize_invariant``."""
    mat = sl.gf.as_gf_array(mat, p)
    b = sl.gf.as_gf_array(b, p)
    m, n = mat.shape
    if b.shape != (m,):
        raise ValueError(f"rhs length {b.shape} does not match {m} rows")
    r, pivots = sl.gf.rref(np.concatenate([mat, b.reshape(m, 1)], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = r[: len(pivots), n]
    return x


def gf_inverse(mat, p):
    """Inverse of a square matrix over GF(p) from ``gf.rref`` of [mat | I];
    raises ValueError if it is singular."""
    mat = sl.gf.as_gf_array(mat, p)
    m, n = mat.shape
    if m != n:
        raise ValueError("only square matrices can be inverted")
    r, pivots = sl.gf.rref(np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(p)")
    return r[:, n:]


def prefix_ranks_loop(mat):
    """Form rank of every leading k x k block, one elimination each: the
    oracle for ``forms.prefix_ranks``."""
    return [sl.gf.rank(mat.prefix(k).entries, mat.p) for k in range(1, mat.n + 1)]


def kernel_rows_loop(entries, p):
    """The basis of {v : Mv = 0} built one vector per free column of the
    RREF (``rref_stepwise``), in increasing column order: 1 at its free
    column and the negated RREF entries at the pivot columns.  A list of
    vectors, the oracle of ``forms.form_kernel``."""
    r, pivots = rref_stepwise(entries, p)
    n = r.shape[1]
    out = []
    for j in range(n):
        if j in pivots:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = -r[i, j] % p
        out.append(v)
    return out


def symplectic_pass_loop(mat, e, f, u):
    """Symplectic Gram-Schmidt in coordinate order, one vector at a time,
    resumed from pairs (e, f) and a radical basis u of the leading block
    (lists of length-n vectors): the oracle of ``forms._symplectic_pass``.
    Returns lists of vectors (e, f, kernel); the kernel is
    ``kernel_rows_loop`` of C, the normal form the pass gives its radical."""
    p, n = mat.p, mat.n
    e, f, u = list(e), list(f), list(u)

    def om(x, y):
        return int(x @ mat.entries @ y) % p

    for k in range(2 * len(e) + len(u), n):
        unit = np.zeros(n, dtype=np.int64)
        unit[k] = 1
        v = unit
        for ei, fi in zip(e, f):
            v = (v - om(unit, fi) * ei + om(unit, ei) * fi) % p
        ws = [om(uj, v) for uj in u]
        j = next((j for j, wj in enumerate(ws) if wj), None)
        if j is None:
            u.append(v)
            continue
        inv = pow(ws[j], -1, p)
        e.append(u[j])
        f.append(v * inv % p)
        u = [(ui - ws[i] * inv * u[j]) % p for i, ui in enumerate(u) if i != j]
    return e, f, kernel_rows_loop(mat.entries, p)


def symplectic_pass_two_arrays(mat, start, r):
    """The symplectic pass with C times every state vector kept beside it:
    two n x n int32 arrays w and C w, two int32 matrix-vector products per
    step and a rank-1 update of both arrays per pair.  The oracle of
    ``forms._symplectic_pass``, which computes only row k of C w at step k;
    returns (SymplecticBasis, ranks) as it does."""
    n, p = mat.n, mat.p
    n_old, k0 = start.shape
    w = np.zeros((n, n), dtype=np.int32)
    cw = np.zeros((n, n), dtype=np.int32)
    w[:n_old, :k0] = start
    if k0:
        cw[:, :k0] = mat.entries.astype(np.int64) @ w[:, :k0] % p
    ranks = []
    for k in range(k0, n):
        pairs = 2 * r
        c = cw[k, :pairs].reshape(r, 2)[:, ::-1].flatten()
        c[0::2] *= -1
        v = w[: k + 1, :pairs] @ c
        v[k] += 1
        cv = cw[:, :pairs] @ c + mat.entries[:, k].astype(np.int64)
        wu = -cw[k, pairs:k] % p
        nz = np.flatnonzero(wu)
        if nz.size:
            i = int(nz[0])
            inv = pow(int(wu[i]), -1, p)
            t = np.delete(wu * inv % p, i)
            rest = np.delete(np.arange(pairs, k), i)
            u_new = (w[:k, rest] - np.outer(w[:k, pairs + i], t)) % p
            cu_new = (cw[:, rest] - np.outer(cw[:, pairs + i], t)) % p
            w[:k, pairs], cw[:, pairs] = w[:k, pairs + i], cw[:, pairs + i]
            w[: k + 1, pairs + 1], cw[:, pairs + 1] = v % p * inv % p, cv % p * inv % p
            w[:k, pairs + 2 : k + 1], cw[:, pairs + 2 : k + 1] = u_new, cu_new
            r += 1
        else:
            w[: k + 1, k], cw[:, k] = v % p, cv % p
        ranks.append(2 * r)
    rows, pivots = sl.gf.rref(w[:, 2 * r :].T[:, ::-1], p)
    assert len(pivots) == n - 2 * r
    pairs = w[:, : 2 * r].T
    return sl.SymplecticBasis(pairs[0::2], pairs[1::2], rows[::-1, ::-1]), ranks


def symplectic_pass_row_at_a_time(mat, start, r):
    """The symplectic pass with the state vectors as the columns of one
    float64 n x n array w, and at step k one BLAS product of row k of C
    (from its first nonzero column) with w: the oracle of the blocked
    ``forms._symplectic_pass``; returns (SymplecticBasis, ranks) as it does.
    v is read by a gather and sign flip of row k of C w, the radical
    columns shift at each pairing, and values are reduced with float ``%``."""
    n, p = mat.n, mat.p
    n_old, k0 = start.shape
    lo = (mat.entries != 0).argmax(axis=1).tolist()  # 0 for a zero row
    swap = np.arange(n) ^ 1
    sign = np.resize(np.array([-1, 1]), n)
    w = np.zeros((n, n))
    w[:n_old, :k0] = start
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
            if i + 1 < ou.size:
                w[:k, pairs + i + 2 : k + 1] = (
                    w[:k, pairs + i + 1 : k] + ui[:, None] * (ou[i + 1 :] * inv)
                ).astype(np.int64) % p
            if i:
                w[:k, pairs + 2 : pairs + i + 2] = w[:k, pairs : pairs + i]
            w[:k, pairs] = ui
            w[: k + 1, pairs + 1] = v.astype(np.int64) * inv % p
            r += 1
        else:
            w[: k + 1, k] = v.astype(np.int64) % p
        ranks.append(2 * r)
    w = w.astype(np.int64)
    kernel = w[:, 2 * r :].T
    if k0:
        rows, pivots = sl.gf.rref(kernel[:, ::-1], p)
        assert len(pivots) == n - 2 * r
        kernel = rows[::-1, ::-1]
    pairs = w[:, : 2 * r].T
    return sl.SymplecticBasis(pairs[0::2], pairs[1::2], kernel), ranks


def canonical_grid_masks(data, n):
    """``formats._canonical_grid`` by whole-array masks over the bytes: a
    digit mask shifted by up to four places finds foreign bytes, four-digit
    tokens, leading zeros and token ends, and each value is read at its
    token's last digit and the two bytes before it.  The oracle of the
    grid reader."""
    b = np.frombuffer(data, dtype=np.uint8)
    digit = b - 48  # uint8: bytes below "0" wrap
    dig = np.zeros(b.size + 4, dtype=bool)  # dig[i + 3]: byte i is a digit
    dig[3:-1] = digit < 10
    val = np.zeros(b.size + 2, dtype=np.uint8)  # val[i + 2]: its value, else 0
    np.multiply(digit, dig[3:-1], out=val[2:])
    ends = np.flatnonzero(dig[3:-1] & ~dig[4:])
    rows = np.searchsorted(ends, np.flatnonzero(b == 10))  # tokens before each newline
    bad = ~(dig[3:-1] | (b == 32) | (b == 9) | (b == 10))  # a byte of another kind
    bad |= dig[3:-1] & dig[2:-2] & dig[1:-3] & dig[:-4]  # four digits
    bad |= (b == 48) & ~dig[2:-2] & dig[4:]  # a leading zero
    if (not ends.size or bad.any() or ends.size % n
            or not np.array_equal(rows, np.arange(n, ends.size, n))):
        return None
    hundreds = val[ends] * dig[2:-2][ends]  # if the tens are a digit
    grid = hundreds.astype(np.int64) * 100 + val[1:][ends] * 10 + val[2:][ends]
    return grid.reshape(-1, n)


def explicit_matrix_table(body, p, n, header_line):
    """The body of an explicit matrix file read token by token: a plain
    file's raw bytes, after line 1, are split into their nonblank lines, the
    row count is checked, canonical decimals of values in [0, p) map
    through a dict, the grid is checked by the CommutationMatrix
    constructor, and on any failure the rows are read again with ``int``
    and checked one by one; the oracle of ``formats._explicit_matrix``."""
    from spinlab.errors import MatrixFormatError
    from spinlab.formats import _ints

    if isinstance(body, bytes):  # only digits, spaces, tabs and newlines, the header on line 1
        lines = body.decode().split("\n")[1:]
        body = [(k, line.strip()) for k, line in enumerate(lines, start=2) if line.strip()]
    if len(body) != n:
        raise MatrixFormatError(
            f"expected {n} matrix rows, got {len(body)}", body[-1][0] if body else header_line
        )
    table = {str(v): v for v in range(p)}
    try:
        rows = [list(map(table.__getitem__, line.split())) for _, line in body]
        return sl.CommutationMatrix(p, np.array(rows, dtype=np.int64))
    except (KeyError, ValueError):
        pass
    rows = []
    for i, (lineno, line) in enumerate(body):
        row = _ints(line.split(), lineno)
        if len(row) != n:
            raise MatrixFormatError(f"row has {len(row)} entries, expected {n}", lineno)
        for v in row:
            if not 0 <= v < p:
                raise MatrixFormatError(f"entry {v} out of range [0, {p})", lineno)
        if row[i]:
            raise MatrixFormatError("diagonal entry must be zero", lineno)
        rows.append(row)
    grid = np.array(rows, dtype=np.int64)
    bad = np.argwhere((grid + grid.T) % p)
    if bad.size:
        i, j = bad[0].tolist()
        raise MatrixFormatError(
            f"entry ({i}, {j}) breaks skew-symmetry c_ji = -c_ij", body[i][0]
        )
    return sl.CommutationMatrix(p, grid)
