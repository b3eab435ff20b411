"""Monomial matrices, representations, and verification oracles."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlab as sl
from spinlab import formats, forms
from spinlab.errors import InvariantError, SizeBoundError
from spinlab.reps import mono_mul, mono_pow, mono_scale, mono_tensor, to_dense

from conftest import (
    commutant_dim_union_find,
    commutation_matrices,
    dense_commutant_dim,
    enum_vectors,
    mono_pow_loop,
    reference_invariant_loop,
    verify_relations_pairwise,
    weyl_generators_fold,
    word_matrix_fold,
)

PAULI = sl.commutation_matrix(2, [[0, 1], [1, 0]])
CLIFF3 = sl.clifford_matrix(2, 3)


# --- clock and shift -------------------------------------------------------


def test_clock_shift_p2_are_pauli_z_and_x():
    assert np.allclose(to_dense(sl.clock(2)), np.diag([1, -1]))
    assert np.allclose(to_dense(sl.shift(2)), np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_clock_shift_relations(p):
    s, v = sl.shift(p), sl.clock(p)
    ident = sl.mono_identity(p, p)
    assert mono_pow(s, p) == ident
    assert mono_pow(v, p) == ident
    for k in range(p):
        assert mono_mul(s, mono_pow(v, k)) == mono_scale(
            mono_mul(mono_pow(v, k), s), p * k
        )


# --- monomial arithmetic vs dense oracle -----------------------------------


def _random_monomial(p, dim, rng):
    perm = rng.permutation(dim)
    phases = rng.integers(0, p * p, size=dim)
    return sl.MonomialMatrix(p, perm, phases)


@settings(deadline=None, max_examples=50)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_mono_ops_match_dense(p, dim, seed):
    rng = np.random.default_rng(seed)
    a = _random_monomial(p, dim, rng)
    b = _random_monomial(p, dim, rng)
    assert np.allclose(to_dense(mono_mul(a, b)), to_dense(a) @ to_dense(b))
    assert np.allclose(to_dense(mono_tensor(a, b)), np.kron(to_dense(a), to_dense(b)))
    assert np.allclose(to_dense(mono_pow(a, 3)), np.linalg.matrix_power(to_dense(a), 3))
    assert np.allclose(
        to_dense(sl.mono_inverse(a)) @ to_dense(a), np.eye(dim)
    )


def _revalidated(m):
    """m rebuilt through the full MonomialMatrix check."""
    return sl.MonomialMatrix(m.p, np.array(m.perm), np.array(m.phases))


def _check_composed(m):
    """A composed result is frozen, int64, reduced mod p^2, and equal to
    itself rebuilt with the full check."""
    assert m.perm.dtype == m.phases.dtype == np.int64
    assert not m.perm.flags.writeable and not m.phases.flags.writeable
    assert ((0 <= m.phases) & (m.phases < m.p ** 2)).all()
    assert _revalidated(m) == m


@settings(deadline=None, max_examples=50)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 6),
    st.integers(0, 2 ** 32 - 1),
    st.integers(-100, 100),
)
def test_composed_results_pass_full_validation(p, dim, seed, exp):
    rng = np.random.default_rng(seed)
    a = _random_monomial(p, dim, rng)
    b = _random_monomial(p, dim, rng)
    for m in (
        mono_mul(a, b),
        mono_scale(a, exp),
        mono_tensor(a, b),
        sl.mono_inverse(a),
        mono_pow(a, 3),
    ):
        _check_composed(m)


@pytest.mark.parametrize(
    "perm,match",
    [([-1, 0], "range"), ([0, 5], "range"), ([1, 1], "permutation")],
)
def test_monomial_rejects_non_permutations(perm, match):
    with pytest.raises(ValueError, match=match):
        sl.MonomialMatrix(2, perm, [0, 0])


@pytest.mark.parametrize(
    "product,a,b,match",
    [
        (mono_mul, sl.shift(2), sl.mono_identity(4, 2), "dimension or modulus mismatch"),
        (mono_mul, sl.shift(2), sl.mono_identity(2, 3), "dimension or modulus mismatch"),
        (mono_tensor, sl.shift(2), sl.mono_identity(2, 3), "modulus mismatch"),
    ],
)
def test_mono_products_refuse_mismatched_operands(product, a, b, match):
    with pytest.raises(ValueError, match=match):
        product(a, b)


@pytest.mark.parametrize(
    "perm,phases",
    [([0.9, 1.2], [0.5, 3.7]), ([0, 1], [0.5, 3.7]), ([1.0, 0.0], [0, 0]), ([0, 1], [1j, 0])],
)
def test_monomial_rejects_non_integers(perm, phases):
    # int64 coercion would truncate these to a valid matrix
    with pytest.raises(ValueError, match="integer"):
        sl.MonomialMatrix(2, perm, phases)


def test_word_matrix_rejects_non_integer_exponents():
    rep = sl.prop11_rep(sl.clifford_matrix(2, 3))
    with pytest.raises(ValueError, match="integer"):
        sl.word_matrix(rep, [0.5, 1.7, 2.2])


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_mono_pow_matches_the_loop(p, dim, seed):
    a = _random_monomial(p, dim, np.random.default_rng(seed))
    for k in range(3 * p + 1):
        assert mono_pow(a, k) == mono_pow_loop(a, k)
        assert mono_pow(a, -k) == mono_pow_loop(sl.mono_inverse(a), k)
    # square-and-multiply, a loop over the bits of |k|, reaches huge
    # exponents of either sign: the clock and the shift have order p
    for g in (sl.clock(p), sl.shift(p)):
        for k in (10 ** 18, 2 ** 1200, -(2 ** 1200)):
            assert mono_pow(g, k) == mono_pow(g, k % p)


def test_is_scalar():
    ident = sl.mono_identity(3, 3)
    assert sl.is_scalar(ident) == 0
    assert sl.is_scalar(mono_scale(ident, 4)) == 4
    # the exponent is reduced mod p^2 before the int64 add
    assert sl.is_scalar(mono_scale(ident, 2 ** 70)) == 2 ** 70 % 9
    assert sl.is_scalar(mono_scale(ident, -(2 ** 70))) == -(2 ** 70) % 9
    assert sl.is_scalar(sl.shift(3)) is None
    mixed = sl.MonomialMatrix(2, [0, 1], [0, 2])
    assert sl.is_scalar(mixed) is None


@pytest.mark.parametrize("exp", [0.5, 2.0, "1", None, np.float64(1.0)])
def test_mono_scale_rejects_non_integer_exponents(exp):
    # a float would give float phases, which is_scalar read as exponent 0
    with pytest.raises(ValueError, match="integer"):
        mono_scale(sl.mono_identity(3, 2), exp)
    assert sl.is_scalar(mono_scale(sl.mono_identity(3, 2), np.int64(5))) == 1


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
def test_mono_pow_rejects_non_integer_powers(k):
    with pytest.raises(ValueError, match="matrix power must be an integer"):
        mono_pow(sl.shift(3), k)
    assert mono_pow(sl.shift(3), np.int64(2)) == mono_pow(sl.shift(3), 2)


def test_mono_mul_identity_neutral():
    rng = np.random.default_rng(0)
    a = _random_monomial(3, 5, rng)
    assert mono_mul(a, sl.mono_identity(5, 3)) == a
    assert mono_mul(sl.mono_identity(5, 3), a) == a


def test_mono_tensor_shift_clock_perm_structure():
    t = mono_tensor(sl.shift(2), sl.clock(2))
    # shift on the first (most significant) factor only
    assert t.perm.tolist() == [2, 3, 0, 1]


# --- prop11 construction ----------------------------------------------------


def test_prop11_pauli_generators_frozen():
    rep = sl.prop11_rep(PAULI)
    x = np.array([[0, 1], [1, 0]])
    z = np.diag([1, -1])
    eye = np.eye(2)
    assert np.allclose(to_dense(rep.generators[0]), np.kron(x, eye))
    assert np.allclose(to_dense(rep.generators[1]), np.kron(z, x))
    assert sl.verify_relations(rep).ok


def test_prop11_zero_matrix_commuting_generators():
    mat = sl.commutation_matrix(2, np.zeros((2, 2), dtype=int))
    rep = sl.prop11_rep(mat)
    x = np.array([[0, 1], [1, 0]])
    eye = np.eye(2)
    assert np.allclose(to_dense(rep.generators[0]), np.kron(x, eye))
    assert np.allclose(to_dense(rep.generators[1]), np.kron(eye, x))
    assert sl.verify_relations(rep).ok


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2)])
def test_prop11_relations_grid(p, n):
    rep = sl.prop11_rep(sl.random_alternating(p, n, seed=p * 100 + n))
    assert rep.dim == p ** n
    assert sl.verify_relations(rep).ok


def test_prop11_faithfulness_small():
    for mat in (CLIFF3, sl.random_alternating(2, 4, 9), sl.random_alternating(3, 3, 2)):
        rep = sl.prop11_rep(mat)
        for x in enum_vectors(mat.p, mat.n):
            scalar = sl.is_scalar(sl.word_matrix(rep, x))
            assert (scalar is not None) == (not x.any())


def test_prop11_size_bound():
    with pytest.raises(SizeBoundError):
        sl.prop11_rep(sl.clifford_matrix(2, 8), max_dim=100)


def _ladder_tables(mat):
    """Exponent tables of the tensor ladder, slot by slot: generator k has
    the clock to the power c_ik in slot i < k and the shift in slot k."""
    n = mat.n
    alpha = np.zeros((n, n), dtype=np.int64)
    beta = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        alpha[k, k] = 1
        for i in range(k):
            beta[k, i] = mat.entries[i, k]
    return alpha, beta, np.zeros(n, dtype=np.int64)


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(max_n=5))
def test_prop11_matches_mono_tensor_fold(mat):
    if mat.p ** mat.n > 729:
        return
    expected = weyl_generators_fold(mat.p, *_ladder_tables(mat))
    assert list(sl.prop11_rep(mat).generators) == expected


@pytest.mark.parametrize(
    "build", ["prop11", "irreducible", "phase_shift", "loaded", "constructor"]
)
@pytest.mark.parametrize("p,n", [(2, 7), (3, 4), (5, 3)])
def test_constructions_validate_their_stack_once(monkeypatch, build, p, n):
    # One permutation check of the whole (n, dim) stack, and no generator
    # validated on its own.
    mat = sl.random_alternating(p, n, seed=n)
    rep = sl.irreducible_rep(mat)
    doc = formats.representation_to_dict(rep)
    builds = {
        "prop11": lambda: sl.prop11_rep(mat),
        "irreducible": lambda: sl.irreducible_rep(mat),
        "phase_shift": lambda: sl.phase_shift_rep(rep, np.ones(n, dtype=int)),
        "loaded": lambda: formats.representation_from_dict(doc, mat),
        "constructor": lambda: sl.Representation(mat, rep.generators),
    }
    checks = []
    check_stack = sl.reps._check_stack

    def counting(perm, phases):
        checks.append(perm.shape)
        check_stack(perm, phases)

    monkeypatch.setattr(sl.reps, "_check_stack", counting)
    built = builds[build]()
    assert checks == [(n, built.dim)]
    assert built.perm.shape == built.phases.shape == (n, built.dim)
    assert not built.perm.flags.writeable and not built.phases.flags.writeable
    for k, g in enumerate(built.generators):
        assert np.shares_memory(g.perm, built.perm)  # a row view, not a copy
        assert np.shares_memory(g.phases, built.phases)
        assert np.array_equal(g.perm, built.perm[k])


def test_zero_dimension_is_refused():
    # A 0 x 0 generator would reach is_scalar, word_matrix, extract_invariant,
    # verify_relations and commutant_dim; every construction refuses it.
    with pytest.raises(ValueError, match="dimension >= 1"):
        sl.MonomialMatrix(2, [], [])
    with pytest.raises(ValueError, match="dimension >= 1"):
        sl.mono_identity(0, 2)
    empty = np.zeros((2, 0), dtype=np.int64)
    with pytest.raises(ValueError, match="dimension >= 1"):
        sl.Representation.from_stack(PAULI, empty, empty.copy())


# --- word matrices ----------------------------------------------------------


def test_word_matrix_zero_vector_is_identity():
    rep = sl.prop11_rep(CLIFF3)
    assert sl.word_matrix(rep, np.zeros(3, dtype=int)) == sl.mono_identity(8, 2)


@settings(deadline=None, max_examples=30)
@given(commutation_matrices(max_n=4), st.integers(0, 2 ** 32 - 1))
def test_word_matrix_weyl_transport(mat, seed):
    # W_x W_y = zeta^{Q(x,y)} W_{x+y} inside any exact representation
    rep = sl.prop11_rep(mat)
    rng = np.random.default_rng(seed)
    p2 = mat.p ** 2
    for _ in range(5):
        x = rng.integers(0, mat.p, size=mat.n)
        y = rng.integers(0, mat.p, size=mat.n)
        lhs = mono_mul(sl.word_matrix(rep, x), sl.word_matrix(rep, y))
        rhs = mono_scale(
            sl.word_matrix(rep, (x + y) % mat.p),
            (mat.p * sl.q_form(mat, x, y)) % p2,
        )
        assert lhs == rhs


@st.composite
def word_representations(draw):
    """prop11 and irreducible representations, and loaded monomial
    generator sets of up to 8 generators whose orders need not be p."""
    kind = draw(st.sampled_from(["prop11", "irreducible", "loaded"]))
    if kind != "loaded":
        mat = draw(commutation_matrices(max_n=6))
        if kind == "prop11" and mat.p ** mat.n <= 729:
            return sl.prop11_rep(mat)
        return sl.irreducible_rep(mat)
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gens = tuple(_random_monomial(p, dim, rng) for _ in range(n))
    mat = sl.commutation_matrix(p, np.zeros((n, n), dtype=int))
    return sl.Representation(mat, gens)


@settings(deadline=None, max_examples=80)
@given(
    word_representations(),
    st.sampled_from([1, 64, 1024, sl.reps.WORD_TABLE_ENTRIES]),
    st.integers(0, 2 ** 32 - 1),
)
def test_word_matrix_matches_mono_mul_fold(rep, budget, seed):
    # Budget 1 leaves no table (the direct fold); the others give from
    # one chunk per generator up to one chunk of all n.
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl.reps, "WORD_TABLE_ENTRIES", budget)
        for _ in range(5):
            x = rng.integers(0, 3 * rep.mat.p, size=rep.mat.n)  # reduced mod p
            w = sl.word_matrix(rep, x)
            assert w == word_matrix_fold(rep, x)
            _check_composed(w)


@pytest.mark.parametrize(
    "n,p,dim,widths",
    [
        (14, 2, 16, [7, 7]),
        (9, 3, 9, [5, 4]),
        (3, 2, 2, [3]),
        (10, 2, 16, [10]),
        (13, 2, 256, [5, 4, 4]),
        (10, 2, 1024, []),
    ],
)
def test_word_table_stays_within_budget(n, p, dim, widths):
    # The fewest chunks whose whole table fits, and no table at all when
    # even one-generator chunks (n p dim entries) do not.
    assert sl.reps._chunk_widths(n, p, dim) == widths
    rng = np.random.default_rng(n)
    gens = tuple(_random_monomial(p, dim, rng) for _ in range(n))
    mat = sl.commutation_matrix(p, np.zeros((n, n), dtype=int))
    table = sl.Representation(mat, gens)._word_table
    if not widths:
        assert table is None
        return
    assert table.perm.shape == table.phases.shape
    assert table.perm.size <= sl.reps.WORD_TABLE_ENTRIES
    assert table.perm.nbytes + table.phases.nbytes <= 256 * 1024
    assert table.weights.shape == (n, len(widths))


def test_word_matrix_builds_one_monomial_matrix(monkeypatch):
    # Counts validated constructions and composed results alike, with the
    # word table and without it.
    rep = sl.prop11_rep(sl.random_alternating(3, 4, seed=2))
    built = []
    post_init = sl.MonomialMatrix.__post_init__
    composed = sl.reps._composed

    def counting(self):
        built.append(1)
        post_init(self)

    def counting_composed(*args):
        built.append(1)
        return composed(*args)

    monkeypatch.setattr(sl.MonomialMatrix, "__post_init__", counting)
    monkeypatch.setattr(sl.reps, "_composed", counting_composed)
    for budget in (sl.reps.WORD_TABLE_ENTRIES, 1):
        monkeypatch.setattr(sl.reps, "WORD_TABLE_ENTRIES", budget)
        fresh = sl.Representation(rep.mat, rep.generators)
        for x in ([2, 1, 2, 2], [0, 0, 0, 0], [1, 0, 0, 2]):
            built.clear()
            sl.word_matrix(fresh, x)
            assert len(built) == 1
        assert (fresh._word_table is None) == (budget == 1)


def test_one_chunk_word_matrix_is_a_frozen_view_of_the_table():
    # A word that one chunk covers is the table's own rows: never a
    # writable alias, and what is built from it shares no table memory.
    rep = sl.irreducible_rep(sl.random_alternating(2, 6, seed=4))
    table = rep._word_table
    assert table.weights.shape[1] == 1
    before = table.perm.tobytes(), table.phases.tobytes()
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 2, size=(100, rep.mat.n)):
        w = sl.word_matrix(rep, x)
        assert np.shares_memory(w.perm, table.perm)
        assert np.shares_memory(w.phases, table.phases)
        for a in (w.perm, w.phases):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
    assert (table.perm.tobytes(), table.phases.tobytes()) == before
    product = mono_mul(w, w)
    scaled = mono_scale(w, 3)
    for a in (product.perm, product.phases, scaled.phases):
        assert not np.shares_memory(a, table.perm)
        assert not np.shares_memory(a, table.phases)
    # mono_scale keeps the permutation it is given, read-only as it was
    assert scaled.perm is w.perm and not scaled.perm.flags.writeable
    _check_composed(product)
    _check_composed(scaled)


def test_representation_rejects_mixed_generators():
    with pytest.raises(ValueError, match="dimension"):
        sl.Representation(PAULI, (sl.shift(2), sl.mono_identity(4, 2)))
    with pytest.raises(ValueError, match="modulus"):
        sl.Representation(PAULI, (sl.shift(2), sl.mono_identity(2, 3)))


@pytest.mark.parametrize(
    "build",
    [
        lambda p: sl.CommutationMatrix(p, np.zeros((2, 2), dtype=np.int64)),
        lambda p: sl.MonomialMatrix(p, [1, 0], [5, 7]),
    ],
)
def test_modulus_is_an_exact_prime(build):
    for bad in (2.5, 3.9, "3", 0, 1, 4, -3):
        with pytest.raises(ValueError, match="modulus"):
            build(bad)
    m = build(np.int64(3))
    assert type(m.p) is int and m.p == 3


@pytest.mark.parametrize("count", [0, 1, 3])
def test_representation_rejects_wrong_generator_count(count):
    # PAULI has n = 2: one generator per qudit, no fewer and no more
    gens = (sl.shift(2),) * count
    with pytest.raises(ValueError, match=f"expected 2 generators, got {count}"):
        sl.Representation(PAULI, gens)


@pytest.mark.parametrize(
    "mat,rows",
    [(PAULI, []), (PAULI, [0]), (PAULI, [0, 1, 0]), (CLIFF3, [0, 1])],
)
def test_from_stack_rejects_wrong_generator_count(mat, rows):
    # checked before the stacks are read, so a short stack never reaches
    # verify_relations, word_matrix or extract_invariant
    rep = sl.irreducible_rep(mat)
    with pytest.raises(ValueError, match=f"expected {mat.n} generators, got {len(rows)}"):
        sl.Representation.from_stack(mat, rep.perm[rows], rep.phases[rows])


# --- irreducible construction -----------------------------------------------


def test_irreducible_pauli():
    rep = sl.irreducible_rep(PAULI)
    assert rep.dim == 2
    assert sl.verify_relations(rep).ok
    assert sl.commutant_dim(rep) == 1
    assert sl.extract_invariant(rep).values == ()


def _signed_pauli_search():
    """Brute-force oracle: all assignments of +-X, +-Y, +-Z (and +-iX...)
    to three generators that anticommute pairwise and square to 1,
    collecting the scalar of U1 U2 U3."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0 + 0j, -1.0 + 0j])
    candidates = [s * m for m in (x, y, z) for s in (1, -1)]
    scalars = set()
    for trio in itertools.permutations(range(6), 3):
        us = [candidates[t] for t in trio]
        if any(np.abs(us[a] @ us[b] + us[b] @ us[a]).max() > 1e-12
               for a, b in [(0, 1), (0, 2), (1, 2)]):
            continue
        prod = us[0] @ us[1] @ us[2]
        val = prod[0, 0]
        assert np.abs(prod - val * np.eye(2)).max() < 1e-12
        scalars.add(complex(round(val.real, 6) + 1j * round(val.imag, 6)))
    return scalars


def test_irreducible_clifford3_realizes_both_classes():
    # oracle: dim-2 anticommuting triples only ever give U1 U2 U3 = +-i
    assert _signed_pauli_search() == {1j, -1j}
    f0 = sl.reference_invariant(CLIFF3)
    for target_exp, expected in ((1, 1j), (3, -1j)):
        f = sl.StandardInvariant(CLIFF3, f0.kernel_basis, (target_exp,))
        rep = sl.irreducible_rep(CLIFF3, f)
        assert rep.dim == 2
        assert sl.verify_relations(rep).ok
        prod = to_dense(sl.word_matrix(rep, [1, 1, 1]))
        assert np.allclose(prod, expected * np.eye(2))
        assert sl.extract_invariant(rep) == f


@pytest.mark.parametrize("p,pattern,n", [(2, [1, 1], 4), (3, [1, 2], 5)])
@pytest.mark.parametrize("band_first", [True, False])
def test_irreducible_rep_takes_an_invariant_of_an_equal_matrix(p, pattern, n, band_first):
    band = sl.toeplitz_matrix(p, pattern, n)
    copy = sl.commutation_matrix(p, band.entries)
    target, reference = (band, copy) if band_first else (copy, band)
    f = sl.phase_shift_invariant(sl.reference_invariant(reference), [1] + [0] * (n - 1))
    rep = sl.irreducible_rep(target, f)
    assert sl.verify_relations(rep).ok and sl.commutant_dim(rep) == 1
    assert sl.extract_invariant(rep) == f and f == sl.extract_invariant(rep)
    # equal matrices give equal reports, the rank table included
    band_report, copy_report = sl.structure_report(band), sl.structure_report(copy)
    assert band_report.prefix_ranks == copy_report.prefix_ranks == tuple(forms.prefix_ranks(copy)[1])
    assert band_report.infinite_rank_conjectured == copy_report.infinite_rank_conjectured
    assert band_report.kernel_basis.tobytes() == copy_report.kernel_basis.tobytes()


def test_irreducible_scalar_rep():
    mat = sl.commutation_matrix(2, [[0]])
    f = sl.StandardInvariant(mat, (np.array([1]),), (2,))  # f(u1) = -1
    rep = sl.irreducible_rep(mat, f)
    assert rep.dim == 1
    assert np.allclose(to_dense(rep.generators[0]), [[-1]])


def test_irreducible_round_trip_random():
    rng = np.random.default_rng(5)
    for seed in range(15):
        mat = sl.random_alternating(2, 6, seed)
        f0 = sl.reference_invariant(mat)
        flip = rng.integers(0, 2, size=f0.d)
        target = sl.StandardInvariant(
            mat, f0.kernel_basis,
            tuple((v + 2 * int(b)) % 4 for v, b in zip(f0.values, flip)),
        )
        rep = sl.irreducible_rep(mat, target)
        assert rep.dim == 2 ** (sl.form_rank(mat) // 2)
        assert sl.verify_relations(rep).ok
        assert sl.extract_invariant(rep) == target
        for k in f0.kernel_basis:
            assert sl.is_scalar(sl.word_matrix(rep, k)) is not None


def test_irreducible_rejects_bad_invariant():
    f0 = sl.reference_invariant(CLIFF3)
    bad = sl.StandardInvariant(CLIFF3, f0.kernel_basis, (0,))  # violates square law
    with pytest.raises(InvariantError, match="square"):
        sl.irreducible_rep(CLIFF3, bad)


@settings(deadline=None, max_examples=60)
@given(
    commutation_matrices(primes=(3, 5, 7), max_n=6),
    st.integers(0, 2 ** 32 - 1),
)
def test_irreducible_odd_p_retargeting(mat, seed):
    # any target that differs from the canonical invariant by multiples of
    # p on the kernel basis is realized exactly; any other is refused
    p = mat.p
    f0 = sl.reference_invariant(mat)
    canonical = sl.irreducible_rep(mat)
    assert list(sl.irreducible_rep(mat, f0).generators) == list(canonical.generators)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, p, size=f0.d)
    target = sl.StandardInvariant(
        mat, f0.kernel_basis, tuple(v + p * int(s) for v, s in zip(f0.values, shift))
    )
    rep = sl.irreducible_rep(mat, target)
    assert sl.extract_invariant(rep) == target
    assert sl.verify_relations(rep).ok
    if rep.dim <= 64:
        assert sl.commutant_dim(rep) == 1
    if f0.d:
        off = rng.integers(1, p)  # not a multiple of p
        i = int(rng.integers(0, f0.d))
        values = list(target.values)
        values[i] += int(off)
        with pytest.raises(InvariantError, match="square"):
            sl.irreducible_rep(mat, sl.StandardInvariant(mat, f0.kernel_basis, values))


def test_irreducible_size_bound(monkeypatch):
    # refused on the basis, before the Gram product of the model's invariant
    mat = sl.clifford_matrix(2, 10)
    target = sl.reference_invariant(mat)

    def gram_product(*args):
        raise AssertionError("the model's invariant was built before the size check")

    monkeypatch.setattr(sl.words, "_reordering_exponent", gram_product)
    with pytest.raises(SizeBoundError):
        sl.irreducible_rep(mat, target, max_dim=8)


@pytest.mark.parametrize("mat", [CLIFF3, sl.random_alternating(3, 7, seed=2)], ids=["p2", "p3"])
def test_irreducible_without_a_target_builds_no_model_invariant(mat, monkeypatch):
    # with no target the canonical phases are used as they are: no Gram
    # product and no kernel frame
    f0 = sl.reference_invariant(mat)

    def unused(*args):
        raise AssertionError("the model's invariant was built without a target")

    monkeypatch.setattr(sl.words, "_reordering_exponent", unused)
    monkeypatch.setattr(sl.words, "_KernelFrame", unused)
    rep = sl.irreducible_rep(mat)
    monkeypatch.undo()
    assert sl.extract_invariant(rep) == f0


def test_irreducible_generator_entries_bound():
    # dim 2^20 is within the default bound, but two (66, 2^20) int64 stacks
    # would take 1.1 GB: 66 generators pass 64 max_dim entries
    with pytest.raises(SizeBoundError, match="66 x 1048576 entries > bound 67108864"):
        sl.irreducible_rep(sl.standard_form(2, 20, 26))


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(max_n=6), st.integers(0, 2 ** 32 - 1))
def test_irreducible_matches_mono_tensor_fold(mat, seed):
    alpha, beta, mu = sl.words.pair_coordinates(mat, sl.symplectic_basis(mat))
    f0 = sl.reference_invariant(mat)
    gamma = np.random.default_rng(seed).integers(0, mat.p, size=mat.n)
    target = sl.phase_shift_invariant(f0, gamma)
    mu = mu + mat.p * sl.realize_invariant(target, f0)
    rep = sl.irreducible_rep(mat, target)
    assert list(rep.generators) == weyl_generators_fold(mat.p, alpha, beta, mu)


@settings(deadline=None, max_examples=80)
@given(commutation_matrices(max_n=6), st.integers(0, 2 ** 32 - 1))
def test_irreducible_invariant_is_the_closed_form(mat, seed):
    rep = sl.irreducible_rep(mat)
    f0 = sl.reference_invariant(mat)
    assert sl.extract_invariant(rep) == f0
    assert f0.values == reference_invariant_loop(mat)
    if mat.p == 2:
        # a random sign flip of the canonical class comes back exactly
        flip = np.random.default_rng(seed).integers(0, 2, size=f0.d)
        target = sl.StandardInvariant(
            mat, f0.kernel_basis,
            tuple((v + 2 * int(b)) % 4 for v, b in zip(f0.values, flip)),
        )
        shifted = sl.irreducible_rep(mat, target)
        assert sl.extract_invariant(shifted) == target


@st.composite
def planted_matrices(draw):
    """C = T^T (J_r + 0_d) T for a random invertible T = L U, with
    p^r <= 64 (the irreducible dimension) and p^d <= 125."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(0, {2: 6, 3: 3, 5: 2, 7: 2}[p]))
    d = draw(st.integers(0 if r else 1, {2: 6, 3: 4, 5: 3, 7: 2}[p]))
    n = 2 * r + d
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
    return sl.matrix_from_basis(sl.standard_form(p, r, d), lower @ upper % p)


@settings(deadline=None, max_examples=60)
@given(planted_matrices())
def test_every_enumerated_invariant_is_a_distinct_irreducible_class(mat):
    # the p^d invariants reference + p theta are pairwise distinct, obey
    # the p-th power law, and each is realised by an irreducible model
    p, d = mat.p, len(sl.form_kernel(mat))
    invariants = sl.enumerate_invariants(mat)
    assert len(invariants) == sl.count_classes(d, p)
    assert len({f.values for f in invariants}) == p ** d
    for f in invariants:
        assert sl.invariant_square_check(f)
        rep = sl.irreducible_rep(mat, f)
        assert sl.verify_relations(rep).ok
        assert sl.extract_invariant(rep) == f
        assert sl.commutant_dim(rep) == 1


def _count_passes(monkeypatch):
    """A list that gains one entry per symplectic pass from now on."""
    calls = []
    real = forms._symplectic_pass

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(forms, "_symplectic_pass", counting)
    return calls


def test_irreducible_rep_eliminates_no_kernel(monkeypatch):
    # the kernel comes from the one pass that gives the pairs
    calls = _count_passes(monkeypatch)
    for p, n in ((2, 9), (3, 6), (5, 4)):
        mat = sl.random_alternating(p, n, seed=n)
        invariant = sl.reference_invariant(mat)
        calls.clear()
        sl.irreducible_rep(mat, invariant)
        assert calls == [1]


# --- extract / phase shift ---------------------------------------------------


def test_extract_invariant_round_trip():
    f0 = sl.reference_invariant(CLIFF3)
    f = sl.StandardInvariant(CLIFF3, f0.kernel_basis, (1,))
    assert sl.extract_invariant(sl.irreducible_rep(CLIFF3, f)) == f


def test_extract_invariant_reducible_raises():
    with pytest.raises(InvariantError, match="reducible"):
        sl.extract_invariant(sl.prop11_rep(CLIFF3))


def test_extract_invariant_empty_kernel():
    assert sl.extract_invariant(sl.prop11_rep(PAULI)).values == ()


def test_phase_shift_rep():
    f0 = sl.reference_invariant(CLIFF3)
    rep = sl.irreducible_rep(CLIFF3)
    same = sl.phase_shift_rep(rep, [0, 0, 0])
    assert all(a == b for a, b in zip(same.generators, rep.generators))
    shifted = sl.phase_shift_rep(rep, [1, 0, 0])
    assert sl.verify_relations(shifted).ok
    assert sl.extract_invariant(shifted) == sl.phase_shift_invariant(f0, [1, 0, 0])


def test_phase_shift_rep_preserves_relations_exhaustive():
    rep = sl.irreducible_rep(CLIFF3)
    for gamma in itertools.product(range(2), repeat=3):
        assert sl.verify_relations(sl.phase_shift_rep(rep, np.array(gamma))).ok


def test_phase_shift_rep_commutes_with_extract_exhaustive():
    # over all 2^n sign patterns up to n = 6, and all 3^5 shifts at p = 3
    for p, n, seed in ((2, 4, 3), (2, 6, 8), (3, 5, 2)):
        mat = sl.random_alternating(p, n, seed=seed)
        rep = sl.irreducible_rep(mat)
        f = sl.extract_invariant(rep)
        for gamma in itertools.product(range(p), repeat=n):
            gamma = np.array(gamma, dtype=np.int64)
            assert sl.extract_invariant(sl.phase_shift_rep(rep, gamma)) == (
                sl.phase_shift_invariant(f, gamma)
            )


def test_equivalence_coherence():
    # extracted invariants agree exactly when the relating gammas induce
    # the same functional on the kernel
    for n, seed in ((4, 5), (6, 11)):
        mat = sl.random_alternating(2, n, seed=seed)
        rep = sl.irreducible_rep(mat)
        kernel = sl.extract_invariant(rep).kernel_basis
        rng = np.random.default_rng(seed)
        for _ in range(40):
            g1 = rng.integers(0, 2, size=n)
            g2 = rng.integers(0, 2, size=n)
            inv_equal = sl.extract_invariant(sl.phase_shift_rep(rep, g1)) == (
                sl.extract_invariant(sl.phase_shift_rep(rep, g2))
            )
            assert inv_equal == sl.gammas_equivalent(g1, g2, kernel, 2)


# --- verify / commutant ------------------------------------------------------


@st.composite
def corrupted_representations(draw):
    """The representations of ``word_representations``, as built or with
    one fault: a phase changed, two perm entries of a generator swapped,
    or a generator times e^{2 pi i / p^2}, so of order p^2."""
    rep = draw(word_representations())
    p, n, dim = rep.mat.p, rep.mat.n, rep.dim
    perm, phases = np.array(rep.perm), np.array(rep.phases)
    k = draw(st.integers(0, n - 1))
    a, b = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    fault = draw(st.sampled_from(["none", "phase", "swap", "order"]))
    if fault == "phase":
        phases[k, a] += draw(st.integers(1, p * p - 1))
    elif fault == "swap":
        perm[k, [a, b]] = perm[k, [b, a]]
    elif fault == "order":
        phases[k] += 1
    return sl.Representation.from_stack(rep.mat, perm, phases)


@settings(deadline=None, max_examples=150)
@given(corrupted_representations(), st.sampled_from([1, 64, sl.gf.BLOCK_CELLS]))
def test_verify_relations_matches_pairwise_oracle(rep, budget):
    # Budget 1 checks one generator per block; the others block several.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl.gf, "BLOCK_CELLS", budget)
        report = sl.verify_relations(rep)
    assert (report.pair_failures, report.order_failures) == verify_relations_pairwise(rep)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([131, 251]), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_readers_widen_the_uint8_entries_at_large_primes(p, n, k, seed):
    # at p in {131, 251} the uint8 entries wrap in c_ij + c_ji, p c_ij and
    # p d c_ij, so every reader widens first.  The representations have p^n
    # and p^r dimensions: prop11_rep on the 2 x 2 prefix, irreducible_rep on
    # a random alternating matrix of rank 2r <= 4 (k random vectors under a
    # random k x k form)
    rng = np.random.default_rng(seed)
    mat = sl.random_alternating(p, n, seed)
    e = mat.entries.astype(np.int64)
    x, y = rng.integers(0, p, (2, n))
    assert sl.omega(mat, x, y) == x @ e @ y % p
    assert sl.q_form(mat, x, y) == x @ np.tril(e, -1) @ y % p
    assert formats.parse_matrix_file(formats.format_matrix_file(mat)).matrix == mat
    assert sl.verify_relations(sl.prop11_rep(mat.prefix(min(n, 2)))).ok
    low = sl.matrix_from_basis(sl.random_alternating(p, k, seed + 1), rng.integers(0, p, (n, k)))
    assert sl.verify_relations(sl.irreducible_rep(low)).ok


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([131, 251]), st.integers(1, 8), st.integers(1, 2), st.integers(0, 2 ** 32))
def test_readers_widen_the_uint8_bases_at_large_primes(p, n, k, seed):
    # bases, kernels and invariant bases are uint8, so at p in {131, 251} a
    # product of one with the entries, a basis or exponents wraps unless the
    # reader widens first.  The matrix has rank 2r <= 2 (k random vectors
    # under a random k x k form), so irreducible_rep has p^r dimensions and
    # the kernel at least n - 2 vectors
    rng = np.random.default_rng(seed)
    mat = sl.matrix_from_basis(sl.random_alternating(p, k, seed + 1), rng.integers(0, p, (n, k)))
    basis = sl.symplectic_basis(mat)
    old = sl.symplectic_basis(mat.prefix(1 + seed % n))
    grown = sl.extend_symplectic_basis(mat, old)
    assert old.e.dtype == np.uint8 and grown.kernel.tobytes() == basis.kernel.tobytes()
    assert np.array_equal(grown.e[: old.r, : old.e.shape[1]], old.e)
    for b in (basis, grown):
        t = b.column_matrix()
        assert t.dtype == np.int64
        assert np.array_equal(t.T @ mat.entries @ t % p, sl.standard_form(p, b.r, b.d).entries)
    rep, f = sl.irreducible_rep(mat), sl.reference_invariant(mat)
    assert f.kernel_basis.dtype == np.uint8
    assert f == sl.extract_invariant(rep) == sl.StandardInvariant(mat, f.kernel_basis, f.values)
    gamma = rng.integers(0, p, n)
    assert sl.phase_shift_invariant(f, gamma) == sl.extract_invariant(sl.phase_shift_rep(rep, gamma))
    doc = json.loads("".join(formats.json_pieces(formats.basis_doc(mat, basis))))
    assert [doc["e"], doc["f"], doc["kernel"]] == [basis.e.tolist(), basis.f.tolist(), basis.kernel.tolist()]


def test_verify_relations_reports_failures():
    x_tensor_eye = mono_tensor(sl.shift(2), sl.mono_identity(2, 2))
    bad = sl.Representation(PAULI, (x_tensor_eye, x_tensor_eye))
    report = sl.verify_relations(bad)
    assert not report.ok
    assert report.pair_failures == ((0, 1),)
    assert report.order_failures == ()


def test_commutant_dims():
    zero2 = sl.commutation_matrix(2, np.zeros((2, 2), dtype=int))
    assert sl.commutant_dim(sl.prop11_rep(zero2)) == 4
    assert sl.commutant_dim(sl.irreducible_rep(PAULI)) == 1
    one = sl.irreducible_rep(sl.commutation_matrix(2, [[0]]))
    assert one.dim == 1
    assert sl.commutant_dim(one) == 1


def test_commutant_size_bound(monkeypatch):
    big = sl.mono_identity(sl.reps.COMMUTANT_MAX_DIM + 1, 2)
    with pytest.raises(SizeBoundError):
        sl.commutant_dim(sl.Representation(sl.commutation_matrix(2, [[0]]), (big,)))
    rep = sl.prop11_rep(sl.clifford_matrix(2, 4))
    monkeypatch.setattr(sl.reps, "COMMUTANT_MAX_DIM", 8)
    with pytest.raises(SizeBoundError):
        sl.commutant_dim(rep)


@st.composite
def small_representations(draw):
    """Representations of dim <= 32: prop11 (mostly reducible),
    irreducible, and arbitrary monomial generator sets."""
    kind = draw(st.sampled_from(["prop11", "irreducible", "monomial"]))
    if kind == "prop11":
        p = draw(st.sampled_from([2, 3]))
        mat = draw(commutation_matrices(primes=(p,), max_n=4 if p == 2 else 2))
        return sl.prop11_rep(mat)
    if kind == "irreducible":
        return sl.irreducible_rep(draw(commutation_matrices(primes=(2, 3), max_n=6)))
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gens = []
    for _ in range(k):
        perm = rng.permutation(dim) if draw(st.booleans()) else np.arange(dim)
        phases = rng.integers(0, p * p, size=dim) * draw(st.sampled_from([0, 1]))
        gens.append(sl.MonomialMatrix(p, perm, phases))
    mat = sl.commutation_matrix(p, np.zeros((k, k), dtype=int))
    return sl.Representation(mat, tuple(gens))


@settings(deadline=None, max_examples=60)
@given(small_representations())
def test_commutant_matches_dense_oracle(rep):
    assert rep.dim <= 32  # the dense oracle is O(dim^4) in memory
    assert sl.commutant_dim(rep) == dense_commutant_dim(rep)


@pytest.mark.parametrize(
    "mat",
    [
        sl.random_alternating(2, 5, seed=4),
        sl.commutation_matrix(2, np.zeros((5, 5), dtype=int)),
        sl.random_alternating(3, 3, seed=1),
    ],
)
def test_commutant_matches_dense_oracle_prop11_dim_27_32(mat):
    rep = sl.prop11_rep(mat)
    assert sl.commutant_dim(rep) == dense_commutant_dim(rep)


@pytest.mark.parametrize(
    "mat,expected",
    [
        # abelian: p^n distinct characters, each once
        (sl.commutation_matrix(2, np.zeros((8, 8), dtype=int)), 256),
        (sl.commutation_matrix(3, np.zeros((5, 5), dtype=int)), 243),
        # full rank 2r = 8: 2^4 copies of the one 16-dim irreducible class
        (sl.standard_form(2, 4), 16 ** 2),
    ],
)
def test_commutant_prop11_beyond_float_range(mat, expected):
    assert sl.commutant_dim(sl.prop11_rep(mat)) == expected


def test_commutant_irreducible_dim_256():
    rep = sl.irreducible_rep(sl.random_alternating(2, 17, seed=1))
    assert rep.dim == 256
    assert sl.commutant_dim(rep) == 1


# Orbits far longer than the log of their number: a dim 1024 cyclic shift
# moves pair (x, y) to (x + 1, y + 1), whose commutant is the circulants;
# the third generator of the matrix below moves slot digit t to t + 1.
def test_commutant_long_cycles():
    perm = (np.arange(1024) + 1)[None] % 1024
    mat = sl.commutation_matrix(2, [[0]])
    rep = sl.Representation.from_stack(mat, perm, np.zeros_like(perm))
    assert sl.commutant_dim(rep) == 1024
    for p in (31, 251):
        rep = sl.irreducible_rep(sl.commutation_matrix(p, [[0, 1, 0], [p - 1, 0, 1], [0, p - 1, 0]]))
        assert rep.dim == p and ((rep.perm[2] - np.arange(p)) % p == 1).all()
        assert sl.commutant_dim(rep) == 1 == commutant_dim_union_find(rep)


@st.composite
def loaded_representations(draw):
    """Arbitrary monomial generator stacks, dim <= 64, p in {2, 3, 5, 7}:
    each perm the identity, a random permutation or a product of disjoint
    cycles of drawn lengths, each phase row zero, constant, random, or the
    coboundary h[perm] - h (so the generator is a permutation up to a
    diagonal conjugation, and its orbits stay consistent)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 64))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perm, phases = np.zeros((k, dim), dtype=np.int64), np.zeros((k, dim), dtype=np.int64)
    for j in range(k):
        kind = draw(st.sampled_from(["identity", "random", "cycles"]))
        if kind == "random":
            perm[j] = rng.permutation(dim)
        elif kind == "cycles":
            count = draw(st.integers(0, dim - 1))
            cuts = np.sort(rng.choice(np.arange(1, dim), count, replace=False))
            order = rng.permutation(dim)
            for cycle in np.split(order, cuts):
                perm[j, cycle] = np.roll(cycle, 1)
        else:
            perm[j] = np.arange(dim)
        h = rng.integers(0, p * p, size=dim)
        phases[j] = {
            "zero": 0,
            "constant": h[0],
            "random": h,
            "coboundary": h[perm[j]] - h,
        }[draw(st.sampled_from(["zero", "constant", "random", "coboundary"]))]
    mat = sl.commutation_matrix(p, np.zeros((k, k), dtype=int))
    return sl.Representation.from_stack(mat, perm, phases)


@settings(deadline=None, max_examples=200)
@given(loaded_representations(), st.sampled_from([1, sl.gf.BLOCK_CELLS]))
def test_commutant_matches_union_find_oracle(rep, budget):
    # Budget 1 joins one generator's links per block; the default joins all
    # of them (dim <= 64) in one.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl.gf, "BLOCK_CELLS", budget)
        got = sl.commutant_dim(rep)
    assert got == commutant_dim_union_find(rep)


# The slot tables [I | triu(C, 1)^T] of prop11_rep have rank n, so the
# commutant of its p^n-dimensional generators has dimension p^(2n - n).
@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (5, 4)])
def test_commutant_prop11_is_p_to_the_n(p, n):
    assert p ** n <= sl.reps.COMMUTANT_MAX_DIM
    zero = sl.commutation_matrix(p, np.zeros((n, n), dtype=int))
    for mat in [sl.random_alternating(p, n, seed=n), zero]:
        dim = sl.commutant_dim(sl.prop11_rep(mat))
        assert dim == p ** n and type(dim) is int  # a plain int, as JSON documents carry it


# --- matrix units ------------------------------------------------------------


def test_matrix_units_p2_standard():
    units = sl.matrix_units(sl.shift(2), sl.clock(2))
    e = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            e[i, j, i, j] = 1
    for i in range(2):
        for j in range(2):
            assert np.allclose(units[2 * i + j], e[i, j])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_units_relations(p):
    units = sl.matrix_units(sl.shift(p), sl.clock(p))
    assert len(units) == p * p
    for (i, j), (k, l) in itertools.product(
        itertools.product(range(p), repeat=2), repeat=2
    ):
        prod = units[i * p + j] @ units[k * p + l]
        expect = units[i * p + l] if j == k else np.zeros((p, p))
        assert np.abs(prod - expect).max() < 1e-10
    for i in range(p):
        for j in range(p):
            assert np.abs(units[i * p + j].conj().T - units[j * p + i]).max() < 1e-10
    total = sum(units[i * p + i] for i in range(p))
    assert np.abs(total - np.eye(p)).max() < 1e-10


def test_matrix_units_precondition_checked():
    with pytest.raises(ValueError, match="zeta"):
        sl.matrix_units(sl.shift(2), sl.shift(2))
    with pytest.raises(ValueError, match="order"):
        sl.matrix_units(
            sl.MonomialMatrix(2, [0, 1], [1, 0]), sl.clock(2)
        )


# --- structure report ---------------------------------------------------------


def test_structure_report_pauli():
    report = sl.structure_report(PAULI)
    assert (report.rank, report.kernel_dim) == (2, 0)
    assert report.descriptor == "M_2"
    assert report.simple
    assert report.class_count == 1
    assert report.center_dim == 1


def test_structure_report_clifford3():
    report = sl.structure_report(CLIFF3)
    assert report.descriptor == "C(X_2) ⊗ M_2"
    assert report.class_count == 2
    assert not report.simple
    assert report.matrix_factor == "M_2"


def test_structure_report_zero_matrix():
    mat = sl.commutation_matrix(2, np.zeros((3, 3), dtype=int))
    report = sl.structure_report(mat)
    assert report.rank == 0
    assert report.descriptor == "C(X_8)"
    assert report.center_dim == 8


def test_structure_report_odd_p_has_no_class_count():
    mat = sl.random_alternating(3, 3, seed=0)
    assert sl.structure_report(mat).class_count is None


def test_structure_report_toeplitz_growth():
    mat = sl.toeplitz_matrix(2, [1] * 5, 6)
    report = sl.structure_report(mat)
    assert report.prefix_ranks == (0, 2, 2, 4, 4, 6)
    assert report.infinite_rank_conjectured is True
    flat = sl.toeplitz_matrix(2, [0, 0], 6)
    assert sl.structure_report(flat).infinite_rank_conjectured is False


def test_structure_report_banded_eliminates_no_kernel(monkeypatch):
    # a band and its explicit copy each take one pass, which gives the
    # kernel and the rank table
    banded = [sl.toeplitz_matrix(p, pat, n) for p, pat, n in
              ((2, [1, 0, 1, 1], 24), (3, [1, 2], 13), (5, [0, 3, 0, 1], 17))]
    calls = _count_passes(monkeypatch)
    for mat in banded:
        kernel, ranks = sl.form_kernel(mat), tuple(forms.prefix_ranks(mat)[1])
        for source in (mat, sl.commutation_matrix(mat.p, mat.entries)):
            calls.clear()
            report = sl.structure_report(source)
            assert calls == [1]
            assert report.kernel_basis.tobytes() == kernel.tobytes()
            assert report.kernel_basis.shape == kernel.shape
            assert report.prefix_ranks == ranks


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(0, 4), max_size=6), st.integers(1, 24))
def test_structure_report_of_a_band_equals_that_of_its_explicit_copy(p, pattern, n):
    # a report depends on the matrix alone: the band's pattern is on its parsed source
    pattern = [v % p for v in pattern]
    band = sl.toeplitz_matrix(p, pattern, n)
    source = formats.parse_matrix_file(f"{p} toeplitz {len(pattern)}\n{' '.join(map(str, pattern))}\n")
    assert source.pattern == tuple(pattern) and source.materialize(n) == band
    a = sl.structure_report(band)
    b = sl.structure_report(sl.commutation_matrix(p, band.entries))
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "kernel_basis":
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert x == y and type(x) is type(y), field.name
    assert a.prefix_ranks[-1] == a.rank and len(a.prefix_ranks) == n
