"""Word algebra: products, phases, normalization, standard invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlab as sl
from spinlab.errors import InvariantError, SizeBoundError

from conftest import (
    commutation_matrices,
    enum_vectors,
    evaluate_invariant_loop,
    gf_inverse,
    gf_solve,
    invertible_matrix,
    matrices_with_vectors,
    planted_matrix,
    reference_invariant_loop,
    word_pow_loop,
)

PAULI = sl.commutation_matrix(2, [[0, 1], [1, 0]])
CLIFF3 = sl.clifford_matrix(2, 3)
ZERO2 = sl.commutation_matrix(2, np.zeros((2, 2), dtype=int))


def plain(x, mat):
    return sl.Word(0, np.asarray(x), mat)


@pytest.mark.parametrize(
    "phase,x", [(0, [1.9, 0.2, 0]), (0, np.array([1.0, 0.0, 0.0])), (0.5, [1, 0, 0])]
)
def test_word_rejects_non_integers(phase, x):
    # int() and int64 coercion would truncate these to a valid word
    with pytest.raises(ValueError, match="integer"):
        sl.Word(phase, x, CLIFF3)


def test_word_accepts_numpy_integer_phase():
    assert sl.Word(np.int64(5), [1, 0, 1], CLIFF3).phase == 1


# --- products -------------------------------------------------------------


def test_identity_word_is_neutral():
    w = plain([1, 0], PAULI)
    assert sl.word_mul(sl.identity_word(PAULI), w) == w
    assert sl.word_mul(w, sl.identity_word(PAULI)) == w


def test_word_mul_pauli_example():
    # w_{u2} w_{u1} = zeta^{c_21} w_{(1,1)}; for p=2 the phase is -1 (exp 2)
    out = sl.word_mul(plain([0, 1], PAULI), plain([1, 0], PAULI))
    assert out.phase == 2
    assert out.x.tolist() == [1, 1]


def test_word_square_is_sign():
    for x in enum_vectors(2, 3):
        sq = sl.word_mul(plain(x, CLIFF3), plain(x, CLIFF3))
        assert not sq.x.any()
        assert sq.phase == (2 * sl.q_form(CLIFF3, x, x)) % 4


def test_word_mul_result_is_a_frozen_reduced_word():
    mat = sl.random_alternating(5, 4, seed=1)
    out = sl.word_mul(sl.Word(7, [4, 3, 0, 1], mat), sl.Word(20, [3, 3, 2, 4], mat))
    again = sl.Word(out.phase, out.x, mat)
    assert out == again and 0 <= out.phase < 25
    assert out.x.dtype == np.int64 and not out.x.flags.writeable


def test_word_mul_context_mismatch():
    with pytest.raises(ValueError, match="different"):
        sl.word_mul(plain([0, 1], PAULI), plain([0, 1], ZERO2))


def test_words_and_invariants_mix_across_equal_matrices():
    # equal entries are one matrix, whether or not a band produced them
    band = sl.toeplitz_matrix(2, [1, 1], 4)
    copy = sl.commutation_matrix(2, band.entries)
    for x, y in itertools.product(enum_vectors(2, 4), repeat=2):
        assert plain(x, band) == plain(x, copy) and plain(x, copy) == plain(x, band)
        assert sl.word_mul(plain(x, band), plain(y, copy)) == sl.word_mul(
            plain(x, copy), plain(y, band)
        )
    f_band, f_copy = sl.reference_invariant(band), sl.reference_invariant(copy)
    assert f_band == f_copy and f_copy == f_band
    shifted = sl.phase_shift_invariant(f_copy, [1, 0, 0, 0])
    assert shifted != f_band and f_band != shifted


def test_word_mul_associative_exhaustive_p2():
    mats = [PAULI, CLIFF3, ZERO2]
    for mat in mats:
        vecs = list(enum_vectors(2, mat.n))
        for x, y, z in itertools.product(vecs, repeat=3):
            a, b, c = plain(x, mat), plain(y, mat), plain(z, mat)
            assert sl.word_mul(sl.word_mul(a, b), c) == sl.word_mul(a, sl.word_mul(b, c))


@settings(deadline=None)
@given(matrices_with_vectors(k=3, primes=(3, 5), max_n=5))
def test_word_mul_associative_odd_p(case):
    mat, x, y, z = case
    a, b, c = plain(x, mat), plain(y, mat), plain(z, mat)
    assert sl.word_mul(sl.word_mul(a, b), c) == sl.word_mul(a, sl.word_mul(b, c))


@settings(deadline=None)
@given(matrices_with_vectors(k=2))
def test_commutation_phase_links_the_two_orders(case):
    mat, x, y = case
    p2 = mat.p ** 2
    ab = sl.word_mul(plain(x, mat), plain(y, mat))
    ba = sl.word_mul(plain(y, mat), plain(x, mat))
    assert np.array_equal(ab.x, ba.x)
    assert ab.phase == (ba.phase + sl.commutation_phase(x, y, mat)) % p2


def test_commutation_phase_examples():
    assert sl.commutation_phase([1, 0], [1, 0], PAULI) == 0
    eye = np.eye(3, dtype=np.int64)
    for i, j in itertools.product(range(3), repeat=2):
        assert sl.commutation_phase(eye[i], eye[j], CLIFF3) == (
            2 * int(CLIFF3.entries[i, j])
        ) % 4
    # central vector commutes with everything
    for y in enum_vectors(2, 3):
        assert sl.commutation_phase([1, 1, 1], y, CLIFF3) == 0


# --- normalization --------------------------------------------------------


def test_normalize_zero_vector():
    assert sl.normalize(np.zeros(3, dtype=int), CLIFF3) == sl.identity_word(CLIFF3)


def test_normalize_clifford_example():
    w = sl.normalize(np.array([1, 1, 1]), CLIFF3)
    assert w.phase == 1  # lambda = i since Q(x, x) = 1
    assert sl.word_pow(w, 2).is_identity


@settings(deadline=None)
@given(matrices_with_vectors(k=1))
def test_normalize_pth_power_is_identity(case):
    mat, x = case
    assert sl.word_pow(sl.normalize(x, mat), mat.p).is_identity


@settings(deadline=None, max_examples=60)
@given(matrices_with_vectors(k=1), st.integers(0, 2 ** 32 - 1))
def test_word_pow_matches_the_loop(case, seed):
    mat, x = case
    w = sl.Word(int(np.random.default_rng(seed).integers(0, mat.p ** 2)), x, mat)
    for k in range(3 * mat.p + 1):
        assert sl.word_pow(w, k) == word_pow_loop(w, k)
    # the closed form reaches a huge exponent: a normalized word has order p
    assert sl.word_pow(sl.normalize(x, mat), mat.p * 10 ** 17).is_identity


def test_is_central():
    assert sl.is_central(np.zeros(3, dtype=int), CLIFF3)
    assert sl.is_central([1, 1, 1], CLIFF3)
    assert not sl.is_central([1, 0, 0], CLIFF3)


# --- standard invariants ---------------------------------------------------


def _invariant(mat, values):
    return sl.StandardInvariant(mat, tuple(sl.form_kernel(mat)), tuple(values))


def test_evaluate_invariant_basics():
    f = _invariant(CLIFF3, [1])
    assert sl.evaluate_invariant(f, np.zeros(3, dtype=int)) == 0
    assert sl.evaluate_invariant(f, [1, 1, 1]) == 1
    with pytest.raises(InvariantError, match="not in ker"):
        sl.evaluate_invariant(f, [1, 0, 0])


def test_evaluate_invariant_two_dim_kernel():
    # zero matrix: Q vanishes, so f is multiplicative on the kernel
    f = _invariant(ZERO2, [2, 0])
    assert sl.evaluate_invariant(f, [1, 1]) == 2


def test_evaluate_invariant_satisfies_functional_equation():
    cases = [sl.random_alternating(2, 6, seed) for seed in range(25)]
    # the zero matrix pins the exhaustive d = 6 case
    cases.append(sl.commutation_matrix(2, np.zeros((6, 6), dtype=int)))
    for mat in cases:
        f = sl.reference_invariant(mat)
        kernel_span = []
        for coeffs in itertools.product(range(2), repeat=f.d):
            x = np.zeros(6, dtype=np.int64)
            for c, k in zip(coeffs, f.kernel_basis):
                x = (x + c * k) % 2
            kernel_span.append(x)
        for x, y in itertools.product(kernel_span, repeat=2):
            lhs = (sl.evaluate_invariant(f, x) + sl.evaluate_invariant(f, y)) % 4
            rhs = (
                2 * sl.q_form(mat, x, y) + sl.evaluate_invariant(f, (x + y) % 2)
            ) % 4
            assert lhs == rhs


@st.composite
def invariants_with_vectors(draw):
    """An invariant with arbitrary values on a random basis U K of the
    computed kernel basis K, U in GL(d, p), and a vector that is in the
    span of that basis or arbitrary."""
    mat = draw(commutation_matrices(max_n=6))
    p = mat.p
    kernel = sl.form_kernel(mat)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis = invertible_matrix(rng, len(kernel), p) @ kernel % p
    values = tuple(int(v) for v in rng.integers(0, p * p, size=len(basis)))
    f = sl.StandardInvariant(mat, basis, values)
    if len(basis) and draw(st.booleans()):
        x = rng.integers(0, p, size=len(basis)) @ basis % p
    else:
        x = rng.integers(0, p, size=mat.n)
    return f, x


@settings(deadline=None, max_examples=80)
@given(invariants_with_vectors())
def test_evaluate_invariant_matches_word_mul_loop(case):
    f, x = case
    expected = evaluate_invariant_loop(f, x)
    if expected is None:
        with pytest.raises(InvariantError, match="not in ker"):
            sl.evaluate_invariant(f, x)
        return
    assert sl.evaluate_invariant(f, x) == expected
    coords = sl.words.kernel_coordinates(f, x)
    if f.d:
        solved = gf_solve(np.stack(f.kernel_basis, axis=1), x, f.mat.p)
        assert coords.tolist() == solved.tolist()
    else:
        assert coords.shape == (0,)


def _counting(calls, name, fn):
    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counting


def test_evaluate_invariant_reuses_its_tables(monkeypatch):
    # every invariant on one basis shares its kernel frame, whose coordinate
    # map (one gf.rref) and Gram table are each built once, on first use
    calls = []
    monkeypatch.setattr(sl.gf, "rref", _counting(calls, "rref", sl.gf.rref))
    zero = sl.commutation_matrix(2, np.zeros((6, 6), dtype=int))
    invariants = sl.enumerate_invariants(zero)
    assert len(invariants) == 64
    assert all(g._frame is invariants[0]._frame for g in invariants)
    assert all(map(sl.invariant_square_check, invariants)) and calls == []
    for g in invariants:
        assert [sl.evaluate_invariant(g, k) for k in g.kernel_basis] == list(g.values)
    assert calls == ["rref"]  # one elimination for all 64
    calls.clear()

    mat = sl.random_alternating(3, 8, seed=0)
    rep = sl.irreducible_rep(mat)
    assert calls == []  # no invariant asked for, none evaluated
    f0 = sl.reference_invariant(mat)
    assert f0.d >= 1 and calls == []
    shifted = sl.phase_shift_invariant(f0, [1] * 8)
    extracted = sl.extract_invariant(rep)
    assert shifted._frame is f0._frame and calls == []
    k = f0.kernel_basis[0]
    sl.evaluate_invariant(shifted, k)
    assert calls == ["rref"]  # built for f0's frame, read by f0 too
    calls.clear()
    f = sl.StandardInvariant(mat, f0.kernel_basis[::-1], f0.values[::-1])
    assert calls == ["rref"]  # a foreign basis pays in its constructor
    calls.clear()
    for g in (f0, f, shifted):
        for a in range(3):
            sl.evaluate_invariant(g, (a * k) % 3)
            sl.words.kernel_coordinates(g, (a * k) % 3)
        with pytest.raises(InvariantError):
            sl.evaluate_invariant(g, np.eye(8, dtype=int)[0] + k)
    assert f == f0 and f != shifted and calls == []
    assert extracted == f0 and calls == ["rref"]  # for the extracted invariant's frame


def test_pair_coordinates_rebuild_the_generators():
    for mat in (CLIFF3, sl.random_alternating(3, 7, seed=2), sl.random_alternating(2, 9, seed=5)):
        basis = sl.symplectic_basis(mat)
        alpha, beta, mu = sl.words.pair_coordinates(mat, basis)
        p, r = mat.p, basis.r
        t = basis.column_matrix()
        for j in range(mat.n):
            pairs = sum(alpha[j, i] * basis.e[i] + beta[j, i] * basis.f[i] for i in range(r))
            kernel_part = (np.eye(mat.n, dtype=np.int64)[j] - pairs) % p
            # what is left of u_j lies in the kernel span
            assert gf_solve(t[:, 2 * r :], kernel_part, p) is not None or not kernel_part.any()
            expected_mu = int(alpha[j] @ beta[j]) % 2 if p == 2 else 0
            assert mu[j] == expected_mu


@settings(deadline=None, max_examples=80)
@given(commutation_matrices(primes=(2, 3, 5, 7), max_n=8))
def test_pair_coordinates_match_the_inverse_basis(mat):
    # row j of T^-1 holds the coordinates of u_j on (e_1, f_1, ..., kernel)
    basis = sl.symplectic_basis(mat)
    alpha, beta, _ = sl.words.pair_coordinates(mat, basis)
    r = basis.r
    coords = gf_inverse(basis.column_matrix(), mat.p).T
    assert np.array_equal(alpha, coords[:, 0 : 2 * r : 2])
    assert np.array_equal(beta, coords[:, 1 : 2 * r : 2])


def test_square_check():
    assert sl.invariant_square_check(_invariant(CLIFF3, [1]))  # i^2 = -1 = (-1)^1
    assert sl.invariant_square_check(_invariant(CLIFF3, [3]))
    assert not sl.invariant_square_check(_invariant(CLIFF3, [0]))
    assert sl.invariant_square_check(_invariant(PAULI, []))  # vacuous


def test_square_check_odd_p_law():
    # at odd p a plain word has w_x^p = 1, so a valid f(k) is a multiple of p
    mat = sl.commutation_matrix(3, np.zeros((2, 2), dtype=int))
    assert sl.invariant_square_check(_invariant(mat, [0, 0]))
    assert sl.invariant_square_check(_invariant(mat, [3, 6]))
    assert not sl.invariant_square_check(_invariant(mat, [3, 1]))
    assert not sl.invariant_square_check(_invariant(mat, [2, 0]))


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(primes=(2, 3, 5, 7), max_n=7), st.integers(0, 2 ** 32 - 1))
def test_square_check_is_the_word_power_law(mat, seed):
    # f(k) = s(k) mod p iff zeta'^{p f(k)} equals the phase of w_k^p
    p = mat.p
    f0 = sl.reference_invariant(mat)
    assert sl.invariant_square_check(f0)
    for k, v in zip(f0.kernel_basis, f0.values):
        assert sl.word_pow(plain(k, mat), p).phase == p * v % (p * p)
    if f0.d:
        values = list(f0.values)
        values[seed % f0.d] += 1 + seed % (p - 1)  # not a multiple of p
        assert not sl.invariant_square_check(sl.StandardInvariant(mat, f0.kernel_basis, values))


def test_phase_shift_invariant():
    f = _invariant(CLIFF3, [1])
    assert sl.phase_shift_invariant(f, [0, 0, 0]) == f
    assert sl.phase_shift_invariant(f, [1, 0, 0]).values == (3,)
    assert sl.phase_shift_invariant(f, [1, 1, 0]).values == (1,)


def test_invariant_equality_is_basis_free():
    zero = sl.commutation_matrix(3, np.zeros((2, 2), dtype=int))
    f0 = sl.reference_invariant(zero)
    reversed_basis = sl.StandardInvariant(zero, f0.kernel_basis[::-1], f0.values[::-1])
    assert reversed_basis == f0 and f0 == reversed_basis
    assert sl.extract_invariant(sl.irreducible_rep(zero, reversed_basis)) == f0
    shifted = sl.phase_shift_invariant(f0, [1, 0])
    assert shifted != reversed_basis and reversed_basis != shifted
    assert _invariant(CLIFF3, [1]) != _invariant(PAULI, [])
    assert _invariant(CLIFF3, [1]) != 1
    # the same basis and values on another matrix is another invariant
    other = sl.commutation_matrix(3, np.zeros((3, 3), dtype=int))
    assert sl.StandardInvariant(other, [[1, 0, 0]], [0]) != sl.StandardInvariant(
        sl.commutation_matrix(3, [[0, 0, 0], [0, 0, 1], [0, 2, 0]]), [[1, 0, 0]], [0]
    )
    # invariants on two different lines of ker(omega) are never equal
    line_x, line_y = (sl.StandardInvariant(other, [v], [0]) for v in ([1, 0, 0], [0, 1, 0]))
    assert line_x != line_y and line_y != line_x


def test_invariant_equality_is_symmetric_on_every_moved_invariant():
    # zero 2 x 2 matrix at p = 3: all 81 value pairs on the form_kernel
    # basis K, each moved to U K for all 48 U in GL(2, 3)
    zero = sl.commutation_matrix(3, np.zeros((2, 2), dtype=int))
    k = sl.form_kernel(zero)
    gl = [np.array(u).reshape(2, 2) for u in itertools.product(range(3), repeat=4)
          if (u[0] * u[3] - u[1] * u[2]) % 3]
    assert len(gl) == 48
    valid, ref = 0, sl.reference_invariant(zero)
    for values in itertools.product(range(9), repeat=2):
        f = sl.StandardInvariant(zero, k, values)
        # == evaluates even on the same basis object or a byte-equal copy
        same, one_changed = (sl.phase_shift_invariant(f, g) for g in ([0, 0], [1, 0]))
        copied = sl.StandardInvariant(zero, k.copy(), values)
        assert same.kernel_basis is f.kernel_basis is one_changed.kernel_basis
        assert copied.kernel_basis is not f.kernel_basis
        assert one_changed.values[0] != f.values[0] and one_changed.values[1] == f.values[1]
        assert f == same and same == f and f == copied and copied == f
        assert f != one_changed and one_changed != f
        if not sl.invariant_square_check(f):  # an invalid invariant
            assert f == f and f != ref and ref != f
        for u in gl:
            uk = u @ k % 3
            moved = sl.StandardInvariant(zero, uk, [sl.evaluate_invariant(f, v) for v in uk])
            assert (f == moved) == (moved == f)
            if sl.invariant_square_check(f):
                valid += 1
                assert f == moved  # a valid invariant is one function on any basis
    assert valid == 9 * 48


@pytest.mark.parametrize(
    "mat,basis",
    [
        (sl.clifford_matrix(2, 4), [[1, 0, 0, 0]]),  # outside ker(omega)
        (sl.commutation_matrix(3, np.zeros((3, 3), dtype=int)), [[1, 2, 0], [2, 1, 0]]),  # k, 2k
        (ZERO2, [[1, 1], [1, 1]]),  # a repeated row
    ],
)
def test_standard_invariant_refuses_non_kernel_and_dependent_bases(mat, basis):
    with pytest.raises(InvariantError, match="ker\\(omega\\)|dependent"):
        sl.StandardInvariant(mat, basis, (0,) * len(basis))


def test_standard_invariant_refuses_more_rows_than_n_before_the_elimination(monkeypatch):
    def rref(*args):
        raise AssertionError("eliminated rows that are certainly dependent")

    monkeypatch.setattr(sl.gf, "rref", rref)
    with pytest.raises(InvariantError, match="kernel basis vectors are linearly dependent"):
        sl.StandardInvariant(ZERO2, [[1, 0], [0, 1], [1, 1]], (0, 0, 0))
    with pytest.raises(InvariantError, match="not in ker\\(omega\\)"):  # still checked first
        sl.StandardInvariant(PAULI, [[1, 0], [0, 1], [1, 1]], (0, 0, 0))


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(primes=(2, 3, 5), max_n=6), st.integers(0, 2 ** 32 - 1))
def test_an_invariant_moved_to_another_kernel_basis_is_the_same_function(mat, seed):
    p = mat.p
    rng = np.random.default_rng(seed)
    f = sl.phase_shift_invariant(sl.reference_invariant(mat), rng.integers(0, p, mat.n))
    k = f.kernel_basis
    uk = invertible_matrix(rng, f.d, p) @ k % p
    moved = sl.StandardInvariant(mat, uk, [sl.evaluate_invariant(f, v) for v in uk])
    back = sl.StandardInvariant(mat, k, [sl.evaluate_invariant(moved, v) for v in k])
    assert back.values == f.values  # the round trip K -> U K -> K
    assert moved == f and f == moved
    rep, rep_moved = sl.irreducible_rep(mat, f), sl.irreducible_rep(mat, moved)
    assert np.array_equal(rep.perm, rep_moved.perm)
    assert np.array_equal(rep.phases, rep_moved.phases)
    read_back = sl.extract_invariant(rep_moved)
    assert read_back == moved and read_back.kernel_basis.tobytes() == k.tobytes()  # on K
    if f.d:
        values = list(moved.values)
        values[int(rng.integers(0, f.d))] += p * int(rng.integers(1, p))
        assert sl.StandardInvariant(mat, uk, values) != f
        zero = sl.commutation_matrix(p, np.zeros((mat.n, mat.n), dtype=int))
        if zero != mat:  # uk is in the kernel of the zero matrix too
            assert sl.StandardInvariant(zero, uk, moved.values) != f


def test_gammas_equivalent():
    kernel = [np.array([1, 1, 1])]
    assert sl.gammas_equivalent([1, 0, 0], [1, 0, 0], kernel, 2)
    assert sl.gammas_equivalent([1, 0, 0], [0, 1, 0], kernel, 2)
    assert not sl.gammas_equivalent([1, 0, 0], [0, 0, 0], kernel, 2)
    # odd-p gammas are compared mod p, not mod 2
    mat = sl.commutation_matrix(3, np.zeros((2, 2), dtype=int))
    f = _invariant(mat, [0, 0])
    assert not sl.gammas_equivalent([2, 0], [0, 0], f.kernel_basis, 3)
    assert sl.phase_shift_invariant(f, [2, 0]) != sl.phase_shift_invariant(f, [0, 0])
    assert sl.gammas_equivalent([3, 0], [0, 0], f.kernel_basis, 3)
    assert sl.gammas_equivalent([1, 0], [0, 1], [], 3)  # the empty basis


@pytest.mark.parametrize(
    "gamma1,gamma2,kernel",
    [
        ([1, 0, 1, 0, 0, 0], [1], [[1, 0, 1, 0, 0, 0]]),  # broadcasts [1]
        ([1], [1, 0, 1, 0, 0, 0], [[1, 0, 1, 0, 0, 0]]),
        ([1, 0, 1], [0, 0, 0], np.zeros((2, 6), dtype=np.int64)),  # was reshaped (4, 3)
        ([1, 0, 1], [0, 0, 0], [1, 1, 1]),  # a vector, not a basis
        ([[1, 0, 1]], [[0, 0, 0]], [[1, 1, 1]]),
    ],
)
def test_gammas_equivalent_checks_lengths(gamma1, gamma2, kernel):
    with pytest.raises(ValueError, match="length n"):
        sl.gammas_equivalent(gamma1, gamma2, kernel, 2)


@pytest.mark.parametrize("p", [4, 1, 257, 2.0, "2"])
def test_gammas_equivalent_checks_the_modulus(p):
    # refused as Word and StandardInvariant refuse a modulus
    with pytest.raises(ValueError, match="modulus"):
        sl.gammas_equivalent([1, 0], [0, 0], [[1, 1]], p)


def test_realize_invariant_examples():
    f = _invariant(CLIFF3, [1])
    g = _invariant(CLIFF3, [3])
    assert sl.realize_invariant(f, f).tolist() == [0, 0, 0]
    gamma = sl.realize_invariant(g, f)
    assert gamma.tolist() == [1, 0, 0]
    assert sl.phase_shift_invariant(f, gamma) == g
    with pytest.raises(InvariantError, match="square"):
        sl.realize_invariant(_invariant(CLIFF3, [0]), f)


def _realized_gamma(mat, rng):
    # the reference invariant, a target shifted from it by p * theta on its
    # kernel basis, theta, and the gamma that realize_invariant returns
    p = mat.p
    f0 = sl.reference_invariant(mat)
    theta = rng.integers(0, p, f0.d)
    target = sl.StandardInvariant(
        mat, f0.kernel_basis, np.array(f0.values) + p * theta)
    return f0, target, theta, sl.realize_invariant(target, f0)


@settings(deadline=None, max_examples=80)
@given(commutation_matrices(primes=(2, 3, 5), max_n=7), st.integers(0, 2 ** 32 - 1))
def test_realize_invariant_gamma_vanishes_off_the_pivot_columns(mat, seed):
    # the solution of gf_solve, whose free variables are zero
    f0, _, theta, gamma = _realized_gamma(mat, np.random.default_rng(seed))
    k = f0.kernel_basis
    assert gamma.tolist() == gf_solve(k, theta, mat.p).tolist()
    assert not np.delete(gamma, sl.gf.rref(k, mat.p)[1]).any()


@settings(deadline=None, max_examples=80)
@given(commutation_matrices(primes=(2, 3, 5), max_n=7), st.integers(0, 2 ** 32 - 1))
def test_realize_invariant_gamma_reproduces_values(mat, seed):
    # gamma reproduces theta on the kernel basis, so the phase shift lands on
    # the target, and the target written on another basis gives the same gamma
    p = mat.p
    rng = np.random.default_rng(seed)
    f0, target, theta, gamma = _realized_gamma(mat, rng)
    k = f0.kernel_basis
    assert (k @ gamma % p).tolist() == theta.tolist()
    assert sl.phase_shift_invariant(f0, gamma) == target
    uk = invertible_matrix(rng, f0.d, p) @ k % p
    moved = sl.StandardInvariant(mat, uk, [sl.evaluate_invariant(target, v) for v in uk])
    assert sl.realize_invariant(moved, f0).tolist() == gamma.tolist()


def test_realize_invariant_refuses_other_matrices_and_short_bases():
    f0 = sl.reference_invariant(ZERO2)
    with pytest.raises(InvariantError, match="different commutation matrices"):
        sl.realize_invariant(f0, sl.reference_invariant(CLIFF3))
    short = sl.StandardInvariant(ZERO2, [[1, 1]], [0])
    with pytest.raises(InvariantError, match="does not span"):
        sl.realize_invariant(short, f0)


def test_count_classes():
    assert sl.count_classes(0, 2) == 1
    assert sl.count_classes(1, 2) == 2
    assert sl.count_classes(10, 2) == 1024
    assert sl.count_classes(3, 5) == 125
    with pytest.raises(ValueError):
        sl.count_classes(-1, 2)


@pytest.mark.parametrize(
    "d, p, message",
    [
        (1.5, 2, "must be an integer"),
        ("2", 2, "must be an integer"),
        (2, 4, "must be prime"),
        (2, 1, "modulus"),
        (2, 2.0, "modulus"),
    ],
)
def test_count_classes_refuses(d, p, message):
    with pytest.raises(ValueError, match=message):
        sl.count_classes(d, p)


def test_reference_invariant_clifford_value():
    # canonical construction gives W_{(1,1,1)} = -i on the Clifford triple
    f0 = sl.reference_invariant(CLIFF3)
    assert f0.values == (3,)
    assert sl.invariant_square_check(f0)


@pytest.mark.parametrize("p, r, d", [(251, 20, 20), (2, 90, 20)])
def test_reference_invariant_on_planted_matrices(p, r, d):
    # the Gram products of the model's invariant and the kernel frame, and the
    # frame's coordinate products, run in float64 (BLAS): at a large prime
    # and at a large n
    mat = planted_matrix(p, r, d, seed=p)
    f0 = sl.reference_invariant(mat)
    assert f0.d == d
    assert f0.values == reference_invariant_loop(mat)
    assert sl.invariant_square_check(f0)
    values = list(f0.values)
    values[-1] += 1  # off the p-th power law
    assert not sl.invariant_square_check(sl.StandardInvariant(mat, f0.kernel_basis, values))
    reversed_basis = sl.StandardInvariant(mat, f0.kernel_basis[::-1], f0.values[::-1])
    assert reversed_basis == f0 and f0 == reversed_basis
    rng = np.random.default_rng(p)
    mixed = invertible_matrix(rng, d, p) @ f0.kernel_basis % p
    moved = sl.StandardInvariant(mat, mixed, [sl.evaluate_invariant(f0, v) for v in mixed])
    assert moved == f0 and f0 == moved
    assert sl.invariant_square_check(moved)
    x = rng.integers(0, p, size=d) @ mixed % p
    assert sl.evaluate_invariant(moved, x) == evaluate_invariant_loop(f0, x)


def test_enumerate_invariants_examples():
    assert len(sl.enumerate_invariants(PAULI)) == 1
    cliff_invs = sl.enumerate_invariants(CLIFF3)
    assert sorted(f.values[0] for f in cliff_invs) == [1, 3]  # +-i
    zero_invs = sl.enumerate_invariants(ZERO2)
    assert len(zero_invs) == 4
    assert len({f.values for f in zero_invs}) == 4


def test_enumerate_invariants_all_satisfy_square_law():
    for seed in range(10):
        mat = sl.random_alternating(2, 5, seed)
        for f in sl.enumerate_invariants(mat):
            assert sl.invariant_square_check(f)


def test_enumerate_invariants_bound_and_odd_p_count(monkeypatch):
    big = sl.commutation_matrix(2, np.zeros((5, 5), dtype=int))
    monkeypatch.setattr(sl.words, "MAX_KERNEL_DIM", 4)
    with pytest.raises(SizeBoundError, match="bound 4$"):
        sl.enumerate_invariants(big)
    # 3^2 <= 2^4 < 3^3: the bound on d is 2 at p = 3
    with pytest.raises(SizeBoundError, match="bound 2$"):
        sl.enumerate_invariants(sl.commutation_matrix(3, np.zeros((3, 3), dtype=int)))
    odd = sl.commutation_matrix(3, np.zeros((2, 2), dtype=int))
    invs = sl.enumerate_invariants(odd)
    assert len(invs) == sl.count_classes(2, 3) == 9
    assert len({f.values for f in invs}) == 9
    assert all(sl.invariant_square_check(f) for f in invs)
    # digit i of the radix-3 index is theta on basis vector i
    assert [f.values for f in invs[:4]] == [(0, 0), (3, 0), (6, 0), (0, 3)]


@settings(deadline=None, max_examples=30)
@given(commutation_matrices(max_n=5), st.integers(0, 2 ** 16))
def test_phase_shift_equality_iff_gamma_trivial_on_kernel(mat, seed):
    f = sl.reference_invariant(mat)
    gamma = np.random.default_rng(seed).integers(0, mat.p, size=mat.n)
    shifted = sl.phase_shift_invariant(f, gamma)
    same = shifted == f
    zero = np.zeros(mat.n, dtype=int)
    assert same == sl.gammas_equivalent(gamma, zero, f.kernel_basis, mat.p)


def _assert_array_basis(f, mat):
    k = f.kernel_basis
    assert isinstance(k, np.ndarray) and k.dtype == np.uint8
    assert k.shape == (f.d, mat.n) and not k.flags.writeable
    # the public constructor, from a list of row vectors, gives an equal invariant
    assert f == sl.StandardInvariant(mat, list(k), f.values)


@settings(deadline=None, max_examples=40)
@given(commutation_matrices(primes=(2, 3, 5), max_n=5), st.integers(0, 2 ** 16))
def test_kernel_basis_is_one_frozen_array_shared_by_derived_invariants(mat, seed):
    basis = sl.symplectic_basis(mat)
    f0 = sl.reference_invariant(mat)
    _assert_array_basis(f0, mat)
    assert f0.kernel_basis.tolist() == [k.tolist() for k in basis.kernel]
    gamma = np.random.default_rng(seed).integers(0, mat.p, size=mat.n)
    shifted = sl.phase_shift_invariant(f0, gamma)
    _assert_array_basis(shifted, mat)
    assert shifted.kernel_basis is f0.kernel_basis
    invariants = sl.enumerate_invariants(mat)
    assert len(invariants) == mat.p ** f0.d
    for f in invariants:
        assert f.kernel_basis is invariants[0].kernel_basis
    for f in invariants[:8] + invariants[-8:]:
        _assert_array_basis(f, mat)


def test_standard_invariant_accepts_any_sequence_of_vectors():
    rows = [[1, 1, 1]]
    given_as = (rows, tuple(np.array(r) for r in rows), np.array(rows), [[3, 5, -1]])
    invs = [sl.StandardInvariant(CLIFF3, k, (1,)) for k in given_as]
    assert all(f == invs[0] for f in invs)  # reduced mod p on the way in
    source = np.array(rows)
    f = sl.StandardInvariant(CLIFF3, source, (1,))
    source[0, 0] = 0  # the invariant keeps its own copy
    assert f.kernel_basis.tolist() == rows
    empty = sl.StandardInvariant(PAULI, (), ())
    assert empty.kernel_basis.shape == (0, 2) and empty.d == 0
    assert empty == sl.StandardInvariant(PAULI, np.zeros((0, 2), dtype=np.int64), [])


@pytest.mark.parametrize(
    "basis,values",
    [
        ([[1, 1]], (1,)),  # wrong length
        ([[1, 1, 1], [1, 0]], (1, 1)),  # ragged rows
        ([[1, 1, 1]], (1, 1)),  # count mismatch
        ([[1.0, 1.0, 1.0]], (1,)),  # float entries
        ([1, 1, 1], (1, 1, 1)),  # one flat vector, not a sequence of vectors
    ],
)
def test_standard_invariant_rejects_bad_bases(basis, values):
    with pytest.raises(ValueError):
        sl.StandardInvariant(CLIFF3, basis, values)


@pytest.mark.parametrize("value", [1.7, 2.0, "3", np.float64(1.0)])
def test_standard_invariant_rejects_non_integer_values(value):
    with pytest.raises(ValueError, match="invariant value must be an integer"):
        sl.StandardInvariant(CLIFF3, [[1, 1, 1]], (value,))


@pytest.mark.parametrize("k", [1.5, 2.0, "2", np.float64(1.0)])
def test_word_pow_rejects_non_integer_powers(k):
    w = sl.Word(0, [1, 0, 1], CLIFF3)
    with pytest.raises(ValueError, match="word power must be an integer"):
        sl.word_pow(w, k)
    assert sl.word_pow(w, np.int64(2)) == sl.word_pow(w, 2)


@pytest.mark.parametrize("k", [-1, -3])
def test_word_pow_rejects_negative_powers(k):
    with pytest.raises(ValueError, match="negative word powers"):
        sl.word_pow(sl.Word(0, [1, 0, 1], CLIFF3), k)


def test_standard_invariant_accepts_numpy_integer_values():
    f = sl.StandardInvariant(CLIFF3, [[1, 1, 1]], (np.int64(3),))
    assert f.values == (3,) and type(f.values[0]) is int
