"""Commutation matrices, bilinear forms, and symplectic bases."""

import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinlab as sl
from spinlab import formats, forms, gf
from spinlab.errors import SizeBoundError

from conftest import (
    brute_kernel_set,
    brute_rank,
    check_symplectic_relations,
    commutation_matrices,
    enum_vectors,
    invertible_matrix,
    kernel_rows_loop,
    matrices_with_vectors,
    omega_sum_oracle,
    planted_matrix,
    prefix_ranks_loop,
    q_sum_oracle,
    random_alternating_loop,
    span_set,
    symplectic_pass_loop,
    symplectic_pass_row_at_a_time,
    symplectic_pass_two_arrays,
)

PAULI = sl.commutation_matrix(2, [[0, 1], [1, 0]])
CLIFF3 = sl.clifford_matrix(2, 3)


# --- construction & validation -------------------------------------------


def test_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        sl.commutation_matrix(2, [[1, 0], [0, 0]])


def test_rejects_non_skew():
    with pytest.raises(ValueError, match="c_ji"):
        sl.commutation_matrix(3, [[0, 1], [1, 0]])


def test_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="lie in"):
        sl.commutation_matrix(2, [[0, 2], [2, 0]])


_SKEW = "matrix must satisfy c_ji = -c_ij mod p"


def _skew_faults_raise(good, pairs):
    # good plus 1 at (i, j) breaks c_ji = -c_ij at that one pair; the
    # constructor raises the one message from uint8 input (the builders' and
    # the file reader's fallback) and from int64 input
    for i, j in pairs:
        bad = good.astype(np.int64)
        bad[i, j] = (bad[i, j] + 1) % 3
        for src in (bad.astype(np.uint8), bad):
            with pytest.raises(ValueError) as err:
                sl.commutation_matrix(3, src)
            assert str(err.value) == _SKEW
    assert sl.commutation_matrix(3, good.astype(np.int64)) == sl.commutation_matrix(3, good)


def test_skew_faults_are_found_in_every_tile(monkeypatch):
    # the skew sums run over square tiles of side isqrt(gf.BLOCK_CELLS), each
    # tile (I, J) with J >= I against tile (J, I): with side 3 at n = 7 (the
    # last tiles one row or column), every off-diagonal pair, within a tile or
    # across two
    monkeypatch.setattr(gf, "BLOCK_CELLS", 14)
    good = sl.random_alternating(3, 7, seed=4).entries
    _skew_faults_raise(good, [(i, j) for i in range(7) for j in range(7) if i != j])


def _first_skew_fault(ent, p):
    # the oracle of forms._skew_fault: the first row of the int64 argwhere
    bad = np.argwhere((ent.astype(np.int64) + ent.T) % p)
    return tuple(bad[0].tolist()) if bad.size else None


def test_skew_faults_are_found_at_the_default_block_boundaries():
    # n = 1024 makes 4 x 4 tiles of side 256: one fault in the corners, or
    # at a pair that straddles a tile edge, is found, and it is the first one
    n, t = 1024, math.isqrt(gf.BLOCK_CELLS)
    assert t == 256
    good = sl.random_alternating(3, n, seed=5).entries
    pairs = [(n - 1, n - 2), (n - 2, n - 1), (0, n - 1), (n - 1, 0)]
    pairs += [(b - 1, b) for b in range(t, n, t)] + [(b, b - 1) for b in range(t, n, t)]
    pairs += [(b - 1, b - 1 + t) for b in range(t, n - t, t)] + [(b + t, b) for b in range(t, n - t, t)]
    _skew_faults_raise(good, pairs)
    for i, j in pairs:
        bad = good.copy()
        bad[i, j] = (bad[i, j] + 1) % 3
        assert forms._skew_fault(bad, 3) == (min(i, j), max(i, j))
    # faults at (10, 900) and (20, 300): the first faulty row's fault lies in
    # the band's last tile, after the one that holds the other fault
    bad = good.copy()
    bad[10, 900] = (bad[10, 900] + 1) % 3
    bad[300, 20] = (bad[300, 20] + 2) % 3
    assert forms._skew_fault(bad, 3) == _first_skew_fault(bad, 3) == (10, 900)
    assert forms._skew_fault(good, 3) is None


@st.composite
def _planted_skew_faults(draw):
    # an alternating matrix with 0 to 3 entries changed, maybe breaking
    # c_ji = -c_ij there (two changes may cancel)
    p, n = draw(st.sampled_from([2, 3, 5, 251])), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, p, (n, n)), 1)
    ent = ((upper - upper.T) % p).astype(np.uint8)
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
            j += j >= i  # off the diagonal
            ent[i, j] = (int(ent[i, j]) + draw(st.integers(1, p - 1))) % p
    return p, ent


@pytest.mark.parametrize("cells", [1, 4, 14, 64, None])
@settings(deadline=None, max_examples=150)
@given(_planted_skew_faults())
def test_skew_fault_is_the_first_row_of_argwhere(cells, case):
    p, ent = case
    with mock.patch.object(gf, "BLOCK_CELLS", cells or gf.BLOCK_CELLS):
        assert forms._skew_fault(ent, p) == _first_skew_fault(ent, p)


@pytest.mark.parametrize("entries", [[[0, 1, 0], [1, 0, 0]], [0, 1], [[[0]]]])
def test_rejects_non_square_entries(entries):
    with pytest.raises(ValueError, match="entries must be square"):
        sl.commutation_matrix(2, entries)


def test_entries_frozen():
    with pytest.raises(ValueError):
        PAULI.entries[0, 1] = 0


def test_lower_triangle_cached_and_frozen():
    mat = sl.random_alternating(5, 6, seed=1)
    assert np.array_equal(mat.lower, np.tril(mat.entries, -1))
    assert mat.lower.dtype == np.int64  # the word layer's table stays int64
    with pytest.raises(ValueError):
        mat.lower[1, 0] = 0


def test_clifford_examples():
    assert sl.clifford_matrix(2, 2).entries.tolist() == [[0, 1], [1, 0]]
    assert sl.clifford_matrix(2, 1).entries.tolist() == [[0]]
    assert sl.form_rank(CLIFF3) == 2
    with pytest.raises(ValueError, match="p = 2"):
        sl.clifford_matrix(3, 3)


def test_toeplitz_materialization():
    mat = sl.toeplitz_matrix(3, [1, 2], 4)
    assert mat.entries.tolist() == [
        [0, 1, 2, 0],
        [2, 0, 1, 2],
        [1, 2, 0, 1],
        [0, 1, 2, 0],
    ]
    # a matrix is p and entries; the band's pattern stays on its parsed source
    assert [f.name for f in dataclasses.fields(mat)] == ["p", "entries"]
    parsed = formats.parse_matrix_file("3 toeplitz 2\n1 2\n")
    assert parsed.pattern == (1, 2) and parsed.materialize(4) == mat
    assert mat.prefix(2).entries.tolist() == [[0, 1], [2, 0]]


@pytest.mark.parametrize("k", [0, 5])
def test_prefix_size_out_of_range(k):
    with pytest.raises(ValueError, match=f"prefix size {k} out of range 1..4"):
        sl.toeplitz_matrix(3, [1, 2], 4).prefix(k)


@pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
def test_prefix_size_must_be_an_integer(k):
    with pytest.raises(ValueError, match="prefix size must be an integer"):
        sl.toeplitz_matrix(3, [1, 2], 4).prefix(k)
    assert sl.toeplitz_matrix(3, [1, 2], 4).prefix(np.int64(2)).n == 2


def test_toeplitz_clifford_pattern():
    # an all-ones pattern covering every separation reproduces the Clifford matrix
    assert np.array_equal(
        sl.toeplitz_matrix(2, [1] * 5, 6).entries, sl.clifford_matrix(2, 6).entries
    )


BAND4 = sl.toeplitz_matrix(2, [1, 1], 4)


@pytest.mark.parametrize(
    "a,b,equal",
    [
        (sl.clifford_matrix(2, 3), sl.toeplitz_matrix(2, [1, 1], 3), True),
        (BAND4, sl.commutation_matrix(2, BAND4.entries), True),
        (sl.toeplitz_matrix(3, [1, 2], 4), sl.toeplitz_matrix(3, [1, 2, 0], 4), True),
        (BAND4, sl.clifford_matrix(2, 4), False),  # other entries
        (BAND4, sl.toeplitz_matrix(2, [1, 1], 3), False),  # another n
        (
            sl.commutation_matrix(2, np.zeros((2, 2), dtype=int)),
            sl.commutation_matrix(3, np.zeros((2, 2), dtype=int)),
            False,  # another p
        ),
    ],
)
def test_equality_compares_p_and_entries_not_the_pattern(a, b, equal):
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is not equal and (b != a) is not equal


@pytest.mark.parametrize(
    "value", [PAULI, sl.clock(3), sl.Word(1, [1, 0], PAULI)], ids=["matrix", "monomial", "word"]
)
@pytest.mark.parametrize("foreign", [None, 0, "PAULI"])
def test_equality_with_a_foreign_type_is_false(value, foreign):
    assert not value == foreign and value != foreign
    assert not foreign == value and foreign != value


def _toeplitz_loop(p, pattern, n):
    ent = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, min(n, i + 1 + len(pattern))):
            ent[i, j] = pattern[j - i - 1]
            ent[j, i] = (-pattern[j - i - 1]) % p
    return ent


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from([2, 3, 5, 251]),
    st.lists(st.integers(0, 250), max_size=12),
    st.integers(1, 16),
)
def test_toeplitz_matches_double_loop(p, pattern, n):
    pattern = [v % p for v in pattern]
    mat = sl.toeplitz_matrix(p, pattern, n)
    assert np.array_equal(mat.entries, _toeplitz_loop(p, pattern, n))
    assert mat.entries.flags.c_contiguous
    parsed = formats.parse_matrix_file(f"{p} toeplitz {len(pattern)}\n{' '.join(map(str, pattern))}\n")
    assert parsed.pattern == tuple(pattern) and parsed.materialize(n) == mat


def test_toeplitz_size_bound_checked_first():
    # raises before anything of size n^2 is allocated
    with pytest.raises(SizeBoundError, match="bound"):
        sl.toeplitz_matrix(2, [1], forms.MAX_TOEPLITZ_N + 1)
    with pytest.raises(ValueError, match="at least 1"):
        sl.toeplitz_matrix(2, [1], 0)
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        sl.toeplitz_matrix(3, [1, 3], 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: sl.toeplitz_matrix(2, [1], n),
        lambda n: sl.clifford_matrix(2, n),
        lambda n: sl.random_alternating(2, n, 1),
    ],
    ids=["banded", "Clifford", "random"],
)
def test_generated_sizes_must_be_integers(build):
    for n in (4.0, 3.5, "3", None):
        with pytest.raises(ValueError, match="matrix size must be an integer"):
            build(n)
    assert build(np.int64(3)) == build(3)


@pytest.mark.parametrize(
    "p, r, d, match",
    [
        (2, -1, 3, "nonnegative"),
        (2, -2, 5, "nonnegative"),
        (2, 3, -2, "nonnegative"),
        (2, 1, 0.0, "d must be an integer"),
        (2, 1.0, 0, "r must be an integer"),
        (2, "1", 0, "r must be an integer"),
        (2, 0, 0, "empty"),
        (4, 2 ** 40, 0, "prime"),  # checked before the n x n allocation
    ],
)
def test_standard_form_checks_its_sizes(p, r, d, match):
    with pytest.raises(ValueError, match=match):
        sl.standard_form(p, r, d)
    assert sl.standard_form(np.int64(3), np.int64(1), np.int64(1)).entries.tolist() == [
        [0, 1, 0],
        [2, 0, 0],
        [0, 0, 0],
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: sl.commutation_matrix(2, [[0, 0.5], [0.5, 0]]),
        lambda: sl.commutation_matrix(3, np.zeros((2, 2))),
        lambda: sl.toeplitz_matrix(2, [1.5], 3),
    ],
)
def test_matrices_reject_non_integers(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_random_alternating_deterministic():
    a = sl.random_alternating(5, 6, seed=42)
    b = sl.random_alternating(5, 6, seed=42)
    assert a == b
    assert a != sl.random_alternating(5, 6, seed=43)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
@pytest.mark.parametrize("n", [1, 2, 9, 64])
def test_random_alternating_matches_randrange_loop(p, n):
    for seed in (0, 1, 7, 123, 2 ** 40 + 5):
        mat = sl.random_alternating(p, n, seed)
        assert mat.p == p
        assert np.array_equal(mat.entries, random_alternating_loop(p, n, seed))


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([2, 3, 5, 7, 31, 251]),
    st.integers(1, 40),
    st.integers(-(2 ** 70), 2 ** 70) | st.integers(-3, 3),
)
def test_random_alternating_equals_the_randrange_loop(p, n, seed):
    assert np.array_equal(sl.random_alternating(p, n, seed).entries, random_alternating_loop(p, n, seed))


def test_random_alternating_rejects_bad_modulus():
    for p in (0, 4, 257):
        with pytest.raises(ValueError, match="modulus"):
            sl.random_alternating(p, 3, 1)


# --- omega and q ----------------------------------------------------------


def test_omega_on_unit_vectors_gives_entries():
    for mat in (PAULI, CLIFF3, sl.random_alternating(3, 4, 0), sl.random_alternating(5, 4, 1)):
        eye = np.eye(mat.n, dtype=np.int64)
        for i in range(mat.n):
            for j in range(mat.n):
                assert sl.omega(mat, eye[i], eye[j]) == int(mat.entries[i, j])


def test_omega_alternating_on_diagonal():
    for x in enum_vectors(2, 3):
        assert sl.omega(CLIFF3, x, x) == 0


def test_omega_clifford_value():
    # direct summation oracle: sum_{i != j} x_i y_j = 3 = 1 mod 2
    x, y = np.array([1, 1, 0]), np.array([0, 1, 1])
    assert omega_sum_oracle(CLIFF3, x, y) == 1
    assert sl.omega(CLIFF3, x, y) == 1


def test_omega_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        sl.omega(PAULI, [1, 0, 0], [0, 1])


def test_q_form_unit_vector_pattern():
    for mat in (PAULI, sl.random_alternating(3, 3, 5)):
        u1, u2 = np.eye(mat.n, dtype=np.int64)[:2]
        assert sl.q_form(mat, u1, u2) == 0
        assert sl.q_form(mat, u2, u1) == int(mat.entries[1, 0])


def test_q_form_clifford_diagonal():
    x = np.array([1, 1, 1])
    assert q_sum_oracle(CLIFF3, x, x) == 1
    assert sl.q_form(CLIFF3, x, x) == 1


def test_q_form_zero_vector():
    assert sl.q_form(CLIFF3, np.zeros(3, dtype=int), np.array([1, 1, 1])) == 0


@settings(deadline=None)
@given(matrices_with_vectors(k=2))
def test_omega_equals_q_minus_q_transposed(case):
    mat, x, y = case
    assert sl.omega(mat, x, y) == (sl.q_form(mat, x, y) - sl.q_form(mat, y, x)) % mat.p
    assert sl.omega(mat, x, y) == omega_sum_oracle(mat, x, y)
    assert sl.q_form(mat, x, y) == q_sum_oracle(mat, x, y)


@settings(deadline=None)
@given(matrices_with_vectors(k=2))
def test_omega_skew(case):
    mat, x, y = case
    assert sl.omega(mat, x, y) == (-sl.omega(mat, y, x)) % mat.p


@pytest.mark.parametrize("p", [2, 3])
def test_omega_q_identity_exhaustive_n4(p):
    mat = sl.random_alternating(p, 4, seed=p + 40)
    for x in enum_vectors(p, 4):
        for y in enum_vectors(p, 4):
            assert (
                sl.omega(mat, x, y)
                == (sl.q_form(mat, x, y) - sl.q_form(mat, y, x)) % p
            )


# --- kernel / rank --------------------------------------------------------


def test_form_kernel_zero_matrix():
    mat = sl.commutation_matrix(3, np.zeros((3, 3), dtype=int))
    assert span_set(sl.form_kernel(mat), 3, 3) == set(
        tuple(v) for v in enum_vectors(3, 3)
    )
    assert sl.form_rank(mat) == 0


def test_form_kernel_zero_matrix_is_standard_basis():
    mat = sl.commutation_matrix(2, np.zeros((3, 3), dtype=int))
    assert sl.form_kernel(mat).tolist() == np.eye(3, dtype=int).tolist()


def test_form_kernel_clifford3():
    assert sl.form_kernel(CLIFF3).tolist() == [[1, 1, 1]]


def test_form_kernel_trivial():
    assert sl.form_kernel(PAULI).shape == (0, 2)


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(primes=(2, 3, 5), max_n=5))
def test_form_kernel_spans_the_brute_force_kernel(mat):
    kernel = sl.form_kernel(mat)
    assert len(kernel) == mat.n - brute_rank(mat.entries, mat.p)
    assert span_set(kernel, mat.p, mat.n) == brute_kernel_set(mat.entries, mat.p)


def test_form_kernel_clifford_cases():
    assert span_set(sl.form_kernel(CLIFF3), 2, 3) == brute_kernel_set(
        CLIFF3.entries, 2
    )
    assert sl.form_rank(CLIFF3) == 2
    cliff4 = sl.clifford_matrix(2, 4)
    assert sl.form_kernel(cliff4).shape == (0, 4)
    assert sl.form_rank(cliff4) == 4


@settings(deadline=None)
@given(commutation_matrices())
def test_form_rank_is_even(mat):
    assert sl.form_rank(mat) % 2 == 0


# --- symplectic bases -----------------------------------------------------


def test_symplectic_basis_pauli():
    basis = sl.symplectic_basis(PAULI)
    assert [v.tolist() for v in basis.e] == [[1, 0]]
    assert [v.tolist() for v in basis.f] == [[0, 1]]
    assert basis.kernel.shape == (0, 2)
    check_symplectic_relations(PAULI, basis)


def test_symplectic_basis_zero_matrix():
    mat = sl.commutation_matrix(2, np.zeros((3, 3), dtype=int))
    basis = sl.symplectic_basis(mat)
    assert basis.e.shape == basis.f.shape == (0, 3)
    assert [v.tolist() for v in basis.kernel] == np.eye(3, dtype=int).tolist()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_symplectic_basis_standard_model(p, r):
    mat = sl.standard_form(p, r)
    basis = sl.symplectic_basis(mat)
    assert basis.r == r and basis.d == 0
    check_symplectic_relations(mat, basis)
    # the standard model pairs up consecutive unit vectors
    eye = np.eye(2 * r, dtype=np.int64)
    for k in range(r):
        assert np.array_equal(basis.e[k], eye[2 * k])
        assert np.array_equal(basis.f[k], eye[2 * k + 1])


@settings(deadline=None, max_examples=60)
@given(commutation_matrices())
def test_symplectic_basis_properties(mat):
    basis = sl.symplectic_basis(mat)
    assert 2 * basis.r + basis.d == mat.n
    check_symplectic_relations(mat, basis)
    from spinlab import gf

    stacked = np.stack(list(basis.e) + list(basis.f) + list(basis.kernel), axis=0)
    assert gf.rank(stacked, mat.p) == mat.n


def test_extend_zero_2_to_3():
    small = sl.commutation_matrix(2, np.zeros((2, 2), dtype=int))
    big = sl.commutation_matrix(2, np.zeros((3, 3), dtype=int))
    grown = sl.extend_symplectic_basis(big, sl.symplectic_basis(small))
    assert grown.r == 0 and grown.d == 3


def test_extend_clifford_2_to_3():
    small = sl.clifford_matrix(2, 2)
    existing = sl.symplectic_basis(small)
    grown = sl.extend_symplectic_basis(CLIFF3, existing)
    assert grown.r == 1 and grown.d == 1
    # old pair preserved verbatim (zero-padded)
    assert grown.e[0].tolist() == existing.e[0].tolist() + [0]
    assert grown.f[0].tolist() == existing.f[0].tolist() + [0]
    assert [v.tolist() for v in grown.kernel] == [[1, 1, 1]]
    check_symplectic_relations(CLIFF3, grown)


def test_extend_clifford_3_to_4():
    existing = sl.symplectic_basis(CLIFF3)
    big = sl.clifford_matrix(2, 4)
    grown = sl.extend_symplectic_basis(big, existing)
    assert grown.r == 2 and grown.d == 0
    check_symplectic_relations(big, grown)


def test_extend_prefix_mismatch_raises():
    # the old pair (e, f) has omega(e, f) = 0 under the zero block
    other = sl.commutation_matrix(2, np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError, match="block"):
        sl.extend_symplectic_basis(other, sl.symplectic_basis(sl.clifford_matrix(2, 2)))
    # a smaller matrix has no upper-left block of the old size
    with pytest.raises(ValueError, match="matrix size 2 smaller than existing basis 3"):
        sl.extend_symplectic_basis(PAULI, sl.symplectic_basis(CLIFF3))


@settings(deadline=None, max_examples=40)
@given(commutation_matrices(max_n=5), st.booleans(), st.integers(0, 2 ** 16))
def test_extend_accepts_exactly_the_matching_prefix(mat, prefix, seed):
    # a genuine basis of the old matrix passes the Gram check iff the
    # upper-left block of mat is that old matrix
    if mat.n < 2:
        return
    k = mat.n - 1
    upper = np.triu(np.random.default_rng(seed).integers(0, mat.p, size=(k, k)), 1)
    old = mat.entries[:k, :k] if prefix else (upper - upper.T) % mat.p
    small = sl.commutation_matrix(mat.p, old)
    matches = np.array_equal(small.entries, mat.entries[:k, :k])
    try:
        grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(small))
    except ValueError as exc:
        assert not matches and "block" in str(exc)
    else:
        assert matches
        check_symplectic_relations(mat, grown)


@settings(deadline=None, max_examples=40)
@given(commutation_matrices(max_n=4))
def test_extend_matches_from_scratch_dimensions(mat):
    if mat.n < 2:
        return
    small = mat.prefix(mat.n - 1)
    grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(small))
    scratch = sl.symplectic_basis(mat)
    assert (grown.r, grown.d) == (scratch.r, scratch.d)
    check_symplectic_relations(mat, grown)


def _count_rref(monkeypatch):
    calls = []
    real = gf.rref

    def counting(mat, p):
        calls.append(np.shape(mat))
        return real(mat, p)

    monkeypatch.setattr(gf, "rref", counting)
    return calls


@pytest.mark.parametrize("n", [3, 16, 48, 96])
def test_symplectic_basis_makes_no_elimination(monkeypatch, n):
    # a fresh pass leaves its radical in the normal form: no gf.rref
    mat = sl.random_alternating(3, n, seed=n)
    calls = _count_rref(monkeypatch)
    basis = sl.symplectic_basis(mat)
    assert len(calls) == 0
    assert 2 * basis.r + basis.d == n


@pytest.mark.parametrize("from_empty", [True, False])
def test_extend_elimination_count_does_not_grow(monkeypatch, from_empty):
    counts = []
    for n in (9, 24, 64):
        mat = sl.random_alternating(5, n, seed=n)
        if from_empty:
            existing = sl.SymplecticBasis((), (), ())
        else:
            existing = sl.symplectic_basis(mat.prefix(n // 2 + 1))
        calls = _count_rref(monkeypatch)
        grown = sl.extend_symplectic_basis(mat, existing)
        monkeypatch.undo()
        check_symplectic_relations(mat, grown)
        counts.append(len(calls))
    # from the empty basis the pass is fresh; a resumed one reduces its radical once
    assert counts == ([0, 0, 0] if from_empty else [1, 1, 1])


@pytest.mark.parametrize("p, r, d, m", [(2, 3, 10, 12), (3, 3, 10, 16), (5, 4, 8, 14), (7, 2, 6, 10)])
def test_extend_normalises_a_non_canonical_old_basis(p, r, d, m):
    # a valid old basis whose kernel rows are mixed by an invertible matrix
    # and whose e_i are shifted by kernel vectors: the resumed pass must
    # still return form_kernel's normal form
    rng = np.random.default_rng(p * 1000 + m)
    n = 2 * r + d
    mat = sl.matrix_from_basis(sl.standard_form(p, r, d), invertible_matrix(rng, n, p))
    old = sl.symplectic_basis(mat.prefix(m))
    assert old.r >= 1 and old.d >= 2
    kernel = invertible_matrix(rng, old.d, p) @ old.kernel % p
    e = (old.e + rng.integers(0, p, (old.r, old.d)) @ old.kernel) % p
    assert not np.array_equal(kernel, old.kernel) and not np.array_equal(e, old.e)
    grown = sl.extend_symplectic_basis(mat, sl.SymplecticBasis(e, old.f, kernel))
    check_symplectic_relations(mat, grown)
    pad = ((0, 0), (0, n - m))  # the old pairs stay verbatim, zero-padded
    assert np.array_equal(grown.e[: old.r], np.pad(e, pad))
    assert np.array_equal(grown.f[: old.r], np.pad(old.f, pad))
    expected = sl.form_kernel(mat)
    assert grown.kernel.shape == expected.shape
    assert grown.kernel.tobytes() == expected.tobytes()


def _same(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))


def _same_basis(a, b):
    # the same dtype, shapes and bytes, family by family
    return all(
        x.dtype == y.dtype == np.uint8 and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in [(a.e, b.e), (a.f, b.f), (a.kernel, b.kernel)]
    )


@settings(deadline=None, max_examples=80)
@given(commutation_matrices(primes=(2, 3, 5, 7, 251), max_n=14), st.integers(0, 14))
def test_symplectic_pass_matches_oracles(mat, k):
    k = min(k, mat.n)
    fresh = sl.symplectic_basis(mat)
    check_symplectic_relations(mat, fresh)
    basis, ranks = forms.prefix_ranks(mat)
    assert ranks == prefix_ranks_loop(mat)
    assert _same_basis(basis, fresh)
    assert _same(fresh.kernel, kernel_rows_loop(mat.entries, mat.p))
    empty = sl.SymplecticBasis((), (), ())
    assert _same_basis(sl.extend_symplectic_basis(mat, empty), fresh)
    if k:
        old = sl.symplectic_basis(mat.prefix(k))
        grown = sl.extend_symplectic_basis(mat, old)
        check_symplectic_relations(mat, grown)
        assert _same(grown.kernel, fresh.kernel)
        for got, want in [*zip(grown.e, old.e), *zip(grown.f, old.f)]:
            assert np.array_equal(got[:k], want) and not got[k:].any()
        assert (grown.r, grown.d) == (fresh.r, fresh.d)


def test_symplectic_pass_p251_large():
    # with 150 pairs at p = 251 a coefficient sum can reach 150 * 250^2
    mat = sl.random_alternating(251, 301, seed=251)
    fresh = sl.symplectic_basis(mat)
    grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(mat.prefix(120)))
    for basis in (fresh, grown):
        assert basis.r == 150 and basis.d == 1
        # the relations, as one Gram matrix of an invertible T
        t = basis.column_matrix()
        assert np.array_equal(t.T @ mat.entries @ t % 251, sl.standard_form(251, 150, 1).entries)
        assert gf.rank(t, 251) == 301


def test_symplectic_pass_checks_float64_bound():
    # every sum in the float64 products stays below n (p-1)^2 + p < 2^53;
    # the check comes before anything is allocated (a SimpleNamespace has
    # no entries), and one size below the bound the pass goes on to read them
    empty = np.zeros((0, 0), dtype=np.int64)
    n = -(-(2 ** 53 - 251) // 250 ** 2)  # the least n with n 250^2 + 251 >= 2^53
    with pytest.raises(SizeBoundError, match="float64"):
        forms._symplectic_pass(SimpleNamespace(n=n, p=251), empty, 0)
    with pytest.raises(AttributeError, match="entries"):
        forms._symplectic_pass(SimpleNamespace(n=n - 1, p=251), empty, 0)


@pytest.mark.parametrize("n, dtype", [(268, np.float32), (269, np.float64)])
def test_symplectic_pass_on_both_sides_of_the_float32_bound(n, dtype):
    # at p = 251 the state is float32 up to n = 268 and float64 from 269, and
    # both sizes cross the block boundary at 256: the prefix ranks, the fresh
    # basis and an extension from a prefix equal the row-at-a-time pass
    # (the fresh first block hands _pass_steps C's own uint8 block, and every
    # later block, fresh or resumed, its local Gram matrix in the state's type)
    mat, empty = sl.random_alternating(251, n, seed=n), np.zeros((0, 0), dtype=np.int64)
    with (
        mock.patch.object(gf, "exact_float", wraps=gf.exact_float) as rule,
        mock.patch.object(forms, "_pass_block", wraps=forms._pass_block) as block,
        mock.patch.object(forms, "_pass_steps", wraps=forms._pass_steps) as steps,
    ):
        basis, ranks = forms.prefix_ranks(mat)
    rule.assert_called_once_with(n, 251)
    assert [call.args[1].dtype for call in block.call_args_list] == [dtype]
    assert [call.args[0].dtype for call in steps.call_args_list] == [np.uint8, dtype]
    want, want_ranks = symplectic_pass_row_at_a_time(mat, empty, 0)
    assert ranks == want_ranks
    assert _same_basis(basis, want) and _same_basis(sl.symplectic_basis(mat), want)
    old = sl.symplectic_basis(mat.prefix(130))
    with mock.patch.object(forms, "_pass_steps", wraps=forms._pass_steps) as steps:
        grown = sl.extend_symplectic_basis(mat, old)
    assert [call.args[0].dtype for call in steps.call_args_list] == [dtype]
    assert _same_basis(grown, symplectic_pass_row_at_a_time(mat, old.column_matrix() % 251, old.r)[0])


@pytest.mark.parametrize("p, n, kind", [(251, 268, "random"), (251, 600, "random"),
                                        (3, 600, "random"), (2, 600, "bipartite")])
def test_every_product_of_the_pass_meets_the_precondition_of_mulmod(p, n, kind):
    # gf._mulmod checks nothing, so every product of the pass, fresh and
    # resumed (and the extension's Gram check, whose prefix takes the same
    # type here), must hand it two operands of the state's float type, exact
    # for their inner dimension, with entries below p in absolute value
    if kind == "random":
        mat = sl.random_alternating(p, n, seed=n)
    else:  # [[0, A], [-A^T, 0]]
        a = np.random.default_rng(1).integers(0, p, (n // 2, n // 2))
        mat = sl.commutation_matrix(p, np.block([[0 * a, a], [-a.T % p, 0 * a]]))
    dtype, mulmod, inner = gf.exact_float(n, p), gf._mulmod, []
    old = sl.symplectic_basis(mat.prefix(n // 2))

    def checked(x, y, q):
        assert q == p and x.dtype == y.dtype == dtype
        assert np.dtype(gf.exact_float(x.shape[-1], p)).itemsize <= np.dtype(dtype).itemsize
        assert np.abs(x).max(initial=0) < p and np.abs(y).max(initial=0) < p
        inner.append(x.shape[-1])
        return mulmod(x, y, q)

    with mock.patch.object(gf, "_mulmod", checked):
        basis = forms.prefix_ranks(mat)[0]
        grown = sl.extend_symplectic_basis(mat, old)
    assert len(inner) > 2 * n  # two per step of the fresh pass, and the rest
    assert grown.r == basis.r and grown.kernel.tobytes() == basis.kernel.tobytes()


@st.composite
def pass_matrices(draw, primes=(2, 3, 5, 7, 251), max_n=40):
    """Dense and Toeplitz matrices, explicit banded ones with no pattern,
    ones whose leading block and some whole rows are zero, so that the
    first nonzero column of a row lies at or past its own index, and
    bipartite ones [[0, A], [-A^T, 0]], whose later blocks touch many old
    radical rows."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["dense", "toeplitz", "band", "zero-lead", "bipartite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "toeplitz":
        return sl.toeplitz_matrix(p, rng.integers(0, p, draw(st.integers(0, 6))), n)
    upper = np.triu(rng.integers(0, p, (n, n)), 1)
    if kind == "bipartite":
        h = draw(st.integers(0, n))
        upper[:h, :h] = upper[h:, h:] = 0
    elif kind == "band":
        upper = np.tril(upper, draw(st.integers(1, 6)))
    elif kind == "zero-lead":
        z = draw(st.integers(1, n))
        upper[:z, :z] = 0
        zero = rng.random(n) < 0.2
        upper[zero] = 0
        upper[:, zero] = 0
    return sl.commutation_matrix(p, (upper - upper.T) % p)


@settings(deadline=None, max_examples=150)
@given(pass_matrices(), st.integers(0, 40))
def test_symplectic_pass_equals_the_two_array_pass(mat, k):
    empty = np.zeros((0, 0), dtype=np.int64)
    basis, ranks = forms.prefix_ranks(mat)
    want, want_ranks = symplectic_pass_two_arrays(mat, empty, 0)
    assert ranks == want_ranks
    assert _same_basis(basis, want)
    assert _same_basis(sl.symplectic_basis(mat), want)
    k = min(k, mat.n)
    old = sl.symplectic_basis(mat.prefix(k)) if k else sl.SymplecticBasis((), (), ())
    want, _ = symplectic_pass_two_arrays(mat, old.column_matrix() % mat.p, old.r)
    assert _same_basis(sl.extend_symplectic_basis(mat, old), want)


@st.composite
def planted_matrices(draw, primes=(2, 3, 5, 251), max_n=24):
    """B (J_r + 0_d) B^T for a random unit-triangular B: every rank at every n."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n // 2))
    return planted_matrix(p, r, n - 2 * r, draw(st.integers(0, 2 ** 16)))


# At block size 1, step 3 pairs e_3 with u_0 and moves u_1 below u_2 to
# make room for the pair; step 4 then touches u_2 and u_1, in that row order.
MOVED_RADICAL = sl.commutation_matrix(
    2, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 1, 0, 0]]
)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
@settings(deadline=None, max_examples=40)
@given(st.one_of(pass_matrices(max_n=24), planted_matrices()))
@example(MOVED_RADICAL)
def test_blocked_pass_equals_the_row_and_two_array_passes(block, mat):
    # blocks of 1..8 coordinates cross many block boundaries at these sizes:
    # the prefix ranks, the fresh basis and the extension from every prefix
    # have the bytes of the row-at-a-time pass and of the two-array pass
    p, empty = mat.p, np.zeros((0, 0), dtype=np.int64)
    with mock.patch.object(forms, "_PASS_BLOCK", block):
        basis, ranks = forms.prefix_ranks(mat)
        fresh = sl.symplectic_basis(mat)
        olds = [sl.SymplecticBasis((), (), ())] + [sl.symplectic_basis(mat.prefix(k)) for k in range(1, mat.n + 1)]
        grown = [sl.extend_symplectic_basis(mat, old) for old in olds]
    for oracle in (symplectic_pass_row_at_a_time, symplectic_pass_two_arrays):
        want, want_ranks = oracle(mat, empty, 0)
        assert ranks == want_ranks
        assert _same_basis(basis, want) and _same_basis(fresh, want)
        for old, got in zip(olds, grown):
            assert _same_basis(got, oracle(mat, old.column_matrix() % p, old.r)[0])


@pytest.mark.parametrize("n", [200, 300])
def test_symplectic_basis_families_are_slices_of_one_frozen_array(n):
    # the pass gathers e, f and the kernel, in that order, into one uint8
    # array and hands out its slices (one block at n = 200, two at n = 300,
    # and the resumed pass); the public constructor gathers a copy the same way
    mat = sl.random_alternating(3, n, seed=n)
    grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(mat.prefix(150)))
    for b in (sl.symplectic_basis(mat), grown):
        copy = sl.SymplecticBasis(b.e, b.f, b.kernel)
        for basis in (b, copy):
            rows = basis.e.base
            assert rows.dtype == np.uint8 and rows.shape == (n, n) and not rows.flags.writeable
            assert basis.f.base is rows and basis.kernel.base is rows
            assert np.array_equal(rows, np.concatenate([b.e, b.f, b.kernel]))
        assert not np.shares_memory(copy.e.base, b.e.base)


def test_symplectic_basis_memory_n1024():
    # 9.81 MB measured: the pass's n x n float32 state (gf.exact_float at
    # p = 3) and a few (256, n) arrays of its current block
    mat = sl.random_alternating(3, 1024, 1)
    tracemalloc.start()
    try:
        sl.symplectic_basis(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 9.81e6


def test_symplectic_basis_memory_n2048():
    # the float32 state's 4 n^2 bytes and the uint8 basis's n^2 dominate:
    # 6.09 n^2 bytes measured
    n = 2048
    mat = sl.random_alternating(3, n, 7)
    tracemalloc.start()
    try:
        basis = sl.symplectic_basis(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.e.dtype == np.uint8 and peak <= 6.5 * n ** 2


def test_symplectic_basis_memory_bipartite_n1024():
    # [[0, A], [-A^T, 0]]: each later block touches up to n/2 old radical
    # rows, so its (t + b)^2 local arrays outgrow the state; with the local
    # Gram matrix built once in the state's type, 15.37 n^2 bytes measured
    n = 1024
    a = np.random.default_rng(1).integers(0, 2, (n // 2, n // 2))
    mat = sl.commutation_matrix(2, np.block([[0 * a, a], [-a.T % 2, 0 * a]]))
    tracemalloc.start()
    try:
        sl.symplectic_basis(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * n ** 2


def test_the_constructor_copies_outside_input():
    src = np.array(CLIFF3.entries)
    mat = sl.commutation_matrix(2, src)
    assert not np.shares_memory(mat.entries, src)
    assert not np.shares_memory(mat.prefix(2).entries, mat.entries)


def test_builders_hand_their_one_fresh_array_to_the_matrix():
    # clifford_matrix and standard_form build one n x n uint8 array and prefix
    # none; the constructor's uint8 copy is the matrix's one array: below
    # 2.5 n^2 bytes at the peak (2.31 n^2 measured, with the skew check's
    # uint16 blocks), where int64 entries alone take 8 n^2
    big = sl.clifford_matrix(2, 1024)
    for build in (lambda: sl.clifford_matrix(2, 1024), lambda: sl.standard_form(3, 512),
                  lambda: big.prefix(1000)):
        tracemalloc.start()
        try:
            mat = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.entries.dtype == np.uint8
        assert peak < 2.5 * mat.n ** 2


def test_every_construction_route_makes_one_uint8_array():
    ref = sl.random_alternating(5, 4, seed=2)
    routes = [
        sl.commutation_matrix(5, ref.entries.astype(np.int64)),
        sl.commutation_matrix(2, [[False, True], [True, False]]),
        sl.clifford_matrix(2, 3),
        sl.standard_form(5, 1, 1),
        ref,
        sl.toeplitz_matrix(5, [1, 4], 5),
        ref.prefix(3),
        sl.matrix_from_basis(ref, np.eye(4, dtype=np.int64)[::-1]),
        formats.parse_matrix_file(formats.format_matrix_file(ref)).matrix,  # the grid reader
        formats.parse_matrix_file("5 2\n0 01\n4 0\n").matrix,  # "01": read line by line
    ]
    for mat in routes:
        assert mat.entries.dtype == np.uint8 and mat.entries.flags.owndata
        assert not mat.entries.flags.writeable


def test_random_alternating_and_its_file_text_stay_small():
    # n = 2048, p = 3: 4.2 MB of entries.  The draws are narrowed to uint8 as
    # they come and the triangle is filled through a bool mask (np.triu_indices
    # and int64 values take 118 MB); the file text widens one gf.BLOCK_CELLS
    # chunk at a time (an int64 copy of the entries takes 60 MB).  Bounds are
    # 1.25 x the 30.1 MB and 26.4 MB measured
    peaks = []
    for build in (lambda: sl.random_alternating(3, 2048, 7), lambda: formats.format_matrix_file(mat)):
        tracemalloc.start()
        try:
            mat = build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.25 * 30.14e6 and peaks[1] <= 1.25 * 26.36e6


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def _basis_digest(basis):
    return _digest(basis.e, basis.f, basis.kernel)


# digests of the bases the two-array int32 pass gave
@pytest.mark.parametrize(
    "p, digest",
    [
        (2, "6b664b25eeab7b27d7d5ff6a9ec305393e95f09c1cdc60a6c67ee8543c4a493c"),
        (3, "92f87dfd955d80b0284dcbc7ed36ebb0011bb2667c046ca4f641b9e28761be52"),
        (251, "ab3d8a1195cc13908028d07228b525d92f9a9ee6370e2cb643c762ba877ab245"),
    ],
)
def test_symplectic_basis_digest_n512(p, digest):
    assert _basis_digest(sl.symplectic_basis(sl.random_alternating(p, 512, seed=p))) == digest


def test_extend_symplectic_basis_digest_480_to_512():
    mat = sl.random_alternating(3, 512, seed=480)
    grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(mat.prefix(480)))
    assert _basis_digest(grown) == (
        "b9d396a738db51340a28f1b5dc6cafae2d441ff7c21c37782ce9dabb2225f613"
    )


# digests of the kernel read off one RREF of C, one vector per free column
@pytest.mark.parametrize(
    "p, digest",
    [
        (2, "a96563593e39e04a6bf29eda49806d880a795f2ba7ce86c67eea85b72a23df0e"),
        (3, "c62ea741e87c546da2f972b69a162fa9ea28a211bcdf4c09bbe60dba9bb77744"),
    ],
)
def test_form_kernel_digest_planted_n512_d32(p, digest):
    kernel = sl.form_kernel(planted_matrix(p, 240, 32, seed=p))
    assert kernel.shape == (32, 512)
    assert _digest(kernel) == digest


@settings(deadline=None, max_examples=60)
@given(commutation_matrices(primes=(2, 3, 5, 251), max_n=14), st.integers(1, 14))
def test_vector_families_are_uint8_arrays(mat, k):
    # each family is one (k, n) uint8 array whose rows are the vectors
    # the list-of-vectors loops give
    p, n = mat.p, mat.n
    k = min(k, n)

    def same_rows(got, want):
        assert got.dtype == np.uint8 and got.shape == (len(want), n)
        assert got.tolist() == [v.tolist() for v in want]

    kernel = kernel_rows_loop(mat.entries, p)
    same_rows(sl.form_kernel(mat), kernel)
    old = symplectic_pass_loop(mat.prefix(k), [], [], [])
    padded = [[np.pad(v, (0, n - k)) for v in vs] for vs in old]
    fresh = sl.symplectic_basis(mat)
    grown = sl.extend_symplectic_basis(mat, sl.symplectic_basis(mat.prefix(k)))
    for basis, want in [
        (fresh, symplectic_pass_loop(mat, [], [], [])),
        (grown, symplectic_pass_loop(mat, *padded)),
    ]:
        for family, rows in zip((basis.e, basis.f, basis.kernel), want):
            same_rows(family, rows)
            assert not family.flags.writeable
    for m in (mat, sl.toeplitz_matrix(p, mat.entries[0, 1:], n)):
        report = sl.structure_report(m)
        same_rows(report.kernel_basis, kernel_rows_loop(m.entries, p))
        assert not report.kernel_basis.flags.writeable
    # the constructor takes any sequence of vectors, and empty families
    given_as = [
        (tuple(fresh.e), tuple(fresh.f), tuple(fresh.kernel)),
        (fresh.e.tolist(), fresh.f.tolist(), fresh.kernel.tolist()),
        (np.array(fresh.e), np.array(fresh.f), np.array(fresh.kernel)),
    ]
    for families in given_as:
        rebuilt = sl.SymplecticBasis(*families)
        for got, want in zip((rebuilt.e, rebuilt.f, rebuilt.kernel), families):
            same_rows(got, list(np.array(want).reshape(-1, n)))
            assert not got.flags.writeable
    empty = sl.SymplecticBasis((), [], [[1, 0], [0, 1]])  # n = 2r + d = 2
    assert empty.e.shape == empty.f.shape == (0, 2)
    assert sl.SymplecticBasis((), (), ()).column_matrix().shape == (0, 0)
    with pytest.raises(ValueError):
        sl.SymplecticBasis((), (), [[0] * n, [0] * (n + 1)])


@pytest.mark.parametrize(
    "e,f,message",
    [
        ([[1, 0, 0]], [], "got 1 e and 0 f"),  # one more e than f
        ([], [[1, 0, 0]], "got 0 e and 1 f"),  # one more f than e
    ],
)
def test_symplectic_basis_refuses_unequal_pairs(e, f, message):
    # hyperbolic pairs: one f for each e, checked before any vector is read
    with pytest.raises(ValueError, match=f"expected one f per e, {message}"):
        sl.SymplecticBasis(e, f, [[0, 0, 1]])


@pytest.mark.parametrize("bad", [-1, 256])
def test_symplectic_basis_refuses_entries_outside_one_byte(bad):
    # the families share one uint8 array: an entry it cannot hold is
    # refused, in any family, not wrapped
    assert sl.SymplecticBasis((), (), [[255]]).kernel.tolist() == [[255]]
    for families in ([[bad, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]), ([[1, 0, 0]], [[0, 1, 0]], [[0, 0, bad]]):
        with pytest.raises(ValueError, match=r"basis entries must lie in \[0, 256\)"):
            sl.SymplecticBasis(*families)


def test_extend_rejects_dependent_kernel():
    zero = sl.commutation_matrix(3, np.zeros((3, 3), dtype=int))
    one = np.array([1, 0])
    existing = sl.SymplecticBasis((), (), (one, one))
    with pytest.raises(ValueError, match="inconsistent"):
        sl.extend_symplectic_basis(zero, existing)


# --- congruence and generation -------------------------------------------


def _standard_block(p, r, d):
    return sl.standard_form(p, r, d).entries


def test_congruence_pauli_and_zero():
    t = sl.congruence_to_standard(PAULI)
    assert np.array_equal((t.T @ PAULI.entries @ t) % 2, _standard_block(2, 1, 0))
    zero = sl.commutation_matrix(2, np.zeros((2, 2), dtype=int))
    t0 = sl.congruence_to_standard(zero)
    assert np.array_equal(t0, np.eye(2, dtype=int))


def test_congruence_clifford3():
    t = sl.congruence_to_standard(CLIFF3)
    assert np.array_equal((t.T @ CLIFF3.entries @ t) % 2, _standard_block(2, 1, 1))


@settings(deadline=None, max_examples=60)
@given(commutation_matrices())
def test_congruence_exact_block_form(mat):
    t = sl.congruence_to_standard(mat)
    from spinlab import gf

    assert gf.rank(t, mat.p) == mat.n
    got = (t.T @ mat.entries @ t) % mat.p
    r = sl.form_rank(mat) // 2
    assert np.array_equal(got, _standard_block(mat.p, r, mat.n - 2 * r))


def test_matrix_from_basis_standard_basis_copies():
    vectors = list(np.eye(3, dtype=np.int64))
    out = sl.matrix_from_basis(CLIFF3, vectors)
    assert np.array_equal(out.entries, CLIFF3.entries)


def test_matrix_from_basis_bounds_the_family_before_the_product(monkeypatch):
    ref = sl.commutation_matrix(2, [[0]])
    vectors = np.ones((forms.MAX_TOEPLITZ_N, 1), dtype=np.int64)
    assert sl.matrix_from_basis(ref, vectors).n == forms.MAX_TOEPLITZ_N

    def refuse(*args):
        raise AssertionError("a vector was read or the product formed before the size check")

    monkeypatch.setattr(gf, "matmul", refuse)
    monkeypatch.setattr(gf, "as_gf_array", refuse)
    with pytest.raises(SizeBoundError, match="2049 vectors > bound 2048"):
        sl.matrix_from_basis(ref, np.ones((forms.MAX_TOEPLITZ_N + 1, 1), dtype=np.int64))


def test_matrix_from_basis_refuses_vectors_of_another_length():
    for vectors in ([1, 0, 1], [[1, 0]], np.ones((2, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="basis vectors must have length n=3"):
            sl.matrix_from_basis(CLIFF3, vectors)
    with pytest.raises(ValueError):  # ragged
        sl.matrix_from_basis(CLIFF3, [[1, 0, 1], [1, 0]])


def test_matrix_from_basis_single_vector():
    out = sl.matrix_from_basis(CLIFF3, [np.array([1, 0, 1])])
    assert out.entries.tolist() == [[0]]


def test_matrix_from_basis_invertible_preserves_nondegeneracy():
    ref = sl.clifford_matrix(2, 4)
    basis = [
        np.array([1, 0, 0, 0]),
        np.array([1, 1, 0, 0]),
        np.array([0, 1, 1, 0]),
        np.array([1, 1, 1, 1]),
    ]
    out = sl.matrix_from_basis(ref, basis)
    assert brute_kernel_set(out.entries, 2) == {(0, 0, 0, 0)}


def test_matrix_from_basis_invertible_preserves_rank():
    from spinlab import gf

    rng = np.random.default_rng(17)
    for seed in range(10):
        ref = sl.random_alternating(2, 6, seed=seed)
        while True:
            rows = rng.integers(0, 2, size=(6, 6))
            if gf.rank(rows, 2) == 6:
                break
        out = sl.matrix_from_basis(ref, list(rows))
        assert sl.form_rank(out) == sl.form_rank(ref)
        # brute-force confirmation on the output
        assert len(brute_kernel_set(out.entries, 2)) == 2 ** (6 - sl.form_rank(out))
