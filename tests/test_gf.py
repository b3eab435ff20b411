"""Exact linear algebra over GF(p)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import gf
from spinlab.errors import SizeBoundError

from conftest import brute_rank, enum_vectors, gf_inverse, gf_solve, rref_stepwise


def test_rref_zero_matrix():
    r, pivots = gf.rref(np.zeros((3, 3), dtype=int), 2)
    assert not r.any()
    assert pivots == []


def test_rref_identity():
    r, pivots = gf.rref(np.eye(4, dtype=int), 3)
    assert np.array_equal(r, np.eye(4, dtype=int))
    assert pivots == [0, 1, 2, 3]


def test_rref_swap_matrix():
    # hand elimination: [[0,1],[1,0]] row-swaps to the identity
    r, pivots = gf.rref(np.array([[0, 1], [1, 0]]), 2)
    assert np.array_equal(r, np.eye(2, dtype=int))
    assert pivots == [0, 1]


def test_rref_scales_pivots_mod_5():
    r, pivots = gf.rref(np.array([[2, 1], [0, 3]]), 5)
    assert np.array_equal(r, np.eye(2, dtype=int))
    assert pivots == [0, 1]


def test_rank_examples():
    assert gf.rank(np.zeros((4, 4), dtype=int), 2) == 0
    cliff3 = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
    cliff4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    assert gf.rank(cliff3, 2) == 2 == brute_rank(cliff3, 2)
    assert gf.rank(cliff4, 2) == 4 == brute_rank(cliff4, 2)


# --- the gf_solve and gf_inverse oracles of conftest, on gf.rref ---------


def test_solve_identity():
    b = np.array([1, 0, 2])
    x = gf_solve(np.eye(3, dtype=int), b, 3)
    assert np.array_equal(x, b)


def test_solve_inconsistent():
    assert gf_solve(np.zeros((2, 2), dtype=int), np.array([1, 0]), 2) is None


def test_solve_free_variables_zero():
    x = gf_solve(np.array([[1, 1], [0, 0]]), np.array([1, 0]), 2)
    assert x.tolist() == [1, 0]


def test_solve_rhs_length_checked():
    with pytest.raises(ValueError):
        gf_solve(np.eye(2, dtype=int), np.array([1, 0, 0]), 2)


def test_inverse_round_trip():
    m = np.array([[1, 2, 0], [0, 1, 4], [3, 0, 2]])
    inv = gf_inverse(m, 5)
    assert np.array_equal((m @ inv) % 5, np.eye(3, dtype=int))


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        gf_inverse(np.ones((2, 2), dtype=int), 2)


def test_validate_prime():
    for p in (2, 3, 5, 7, 251):
        assert gf.validate_prime(p) == p
    for bad in (1, 4, 9, 253, 1009):
        with pytest.raises(ValueError):
            gf.validate_prime(bad)


small_matrices = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2 ** 32 - 1),
)


def _random_matrix(p, m, n, seed):
    return np.random.default_rng(seed).integers(0, p, size=(m, n))


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1)))
def test_rank_matches_brute_force_gf2(params):
    m, n, seed = params
    mat = _random_matrix(2, m, n, seed)
    assert gf.rank(mat, 2) == brute_rank(mat, 2)


@settings(deadline=None)
@given(small_matrices, st.integers(0, 2 ** 32 - 1))
def test_solve_verifies_or_truly_absent(params, bseed):
    p, m, n, seed = params
    mat = _random_matrix(p, m, n, seed)
    b = np.random.default_rng(bseed).integers(0, p, size=m)
    x = gf_solve(mat, b, p)
    if x is not None:
        assert np.array_equal((mat @ x) % p, b % p)
    else:
        assert all(
            not np.array_equal((mat @ v) % p, b % p) for v in enum_vectors(p, n)
        )


def test_solve_absent_confirmed_by_brute_force_n12():
    # rank-deficient wide systems over GF(2) with a right side chosen to
    # break the row dependency: solve must say absent, and exhaustive
    # search over all 2^12 vectors agrees
    rng = np.random.default_rng(99)
    for _ in range(3):
        rows = rng.integers(0, 2, size=(3, 12))
        mat = np.vstack([rows, (rows[0] + rows[1]) % 2])
        b = np.array([0, 0, 0, 1])
        assert gf_solve(mat, b, 2) is None
        assert all(
            not np.array_equal((mat @ v) % 2, b) for v in enum_vectors(2, 12)
        )


# --- deferred reduction against the reduce-every-step oracle --------------


@st.composite
def gf_matrices(draw):
    """(matrix, p) with m, n <= 40: uniform, zero, rank-deficient (a
    product through k < min(m, n) columns), or uniform but unreduced
    (negative and >= p entries).  Empty shapes are included."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["uniform", "zero", "deficient", "unreduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, p, size=(m, n))
    if kind == "zero":
        a[:] = 0
    elif kind == "deficient":
        k = int(rng.integers(0, max(1, min(m, n))))
        a = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
    elif kind == "unreduced":
        a += p * rng.integers(-3, 4, size=(m, n))
    return a, p


@settings(deadline=None, max_examples=300)
@given(gf_matrices())
def test_rref_matches_stepwise_oracle(case):
    a, p = case
    before = a.copy()
    r, pivots = gf.rref(a, p)
    r_ref, pivots_ref = rref_stepwise(a, p)
    assert np.array_equal(a, before)  # the input is not written
    assert pivots == pivots_ref
    assert r.dtype == np.int64 and np.array_equal(r, r_ref)


@pytest.mark.parametrize("shape", [(300, 300), (280, 320)])
def test_rref_matches_stepwise_oracle_p251_large(shape):
    # ~300 pivots at p = 251 let the unreduced entries grow to ~10^7
    a = np.random.default_rng(251).integers(0, 251, size=shape)
    a[-20:] = (a[:20] * 7 + a[20:40]) % 251  # rank-deficient tail
    r, pivots = gf.rref(a, 251)
    r_ref, pivots_ref = rref_stepwise(a, 251)
    assert pivots == pivots_ref and len(pivots) == shape[0] - 20
    assert np.array_equal(r, r_ref)


# --- integer input only -----------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        [0.9, 1.2],
        np.array([1.0, 2.0]),
        [1 + 2j, 0],
        np.array(["1", "2"]),
        np.array([1, 1.5], dtype=object),
        np.array([1, "2"], dtype=object),
        np.array([7, np.int32(-1)], dtype=object),
        [2**63],
        [2**70],
        np.array([5, 2**64 - 1], dtype=np.uint64),
    ],
)
def test_as_gf_array_rejects_non_integers(value):
    with pytest.raises(ValueError, match="integer"):
        gf.as_gf_array(value, 5)


def test_as_gf_array_accepts_integer_types():
    assert gf.as_gf_array([True, False], 3).tolist() == [1, 0]
    assert gf.as_gf_array(np.array([7, 9], dtype=np.uint8), 5).tolist() == [2, 4]
    assert gf.as_gf_array(np.array([7, 2**63 - 1], dtype=np.uint64), 5).tolist() == [2, 2]
    assert gf.as_gf_array([], 5).shape == (0,)
    assert gf.as_gf_array([], 5).dtype == np.int64


def test_kernels_reject_float_matrices():
    with pytest.raises(ValueError, match="integer"):
        gf.rref(np.eye(2), 3)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 251]), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.integers(0, 2 ** 32))
def test_matmul_equals_the_int64_product(p, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3 * p, 3 * p, (m, k))  # unreduced operands are reduced first
    b = rng.integers(0, p, (k, n)).astype(np.int32)
    out = gf.matmul(a, b, p)
    assert out.dtype == np.int64 and out.shape == (m, n)
    assert np.array_equal(out, (a % p) @ b.astype(np.int64) % p)


def test_matmul_is_exact_at_p251_with_long_inner_dimension():
    # all entries p - 1: sums of k (p-1)^2 = 2.5e9, beyond int32
    a = np.full((3, 40000), 250)
    assert np.array_equal(gf.matmul(a, a.T, 251), a @ a.T % 251)


def test_exact_float_is_float32_then_float64_then_refused():
    # terms (p-1)^2 + p: 268 * 250^2 + 251 < 2^24 <= 269 * 250^2 + 251
    assert gf.exact_float(268, 251) is np.float32
    assert gf.exact_float(269, 251) is np.float64
    n = -(-(2 ** 53 - 251) // 250 ** 2)  # the least n with n 250^2 + 251 >= 2^53
    assert gf.exact_float(n - 1, 251) is np.float64
    with pytest.raises(SizeBoundError, match="float64"):
        gf.exact_float(n, 251)


@pytest.mark.parametrize("k", [268, 269])
def test_matmul_is_exact_on_both_sides_of_the_float32_bound(k):
    # entries p - 1, so the sums reach k (p-1)^2, the most the inner
    # dimension allows: float32 at k = 268, float64 at k = 269.  One 249 makes
    # a sum odd, which float32 cannot hold above 2^24 in any summation order
    a = np.full((2, k), 250)
    a[1, -1] = 249
    rows = a.tolist()
    want = [[sum(x * y for x, y in zip(u, v)) % 251 for v in rows] for u in rows]
    assert gf.matmul(a, a.T, 251).tolist() == want


@settings(deadline=None, max_examples=120)
@given(st.sampled_from([2, 3, 5, 251]), st.sampled_from([np.float32, np.float64]),
       st.sampled_from([(1, 2), (2, 1), (2, 2)]), st.integers(0, 6), st.booleans(),
       st.integers(0, 2 ** 32))
@example(251, np.float32, (2, 2), 0, True, 1)
@example(251, np.float64, (2, 2), 0, True, 1)
def test_mulmod_equals_python_int_sums(p, dtype, ndims, k, edge, seed):
    # operands of one float type with entries in (-p, p), 1-D @ 2-D, 2-D @ 1-D
    # or 2-D @ 2-D, inner dimension from 0.  At the edge, p = 251, entries
    # +-250 and inner dimension 268 in float32, 269 in float64, the most that
    # gf.exact_float allows: the first row of a and column of b are 250 but
    # for one 249 each, so one sum is odd and near the largest
    rng = np.random.default_rng(seed)
    if edge:
        p, k = 251, 268 if dtype is np.float32 else 269
    a_shape, b_shape = (3, k)[2 - ndims[0]:], (k, 2)[: ndims[1]]
    if edge:
        a, b = (250 * rng.choice([-1, 1], s) for s in (a_shape, b_shape))
    else:
        a, b = (rng.integers(1 - p, p, s) for s in (a_shape, b_shape))
    a2, b2 = np.atleast_2d(a), b[:, None] if b.ndim == 1 else b  # views
    if edge:
        a2[0], b2[:, 0] = 250, 250
        a2[0, -1] = b2[-1, 0] = 249
    rows, cols = a2.tolist(), b2.T.tolist()
    want = [sum(x * y for x, y in zip(u, v)) % p for u in rows for v in cols]
    out = gf._mulmod(a.astype(dtype), b.astype(dtype), p)
    assert out.dtype == np.int64 and out.shape == a_shape[:-1] + b_shape[1:]
    assert out.ravel().tolist() == want
