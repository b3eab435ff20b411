"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are integer-exact unless a numeric tolerance is stated.
"""

import itertools
import json
import pathlib
import time

import numpy as np
import pytest

import spinlab as sl
from spinlab import formats, gf
from spinlab.cli import main
from spinlab.reps import mono_mul, mono_scale, to_dense

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(num, name, failures, elapsed=None, budget=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"ACCEPTANCE {num} {name}: {status}{timing}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def _pair_relations_hold(mat, basis):
    p, ent = mat.p, mat.entries
    r = basis.r
    if r:
        e = np.stack(basis.e, axis=0).astype(np.int64)
        f = np.stack(basis.f, axis=0).astype(np.int64)
        if ((e @ ent @ e.T) % p).any() or ((f @ ent @ f.T) % p).any():
            return False
        if not np.array_equal((e @ ent @ f.T) % p, np.eye(r, dtype=np.int64)):
            return False
    for k in basis.kernel.astype(np.int64):
        if ((ent @ k) % p).any():
            return False
    return True


def test_criterion_1_symplectic_basis_suite():
    start = time.perf_counter()
    failures = []
    for p in (2, 3, 5):
        for i in range(200):
            n = (i % 16) + 1
            mat = sl.random_alternating(p, n, seed=10_000 * p + i)
            basis = sl.symplectic_basis(mat)
            if not _pair_relations_hold(mat, basis):
                failures.append((p, i, "relations"))
            if 2 * basis.r + basis.d != n:
                failures.append((p, i, "dimension count"))
            if sl.form_rank(mat) % 2:
                failures.append((p, i, "odd rank"))
            t = sl.congruence_to_standard(mat)
            block = sl.standard_form(p, basis.r, basis.d).entries
            if not np.array_equal((t.T @ mat.entries @ t) % p, block):
                failures.append((p, i, "congruence"))
    report(1, "symplectic basis suite", failures, time.perf_counter() - start, 5.0)


def test_criterion_2_tensor_ladder_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    cases = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)]
    for p, n in cases:
        mat = sl.random_alternating(p, n, seed=100 * p + n)
        rep = sl.prop11_rep(mat)
        if not sl.verify_relations(rep).ok:
            failures.append((p, n, "relations"))
        exhaustive = (p == 2 and n <= 6) or (p == 3 and n <= 6)
        if exhaustive:
            for x in itertools.product(range(p), repeat=n):
                x = np.array(x, dtype=np.int64)
                if (sl.is_scalar(sl.word_matrix(rep, x)) is not None) != (not x.any()):
                    failures.append((p, n, "faithfulness", tuple(x)))
        else:
            for _ in range(2500):  # 10^4 random checks over the four larger cases
                x = rng.integers(0, p, size=n)
                if (sl.is_scalar(sl.word_matrix(rep, x)) is not None) != (not x.any()):
                    failures.append((p, n, "faithfulness", tuple(x)))
    report(2, "tensor-ladder representation suite", failures, time.perf_counter() - start, 10.0)


def test_criterion_3_irreducible_rep_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(31)
    for i in range(100):
        n = (i % 10) + 1
        mat = sl.random_alternating(2, n, seed=777 + i)
        f0 = sl.reference_invariant(mat)
        flips = rng.integers(0, 2, size=f0.d)
        target = sl.StandardInvariant(
            mat, f0.kernel_basis,
            tuple((v + 2 * int(b)) % 4 for v, b in zip(f0.values, flips)),
        )
        rep = sl.irreducible_rep(mat, target)
        r = sl.form_rank(mat) // 2
        if rep.dim != 2 ** r:
            failures.append((i, "dimension"))
        if not all(
            sl.is_scalar(sl.word_matrix(rep, k)) is not None for k in f0.kernel_basis
        ):
            failures.append((i, "kernel word not scalar"))
        if sl.extract_invariant(rep) != target:
            failures.append((i, "invariant round trip"))
        if sl.commutant_dim(rep) != 1:
            failures.append((i, "commutant"))
    report(3, "irreducible representation suite", failures, time.perf_counter() - start, 30.0)


def test_criterion_4_matrix_units_suite():
    failures = []
    for p in (2, 3, 5):
        units = sl.matrix_units(sl.shift(p), sl.clock(p))
        for (i, j), (k, l) in itertools.product(
            itertools.product(range(p), repeat=2), repeat=2
        ):
            expect = units[i * p + l] if j == k else np.zeros((p, p))
            if np.abs(units[i * p + j] @ units[k * p + l] - expect).max() > 1e-10:
                failures.append((p, "product", (i, j, k, l)))
        for i, j in itertools.product(range(p), repeat=2):
            if np.abs(units[i * p + j].conj().T - units[j * p + i]).max() > 1e-10:
                failures.append((p, "adjoint", (i, j)))
        if np.abs(sum(units[i * p + i] for i in range(p)) - np.eye(p)).max() > 1e-10:
            failures.append((p, "sum"))
        flat = np.stack([u.reshape(-1) for u in units], axis=0)
        if np.linalg.matrix_rank(flat, tol=1e-10) != p * p:
            failures.append((p, "span"))
    report(4, "matrix units suite", failures)


def test_criterion_5_classification_suite():
    failures = []
    cases = [sl.random_alternating(2, n, seed=50 + n) for n in range(1, 11)]
    cases += [
        sl.commutation_matrix(2, np.zeros((d, d), dtype=int)) for d in (4, 6, 8)
    ]
    for mat in cases:
        n = mat.n
        d = len(sl.form_kernel(mat))
        if d > 8:  # the criterion restricts to kernel dimension <= 8
            continue
        invariants = sl.enumerate_invariants(mat)
        if len(invariants) != 2 ** d:
            failures.append((n, "count"))
        for f, g in itertools.combinations(invariants, 2):
            if f == g:
                failures.append((n, "duplicate invariants"))
        kernel = invariants[0].kernel_basis
        signatures = {
            tuple(int(np.asarray(gamma) @ k) % 2 for k in kernel)
            for gamma in itertools.product(range(2), repeat=n)
        }
        if len(signatures) != 2 ** d:
            failures.append((n, "gamma partition"))
        f0 = invariants[0]
        for g in invariants:
            gamma = sl.realize_invariant(g, f0)
            if sl.phase_shift_invariant(f0, gamma) != g:
                failures.append((n, "realize round trip"))
    report(5, "classification suite", failures)


def _identities_hold(mat, x, y, z):
    p = mat.p
    p2 = p * p
    # omega = Q - Q^T
    if sl.omega(mat, x, y) != (sl.q_form(mat, x, y) - sl.q_form(mat, y, x)) % p:
        return "omega vs Q"
    wx, wy, wz = (sl.Word(0, v, mat) for v in (x, y, z))
    ab = sl.word_mul(wx, wy)
    # Weyl product: phase is p*Q(x, y), exponent vectors add
    if ab.phase != (p * sl.q_form(mat, x, y)) % p2 or not np.array_equal(
        ab.x, (x + y) % p
    ):
        return "Weyl product"
    # reorder phase links the two products
    ba = sl.word_mul(wy, wx)
    if ab.phase != (ba.phase + sl.commutation_phase(x, y, mat)) % p2:
        return "commutation phase"
    # associativity
    if sl.word_mul(ab, wz) != sl.word_mul(wx, sl.word_mul(wy, wz)):
        return "associativity"
    # normalization
    if not sl.word_pow(sl.normalize(x, mat), p).is_identity:
        return "normalization"
    return None


def test_criterion_6_word_identities():
    failures = []
    # exhaustive: p = 2, n <= 4, all vectors, all pairs/triples
    for n in range(1, 5):
        for seed in (0, 1):
            mat = sl.random_alternating(2, n, seed=seed)
            vecs = [np.array(v, dtype=np.int64)
                    for v in itertools.product(range(2), repeat=n)]
            for x, y, z in itertools.product(vecs, repeat=3):
                problem = _identities_hold(mat, x, y, z)
                if problem:
                    failures.append((2, n, seed, problem))
    # randomized: 10^5 cases over p in {3, 5} at n = 12
    rng = np.random.default_rng(6)
    for p in (3, 5):
        mat = sl.random_alternating(p, 12, seed=p)
        for _ in range(50_000):
            x, y, z = (rng.integers(0, p, size=12) for _ in range(3))
            problem = _identities_hold(mat, x, y, z)
            if problem:
                failures.append((p, problem, x, y, z))
    report(6, "word-algebra identities", failures)


def test_criterion_7_cross_oracle():
    failures = []
    rng = np.random.default_rng(7)
    reps = [
        sl.prop11_rep(sl.random_alternating(2, 6, seed=1)),
        sl.prop11_rep(sl.random_alternating(3, 4, seed=2)),
        sl.irreducible_rep(sl.random_alternating(2, 8, seed=3)),
        sl.irreducible_rep(sl.random_alternating(3, 4, seed=4)),
    ]
    for rep in reps:
        mat = rep.mat
        for _ in range(1000):
            x = rng.integers(0, mat.p, size=mat.n)
            y = rng.integers(0, mat.p, size=mat.n)
            symbolic = sl.word_mul(sl.Word(0, x, mat), sl.Word(0, y, mat))
            lhs = mono_mul(sl.word_matrix(rep, x), sl.word_matrix(rep, y))
            rhs = mono_scale(sl.word_matrix(rep, symbolic.x), symbolic.phase)
            if lhs != rhs:
                failures.append((rep.dim, mat.p, tuple(x), tuple(y)))
    report(7, "cross-oracle words vs matrices", failures)


def test_criterion_8_clifford_golden_case():
    failures = []
    mat = sl.clifford_matrix(2, 3)
    k = np.array([1, 1, 1])
    if [v.tolist() for v in sl.form_kernel(mat)] != [[1, 1, 1]]:
        failures.append("kernel basis")
    if sl.form_rank(mat) != 2:
        failures.append("rank")
    if sl.structure_report(mat).descriptor != "C(X_2) ⊗ M_2":
        failures.append("descriptor")
    if sl.q_form(mat, k, k) != 1:
        failures.append("Q(k,k)")
    invariants = sl.enumerate_invariants(mat)
    if sorted(f.values[0] for f in invariants) != [1, 3]:  # {+i, -i}
        failures.append("class values")
    for f in invariants:
        # symbolic square law: f(k)^2 = (-1)^{Q(k,k)} = -1
        if (2 * f.values[0]) % 4 != 2 or not sl.invariant_square_check(f):
            failures.append("square law (symbolic)")
        rep = sl.irreducible_rep(mat, f)
        if rep.dim != 2:
            failures.append("rep dimension")
        scalar = sl.is_scalar(sl.word_matrix(rep, k))
        if scalar != f.values[0]:
            failures.append("rep scalar")
        dense = to_dense(sl.word_matrix(rep, k))
        expected = (1j if f.values[0] == 1 else -1j) * np.eye(2)
        if np.abs(dense - expected).max() > 1e-12:
            failures.append("dense scalar")
    report(8, "Clifford golden case", failures)


def test_criterion_9_cli_conformance(capsys):
    failures = []
    golden_cases = [
        ("analyze_pauli.txt", ["analyze", FIXTURES / "pauli.txt"]),
        ("analyze_pauli.json", ["analyze", FIXTURES / "pauli.txt", "--json"]),
        ("analyze_zero3.txt", ["analyze", FIXTURES / "zero3.txt"]),
        ("analyze_clifford3.txt", ["analyze", FIXTURES / "clifford3.txt"]),
        ("analyze_clifford3.json", ["analyze", FIXTURES / "clifford3.txt", "--json"]),
        ("analyze_band.json", ["analyze", FIXTURES / "band.txt", "--n-max", "6", "--json"]),
        ("generate_clifford3.txt", ["generate", "--clifford", "3"]),
        ("generate_random_p3_seed7.txt",
         ["generate", "--random", "4", "--seed", "7", "--prime", "3"]),
        ("grow_band.txt", ["grow", FIXTURES / "band.txt", "--n-max", "6"]),
        ("grow_band.json", ["grow", FIXTURES / "band.txt", "--n-max", "6", "--json"]),
    ]
    for name, argv in golden_cases:
        outputs = []
        for _ in range(2):  # byte-identical across runs
            code = main([str(a) for a in argv])
            out = capsys.readouterr().out
            if code != 0:
                failures.append((name, "exit", code))
            outputs.append(out)
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        if outputs[0] != expected or outputs[1] != expected:
            failures.append((name, "bytes differ"))
        if name.endswith(".json"):
            doc = json.loads(outputs[0])
            if "schema" in doc and doc["schema"] != formats.SCHEMA_VERSION:
                failures.append((name, "schema"))
    # generate output parses back to the identical matrix
    code = main(["generate", "--clifford", "3"])
    out = capsys.readouterr().out
    if formats.parse_matrix_file(out).materialize() != sl.clifford_matrix(2, 3):
        failures.append(("generate round trip",))
    report(9, "CLI conformance", failures)
