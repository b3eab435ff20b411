"""Seeded inputs and job lists of the four spinlab benchmark workloads.

A workload is a fixed ladder of job *shapes* (job type, p, n, r, d, ...).
One round runs every shape once, in a seeded order, on freshly drawn
inputs; the seed draws only the random contents (a change of basis, a
banded pattern, sign flips, word vectors).  Every round therefore has
the same cost profile, and all inputs of a run are distinct, so a cache
keyed on the input only helps if it shares work inside one job.

Matrices are planted: C = B S B^T for the standard form S of rank 2r
with kernel dimension d and a random invertible B (the construction of
``matrix_from_basis(standard_form(p, r, d), B)``, computed here in
numpy).  The rank, and with it the representation dimension p^r, is
then a property of the shape rather than of the seed.

The sizes stay below the known limits in LIMITS, which would stall a
run or exhaust the machine's memory.  ROADMAP items 2 and 5 own those
defects; a change that lifts one may add a workload above it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

LIMITS = [
    "commutant_dim at dim 64 takes about 144 s, and at dim 27 (about 1 s) its BLAS-bound time "
    "follows the machine's load much less than the speed probe does (bench/speed.py); "
    "library-check stays at dim <= 16",
    "classify at d = 16 writes 256 MB in about 20 s; rep-serialize stays at d <= 10",
    "represent --kind irr on a random p = 2 matrix with n = 40 (r = 19..20, dim 2^20, inside "
    "DEFAULT_MAX_DIM) was killed for lack of memory on an 8 GB machine; rep-serialize stays at "
    "dim <= 2^12 for irr and 2^13 for prop11",
]

# Product checks and invariant checks per library-check job.
WORD_CHECKS = 150


@dataclass
class Job:
    """One unit of work.  ``run(out, phase)`` is the timed part: it calls
    spinlab, writes the job's output to ``out`` and returns an exit code.
    ``check(data)`` is the untimed oracle on the bytes written; it raises
    oracles.CheckFailed."""

    kind: str
    props: dict
    run: Callable[[str, Callable], int]
    check: Callable[[bytes], None]


def job_rng(key: tuple[int, int, int]) -> np.random.Generator:
    """The generator of one job; key = (seed, round, shape index)."""
    return np.random.default_rng(list(key))


def planted_matrix(rng: np.random.Generator, p: int, r: int, d: int) -> np.ndarray:
    """B S B^T mod p: an alternating matrix of rank exactly 2r and kernel
    dimension d, B = P L U random invertible (unit triangular factors)."""
    n = 2 * r + d
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    b = (lower @ upper % p)[rng.permutation(n)]
    s = np.zeros((n, n), dtype=np.int64)
    i = np.arange(r)
    s[2 * i, 2 * i + 1] = 1
    s[2 * i + 1, 2 * i] = p - 1
    return b @ s @ b.T % p


@functools.lru_cache(maxsize=None)
def _band_kernel_dim(p: int, pattern: tuple[int, ...], n: int) -> int:
    return n - oracles.gf_rank(oracles.toeplitz_entries(p, pattern, n), p)


def band_pattern(key: tuple[int, int, int], p: int, n: int, m: int, zeros: int, d: int) -> list[int]:
    """A length-m pattern over Z_p with ``zeros`` zero values before its
    nonzero last value, whose n x n matrix has kernel dimension d.

    The zero count and d fix the band's density and rank, which set the
    cost of the elimination and the size of the output.  The pattern is
    the round's entry in a seeded permutation of all matching patterns,
    so rounds do not repeat one while the class has enough of them."""
    patterns = []
    for zs in itertools.combinations(range(m - 1), zeros):
        nonzero = [i for i in range(m) if i not in zs]
        for vals in itertools.product(range(1, p), repeat=len(nonzero)):
            pattern = [0] * m
            for i, v in zip(nonzero, vals):
                pattern[i] = v
            patterns.append(tuple(pattern))
    seed, round_idx, shape_idx = key
    order = np.random.default_rng([seed, shape_idx]).permutation(len(patterns))
    matching = (patterns[i] for i in itertools.cycle(order) if _band_kernel_dim(p, patterns[i], n) == d)
    return list(next(itertools.islice(matching, round_idx % len(patterns), None)))


def matrix_text(p: int, ent: np.ndarray) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in ent.tolist())
    return f"{p} {ent.shape[0]}\n{rows}\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(spinlab, argv: list[str]):
    return lambda out, phase: spinlab.cli.main(argv + ["--out", out])


def _doc(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise oracles.CheckFailed(f"output is not JSON: {exc}")


# ---------------------------------------------------------------------------
# job makers: each draws its input from its key and writes its files under dirpath


def basis_job(spinlab, key, dirpath, p, r, d):
    rng = job_rng(key)
    ent = planted_matrix(rng, p, r, d)
    path = _write(os.path.join(dirpath, "in.txt"), matrix_text(p, ent))
    return Job(
        "basis", dict(p=p, n=2 * r + d, r=r, d=d),
        _cli(spinlab, ["basis", path]),
        lambda data: oracles.check_basis(_doc(data), ent, p, r, d),
    )


def analyze_job(spinlab, key, dirpath, p, r, d):
    rng = job_rng(key)
    ent = planted_matrix(rng, p, r, d)
    path = _write(os.path.join(dirpath, "in.txt"), matrix_text(p, ent))
    return Job(
        "analyze", dict(p=p, n=2 * r + d, r=r, d=d),
        _cli(spinlab, ["analyze", "--json", path]),
        lambda data: oracles.check_analyze_explicit(_doc(data), ent, p, r, d),
    )


def _band_file(dirpath, pattern, p):
    text = f"{p} toeplitz {len(pattern)}\n{' '.join(map(str, pattern))}\n"
    return _write(os.path.join(dirpath, "in.txt"), text)


def grow_job(spinlab, key, dirpath, p, n, m, zeros, d):
    pattern = band_pattern(key, p, n, m, zeros, d)
    path = _band_file(dirpath, pattern, p)
    return Job(
        "grow", dict(p=p, n=n, m=m, d=d),
        _cli(spinlab, ["grow", "--json", "--n-max", str(n), path]),
        lambda data: oracles.check_grow(_doc(data), p, pattern, n),
    )


def band_analyze_job(spinlab, key, dirpath, p, n, m, zeros, d):
    pattern = band_pattern(key, p, n, m, zeros, d)
    path = _band_file(dirpath, pattern, p)
    return Job(
        "analyze-band", dict(p=p, n=n, m=m, d=d),
        _cli(spinlab, ["analyze", "--json", "--n-max", str(n), path]),
        lambda data: oracles.check_analyze_band(_doc(data), p, pattern, n),
    )


def irr_job(spinlab, key, dirpath, p, r, d, with_invariant):
    """represent --kind irr; with_invariant draws a target invariant by
    random sign flips of the reference invariant (p = 2)."""
    rng = job_rng(key)
    ent = planted_matrix(rng, p, r, d)
    path = _write(os.path.join(dirpath, "in.txt"), matrix_text(p, ent))
    argv = ["represent", "--kind", "irr", path]
    target = None
    if with_invariant:
        mat = spinlab.commutation_matrix(p, ent)
        ref = spinlab.reference_invariant(mat)
        flips = rng.integers(0, 2, ref.d)
        target = tuple(int(v + 2 * s) % 4 for v, s in zip(ref.values, flips))
        inv = spinlab.StandardInvariant(mat, ref.kernel_basis, target)
        doc = spinlab.formats.invariant_to_dict(inv)
        argv += ["--invariant", _write(os.path.join(dirpath, "inv.json"), json.dumps(doc))]
    kind = "represent-irr-inv" if with_invariant else "represent-irr"
    return Job(
        kind, dict(p=p, n=2 * r + d, r=r, d=d, dim=p ** r),
        _cli(spinlab, argv),
        lambda data: oracles.check_representation(spinlab, _doc(data), ent, p, p ** r, target),
    )


def prop11_job(spinlab, key, dirpath, p, r, d):
    rng = job_rng(key)
    ent = planted_matrix(rng, p, r, d)
    n = 2 * r + d
    path = _write(os.path.join(dirpath, "in.txt"), matrix_text(p, ent))
    return Job(
        "represent-prop11", dict(p=p, n=n, r=r, d=d, dim=p ** n),
        _cli(spinlab, ["represent", "--kind", "prop11", path]),
        lambda data: oracles.check_representation(spinlab, _doc(data), ent, p, p ** n),
    )


def classify_job(spinlab, key, dirpath, r, d):
    rng = job_rng(key)
    ent = planted_matrix(rng, 2, r, d)
    path = _write(os.path.join(dirpath, "in.txt"), matrix_text(2, ent))
    return Job(
        "classify", dict(p=2, n=2 * r + d, r=r, d=d),
        _cli(spinlab, ["classify", path]),
        lambda data: oracles.check_classify(_doc(data), ent, d),
    )


def library_job(spinlab, key, dirpath, p, r, d):
    """irreducible_rep -> verify_relations -> commutant_dim ->
    extract_invariant, then WORD_CHECKS product checks (word_mul against
    word_matrix products) and WORD_CHECKS invariant checks
    (evaluate_invariant against the scalar of the kernel word matrix)."""
    rng = job_rng(key)
    ent = planted_matrix(rng, p, r, d)
    n = 2 * r + d
    xs = rng.integers(0, p, (WORD_CHECKS, n))
    ys = rng.integers(0, p, (WORD_CHECKS, n))
    coeffs = rng.integers(0, p, (WORD_CHECKS, d))
    found = {}

    def run(out, phase):
        mat = spinlab.commutation_matrix(p, ent)
        rep = spinlab.irreducible_rep(mat)
        relations_ok = spinlab.verify_relations(rep).ok
        commutant = spinlab.commutant_dim(rep)
        inv = spinlab.extract_invariant(rep)
        with phase("verify"):
            bad_products = 0
            for x, y in zip(xs, ys):
                w = spinlab.word_mul(spinlab.Word(0, x, mat), spinlab.Word(0, y, mat))
                lhs = spinlab.mono_mul(spinlab.word_matrix(rep, x), spinlab.word_matrix(rep, y))
                if lhs != spinlab.mono_scale(spinlab.word_matrix(rep, w.x), w.phase):
                    bad_products += 1
            kernel = np.array(inv.kernel_basis, dtype=np.int64).reshape(d, n)
            bad_values = 0
            for a in coeffs:
                x = a @ kernel % p
                if spinlab.is_scalar(spinlab.word_matrix(rep, x)) != spinlab.evaluate_invariant(inv, x):
                    bad_values += 1
        with phase("serialise"):
            doc = {
                "representation": spinlab.formats.representation_to_dict(rep),
                "invariant": spinlab.formats.invariant_to_dict(inv),
                "relations_ok": relations_ok,
                "commutant_dim": commutant,
                "bad_products": bad_products,
                "bad_invariant_values": bad_values,
            }
            _write(out, json.dumps(doc, sort_keys=True))
        found["rep"] = rep
        found["invariant"] = inv.values
        return 0

    def check(data):
        doc = _doc(data)
        require = oracles.require
        require(doc["relations_ok"], "verify_relations failed")
        require(doc["commutant_dim"] == 1, f"commutant dim {doc['commutant_dim']} != 1")
        require(doc["bad_products"] == 0, f"{doc['bad_products']} word products disagree with word_matrix")
        require(doc["bad_invariant_values"] == 0, f"{doc['bad_invariant_values']} invariant values disagree")
        rep = oracles.check_representation(spinlab, doc["representation"], ent, p, p ** r, found["invariant"])
        require(all(a == b for a, b in zip(rep.generators, found["rep"].generators)), "document differs from the rep")

    return Job("library", dict(p=p, n=n, r=r, d=d, dim=p ** r), run, check)


# ---------------------------------------------------------------------------
# workloads: one round = one job per shape


@dataclass(frozen=True)
class Workload:
    """A job ladder; BENCHMARK.json says why each workload is there."""

    name: str
    shapes: list[tuple]            # (maker, *args)
    warmup: list[tuple]            # small shapes, one per job type
    trace_pairs: int               # untraced + traced round pairs of a traced run
    round_s: float                 # seconds per round (jobs, drawing, checks), reference machine

    def rounds(self, seconds: float) -> int:
        """Rounds of a run measuring about ``seconds`` on the reference
        machine (2 vCPUs of a 2.1 GHz Xeon).  The count depends on
        ``seconds`` only, not on how fast the program runs, so every run
        measures the same work and per-shape statistics see the same
        number of samples."""
        return max(MIN_ROUNDS, round(seconds / self.round_s))


# A run makes at least MIN_ROUNDS rounds.  job_ms_p50 is the median over
# the job shapes of each shape's median latency, so each ladder has an odd
# number of shapes whose middle one sits inside a tier of similar jobs.
MIN_ROUNDS = 3

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "dense-basis",
            [
                (basis_job, 2, 64, 32), (basis_job, 3, 64, 32), (basis_job, 5, 60, 40), (basis_job, 3, 60, 40),
                (analyze_job, 2, 80, 32), (analyze_job, 3, 80, 32), (analyze_job, 5, 80, 32), (analyze_job, 3, 72, 16),
                (basis_job, 2, 24, 16), (analyze_job, 3, 40, 16), (analyze_job, 2, 44, 40),
            ],
            [(basis_job, 3, 20, 16), (analyze_job, 2, 30, 10)],
            2,
            3.3,
        ),
        Workload(
            "band-growth",
            [
                (grow_job, 3, 128, 6, 2, 0), (grow_job, 2, 96, 8, 3, 0),
                (band_analyze_job, 3, 96, 5, 1, 2), (grow_job, 3, 96, 6, 1, 0),
                (band_analyze_job, 3, 80, 7, 2, 0), (grow_job, 3, 80, 5, 0, 0),
                (band_analyze_job, 3, 80, 6, 3, 2), (grow_job, 2, 80, 7, 3, 0),
                (grow_job, 3, 64, 4, 1, 0), (band_analyze_job, 2, 64, 8, 4, 0), (band_analyze_job, 3, 64, 4, 0, 0),
            ],
            [(grow_job, 2, 16, 5, 1, 2), (band_analyze_job, 3, 16, 3, 0, 0)],
            2,
            4.0,
        ),
        Workload(
            "rep-serialize",
            [
                (prop11_job, 2, 6, 1), (irr_job, 2, 12, 0, False), (classify_job, 1, 10), (classify_job, 6, 9),
                (irr_job, 2, 11, 2, True), (irr_job, 2, 10, 4, True), (irr_job, 2, 10, 4, False),
                (irr_job, 3, 7, 2, False), (prop11_job, 2, 6, 0),
                (prop11_job, 2, 5, 0), (prop11_job, 2, 5, 1), (irr_job, 2, 9, 6, True), (classify_job, 6, 8),
            ],
            [(irr_job, 2, 2, 2, True), (irr_job, 3, 2, 1, False), (prop11_job, 2, 2, 1), (classify_job, 2, 2)],
            3,
            1.4,
        ),
        Workload(
            "library-check",
            [
                (library_job, 2, 4, 6), (library_job, 2, 4, 4), (library_job, 2, 4, 3), (library_job, 2, 4, 2),
                (library_job, 2, 4, 1), (library_job, 3, 2, 5), (library_job, 3, 2, 3), (library_job, 3, 2, 2),
                (library_job, 2, 3, 6), (library_job, 2, 3, 4), (library_job, 2, 3, 2),
                (library_job, 2, 2, 3), (library_job, 3, 1, 4),
            ],
            [(library_job, 2, 2, 1), (library_job, 3, 1, 1)],
            1,
            2.2,
        ),
    ]
}


# Round index of the warm-up jobs, apart from the measured rounds 0, 1, ...
WARMUP_ROUND = 1 << 30


def build_round(spinlab, shapes: list[tuple], seed: int, round_idx: int, dirpath: str) -> list[tuple[int, Job]]:
    """(shape index, job) for the jobs of one round, in a seeded order,
    with inputs under dirpath."""
    jobs = []
    for index, (maker, *args) in enumerate(shapes):
        jobdir = os.path.join(dirpath, f"r{round_idx}-{index}")
        os.makedirs(jobdir, exist_ok=True)
        jobs.append(maker(spinlab, (seed, round_idx, index), jobdir, *args))
    order = np.random.default_rng([seed, round_idx]).permutation(len(jobs))
    return [(int(i), jobs[i]) for i in order]
