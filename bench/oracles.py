"""Output checks for the benchmark jobs.

Each check reads one job's output document and raises CheckFailed when
it is wrong.  The checks test mathematical properties of the answer
(pair relations, ranks, relation laws, class counts), never exact
bytes, so a later change that reorders a basis or reformats JSON still
passes while a wrong answer does not.  Ranks and kernels are checked
with the small elimination below, which shares no code with spinlab.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A job's output violates one of its oracle properties."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def gf_rank(a, p: int) -> int:
    """Rank over GF(p) by vectorised elimination (one numpy update per pivot)."""
    a = np.array(a, dtype=np.int64) % p
    if a.size == 0:
        return 0
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank])) % p
        rank += 1
    return rank


def _vectors(rows, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def _check_kernel(ent: np.ndarray, p: int, kernel: np.ndarray, d: int) -> None:
    require(kernel.shape[0] == d, f"kernel has {kernel.shape[0]} vectors, expected {d}")
    if d:
        require(not (ent @ kernel.T % p).any(), "a kernel vector is not in ker(C)")
        require(gf_rank(kernel, p) == d, "kernel vectors are dependent")


def check_basis(doc: dict, ent: np.ndarray, p: int, r: int, d: int) -> None:
    """Hyperbolic pairs with omega(e_i, f_j) = delta_ij, a kernel basis,
    2r + d = n, and e + f + kernel spanning GF(p)^n."""
    n = ent.shape[0]
    require(doc["p"] == p and doc["n"] == n, "p or n differ from the input")
    require(doc["r"] == r and doc["d"] == d, f"r, d = {doc['r']}, {doc['d']}; planted {r}, {d}")
    e, f, k = (_vectors(doc[key], n) for key in ("e", "f", "kernel"))
    require(e.shape[0] == r and f.shape[0] == r, "e and f must hold r vectors each")
    require(2 * e.shape[0] + k.shape[0] == n, "2r + d != n")
    require(np.array_equal(e @ ent @ f.T % p, np.eye(r, dtype=np.int64)), "omega(e_i, f_j) != delta_ij")
    require(not (e @ ent @ e.T % p).any(), "omega(e_i, e_j) != 0")
    require(not (f @ ent @ f.T % p).any(), "omega(f_i, f_j) != 0")
    _check_kernel(ent, p, k, d)
    require(gf_rank(np.vstack([e, f, k]), p) == n, "e, f and kernel do not span GF(p)^n")


def check_analyze_explicit(doc: dict, ent: np.ndarray, p: int, r: int, d: int) -> None:
    """The structure report of a planted matrix: rank 2r, kernel dim d."""
    n = ent.shape[0]
    require(doc["p"] == p and doc["n"] == n, "p or n differ from the input")
    require(doc["rank"] == 2 * r, f"rank {doc['rank']}, planted {2 * r}")
    require(doc["kernel_dim"] == d, f"kernel dim {doc['kernel_dim']}, planted {d}")
    _check_kernel(ent, p, _vectors(doc["kernel_basis"], n), d)
    require(doc["center_dim"] == p ** d, "center dim != p^d")
    require(doc["matrix_factor"] == f"M_{p ** r}", "matrix factor != M_{p^r}")
    require(doc["simple"] == (d == 0), "simple flag disagrees with d")
    require(doc["class_count"] == (2 ** d if p == 2 else None), "class count != 2^d")


def toeplitz_entries(p: int, pattern, n: int) -> np.ndarray:
    """The n x n banded alternating matrix of a pattern (independent of spinlab)."""
    ent = np.zeros((n, n), dtype=np.int64)
    for sep, v in enumerate(pattern, start=1):
        idx = np.arange(n - sep)
        ent[idx, idx + sep] = v
        ent[idx + sep, idx] = (-v) % p
    return ent


def check_prefix_ranks(ranks: list[int], p: int, pattern, ent: np.ndarray) -> None:
    """Prefix ranks are even, start at 0, rise by 0 or 2 per step, end at
    the independent rank of the whole matrix, and never fall below n - M
    for a pattern whose last nonzero separation is M."""
    n = ent.shape[0]
    require(len(ranks) == n, f"{len(ranks)} prefix ranks for n = {n}")
    require(ranks[0] == 0, "rank of the 1 x 1 prefix must be 0")
    require(all(k % 2 == 0 for k in ranks), "a prefix rank is odd")
    require(all(0 <= b - a <= 2 for a, b in zip(ranks, ranks[1:])), "a prefix rank step is not 0 or 2")
    require(ranks[-1] == gf_rank(ent, p), "last prefix rank differs from the rank of the matrix")
    m = len(pattern)
    require(all(ranks[k - 1] >= k - m for k in range(1, n + 1)), "a prefix rank is below n - M")
    for k in (n // 3, 2 * n // 3):
        require(ranks[k - 1] == gf_rank(ent[:k, :k], p), f"prefix rank at n = {k} is wrong")


def check_grow(doc: dict, p: int, pattern, n: int) -> None:
    require(doc["p"] == p and doc["pattern"] == list(pattern), "p or pattern differ from the input")
    require(doc["n_max"] == n, "n_max differs from the request")
    require([row["n"] for row in doc["ranks"]] == list(range(1, n + 1)), "rows are not n = 1..n_max")
    check_prefix_ranks([row["rank"] for row in doc["ranks"]], p, pattern, toeplitz_entries(p, pattern, n))


def check_analyze_band(doc: dict, p: int, pattern, n: int) -> None:
    ent = toeplitz_entries(p, pattern, n)
    require(doc["p"] == p and doc["n"] == n and doc["pattern"] == list(pattern), "p, n or pattern differ")
    check_prefix_ranks(doc["prefix_ranks"], p, pattern, ent)
    require(doc["rank"] == doc["prefix_ranks"][-1], "rank differs from the last prefix rank")
    _check_kernel(ent, p, _vectors(doc["kernel_basis"], n), n - doc["rank"])


def check_representation(spinlab, doc: dict, ent: np.ndarray, p: int, dim: int, invariant=None):
    """Reload the document, check every relation entry-exactly and the
    dimension; with ``invariant`` (a tuple of exponents on spinlab's kernel
    basis), also check that the representation realises it.  Returns the
    reloaded representation."""
    n = ent.shape[0]
    require(doc["p"] == p and doc["n"] == n, "p or n differ from the input")
    require(doc["dim"] == dim, f"dim {doc['dim']}, expected {dim}")
    mat = spinlab.commutation_matrix(p, ent)
    try:
        rep = spinlab.formats.representation_from_dict(doc, mat)
    except (spinlab.MatrixFormatError, ValueError, IndexError) as exc:
        # ValueError / IndexError: a generator whose perm is not a permutation
        raise CheckFailed(f"document does not reload: {exc}")
    require(rep.dim == dim, "reloaded dimension differs")
    require(spinlab.verify_relations(rep).ok, "generator relations fail")
    if invariant is not None:
        require(spinlab.extract_invariant(rep).values == tuple(invariant), "invariant is not the requested one")
    return rep


def check_classify(doc: dict, ent: np.ndarray, d: int) -> None:
    """2^d distinct invariants on one kernel basis, each obeying the square
    law f(k)^2 = (-1)^{Q(k,k)}."""
    n = ent.shape[0]
    require(doc["p"] == 2 and doc["n"] == n, "p or n differ from the input")
    require(doc["kernel_dim"] == d and doc["class_count"] == 2 ** d, "class count != 2^d")
    invs = doc["invariants"]
    require(len(invs) == 2 ** d, f"{len(invs)} invariants, expected {2 ** d}")
    basis = invs[0]["kernel_basis"]
    require(all(f["kernel_basis"] == basis for f in invs), "invariants use different kernel bases")
    kernel = _vectors(basis, n)
    _check_kernel(ent, 2, kernel, d)
    require(len({tuple(f["values_exp_mod_p2"]) for f in invs}) == 2 ** d, "invariants are not distinct")
    q = np.einsum("ki,ij,kj->k", kernel, np.tril(ent, -1), kernel) % 2
    for f in invs:
        require(np.array_equal(2 * np.array(f["values_exp_mod_p2"]) % 4, 2 * q % 4), "square law fails")
