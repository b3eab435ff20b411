"""Tests of the benchmark itself: the oracles catch damaged outputs, and
a seed determines the outputs byte for byte.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import spinlab  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _job(tmp_path, maker, *args, seed=3):
    return maker(spinlab, (seed, 0, 0), str(tmp_path), *args)


def _edit(fn):
    """A corruption: decode the JSON output, apply fn, encode it again."""
    def corrupt(data):
        doc = json.loads(data)
        fn(doc)
        return json.dumps(doc).encode()
    return corrupt


def _flip_phase(doc):
    gen = doc["generators"][0]
    gen["phase_exps"][0] = (gen["phase_exps"][0] + 1) % (doc["p"] ** 2)


def _drop_first(key):
    return lambda doc: doc[key].pop(0)


def _bump_rank(doc):
    doc["ranks"][len(doc["ranks"]) // 2]["rank"] += 2


@pytest.mark.parametrize("maker, args, corrupt", [
    (workloads.irr_job, (2, 3, 2, True), _flip_phase),
    (workloads.irr_job, (3, 2, 1, False), _flip_phase),
    (workloads.prop11_job, (2, 3, 1), _flip_phase),
    (workloads.basis_job, (3, 6, 3), _drop_first("e")),
    (workloads.basis_job, (3, 6, 3), _drop_first("kernel")),
    (workloads.grow_job, (2, 24, 6, 2, 0), _bump_rank),
    (workloads.band_analyze_job, (3, 20, 5, 1, 2), lambda doc: doc["prefix_ranks"].__setitem__(-1, 0)),
    (workloads.analyze_job, (2, 5, 3), lambda doc: doc.update(rank=doc["rank"] - 2)),
    (workloads.classify_job, (2, 3), lambda doc: doc["invariants"].pop()),
    (workloads.library_job, (2, 2, 2), lambda doc: _flip_phase(doc["representation"])),
])
def test_oracle_counts_a_corrupted_output_as_failed(tmp_path, maker, args, corrupt):
    out = str(tmp_path / "out.json")
    assert worker.run_job(_job(tmp_path, maker, *args), out)["failure"] is None
    record = worker.run_job(_job(tmp_path, maker, *args), out, corrupt=_edit(corrupt))
    assert record["failure"] and record["failure"].startswith("check:")


def test_nonzero_exit_and_exception_are_failures(tmp_path):
    job = _job(tmp_path, workloads.basis_job, 2, 3, 1)
    job.run = lambda out, phase: 2
    assert worker.run_job(job, str(tmp_path / "out.json"))["failure"] == "exit code 2"
    job.run = lambda out, phase: 1 // 0
    assert worker.run_job(job, str(tmp_path / "out.json"))["failure"].startswith("exception:")


def _round_digests(tmp_path, name, seed):
    shapes = workloads.WORKLOADS[name].warmup
    jobs = workloads.build_round(spinlab, shapes, seed, 0, str(tmp_path / f"in-{seed}"))
    out = str(tmp_path / "out.json")
    return [worker.run_job(job, out)["sha256"] for _, job in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_outputs(tmp_path, name):
    first = _round_digests(tmp_path / "a", name, 5)
    assert first == _round_digests(tmp_path / "b", name, 5)
    assert first != _round_digests(tmp_path / "c", name, 6)


def test_independent_rank_matches_spinlab():
    rng = np.random.default_rng(0)
    for p, r, d in [(2, 5, 3), (3, 4, 0), (5, 6, 2)]:
        ent = workloads.planted_matrix(rng, p, r, d)
        assert oracles.gf_rank(ent, p) == 2 * r == spinlab.gf.rank(ent, p)


def test_band_patterns_are_distinct_across_rounds():
    patterns = [tuple(workloads.band_pattern((1, k, 4), 2, 40, 8, 4, 0)) for k in range(12)]
    assert len(set(patterns)) == 12
    assert all(p[-1] != 0 and p.count(0) == 4 for p in patterns)
    assert all(oracles.gf_rank(oracles.toeplitz_entries(2, p, 40), 2) == 40 for p in patterns)


def test_every_band_shape_has_a_pattern():
    wl = workloads.WORKLOADS["band-growth"]
    for index, (maker, p, n, m, zeros, d) in enumerate(wl.shapes + wl.warmup):
        workloads.band_pattern((0, 0, index), p, n, m, zeros, d)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = ([name for name, _ in run.PER_LAYER] + [f"{layer}.share" for layer in run.LAYERS]
                + ["uncovered.share"] + [f"stage.{s}.share" for s in run.STAGES] + ["trace.overhead_frac"])
    assert per_layer == expected
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)


def test_latency_metrics_take_each_shapes_median():
    jobs = [{"shape": s, "round": r, "ref_s": 0.01 * (s + 1) + 0.001 * (r % 3)} for s in range(3) for r in range(6)]
    metrics, pct, n = run.latency_metrics(jobs, "ref_s")
    assert run.shape_medians(jobs, "ref_s") == pytest.approx([0.011, 0.021, 0.031])
    assert metrics["job_ms_p50"]["value"] == pytest.approx(21.0)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(3 / 0.063)
    assert (pct, n) == (pytest.approx(100 * 8 / 18), 18)


def test_reference_seconds_cancel_the_machine_speed():
    ref = speed.REF_PROBE_S
    assert speed.reference_seconds(0.5, [ref, ref]) == pytest.approx(0.5)
    assert speed.reference_seconds(1.0, [2 * ref, 2 * ref]) == pytest.approx(0.5)
