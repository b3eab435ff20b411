"""Smoke tests of the experiment scripts, run as programs."""

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=_env(), timeout=120,
    )


def test_rank_growth_single_pattern():
    out = _run("rank_growth.py", "--pattern", "1", "1", "--n-max", "6")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "pattern 1 1          ranks  0  2  2  2  4  6  [growing]"
    ]


def test_class_census_with_rep_checks():
    out = _run("class_census.py", "-n", "4", "--samples", "5", "--check-reps")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "# 5 random alternating 4x4 matrices over GF(2)",
        "  d  classes  count  frequency",
        "  0        1      2      0.400",
        "  2        4      3      0.600",
        "simple (nondegenerate) fraction: 0.400",
        "all sampled irreducible representations verified (commutant = 1)",
    ]


def test_class_census_refuses_a_reducible_sample(monkeypatch):
    # the check is an explicit exit, so it holds under python -O too
    path = ROOT / "scripts" / "class_census.py"
    spec = importlib.util.spec_from_file_location("class_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(census, "commutant_dim", lambda rep: 2)
    args = argparse.Namespace(n=4, samples=5, seed=0, check_reps=True)
    with pytest.raises(SystemExit, match="sample 0 .* not irreducible"):
        census.run(args)
