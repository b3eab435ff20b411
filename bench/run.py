"""spinlab benchmark: seeded workloads over the CLI and the library.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/workloads.py): dense-basis, band-growth, rep-serialize,
library-check; BENCHMARK.json lists the ones its regression checks run.
Each is a closed loop with one client: one worker process imports
spinlab (from ./src) once and runs a seed-determined job list back to
back.  CLI jobs call ``spinlab.cli.main(argv)`` with
``--out`` set to a temp file; library jobs call the package API.  Every
output is checked by the oracles in bench/oracles.py.

``--trace 0`` prints the end-to-end metrics.  Job times are in reference
seconds: each job's wall time scaled by a fixed probe timed right before
and after it (bench/speed.py), so that the swings in speed of a shared
machine cancel out; the summary line gives the wall-time figures too.

    jobs_per_s   jobs of a round over its time: the number of job shapes
                 over the sum of each shape's median latency
    job_ms_p50   median over the round's job shapes of each shape's
                 median latency
    job_ms_tail  latency at the highest percentile with >= 10 samples
                 beyond it, over all the run's jobs
    peak_rss_mb  peak RSS of the worker, from os.wait4
    output_bytes bytes a round's jobs write, median over rounds
    setup_s      worker start to first job, median of SETUP_SAMPLES
                 set-up-only workers, each scaled by probes timed here
                 right before and after it and in the worker at the
                 start and the end of its set-up

The summary line also gives import_floor_s, the fastest of IMPORT_SAMPLES
runs of ``python -c "import spinlab"`` (half before and half after the
worker).  It is reported, not gated: process start-up on a shared machine
varied more from run to run than any bound a metric may have.

A job's latency is the time of its spinlab calls only.  Every round runs
the same job shapes on fresh inputs, and a run makes a fixed number of
rounds for a given --seconds, so every run measures the same work.

``--trace 1`` runs the workload's fixed number of round pairs, one round
untraced and one traced on fresh inputs, and prints the per-layer metrics
(bench/tracing.py).

The last stdout line is the result JSON; the line before it is a
summary (machine facts and size limits, input properties, tail
percentile, per-round digests, failures, and in traced runs whether the
trace confirms each workload's predicted layer shares).  The full report is written under
.bench_tmp/reports/.  Exits 2 without a result when ./src holds no
spinlab package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 12
PROPS = ("p", "n", "r", "d", "m", "dim")

# Per-layer metrics of a traced run: span name + "." + field.  "calls" and
# work counts repeat exactly for a seed; "self_s" is summed self time; a
# bare layer name sums the layer's spans; "formats.to_dict" sums every
# formats.*_to_dict.
PER_LAYER = [
    ("gf.rref.calls", "count"), ("gf.rref.cells", "count"), ("gf.rref.self_s", "s"),
    ("gf.kernel_basis.calls", "count"), ("gf.solve.calls", "count"), ("gf.inverse.calls", "count"),
    ("gf.self_s", "s"),
    ("forms.symplectic_basis.calls", "count"), ("forms.symplectic_basis.self_s", "s"),
    ("forms.form_kernel.calls", "count"), ("forms.self_s", "s"),
    ("forms.toeplitz_matrix.self_s", "s"), ("forms.CommutationMatrix.calls", "count"),
    ("forms.CommutationMatrix.self_s", "s"),
    ("forms.q_form.calls", "count"), ("forms.q_form.self_s", "s"),
    ("words.word_mul.calls", "count"), ("words.word_mul.self_s", "s"), ("words.Word.calls", "count"),
    ("words.evaluate_invariant.self_s", "s"), ("words.self_s", "s"),
    ("words.reference_invariant.self_s", "s"), ("words.enumerate_invariants.self_s", "s"),
    ("reps.commutant_dim.calls", "count"), ("reps.commutant_dim.self_s", "s"),
    ("reps.verify_relations.self_s", "s"), ("reps.word_matrix.self_s", "s"),
    ("reps.mono_mul.calls", "count"), ("reps.extract_invariant.self_s", "s"),
    ("reps.prop11_rep.self_s", "s"), ("reps.irreducible_rep.self_s", "s"),
    ("reps.structure_report.self_s", "s"), ("reps.self_s", "s"),
    ("formats.parse_matrix_file.self_s", "s"), ("formats.parse_matrix_file.bytes_in", "B"),
    ("formats.to_dict.self_s", "s"), ("formats.self_s", "s"), ("cli.self_s", "s"),
]
LAYERS = ("gf", "forms", "words", "reps", "formats", "cli")
STAGES = ("parse", "materialise", "basis", "invariant", "rep_build", "verify", "serialise")

# What the trace should show on each workload; the report says whether it does.
PREDICTIONS = {
    "dense-basis": [("forms is the largest layer", lambda s: max(LAYERS, key=s.get) == "forms")],
    "band-growth": [("gf does most of the job time", lambda s: s["gf"] > 0.5)],
    "rep-serialize": [
        ("gf + forms do little (< 10%)", lambda s: s["gf"] + s["forms"] < 0.1),
        ("cli + formats (serialisation) are the largest share", lambda s: s["cli"] + s["formats"] > 0.5),
    ],
    "library-check": [("reps is the largest layer", lambda s: max(LAYERS, key=s.get) == "reps")],
}


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # One BLAS thread: the benchmark is one single-threaded client per process,
    # and a fixed thread count keeps commutant_dim (eigh) timings repeatable.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def spawn(args, mode: str, tmp: str, env: dict, spans: str | None = None):
    """Run one worker; returns (set-up wall seconds, the worker's set-up
    probe times, result dict or None, peak RSS MB).  The set-up time
    leaves out the worker's probes."""
    os.makedirs(tmp)
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--tmp", tmp, "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    ready = proc.stdout.readline().split()
    setup_s = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) failed with exit code {proc.returncode}")
    probes = [float(x) for x in ready[1:]]
    result = None
    if mode != "setup":
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    return setup_s - sum(probes), probes, result, usage.ru_maxrss / 1024.0


def import_floor(env: dict, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spinlab"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def setup_sample(args, tmp: str, env: dict) -> tuple[float, float]:
    """(wall, reference) seconds of one set-up-only worker's set-up,
    scaled by probes here before and after it and in the worker at the
    start and the end of its set-up."""
    before = speed.probe()
    wall, probes, _, _ = spawn(args, "setup", tmp, env)
    return wall, speed.reference_seconds(wall, [before, *probes, speed.probe()])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the sample with exactly 10 beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def shape_medians(jobs: list[dict], key: str) -> list[float]:
    """Each job shape's median latency (``key``) over the rounds of the run."""
    by_shape: dict[int, list[float]] = {}
    for j in jobs:
        by_shape.setdefault(j["shape"], []).append(j[key])
    return [statistics.median(v) for v in by_shape.values()]


def latency_metrics(jobs: list[dict], key: str) -> tuple[dict, float, int]:
    """jobs_per_s, job_ms_p50 and job_ms_tail from the latencies ``key``,
    with the tail's percentile and sample count."""
    typical = shape_medians(jobs, key)
    tail_v, tail_pct, samples = tail([j[key] for j in jobs])
    return {
        "jobs_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
        "job_ms_p50": {"value": statistics.median(typical) * 1000.0, "unit": "ms"},
        "job_ms_tail": {"value": tail_v * 1000.0, "unit": "ms"},
    }, tail_pct, samples


def round_bytes(jobs: list[dict]) -> float:
    """Median over rounds of the bytes a round's jobs wrote."""
    rounds: dict[int, int] = {}
    for j in jobs:
        rounds[j["round"]] = rounds.get(j["round"], 0) + j["bytes"]
    return statistics.median(rounds.values())


def summarize_props(jobs: list[dict]) -> dict:
    """Share of jobs per value of each input property, and output sizes per job type."""
    out = {}
    for key in PROPS:
        counts = Counter(j[key] for j in jobs if key in j)
        if counts:
            out[key] = {str(v): round(c / len(jobs), 4) for v, c in sorted(counts.items())}
    sizes = {}
    for kind in sorted({j["kind"] for j in jobs}):
        b = [j["bytes"] for j in jobs if j["kind"] == kind]
        sizes[kind] = {"jobs": len(b), "min": min(b), "median": statistics.median(b), "max": max(b)}
    out["output_bytes"] = sizes
    return out


def digests(jobs: list[dict]) -> dict:
    """One digest per round over its jobs' output digests, in run order."""
    by_round: dict[int, list[str]] = {}
    for j in jobs:
        by_round.setdefault(j["round"], []).append(j["sha256"])
    return {str(r): hashlib.sha256("".join(d).encode()).hexdigest()[:16] for r, d in sorted(by_round.items())}


def per_layer_metrics(result: dict, wl: str) -> tuple[dict, dict]:
    roll = result["trace"]
    jobs = [j for j in result["jobs"] if j["round"] >= 0]
    traced = sum(j["latency_s"] for j in jobs if j["traced"])
    untraced = sum(j["latency_s"] for j in jobs if not j["traced"])
    traced_ref = sum(j["ref_s"] for j in jobs if j["traced"])
    untraced_ref = sum(j["ref_s"] for j in jobs if not j["traced"])
    names, layers, stages = roll["names"], roll["layers"], roll["stages"]

    def value(name: str) -> float:
        span, field = name.rsplit(".", 1)
        if field == "self_s" and span in LAYERS:
            return layers.get(span, 0.0)
        if span == "formats.to_dict":
            return sum(v["self_s"] for k, v in names.items() if k.startswith("formats.") and k.endswith("_to_dict"))
        agg = names.get(span, {})
        key = "work" if field in ("cells", "bytes_in") else field
        return agg.get(key, 0)

    metrics = {name: {"value": value(name), "unit": unit} for name, unit in PER_LAYER}
    shares = {layer: layers.get(layer, 0.0) / traced for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = {"value": shares[layer], "unit": "frac"}
    metrics["uncovered.share"] = {"value": 1.0 - sum(shares.values()), "unit": "frac"}
    for stage in STAGES:
        metrics[f"stage.{stage}.share"] = {"value": stages.get(stage, 0.0) / traced, "unit": "frac"}
    metrics["trace.overhead_frac"] = {"value": traced_ref / untraced_ref - 1.0, "unit": "frac"}
    verdicts = {
        text: {"confirmed": bool(test(shares)), "shares": {k: round(v, 4) for k, v in shares.items()}}
        for text, test in PREDICTIONS[wl]
    }
    extra = {"predictions": verdicts, "stage_shares_unstaged": stages.get("unstaged", 0.0) / traced,
             "spans": result["spans"], "traced_jobs_per_s": sum(j["traced"] for j in jobs) / traced,
             "untraced_jobs_per_s": sum(not j["traced"] for j in jobs) / untraced}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spinlab", "__init__.py")):
        print("bench: ./src/spinlab not found; run from the root of a spinlab checkout", file=sys.stderr)
        return 2
    env = worker_env(src)
    scratch = os.path.join(root, ".bench_tmp")
    reports = os.path.join(scratch, "reports")
    os.makedirs(reports, exist_ok=True)
    tmp = os.path.join(scratch, f"run-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = os.path.join(reports, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
            _, _, result, rss = spawn(args, "trace", os.path.join(tmp, "worker"), env, spans)
        else:
            # Half the set-up and import samples before the measured worker and
            # half after it, so a burst of contention cannot hit all of them.
            half = SETUP_SAMPLES // 2
            setups = [setup_sample(args, os.path.join(tmp, f"setup{i}"), env) for i in range(half)]
            imports = import_floor(env, IMPORT_SAMPLES // 2)
            worker_setup_s, _, result, rss = spawn(args, "e2e", os.path.join(tmp, "worker"), env)
            setups += [setup_sample(args, os.path.join(tmp, f"setup{i}"), env) for i in range(half, SETUP_SAMPLES)]
            imports += import_floor(env, IMPORT_SAMPLES - IMPORT_SAMPLES // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_jobs = result["jobs"]
    jobs = [j for j in all_jobs if j["round"] >= 0]
    failures = [{"kind": j["kind"], "round": j["round"], "failure": j["failure"]} for j in all_jobs if j["failure"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "facts": result["facts"],
        "probe_ms_quartiles": [q * 1000.0 for q in statistics.quantiles(
            [p for j in jobs for p in j["probe_s"]], n=4)],
        "rounds": 1 + max(j["round"] for j in jobs),
        "jobs": len(jobs),
        "failed_frac": len(failures) / len(all_jobs),
        "failures": failures[:20],
        "round_digests": digests(jobs),
        "inputs": summarize_props(jobs),
    }
    if args.trace:
        metrics, extra = per_layer_metrics(result, args.workload)
        summary.update(extra)
    else:
        metrics, tail_pct, samples = latency_metrics(jobs, "ref_s")
        metrics.update({
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "output_bytes": {"value": round_bytes(jobs), "unit": "B"},
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
        })
        wall, _, _ = latency_metrics(jobs, "latency_s")
        wall["setup_s"] = {"value": statistics.median(w for w, _ in setups), "unit": "s"}
        summary.update({"tail_percentile": tail_pct, "latency_samples": samples,
                        "wall_metrics": wall, "setup_samples_s": setups, "worker_setup_s": worker_setup_s,
                        "import_floor_s": min(imports), "import_samples_s": imports})
    summary["metrics"] = metrics
    with open(os.path.join(reports, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, job_records=all_jobs), fh, indent=1)
    print(json.dumps(summary))
    print(json.dumps({"correct": not failures, "attempted": len(all_jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
