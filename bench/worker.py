"""The benchmark's worker process: one closed-loop client, one process.

It imports spinlab once, draws round 0 and the warm-up jobs from the
seed, runs the warm-up, and prints READY on stdout, with the times of
speed.probe() at the start and the end of set-up; the parent times
set-up up to that line (warm-up jobs are recorded as round -1).  In
``e2e`` mode it then runs the number of rounds that ``--seconds`` buys on
the reference machine (Workload.rounds), back to back.  In ``trace``
mode it runs the workload's fixed number of round pairs, each an
untraced round and a traced one on fresh inputs.  ``setup`` mode stops after READY.  Each job's timed part is
only its spinlab calls; drawing inputs and checking outputs are
untimed.  ``speed.probe()`` is timed right before and right after each
job, and the record gives the job's time in reference seconds too
(bench/speed.py).  The result goes to ``--result`` as JSON.

Run by bench/run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import spinlab
import spinlab.cli
import spinlab.formats
import speed
import tracing
import workloads

# The worker ends itself if a run goes wrong, well inside the 180 s run limit.
TIMEOUT_S = 170


def null_phase(stage):
    return nullcontext()


def run_job(job, out: str, tracer=None, job_id: int = -1, corrupt=None) -> dict:
    """Run one job and check its output.  Returns its record: latency
    (wall and reference seconds, and the probe times around it), output
    size and digest, and the failure (None when it passed).
    ``corrupt`` maps the output bytes before the check; tests use it to
    show that the oracles catch damaged outputs."""
    phase = tracer.phase if tracer else null_phase
    probe_before = speed.probe()
    if tracer:
        tracer.job = job_id
        tracer.active = True
    failure = None
    data = b""
    t0 = perf_counter()
    try:
        rc = job.run(out, phase)
    except Exception:  # a job boundary: record the failure and go on
        rc = None
        failure = "exception: " + traceback.format_exc(limit=-3)
    latency = perf_counter() - t0
    if tracer:
        tracer.active = False
    probes = [probe_before, speed.probe()]
    if failure is None and rc != 0:
        failure = f"exit code {rc}"
    if failure is None:
        with open(out, "rb") as fh:
            data = fh.read()
        if corrupt:
            data = corrupt(data)
        try:
            job.check(data)
        except Exception as exc:  # a malformed document fails its check too
            failure = f"check: {type(exc).__name__}: {exc}"
    if os.path.exists(out):
        os.remove(out)
    return {
        "kind": job.kind,
        **job.props,
        "latency_s": latency,
        "probe_s": probes,
        "ref_s": speed.reference_seconds(latency, probes),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "failure": failure,
    }


def facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "spinlab": spinlab.__version__,
        "size_limits": workloads.LIMITS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "e2e", "trace"], required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="gzipped JSON-lines file for the spans")
    args = ap.parse_args(argv)
    signal.alarm(TIMEOUT_S)
    # Probes at the start and the end of set-up, for the parent's scaling
    # of the set-up time (it takes their time off the set-up).
    first_probe = speed.probe()

    wl = workloads.WORKLOADS[args.workload]
    out = os.path.join(args.tmp, "out.json")

    def round_jobs(idx):
        path = os.path.join(args.tmp, f"round{idx}")
        os.makedirs(path, exist_ok=True)
        return workloads.build_round(spinlab, wl.shapes, args.seed, idx, path), path

    warm_dir = os.path.join(args.tmp, "warmup")
    os.makedirs(warm_dir)
    warm = workloads.build_round(spinlab, wl.warmup, args.seed, workloads.WARMUP_ROUND, warm_dir)
    first = round_jobs(0)
    jobs = [dict(run_job(job, out), round=-1, shape=i, traced=False) for i, job in warm]
    shutil.rmtree(warm_dir)
    print("READY", first_probe, speed.probe(), flush=True)
    if args.mode == "setup":
        return 0

    tracer = tracing.Tracer() if args.mode == "trace" else None

    def run_round(idx, traced):
        batch, path = first if idx == 0 else round_jobs(idx)
        for shape, job in batch:
            rec = run_job(job, out, tracer if traced else None, len(jobs))
            jobs.append(dict(rec, round=idx, shape=shape, traced=traced))
        shutil.rmtree(path)

    if args.mode == "e2e":
        start = perf_counter()
        for idx in range(wl.rounds(args.seconds)):
            run_round(idx, False)
            # Only a machine more than twice as slow as the reference one
            # stops early; this keeps a run inside its time limit.
            if idx + 1 >= workloads.MIN_ROUNDS and perf_counter() - start > 2 * args.seconds:
                break
    else:
        # Untraced and traced rounds alternate, so a slow spell of the machine
        # does not land on one side only.
        for idx in range(0, 2 * wl.trace_pairs, 2):
            run_round(idx, False)
            with tracer.installed(spinlab):
                run_round(idx + 1, True)

    result = {"facts": facts(), "jobs": jobs}
    if tracer:
        result["trace"] = tracer.rollup()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
