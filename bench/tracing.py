"""Timing spans around spinlab's layers, recorded from outside the package.

``Tracer.installed(spinlab)`` replaces every public function of the layer
modules gf, forms, words, reps, formats and cli (and cli's private
stage helpers) with a wrapper that records a span named
``<module>.<function>``.  A name that one module binds from another
(``from .forms import symplectic_basis`` in reps, words, and the package
``__init__``) is replaced in every namespace that binds it, so
cross-module calls stay inside spans.  The constructors of
CommutationMatrix and Word, and ParsedMatrixFile.materialize, are
wrapped on their classes.

Spans are kept in memory as [name, parent, job, start, end, work] and
rolled up at the end: a span's self time is its duration minus the
time its child spans cover.  Wrappers record only while ``active`` is
set, so the oracles, which also call spinlab, add no spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("gf", "forms", "words", "reps", "formats", "cli")

# The work a call does, counted from its arguments.
WORK = {
    "gf.rref": lambda args, kwargs: int(args[0].shape[0] * args[0].shape[1]),
    "formats.parse_matrix_file": lambda args, kwargs: len(args[0].encode()),
}

# Stage of a span, following ROADMAP item 1's names.  A span whose name is
# not listed takes the stage of its nearest listed ancestor; cli.main is
# the catch-all for argument parsing and dispatch of a CLI job, and
# library jobs mark their own phases with Tracer.phase.
STAGES = {
    "parse": [
        "cli.main", "cli._read", "cli._build_parser", "formats.parse_matrix_file",
        "formats.parse_basis_file", "formats.invariant_from_dict",
    ],
    "materialise": [
        "formats.ParsedMatrixFile.materialize", "forms.toeplitz_matrix", "forms.commutation_matrix",
        "forms.matrix_from_basis", "forms.CommutationMatrix",
    ],
    "basis": [
        "forms.symplectic_basis", "forms.form_kernel", "forms.form_rank",
        "forms.extend_symplectic_basis", "forms.congruence_to_standard", "reps.structure_report",
    ],
    "invariant": [
        "words.reference_invariant", "words.enumerate_invariants", "words.evaluate_invariant",
        "words.realize_invariant", "words.phase_shift_invariant", "reps.extract_invariant",
    ],
    "rep_build": ["reps.irreducible_rep", "reps.prop11_rep", "reps.phase_shift_rep"],
    "verify": ["reps.verify_relations", "reps.commutant_dim"],
    "serialise": ["cli._emit", "cli._emit_json", "formats.format_matrix_file"],
}
STAGE_OF = {name: stage for stage, names in STAGES.items() for name in names}


class Tracer:
    """Records spans of one worker process; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.job = -1

    def _open(self, name: str, work: int = 0) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, self.job, 0.0, 0.0, work]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    @contextlib.contextmanager
    def phase(self, stage: str):
        """A span of the benchmark's own code that assigns a stage to the
        spinlab calls inside it; its self time counts as uncovered."""
        if not self.active:
            yield
            return
        rec = self._open(f"bench.{stage}")
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def installed(self, spinlab):
        """Wrap the layers' functions in every spinlab namespace, and put
        the originals back on exit."""
        modules = [getattr(spinlab, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or layer == "cli"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        patches = [(ns, attr, obj, wrappers[id(obj)])
                   for ns in [spinlab] + modules for attr, obj in vars(ns).items() if id(obj) in wrappers]
        parsed = spinlab.formats.ParsedMatrixFile
        for owner, attr, name in [(spinlab.forms.CommutationMatrix, "__init__", "forms.CommutationMatrix"),
                                  (spinlab.words.Word, "__init__", "words.Word"),
                                  (parsed, "materialize", "formats.ParsedMatrixFile.materialize")]:
            original = vars(owner)[attr]
            patches.append((owner, attr, original, self._wrap(name, original)))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        keys = ("name", "parent", "job", "start", "end", "work")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def rollup(self) -> dict:
        """Per-name calls, work and self time; per-layer and per-stage self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        stage = [None] * len(spans)
        for i, (name, parent, _job, t0, t1, _work) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
            if name.startswith("bench."):
                stage[i] = name.split(".", 1)[1]
            else:
                stage[i] = STAGE_OF.get(name) or (stage[parent] if parent >= 0 else None)
        by_name = defaultdict(lambda: {"calls": 0, "work": 0, "self_s": 0.0, "total_s": 0.0})
        by_layer = defaultdict(float)
        by_stage = defaultdict(float)
        for i, (name, _parent, _job, t0, t1, work) in enumerate(spans):
            self_s = (t1 - t0) - child[i]
            agg = by_name[name]
            agg["calls"] += 1
            agg["work"] += work
            agg["self_s"] += self_s
            agg["total_s"] += t1 - t0
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                by_layer[layer] += self_s
                by_stage[stage[i] or "unstaged"] += self_s
        return {"names": dict(by_name), "layers": dict(by_layer), "stages": dict(by_stage)}
