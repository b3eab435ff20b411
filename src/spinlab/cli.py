"""Command-line surface: spinlab <analyze|basis|represent|classify|generate|grow>.

Exit codes: 0 success, 2 parse/validation failure of a file or an
option value, or a file that cannot be read or written, 3 size bound
exceeded, 4 invariant constraint violation.
Validation errors are turned into MatrixFormatError where input enters
the library; any other exception is a fault and propagates (exit 1).
The environment variable SPINLAB_MAX_DIM overrides the default p^n
dimension bound for the representation commands.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable

from . import formats, forms, reps, words
from .errors import InvariantError, MatrixFormatError, SizeBoundError

EXIT_CODES = {MatrixFormatError: 2, SizeBoundError: 3, InvariantError: 4}  # by exact type


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"cannot read {path}: not UTF-8 ({exc})")


def _emit(out: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces in order, unjoined, to ``out`` or a buffered stdout."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise MatrixFormatError(f"cannot write {out}: {exc.strerror}")
        return
    try:
        fd = sys.stdout.fileno()
    except OSError:  # an in-memory stdout
        sys.stdout.writelines(pieces)
        return
    sys.stdout.flush()
    with open(fd, "w", encoding=sys.stdout.encoding, closefd=False) as fh:
        fh.writelines(pieces)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(out, itertools.chain(formats.json_pieces(doc), ["\n"]))


def _load(path: str, n_max: int | None) -> tuple[formats.ParsedMatrixFile, forms.CommutationMatrix]:
    """The parsed source in ``path`` and its matrix, materialized at ``n_max``."""
    source = formats.parse_matrix_file(_read(path))
    return source, _from_options(source.materialize, n_max)


def _max_dim() -> int:
    raw = os.environ.get("SPINLAB_MAX_DIM")
    if raw is None:
        return reps.DEFAULT_MAX_DIM
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise MatrixFormatError(f"SPINLAB_MAX_DIM is not a positive integer: {raw!r}")
    return bound


def _vec_text(v) -> str:
    return "[" + " ".join(str(int(t)) for t in v) + "]"


def _analyze_text(report: reps.StructureReport) -> str:
    kernel = ", ".join(map(_vec_text, report.kernel_basis)) or "(none)"
    classes = (
        str(report.class_count)
        if report.class_count is not None
        else "n/a at odd p (spinlab classify lists the p^d classes)"
    )
    return (
        f"p: {report.p}\n"
        f"n: {report.n}\n"
        f"rank: {report.rank}\n"
        f"kernel dim: {report.kernel_dim}\n"
        f"kernel basis: {kernel}\n"
        f"center dim: {report.center_dim}\n"
        f"algebra: {report.descriptor}\n"
        f"simple: {'yes' if report.simple else 'no'}\n"
        f"classes: {classes}\n"
    )


def _grow_text(doc: dict) -> str:
    lines = [
        f"p: {doc['p']}",
        f"pattern: {' '.join(str(v) for v in doc['pattern'])}",
        "  n  rank",
    ]
    for row in doc["ranks"]:
        lines.append(f"{row['n']:>3}  {row['rank']:>4}")
    verdict = "yes" if doc["infinite_rank_conjectured"] else "no"
    lines.append(
        f"infinite rank conjectured: {verdict} "
        "(heuristic: finite prefixes cannot prove infinite rank)"
    )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> None:
    source, mat = _load(args.path, args.n_max)
    report = reps.structure_report(mat)
    if args.json:
        _emit_json(formats.report_doc(report, source.pattern), args.out)
    else:
        _emit(args.out, [_analyze_text(report)])


def _cmd_basis(args) -> None:
    _, mat = _load(args.path, args.n_max)
    basis = forms.symplectic_basis(mat)
    _emit_json(formats.basis_doc(mat, basis), args.out)


def _cmd_represent(args) -> None:
    _, mat = _load(args.path, args.n_max)
    max_dim = _max_dim()
    if args.kind == "prop11":
        if args.invariant:
            raise MatrixFormatError("--invariant applies to --kind irr only")
        rep = reps.prop11_rep(mat, max_dim=max_dim)
    else:
        invariant = None
        if args.invariant:
            try:
                doc = json.loads(_read(args.invariant))
            except (ValueError, RecursionError) as exc:  # also too many digits, too deep
                raise MatrixFormatError(f"bad invariant JSON: {exc}")
            invariant = formats.invariant_from_dict(doc, mat)
        rep = reps.irreducible_rep(mat, invariant, max_dim=max_dim)
    _emit_json(formats.representation_doc(rep), args.out)


def _cmd_classify(args) -> None:
    _, mat = _load(args.path, args.n_max)
    invariants = words.enumerate_invariants(mat)
    _emit_json(formats.classification_doc(mat, invariants), args.out)


def _from_options(build, *args) -> forms.CommutationMatrix:
    """A matrix built from option values; the constructor's ValueError
    is a bad option, reported as such (exit 2)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise MatrixFormatError(str(exc))


def _cmd_generate(args) -> None:
    if args.clifford is not None:
        mat = _from_options(forms.clifford_matrix, 2, args.clifford)
    elif args.random is not None:
        if args.seed is None:
            raise MatrixFormatError("--random requires --seed for reproducibility")
        mat = _from_options(forms.random_alternating, args.prime, args.random, args.seed)
    else:
        ref_path, basis_path = args.from_basis
        _, ref = _load(ref_path, None)
        vectors = formats.parse_basis_file(_read(basis_path), ref.p, ref.n)
        mat = forms.matrix_from_basis(ref, vectors)
    _emit(args.out, [formats.format_matrix_file(mat)])


def _cmd_grow(args) -> None:
    source, mat = _load(args.path, args.n_max)
    if source.pattern is None:
        raise MatrixFormatError("grow requires a 'p toeplitz m' matrix file")
    doc = formats.grow_doc(source.pattern, reps.structure_report(mat))
    if args.json:
        _emit_json(doc, args.out)
    else:
        _emit(args.out, [_grow_text(doc)])


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Analyze spin-system commutation matrices over Z_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_max_help):
        p.add_argument("path", help="matrix file")
        p.add_argument("--n-max", type=int, default=None, help=n_max_help)
        p.add_argument("--out", default=None, help="write output to a file")

    toeplitz_help = "materialization size for banded files (default: 2x pattern length)"

    p_analyze = sub.add_parser("analyze", help="structure report for a matrix")
    add_common(p_analyze, toeplitz_help)
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_basis = sub.add_parser("basis", help="symplectic basis and kernel (JSON)")
    add_common(p_basis, toeplitz_help)
    p_basis.set_defaults(func=_cmd_basis)

    p_rep = sub.add_parser("represent", help="serialize a unitary representation")
    add_common(p_rep, toeplitz_help)
    p_rep.add_argument(
        "--kind", choices=["prop11", "irr"], required=True,
        help="tensor-ladder (prop11) or minimal irreducible (irr)",
    )
    p_rep.add_argument(
        "--invariant", default=None,
        help="JSON file with the target standard invariant (irr)",
    )
    p_rep.set_defaults(func=_cmd_represent)

    p_cls = sub.add_parser("classify", help="enumerate invariant classes")
    add_common(p_cls, toeplitz_help)
    p_cls.set_defaults(func=_cmd_classify)

    p_gen = sub.add_parser("generate", help="emit a matrix file")
    mode = p_gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--clifford", type=int, metavar="N",
                      help="n x n all-ones-off-diagonal matrix (p = 2)")
    mode.add_argument("--random", type=int, metavar="N",
                      help="seeded uniform alternating n x n matrix")
    mode.add_argument("--from-basis", nargs=2, metavar=("REF", "BASIS"),
                      help="matrix of omega_REF evaluated on basis-file vectors")
    p_gen.add_argument("--seed", type=int, default=None, help="seed for --random")
    p_gen.add_argument("--prime", type=int, default=2, help="modulus for --random")
    p_gen.add_argument("--out", default=None, help="write output to a file")
    p_gen.set_defaults(func=_cmd_generate)

    p_grow = sub.add_parser("grow", help="rank growth table of a banded pattern")
    p_grow.add_argument("path", help="toeplitz matrix file")
    p_grow.add_argument("--n-max", type=int, required=True, help="largest prefix")
    p_grow.add_argument("--json", action="store_true", help="emit JSON")
    p_grow.add_argument("--out", default=None, help="write output to a file")
    p_grow.set_defaults(func=_cmd_grow)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
