"""CLI conformance: golden files, round trips, exit codes."""

import errno
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spinlab as sl
from spinlab import cli, formats, forms
from spinlab.cli import main

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


GOLDEN_CASES = [
    ("analyze_pauli.txt", ["analyze", FIXTURES / "pauli.txt"]),
    ("analyze_pauli.json", ["analyze", FIXTURES / "pauli.txt", "--json"]),
    ("analyze_zero3.txt", ["analyze", FIXTURES / "zero3.txt"]),
    ("analyze_clifford3.txt", ["analyze", FIXTURES / "clifford3.txt"]),
    ("analyze_clifford3.json", ["analyze", FIXTURES / "clifford3.txt", "--json"]),
    (
        "analyze_band.json",
        ["analyze", FIXTURES / "band.txt", "--n-max", 6, "--json"],
    ),
    ("generate_clifford3.txt", ["generate", "--clifford", 3]),
    (
        "generate_random_p3_seed7.txt",
        ["generate", "--random", 4, "--seed", 7, "--prime", 3],
    ),
    ("grow_band.txt", ["grow", FIXTURES / "band.txt", "--n-max", 6]),
    ("grow_band.json", ["grow", FIXTURES / "band.txt", "--n-max", 6, "--json"]),
    ("classify_pauli.json", ["classify", FIXTURES / "pauli.txt"]),
    ("basis_random_p3_seed7.json", ["basis", FIXTURES / "random9_p3_seed7.txt"]),
    ("basis_planted_p5.json", ["basis", FIXTURES / "planted_p5.txt"]),
    (
        "represent_prop11_planted_p2_d2.json",
        ["represent", FIXTURES / "planted_p2_d2.txt", "--kind", "prop11"],
    ),
    (
        "represent_irr_planted_p2_d2.json",
        ["represent", FIXTURES / "planted_p2_d2.txt", "--kind", "irr"],
    ),
    ("classify_planted_p2_d2.json", ["classify", FIXTURES / "planted_p2_d2.txt"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden_outputs(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == golden(name)


@pytest.mark.parametrize(
    "name,argv", [case for case in GOLDEN_CASES if case[0].endswith(".json")]
)
def test_json_documents_are_compact(capsys, name, argv):
    # one line in the canonical compact form, non-ASCII text unescaped
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    canonical = json.dumps(json.loads(out), ensure_ascii=False, separators=(",", ":"))
    assert out == canonical + "\n"


@pytest.mark.parametrize(
    "cli", [[sys.executable, "-m", "spinlab"], ["spinlab"]], ids=["module", "script"]
)
@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden_outputs_in_a_subprocess(cli, name, argv):
    # the entry points as a user runs them, with stdout a pipe of the child
    if shutil.which(cli[0]) is None:  # in CI a missing script is a broken install
        (pytest.fail if os.environ.get("CI") else pytest.skip)(f"{cli[0]} is not on PATH")
    paths = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(cli + [str(a) for a in argv], capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / name).read_bytes()


def test_golden_outputs_through_the_stdout_descriptor(capfd):
    # a stdout with a file descriptor gets a buffered stream of its own
    for name, argv in [("analyze_pauli.json", ["analyze", FIXTURES / "pauli.txt", "--json"]),
                       ("generate_clifford3.txt", ["generate", "--clifford", "3"])]:
        print("before", flush=True)
        assert main([str(a) for a in argv]) == 0
        assert capfd.readouterr().out == "before\n" + golden(name)


def test_golden_outputs_repeat_in_one_process(capsys):
    # the argument parser is built once per process and reused
    argvs = [
        ["analyze", FIXTURES / "band.txt", "--n-max", 6, "--json"],
        ["generate", "--random", 4, "--seed", 7, "--prime", 3],
        ["basis", FIXTURES / "planted_p5.txt"],
    ]
    first = [run(capsys, *argv) for argv in argvs]
    assert [run(capsys, *argv) for argv in argvs] == first
    assert [out for _, out, _ in first] == [
        golden("analyze_band.json"),
        golden("generate_random_p3_seed7.txt"),
        golden("basis_planted_p5.json"),
    ]


def test_generate_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--random", 5, "--seed", 123, "--prime", 5)
    assert code == 0
    assert formats.parse_matrix_file(out).materialize() == sl.random_alternating(
        5, 5, seed=123
    )
    # byte-identical per seed
    code, out2, _ = run(capsys, "generate", "--random", 5, "--seed", 123, "--prime", 5)
    assert out2 == out


def test_generate_random_n2048_digest(tmp_path):
    # the bytes of the randrange loop that random_alternating replaced
    out = tmp_path / "random.txt"
    assert main(["generate", "--random", "2048", "--prime", "3", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fed40ce2dd77404ad7be499f4ec5dfa3d8a86fea1a75c78e188679211829af01"
    )


def test_generate_from_basis(capsys, tmp_path):
    basis_file = tmp_path / "basis.txt"
    basis_file.write_text("1 0 0 0\n1 1 0 0\n0 1 1 0\n1 1 1 1\n", encoding="utf-8")
    ref = tmp_path / "cliff4.txt"
    run(capsys, "generate", "--clifford", 4, "--out", ref)
    code, out, _ = run(capsys, "generate", "--from-basis", ref, basis_file)
    assert code == 0
    made = formats.parse_matrix_file(out).materialize()
    expected = sl.matrix_from_basis(
        sl.clifford_matrix(2, 4),
        formats.parse_basis_file(basis_file.read_text(), 2, 4),
    )
    assert made == expected


def test_represent_reload_verifies(capsys):
    for kind in ("prop11", "irr"):
        code, out, _ = run(
            capsys, "represent", FIXTURES / "clifford3.txt", "--kind", kind
        )
        assert code == 0
        rep = formats.representation_from_dict(
            json.loads(out), sl.clifford_matrix(2, 3)
        )
        assert sl.verify_relations(rep).ok


def test_represent_with_invariant_file(capsys, tmp_path):
    mat = sl.clifford_matrix(2, 3)
    f0 = sl.reference_invariant(mat)
    target = sl.StandardInvariant(mat, f0.kernel_basis, (1,))
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(json.dumps(formats.invariant_to_dict(target)), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "represent", FIXTURES / "clifford3.txt", "--kind", "irr",
        "--invariant", inv_file,
    )
    assert code == 0
    rep = formats.representation_from_dict(json.loads(out), mat)
    assert sl.extract_invariant(rep) == target


def test_classify_pauli_single_class(capsys):
    _, out, _ = run(capsys, "classify", FIXTURES / "pauli.txt")
    doc = json.loads(out)
    assert doc["class_count"] == 1


def test_basis_document(capsys):
    _, out, _ = run(capsys, "basis", FIXTURES / "clifford3.txt")
    doc = json.loads(out)
    assert doc["r"] == 1 and doc["d"] == 1
    assert doc["kernel"] == [[1, 1, 1]]


def test_exit_code_2_on_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n0 0\n", encoding="utf-8")  # not skew
    code, _, err = run(capsys, "analyze", bad)
    assert code == 2
    assert "line" in err


def test_exit_code_2_on_modulus_beyond_int64(capsys, tmp_path):
    bad = tmp_path / "huge_p.txt"
    bad.write_text("1000000000000000000000000000000 2\n0 1\n1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", bad)
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: modulus must be a prime")


@pytest.mark.parametrize("entry", ["100000000000000000000000000000", "1.7"])
def test_exit_code_2_on_non_int64_invariant_entry(capsys, tmp_path, entry):
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(
        f'{{"kernel_basis": [[1, 1, {entry}]], "values_exp_mod_p2": [3]}}',
        encoding="utf-8",
    )
    code, out, err = run(
        capsys,
        "represent", FIXTURES / "clifford3.txt", "--kind", "irr",
        "--invariant", inv_file,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("which", ["matrix", "basis", "invariant"])
def test_exit_code_2_on_file_not_utf8(capsys, tmp_path, which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"2 2\n0 1\n1 0\n\xff\n")
    argv = {
        "matrix": ["analyze", bad],
        "basis": ["generate", "--from-basis", FIXTURES / "pauli.txt", bad],
        "invariant": [
            "represent", FIXTURES / "clifford3.txt", "--kind", "irr", "--invariant", bad,
        ],
    }[which]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: not UTF-8 (")


@pytest.mark.parametrize("text", ['{"kernel_basis": [[1, 1, ' + "1" * 5000 + "]]}", "[" * 100000])
def test_exit_code_2_on_unreadable_invariant_json(capsys, tmp_path, text):
    # an integer beyond the str-to-int digit limit, and nesting beyond the
    # recursion limit: neither raises JSONDecodeError
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys,
        "represent", FIXTURES / "clifford3.txt", "--kind", "irr",
        "--invariant", inv_file,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: bad invariant JSON: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--random", 3, "--seed", 1, "--prime", 4], "modulus must be prime, got 4"),
        (["generate", "--clifford", 0], "matrix size must be at least 1, got 0"),
        (["generate", "--random", 0, "--seed", 1], "matrix size must be at least 1, got 0"),
        (
            ["basis", FIXTURES / "band.txt", "--n-max", 0],
            "matrix size must be at least 1, got 0",
        ),
        (
            ["grow", FIXTURES / "band.txt", "--n-max", -2],
            "matrix size must be at least 1, got -2",
        ),
        (["generate", "--random", 4], "--random requires --seed for reproducibility"),
        (["generate", "--clifford", -1], "matrix size must be at least 1, got -1"),
        (["generate", "--random", -5, "--seed", 1], "matrix size must be at least 1, got -5"),
        (
            ["generate", "--random", -5, "--seed", 1, "--prime", 3],
            "matrix size must be at least 1, got -5",
        ),
    ],
)
def test_exit_code_2_on_bad_option_values(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_internal_value_error_is_not_a_format_error(capsys, monkeypatch):
    def broken(mat):
        raise ValueError("internal fault")

    monkeypatch.setattr(forms, "symplectic_basis", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["basis", str(FIXTURES / "pauli.txt")])


def test_exit_code_2_on_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "does-not-exist.txt")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "target,errno_",
    [("missing-dir/x.txt", errno.ENOENT), (".", errno.EISDIR)],
)
def test_exit_code_2_on_unwritable_out(capsys, tmp_path, target, errno_):
    out = tmp_path / target
    code, stdout, err = run(capsys, "analyze", FIXTURES / "pauli.txt", "--out", out)
    assert code == 2 and stdout == ""
    assert err == f"error: cannot write {out}: {os.strerror(errno_)}\n"


def test_exit_code_3_on_size_bound(capsys, monkeypatch):
    monkeypatch.setenv("SPINLAB_MAX_DIM", "4")
    code, _, err = run(capsys, "represent", FIXTURES / "clifford3.txt", "--kind", "prop11")
    assert code == 3
    assert "bound" in err


@pytest.mark.parametrize("command", ["analyze", "basis", "grow"])
def test_exit_code_3_on_banded_size_bound(capsys, command):
    # the bound is checked before the n x n matrix is allocated
    code, out, err = run(
        capsys, command, FIXTURES / "band.txt", "--n-max", forms.MAX_TOEPLITZ_N + 1
    )
    assert code == 3 and out == ""
    assert "bound" in err


@pytest.mark.parametrize(
    "option,extra",
    [("--clifford", []), ("--random", ["--seed", 1]), ("--random", ["--seed", 1, "--prime", 3])],
)
def test_exit_code_3_on_generated_size_bound(capsys, option, extra):
    # checked before anything of size n^2 is allocated
    code, out, err = run(capsys, "generate", option, forms.MAX_TOEPLITZ_N + 1, *extra)
    assert code == 3 and out == ""
    assert "bound" in err


def test_exit_code_3_on_a_basis_family_past_the_bound(capsys, tmp_path):
    # 2049 vectors of a 1 x 1 reference would make a 2049 x 2049 matrix
    ref, basis, out = tmp_path / "ref.txt", tmp_path / "basis.txt", tmp_path / "out.txt"
    ref.write_text("2 1\n0\n", encoding="utf-8")
    basis.write_text("1\n" * (forms.MAX_TOEPLITZ_N + 1), encoding="utf-8")
    code, stdout, err = run(capsys, "generate", "--from-basis", ref, basis, "--out", out)
    assert (code, stdout, out.exists()) == (3, "", False)
    assert err == "error: basis family of 2049 vectors > bound 2048\n"


def test_env_override_allows_within_bound(capsys, monkeypatch):
    monkeypatch.setenv("SPINLAB_MAX_DIM", "8")
    code, _, _ = run(capsys, "represent", FIXTURES / "clifford3.txt", "--kind", "prop11")
    assert code == 0


@pytest.mark.parametrize("d,want", [(58, 0), (60, 3)])
def test_env_override_bounds_the_generator_entries(capsys, monkeypatch, tmp_path, d, want):
    # dim 2^3 = 8 either way; n = 6 + d generators need n * 8 <= 64 * 8 entries
    monkeypatch.setenv("SPINLAB_MAX_DIM", "8")
    path = tmp_path / "m.txt"
    path.write_text(formats.format_matrix_file(sl.standard_form(2, 3, d)), encoding="utf-8")
    code, out, err = run(capsys, "represent", path, "--kind", "irr")
    assert code == want
    if want:
        assert out == ""
        assert err == "error: irreducible representation needs 66 x 8 entries > bound 512\n"


def test_classify_refuses_before_the_reference_invariant(capsys, monkeypatch, tmp_path):
    def gram_product(*args):
        raise AssertionError("the reference invariant was computed before the size check")

    monkeypatch.setattr(sl.words, "_reordering_exponent", gram_product)
    path = tmp_path / "zero.txt"
    path.write_text("2 32\n" + ("0 " * 31 + "0\n") * 32, encoding="utf-8")
    code, out, err = run(capsys, "classify", path)
    assert code == 3 and out == ""
    assert err == "error: kernel dimension 32 exceeds the enumeration bound 16\n"


def test_exit_code_4_on_bad_invariant(capsys, tmp_path):
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(
        json.dumps({"kernel_basis": [[1, 1, 1]], "values_exp_mod_p2": [0]}),
        encoding="utf-8",
    )  # violates the square law: Q(k,k)=1 forces +-i
    code, _, err = run(
        capsys,
        "represent", FIXTURES / "clifford3.txt", "--kind", "irr",
        "--invariant", inv_file,
    )
    assert code == 4
    assert "square" in err


def _invariant_file(tmp_path, basis, values):
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(
        json.dumps({"kernel_basis": basis, "values_exp_mod_p2": values}), encoding="utf-8"
    )
    return inv_file


@pytest.mark.parametrize("p", [2, 3])
def test_represent_accepts_an_invariant_on_a_reversed_basis(capsys, tmp_path, p):
    # an invariant is a function on ker(omega), whatever basis it is written on
    zero = tmp_path / "zero.txt"
    zero.write_text(f"{p} 2\n0 0\n0 0\n", encoding="utf-8")
    ref = sl.reference_invariant(sl.commutation_matrix(p, [[0, 0], [0, 0]]))
    inv_file = _invariant_file(
        tmp_path, ref.kernel_basis[::-1].tolist(), list(ref.values[::-1])
    )
    code, out, err = run(capsys, "represent", zero, "--kind", "irr", "--invariant", inv_file)
    assert code == 0 and err == ""
    assert (code, out) == run(capsys, "represent", zero, "--kind", "irr")[:2]


@pytest.mark.parametrize(
    "basis,values,message",
    [
        ([[1, 0, 0]], [1], "not in ker"),  # outside ker(omega) of the Clifford triple
        ([[1, 1, 1], [1, 1, 1]], [1, 1], "dependent"),
        ([], [], "does not span"),  # fewer than d = 1 vectors
    ],
)
def test_exit_code_4_on_an_invariant_basis_that_is_not_a_kernel_basis(
    capsys, tmp_path, basis, values, message
):
    inv_file = _invariant_file(tmp_path, basis, values)
    code, out, err = run(
        capsys, "represent", FIXTURES / "clifford3.txt", "--kind", "irr",
        "--invariant", inv_file,
    )
    assert code == 4 and out == ""
    assert message in err


def test_exit_code_4_on_more_invariant_rows_than_n_before_the_elimination(
    capsys, monkeypatch, tmp_path
):
    def rref(*args):
        raise AssertionError("eliminated rows that are certainly dependent")

    monkeypatch.setattr(sl.gf, "rref", rref)
    zero = tmp_path / "zero.txt"
    zero.write_text("2 1\n0\n", encoding="utf-8")
    inv_file = _invariant_file(tmp_path, [[1]] * 3000, [0] * 3000)
    code, out, err = run(capsys, "represent", zero, "--kind", "irr", "--invariant", inv_file)
    assert (code, out) == (4, "")
    assert err == "error: kernel basis vectors are linearly dependent\n"


def test_exit_code_2_on_invariant_for_prop11(capsys, tmp_path):
    inv_file = _invariant_file(tmp_path, [[1, 1, 1]], [1])
    code, out, err = run(
        capsys, "represent", FIXTURES / "clifford3.txt", "--kind", "prop11",
        "--invariant", inv_file,
    )
    assert code == 2 and out == ""
    assert "--kind irr only" in err


@pytest.mark.parametrize("raw", ["0", "-5", "eight"])
def test_exit_code_2_on_a_bound_that_is_not_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv("SPINLAB_MAX_DIM", raw)
    code, out, err = run(capsys, "represent", FIXTURES / "clifford3.txt", "--kind", "irr")
    assert code == 2 and out == ""
    assert err == f"error: SPINLAB_MAX_DIM is not a positive integer: {raw!r}\n"


@pytest.mark.parametrize("value,code", [(6, 0), (3, 0), (4, 4)])
def test_represent_odd_p_invariant(capsys, tmp_path, value, code):
    # the canonical value here is 3; 6 differs from it by p, 4 does not
    mat_file = tmp_path / "m.txt"
    run(capsys, "generate", "--random", 7, "--seed", 10, "--prime", 3, "--out", mat_file)
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(
        json.dumps({
            "kernel_basis": [[0, 2, 0, 1, 2, 1, 1]], "values_exp_mod_p2": [value],
        }),
        encoding="utf-8",
    )
    got, out, err = run(
        capsys, "represent", mat_file, "--kind", "irr", "--invariant", inv_file
    )
    assert got == code
    if code:
        assert "square" in err and out == ""
    else:
        mat = formats.parse_matrix_file(mat_file.read_text()).materialize()
        rep = formats.representation_from_dict(json.loads(out), mat)
        assert sl.extract_invariant(rep).values == (value,)


def test_classify_odd_p_lists_p_to_the_d_invariants(capsys, tmp_path):
    odd = tmp_path / "odd.txt"
    odd.write_text("3 3\n0 1 0\n2 0 0\n0 0 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", odd)
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["kernel_dim"], doc["class_count"]) == (3, 1, 3)
    assert sorted(f["values_exp_mod_p2"][0] for f in doc["invariants"]) == [0, 3, 6]
    code, out, _ = run(capsys, "analyze", odd)
    assert code == 0
    assert "classes: n/a at odd p (spinlab classify lists the p^d classes)\n" in out


def test_grow_rejects_explicit_files(capsys):
    code, _, err = run(capsys, "grow", FIXTURES / "pauli.txt", "--n-max", 4)
    assert code == 2
    assert "toeplitz" in err


def test_a_band_and_its_explicit_copy_differ_only_in_provenance(capsys, tmp_path):
    band = FIXTURES / "band.txt"
    copy = tmp_path / "band_copy.txt"
    copy.write_text(formats.format_matrix_file(
        formats.parse_matrix_file(band.read_text()).materialize(6)))
    for argv in (["basis"], ["classify"], ["represent", "--kind", "irr"], ["analyze"]):
        outs = [run(capsys, argv[0], path, "--n-max", 6, *argv[1:]) for path in (band, copy)]
        assert outs[0] == outs[1] and outs[0][0] == 0, argv
    docs = []
    for path in (band, copy):
        code, out, err = run(capsys, "analyze", path, "--n-max", 6, "--json")
        assert code == 0 and err == ""
        docs.append(json.loads(out))
    band_fields = {"source", "pattern", "prefix_ranks", "infinite_rank_conjectured"}
    assert {k: v for k, v in docs[0].items() if k not in band_fields} == {
        k: v for k, v in docs[1].items() if k not in band_fields}
    assert (docs[0]["source"], docs[1]["source"]) == ("toeplitz", "explicit")
    assert set(docs[0]) - set(docs[1]) == band_fields - {"source"}


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_and_emit_memory_n192(tmp_path):
    # a planted p = 2 matrix of rank 160 and kernel dimension 32 (B S B^T,
    # B unit lower times unit upper triangular), the largest dense-basis
    # shape; its file is 74 KB and its basis document 74 KB.  Then an
    # n = 2048, p = 3 file, at most 0.8 times 8 n^2 bytes (0.63 measured)
    rng = np.random.default_rng(192)
    n, eye = 192, np.eye(192, dtype=np.int64)
    b = (np.tril(rng.integers(0, 2, (n, n)), -1) + eye) @ (np.triu(rng.integers(0, 2, (n, n)), 1) + eye) % 2
    mat = sl.commutation_matrix(2, b @ forms.standard_form(2, 80, 32).entries @ b.T % 2)
    text = formats.format_matrix_file(mat)
    assert _peak_bytes(lambda: formats.parse_matrix_file(text)) <= 0.8e6
    # a one-digit body read by stride: the encoded 8.4 MB text, its digits,
    # one uint16 grid and the constructor's uint8 copy
    upper = np.triu(rng.integers(0, 3, (2048, 2048)), 1)
    big = formats.format_matrix_file(sl.commutation_matrix(3, (upper - upper.T) % 3))
    assert _peak_bytes(lambda: formats.parse_matrix_file(big)) <= 0.8 * 2048 * 2048 * 8
    basis = sl.symplectic_basis(mat)
    out = str(tmp_path / "basis.json")
    assert _peak_bytes(lambda: cli._emit_json(formats.basis_doc(mat, basis), out)) < 1e6
    with open(out, encoding="utf-8") as fh:
        assert json.loads(fh.read()) == formats._plain(formats.basis_doc(mat, basis))


def test_emit_json_streams_a_representation(tmp_path):
    # 14 generators on 2^14 dimensions: a 1.7 MB document, written piece by
    # piece, so it never holds a copy of the whole text
    rep = sl.prop11_rep(sl.random_alternating(2, 14, seed=3))
    doc = formats.representation_doc(rep)
    out = str(tmp_path / "rep.json")
    peak = _peak_bytes(lambda: cli._emit_json(doc, out))
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert text == "".join(formats.json_pieces(doc)) + "\n"
    assert peak < len(text) / 2
