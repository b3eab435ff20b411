"""The README's library example runs, and the results its comments state hold."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _is_expression(code: str) -> bool:
    try:
        compile(code, "README.md", "eval")
    except SyntaxError:
        return False
    return True


def test_readme_library_example_runs_and_its_comments_hold():
    namespace, got, claimed = {}, {}, {}
    for line in _library_example().splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        claim = re.match(r"\s*(\d+|True|False)\b", comment)
        if claim and _is_expression(code):  # a bare expression whose comment states its value
            got[code] = eval(code, namespace)
            claimed[code] = ast.literal_eval(claim.group(1))
        else:
            exec(code, namespace)
    assert got == claimed
    assert claimed == {
        "sl.form_rank(mat)": 2,
        "sl.verify_relations(rep).ok": True,
        "sl.extract_invariant(rep) == f1": True,
        "sl.commutant_dim(rep)": 1,
    }
