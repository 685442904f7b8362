"""The README "Library" block runs as printed, and its comments state its results."""

import ast
import math
import re
from pathlib import Path

from mpmath import mp

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _poly_text(p) -> str:
    """x^4 - 3x^3 + x^2 - 3x + 1 style, highest degree first."""
    terms = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and i else str(abs(c))
        power = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        terms.append(("-" if c < 0 else "+", mag + power))
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return " ".join([head] + [f"{sign} {term}" for sign, term in terms[1:]])


def test_library_block_runs_and_matches_its_comments():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
        if comment.startswith("x"):
            assert _poly_text(value) == comment
        else:
            # a Python literal, then optionally a comma and prose
            literal = re.match(r"(\[[^\]]*\]|'[^']*'|-?\d+)", comment).group(1)
            assert value == ast.literal_eval(literal), comment
        checked += 1
    assert checked == 4

    # rep = entropy(spec): value = 2*log(lambda), gamma = lambda^2 a Salem number
    rep = namespace["rep"]
    assert rep.is_salem is True
    with mp.workprec(100):
        lam = max(r.real for r in mp.polyroots([1, -1, -1, -1, 1]))
        assert math.isclose(float(rep.value), float(2 * mp.log(lam)), rel_tol=1e-12)
