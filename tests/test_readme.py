"""The README's library sketch runs, and the values in its comments hold."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"


def library_sketch() -> str:
    """The code block under the README's "Library sketch" heading."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def commented_value(comment: str):
    """The literal a comment such as '~0.585' or '(0.5, 0.6)' states, or None."""
    try:
        return ast.literal_eval(comment.strip().removeprefix("~"))
    except (SyntaxError, ValueError):
        return None


def test_library_sketch_runs_and_matches_its_comments():
    code = library_sketch()
    namespace: dict = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        expected = commented_value(comment)
        if expr.strip() and expected is not None:
            got = eval(expr, namespace)
            assert got == pytest.approx(expected, abs=1e-3), line
            checked.append(line)
    assert len(checked) == 4
