"""The README's Python API block runs, and gives the results its comments show."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _api_block() -> list[str]:
    text = README.read_text()
    start = text.index("```python", text.index("## Python API")) + len("```python")
    return text[start:text.index("```", start)].strip().splitlines()


def _leading_literal(comment: str):
    """The longest prefix of a comment that is a Python literal, or None."""
    for end in range(len(comment), 0, -1):
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            pass
    return None


def _shows(value, documented) -> bool:
    """A documented list ending in `...` shows a prefix of the value."""
    if isinstance(documented, list) and documented and documented[-1] is Ellipsis:
        return list(value[:len(documented) - 1]) == documented[:-1]
    return value == documented


def test_python_api_block_gives_its_documented_results():
    namespace, shown = {}, 0
    for line in _api_block():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        node = ast.parse(code).body[0]
        if isinstance(node, ast.Expr):
            value = eval(code, namespace)
            documented = _leading_literal(comment)
            if documented is not None:
                assert _shows(value, documented), (line, value)
                shown += 1
        else:
            exec(code, namespace)
            word = re.search(r'certificate with word "(\w*)"', comment)
            if word:
                assert namespace[node.targets[0].id].word_text() == word[1], line
                shown += 1
    # counts twice, is_reducing, classify, the certificate word, lambda_triples
    assert shown == 6


def test_layout_names_every_module():
    text = README.read_text()
    start = text.index("```", text.index("## Layout")) + len("```")
    layout = text[start:text.index("```", start)]
    named = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {p.name for p in (README.parent / "src" / "goeritz2").glob("*.py")} - {"__init__.py"}
    assert named == modules
