"""README's Python tour runs as written and gives the results it claims,
and its module table names only what each module has.

The tour's ```python blocks are executed in order in one namespace.  An
expression statement whose line ends in a comment such as ``# True`` or
``# 4`` is evaluated and compared with the literal that starts the comment.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_blocks():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Python tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, flags=re.DOTALL)


def _comments(source):
    """The comment text at the end of each line, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokens
        if tok.type == tokenize.COMMENT
    }


def test_the_python_tour_gives_the_results_it_claims():
    blocks = _tour_blocks()
    assert len(blocks) == 3
    namespace = {}
    claims = []
    for source in blocks:
        comments = _comments(source)
        for stmt in ast.parse(source).body:
            comment = comments.get(stmt.end_lineno, "")
            literal = re.match(r"(True|False|\d+)\b", comment)
            if isinstance(stmt, ast.Expr) and literal:
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
                expected = ast.literal_eval(literal.group(1))
                assert value == expected, ast.unparse(stmt)
                claims.append(ast.unparse(stmt))
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    # leq and eq in the first block, glue in the second, the point count in the third
    assert len(claims) == 4, claims


def test_every_name_in_the_module_table_is_in_its_module():
    """A backticked identifier (``leq``, ``SchemeMorphism.pullback``) in a
    row of the "What is inside" table is an attribute of that row's module,
    so the table cannot name what the package has deleted.  A mention here
    is not a use: the name guard of ``test_acceptance.py`` counts reads in
    the tour's ```python blocks, which the test above runs, and not
    README prose."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(zariski\.\w+)` \| (.*) \|$", table, flags=re.MULTILINE)
    assert len(rows) == 11
    missing, checked = [], 0
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]+)`", contents):
            if not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span):
                continue  # grammar samples such as `GF(p)` or `D(x, y-1)`
            obj = module
            for part in span.split("."):
                obj = getattr(obj, part, None)
            checked += 1
            if obj is None:
                missing.append(f"{module_name}: {span}")
    assert not missing, missing
    assert checked >= 30, checked
