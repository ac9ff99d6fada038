"""Dead-API guard: every top-level def and class of src/hcov is named
somewhere outside its own definition, in the package itself or in the
scripts that drive it (tools/, benchmarks/, perfbench/).

Names count as identifiers (a load, an attribute, an import) and as words
of string constants that are not docstrings, because the benchmark's
tracer names its targets in strings ("hcov.galois", "cayley"). Tests do
not count: an oracle that only tests call belongs under tests/.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcov"
CALLERS = [PACKAGE, ROOT / "tools", ROOT / "benchmarks", ROOT / "perfbench"]
WORD = re.compile(r"[A-Za-z_]\w*")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def names(tree) -> Counter:
    """How often each identifier, and each word of a string constant other
    than a docstring, occurs under tree."""
    docstrings = {
        id(n.body[0].value) for n in ast.walk(tree)
        if isinstance(n, SCOPES) and n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
    }
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(WORD.findall(n.value))
    return out


def unreferenced() -> list:
    """module:name of each top-level def or class of src/hcov that nothing
    outside its own definition names."""
    trees = {p: ast.parse(p.read_text(), str(p)) for d in CALLERS for p in sorted(d.rglob("*.py"))}
    total = sum(map(names, trees.values()), Counter())
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, SCOPES) and total[node.name] == names(node)[node.name]:
                out.append(f"{path.name}:{node.name}")
    return out


def test_every_top_level_definition_is_named_outside_itself():
    assert unreferenced() == []


def test_a_self_reference_or_a_docstring_is_no_use():
    tree = ast.parse(
        'def lonely():\n    """lonely"""\n    return lonely\n\n\nx = "traced: target"\n'
    )
    (node, _) = tree.body
    assert names(tree)["lonely"] == names(node)["lonely"] == 1
    assert names(tree)["traced"] == names(tree)["target"] == 1
