"""Dead-API guard: every top-level def and class of src/hcov, and every
method of such a class other than a dunder, is named somewhere outside its
own definition, in the package itself or in the scripts that drive it
(tools/, benchmarks/, perfbench/). And every optional parameter of such a
function or method is set by a call there.

Names count as identifiers (a load, an attribute, an import) and as words
of string constants that are not docstrings, because the benchmark's
tracer names its targets in strings ("hcov.galois", "cayley"). Tests do
not count: an oracle that only tests call belongs under tests/, and so
does a parameter that only tests set.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcov"
CALLERS = [PACKAGE, ROOT / "tools", ROOT / "benchmarks", ROOT / "perfbench"]
WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (ast.Module, *DEFS)


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


def unnamed(module, total) -> list:
    """Each top-level def or class of module, and each method of such a
    class other than a dunder (as Class.method), that total names no more
    often than its own definition does."""
    out = []
    for node in module.body:
        if not isinstance(node, DEFS):
            continue
        defs = [(node, node.name)]
        if isinstance(node, ast.ClassDef):
            defs += [(m, f"{node.name}.{m.name}") for m in node.body
                     if isinstance(m, DEFS) and not m.name.startswith("__")]
        out += [label for d, label in defs if total[d.name] == names(d)[d.name]]
    return out


def parsed() -> dict:
    """path -> syntax tree of each Python file of the package and its callers."""
    return {p: ast.parse(p.read_text(), str(p)) for d in CALLERS for p in sorted(d.rglob("*.py"))}


def unreferenced() -> list:
    """module:name of each definition of src/hcov that nothing outside its
    own definition names."""
    trees = parsed()
    total = sum(map(names, trees.values()), Counter())
    return [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in unnamed(trees[path], total)]


def set_by_calls(trees) -> dict:
    """callee name -> (the most positional arguments, the keywords) of the
    calls under trees, matched by name: f(...) and x.f(...) both count for
    f. A call with *args or **kwargs sets every parameter (None)."""
    out = {}
    for tree in trees:
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if out.get(name, 0) is None:
                continue
            if any(isinstance(a, ast.Starred) for a in n.args) or any(
                k.arg is None for k in n.keywords
            ):
                out[name] = None
                continue
            count, keywords = out.get(name, (0, set()))
            out[name] = max(count, len(n.args)), keywords | {k.arg for k in n.keywords}
    return out


def optional_parameters(fn, bound: bool) -> list:
    """(position or None, name) of each parameter of fn that has a default;
    a bound method's first parameter takes no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def unset(module, calls) -> list:
    """name(parameter) of each optional parameter of a top-level function or
    a method of module that no call in calls sets; __init__ is called by its
    class's name."""
    funcs = []
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            funcs.append((node, node.name, False))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    funcs.append((m, node.name if m.name == "__init__" else m.name, not static))
    out = []
    for fn, name, bound in funcs:
        call = calls.get(name, (0, set()))
        if call is None:
            continue
        count, keywords = call
        out += [f"{name}({param})" for i, param in optional_parameters(fn, bound)
                if param not in keywords and (i is None or i >= count)]
    return out


def test_no_module_of_the_package_imports_networkx_or_sympy():
    # both are oracles of the tests; the package checks its results itself
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Import):
                imported.update(a.name.split(".")[0] for a in n.names)
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                imported.add(n.module.split(".")[0])
    assert "hcov" in imported and not imported & {"networkx", "sympy"}


def test_every_top_level_definition_is_named_outside_itself():
    assert unreferenced() == []


def test_every_optional_parameter_is_set_outside_the_tests():
    trees = parsed()
    calls = set_by_calls(trees.values())
    assert [f"{path.name}:{label}" for path in sorted(PACKAGE.glob("*.py"))
            for label in unset(trees[path], calls)] == []


def test_a_parameter_counts_as_set_by_position_keyword_or_splat():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\n"
        "class Box:\n    def __init__(self, x=0):\n        pass\n\n"
        "    def m(self, y=0, z=0):\n        pass\n\n\n"
        "f(0, 1)\nBox()\nBox().m(z=1)\n"
    )
    assert unset(tree, set_by_calls([tree])) == ["f(c)", "f(d)", "Box(x)", "m(y)"]
    splat = ast.parse("def g(a=0):\n    pass\n\n\ng(*[])\n")
    assert unset(splat, set_by_calls([splat])) == []


def test_a_method_is_named_by_its_uses_outside_itself():
    tree = ast.parse(
        "class Box:\n    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def unused(self):\n        return self.unused\n\n\nBox()\n"
    )
    assert unnamed(tree, names(tree)) == ["Box.unused"]


def test_a_self_reference_or_a_docstring_is_no_use():
    tree = ast.parse(
        'def lonely():\n    """lonely"""\n    return lonely\n\n\nx = "traced: target"\n'
    )
    (node, _) = tree.body
    assert names(tree)["lonely"] == names(node)["lonely"] == 1
    assert names(tree)["traced"] == names(tree)["target"] == 1
