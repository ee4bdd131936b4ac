"""Dead-name guards: every name the package defines or imports is used.

A top-level def, class or assignment in src/conedual, or a public method of
one of its classes, must be loaded (as a name or an attribute) or named as a
string somewhere in src/, tests/ or perfbench/ outside its own definition.
Strings count because perfbench and monkeypatching reach functions by name.
Dunder names (__all__, __version__, ...) are read by tools and are exempt.
The stricter guard counts uses from src/ and perfbench/ only, so that no
package name lives on as a test helper or oracle: those go in tests/.

A name a src/conedual module imports must be loaded in that module, listed
in its __all__, or marked `# noqa: F401` on its import line.

The exact projection reads floats in one function, so that its rounding
rule lives in one place.

No package module reads the environment: the solver's scale and every
other setting come from the data and the arguments, never from a knob.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conedual"


def _definitions(tree):
    """(name, node) for the module's top-level names and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for name in ast.walk(t):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not meth.name.startswith("_"):
                    yield meth.name, meth


def _uses(node, enclosing, out):
    """Record every loaded name, attribute and string constant under node,
    with the ids of the definitions it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {id(node)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.setdefault(node.id, []).append(enclosing)
    elif isinstance(node, ast.Attribute):
        out.setdefault(node.attr, []).append(enclosing)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.setdefault(node.value, []).append(enclosing)
    for child in ast.iter_child_nodes(node):
        _uses(child, enclosing, out)


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), str(path))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def _unused(*dirs):
    """The package names that nothing under `dirs` uses."""
    trees = _trees(*dirs)
    uses: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        _uses(tree, frozenset(), uses)
    dead = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(id(node) not in where for where in uses.get(name, [])):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return dead


def test_every_package_name_is_used():
    assert _unused("src", "tests", "perfbench") == []


def test_no_package_name_is_reached_only_from_tests():
    assert _unused("src", "perfbench") == []


def _exported(tree):
    """The string entries of the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def test_every_package_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source, str(path))
        lines = source.splitlines()
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        kept = loaded | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in kept:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_projection_reads_floats_in_one_place():
    """The exact projection converts floats by one rule: no Fraction and no
    limit_denominator in projection.py outside `_to_frac_matrix`."""
    tree = ast.parse((PACKAGE / "projection.py").read_text())
    outside = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and node.name == "_to_frac_matrix":
            inside = True
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in ("Fraction", "limit_denominator") and not inside:
            outside.append(f"projection.py:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    assert outside == []


def test_no_package_module_reads_the_environment():
    """No os.environ or os.getenv under src/conedual, as an attribute, a
    name or an import from os."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [node.attr] if isinstance(node, ast.Attribute) else \
                [node.id] if isinstance(node, ast.Name) else \
                [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            reads += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                      for name in names if name in banned]
    assert reads == []
