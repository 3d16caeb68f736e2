"""No dead code in src/: every top-level function and class of the package,
and every method but the dunders, is named somewhere in src/ or demos/ (a
name, an attribute or an import), or matches a pattern of ALLOWED, which
gives the reason nothing there names it."""

import ast
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: pattern of qualified names -> why no line of src/ or demos/ names them
ALLOWED = {
    "verify.suite_*": "looked up by name in verify._run",
    "ratlinalg.complement_columns": "named by perfbench's layer tracer (ROADMAP item 10)",
}


def definitions(module: str, source: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function and class of the
    module and of each method of those classes but the dunders."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{module}.{node.name}.{sub.name}", sub.name) for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return out


def names_used(source: str) -> set[str]:
    """Every name, attribute and imported name the source mentions."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unreferenced(package: dict[str, str], others: list[str]) -> list[str]:
    """The qualified names of the definitions of package (module -> source)
    that neither package nor the sources in others name."""
    used = set().union(*map(names_used, [*package.values(), *others]))
    return [qual for module, source in package.items()
            for qual, name in definitions(module, source) if name not in used]


def the_package() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted((ROOT / "src" / "binarycubics").glob("*.py"))}


def the_demos() -> list[str]:
    return [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]


def test_every_definition_in_src_is_referenced_or_allowed():
    dead = unreferenced(the_package(), the_demos())
    assert [q for q in dead if not any(fnmatch(q, pattern) for pattern in ALLOWED)] == []
    # each pattern still stands for a definition nothing names
    assert [p for p in ALLOWED if not any(fnmatch(q, p) for q in dead)] == []


def test_a_leftover_helper_is_caught():
    package = the_package()
    package["quiver"] += "\n\ndef _tube_split(V, tube, factors):\n    return [V]\n"
    package["values"] += "\n\nclass Unused(Frozen):\n    def method(self):\n        return 0\n"
    added = set(unreferenced(package, the_demos())) - set(unreferenced(the_package(), the_demos()))
    assert added == {"quiver._tube_split", "values.Unused", "values.Unused.method"}
