"""Every function, class and method the package defines is used by the package
or by the benchmark; code only the tests call belongs under tests/.

The check is by name: a definition counts as used when some module of the
package other than ``__init__`` (whose imports only re-export), or some file
under ``bench/``, names it as a variable or an attribute. Strings under
``bench/`` count too, since the tracer patches functions it names in strings.
Dunder methods are used by Python itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "choquard_gs"


def _names(tree: ast.AST, with_strings: bool) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.replace(".", " ").split())
    return out


def test_every_package_definition_is_used_outside_the_tests():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
        if path.name != "__init__.py":
            used |= _names(tree, with_strings=False)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used |= _names(ast.parse(path.read_text(encoding="utf-8")), with_strings=True)
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in used and not (name.startswith("__") and name.endswith("__")))
    assert unused == []
