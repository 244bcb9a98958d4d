"""The README's code references name things the package has.

A reference is a backticked dotted name whose head is a package module
(``grid.dft``, ``choquard_gs.experiments.config``) or a package class
(``Grid.r2``). One written with an argument list must name something
callable. File names such as ``energy.json`` are not references.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import choquard_gs
from choquard_gs.problem import PROFILES, REQUIRED

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(\([^`]*\))?`")
FILE_SUFFIXES = {"json", "ndjson", "csv", "md", "ini", "py", "cgsf"}

MODULES = {info.name: importlib.import_module(info.name) for info in
           pkgutil.walk_packages(choquard_gs.__path__, "choquard_gs.")}
MODULES["choquard_gs"] = choquard_gs
CLASSES = {value.__name__: value for module in MODULES.values() for value in vars(module).values()
           if isinstance(value, type) and value.__module__.startswith("choquard_gs")}


def _head(name: str):
    """The package module or class a reference starts from, or None."""
    return MODULES.get(name) or MODULES.get(f"choquard_gs.{name}") or CLASSES.get(name)


def _resolve(dotted: str):
    head, *rest = dotted.split(".")
    obj = _head(head)
    for name in rest:
        if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
            obj = getattr(obj, name, None)  # a field without a default is no class attribute
        else:
            assert hasattr(obj, name), f"`{dotted}` does not resolve"
            obj = getattr(obj, name)
    return obj


def test_readme_code_references_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = [(dotted, args) for dotted, args in REFERENCE.findall(text)
            if dotted.rsplit(".", 1)[1] not in FILE_SUFFIXES
            and _head(dotted.split(".")[0]) is not None]
    assert len(refs) >= 10
    for dotted, args in refs:
        obj = _resolve(dotted)
        assert not args or callable(obj), f"`{dotted}{args}` is not callable"


def test_readme_tag_table_is_profiles():
    # rows "| `[section]` | `tag` | `key` (default), ... | profile |"; a blank
    # section cell continues the one above, a key without a default is required
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("| section | tag | keys | profile |")
    table, section = {}, None
    for line in text[start:].split("\n\n", 1)[0].splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        section = cells[0].strip("`[]") or section
        keys = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cells[2])
        table.setdefault(section, {})[cells[1].strip("`")] = {
            key: float(default) if default else REQUIRED for key, default in keys}
    assert table == {section: {tag: keys for tag, (keys, _) in tags.items()}
                     for section, tags in PROFILES.items()}
