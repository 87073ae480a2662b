"""Modules of the package meet at public names only, and arith is the
bottom layer."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "divcorr"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _private_imports(path: Path, own: str | None = None) -> list[str]:
    """Private names that path imports from divcorr modules other than own."""
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        mod = node.module
        if mod == own or not (mod == "divcorr" or mod.startswith("divcorr.")):
            continue
        offenders += [
            f"{path.name}: from {mod} import {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return offenders


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += _private_imports(path, f"divcorr.{path.stem}")
    assert not offenders, offenders


def _module_of(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The divcorr module an expression names, if any."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and _module_of(node.value, aliases) == "divcorr":
        if (SRC / f"{node.attr}.py").exists():
            return f"divcorr.{node.attr}"
    return None


def _private_reads(path: Path, own: str | None = None) -> list[str]:
    """Private attributes that path reads through divcorr modules other
    than own, e.g. sieve._divisor_fill after `from divcorr import sieve`."""
    offenders = []
    tree = ast.parse(path.read_text(), str(path))
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "divcorr":
            for alias in node.names:
                if (SRC / f"{alias.name}.py").exists():
                    aliases[alias.asname or alias.name] = f"divcorr.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "divcorr":
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases["divcorr"] = "divcorr"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__"):
            continue
        mod = _module_of(node.value, aliases)
        if mod is not None and mod != own:
            offenders.append(f"{path.name}:{node.lineno}: {mod}.{node.attr}")
    return offenders


def test_no_private_reads_through_other_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += _private_reads(path, f"divcorr.{path.stem}")
    assert not offenders, offenders


def test_scripts_use_only_public_names():
    # a script is a caller like any other: a helper it needs from the
    # package is made public there, not copied or reached into
    assert SCRIPTS
    offenders = []
    for path in SCRIPTS:
        offenders += _private_imports(path) + _private_reads(path)
    assert not offenders, offenders


def test_arith_imports_only_errors():
    # TYPE_CHECKING blocks count too: ast.walk visits their bodies
    path = SRC / "arith.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            mods = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        else:
            continue
        offenders += [
            mod
            for mod in mods
            if mod.startswith(".") or mod == "divcorr" or mod.startswith("divcorr.")
            if mod != "divcorr.errors"
        ]
    assert not offenders, offenders


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def test_no_single_field_dataclass():
    # a dataclass of one field wraps a value that its callers must still
    # know whole; the value itself is the simpler interface
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                if len(fields) == 1:
                    offenders.append(f"{path.name}: {node.name}")
    assert not offenders, offenders
