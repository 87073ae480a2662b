"""Modules of the package meet at public names only, and arith is the
bottom layer."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "divcorr"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        own = f"divcorr.{path.stem}"
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
