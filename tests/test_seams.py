"""Modules of the package meet at public names only."""

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
