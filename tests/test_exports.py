import ast
import sys
from pathlib import Path

import cfdyn


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from cfdyn import *", namespace)
    del namespace["__builtins__"]
    assert len(cfdyn.__all__) == len(set(cfdyn.__all__))
    assert sorted(namespace) == sorted(cfdyn.__all__)


def test_package_imports_only_the_standard_library_and_numpy():
    # The package's only runtime dependency is numpy.
    allowed = sys.stdlib_module_names | {"numpy", "cfdyn"}
    found = {}
    for path in sorted(Path(cfdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert "numpy" in found
    assert {name: where for name, where in found.items() if name not in allowed} == {}
