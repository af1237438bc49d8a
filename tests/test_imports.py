"""Import hygiene of the package, checked with ``ast`` (no lint tool needed).

A module may not import an underscore name from a sibling module (private
helpers stay private to their module), and may not import a name it never
uses.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "curvebound"


def import_findings(source: str):
    """Sorted "name: reason" lines for the imports of one module's source."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0], alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.asname or alias.name, alias.name) for alias in node.names]
            sibling = node.level > 0 or (node.module or "").startswith("curvebound")
            findings += [f"{name}: private name of a sibling module"
                         for _, name in bound if sibling and name.startswith("_")]
        else:
            continue
        findings += [f"{local}: imported but unused" for local, _ in bound if local not in used]
    return sorted(findings)


def test_import_findings_detect_both_faults():
    source = "from .fppoly import _is_prime, factorize\nimport os\nfrom dataclasses import field\n"
    assert import_findings(source + "factorize(4)\n") == [
        "_is_prime: imported but unused",
        "_is_prime: private name of a sibling module",
        "field: imported but unused",
        "os: imported but unused",
    ]
    assert import_findings("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_package_imports_are_clean(module):
    assert import_findings((SRC / module).read_text()) == []
