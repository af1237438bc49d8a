"""Import hygiene of the package, checked with ``ast`` (no lint tool needed).

A module may not import an underscore name from a sibling module (private
helpers stay private to their module), and may not import a name it never
uses.  A CLI process loads only the layers its subcommand runs, checked in a
fresh interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def modules_loaded_by(code: str):
    """The curvebound modules a fresh interpreter holds after running ``code``, stdout silenced."""
    script = ("import contextlib, io, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(' '.join(m for m in sys.modules if m.startswith('curvebound')))\n")
    path = os.pathsep.join([str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return {name.removeprefix("curvebound.") for name in done.stdout.split()}


def test_cli_import_loads_no_layer():
    assert modules_loaded_by("import curvebound.cli") == {"curvebound", "cli"}


def test_prank_loads_no_group_layer():
    loaded = modules_loaded_by("from curvebound import cli\n"
                               "cli.main(['prank', '--p', '3', '--curve', 'y^2=x^5-x'])")
    assert loaded.isdisjoint({"perm", "permgroup", "classical", "bounds"})


def test_group_audit_loads_neither_bounds_nor_prank():
    loaded = modules_loaded_by("from curvebound import cli\ncli.main(['group-audit', 'alt7'])")
    assert "permgroup" in loaded and loaded.isdisjoint({"bounds", "prank"})


def test_bounds_loads_no_group_layer():
    loaded = modules_loaded_by("from curvebound import cli\ncli.main(['bounds', 'all'])")
    assert "bounds" in loaded and loaded.isdisjoint({"perm", "permgroup"})
