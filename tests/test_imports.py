"""Import hygiene of the package, checked with ``ast`` (no lint tool needed).

A module may not import an underscore name from a sibling module (private
helpers stay private to their module), and may not import a name it never
uses.  Every public name the package defines has a reader inside the
package, apart from an allow-list with a reason for each entry; test-only
helpers live in ``tests/oracles.py``.  A CLI process loads only the layers
and standard modules its subcommand computes with, checked in a fresh
interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

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


# Public names with no reader in src/, each with the reason it stays there.
NO_SRC_CALLER = {
    "bounds.audit_all": "perfbench's library-warm workload audits the whole registry through it",
    "permgroup.PermGroup.subgroup": "perfbench's library-warm workload builds its subgroups through it",
    "ramification.deuring_shafarevich": "the Sylow-quotient consistency check planned in ROADMAP.md calls it",
}


def _loads(node):
    """How often each name is loaded under ``node``: a bare name as ``name``, an attribute as ``.name``."""
    return Counter(n.id if isinstance(n, ast.Name) else "." + n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _slot_fields(node):
    """(field name, the ``__slots__`` assignment) for each name a class body lists in ``__slots__``."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in item.targets):
            return [(elt.value, item) for elt in getattr(item.value, "elts", ()) if isinstance(elt, ast.Constant)]
    return []


def _public_definitions(tree):
    """(qualified name, node) for each public function, class and constant of a module,
    and each public method, property or slot field of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef))
                yield from ((f"{node.name}.{name}", item) for name, item in _slot_fields(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def unused_public_names(sources):
    """Sorted ``module.name`` for each public definition that no code in ``sources`` loads
    outside the definition itself; ``sources`` maps module names to their text.

    A module-level name is read where it is loaded as a name or an attribute,
    a method, property or slot field (a name in a class's ``__slots__``)
    only where it is loaded as an attribute.  Matching is by name alone, so
    a dead definition whose name is loaded elsewhere for another reason (a
    live method, a local variable, another object's attribute) goes
    unnoticed: a slot field ``name`` that nothing reads would hide behind
    every ``args.name`` in ``cli``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            keys = ["." + name] if "." in qualname else [name, "." + name]
            own = _loads(node)
            if not name.startswith("_") and all(loads[key] == own[key] for key in keys):
                found.append(f"{module}.{qualname}")
    return sorted(found)


def test_unused_public_names_detects_each_kind():
    sources = {
        "a": "LIMIT = 3\nSPARE = 4\n_PRIVATE = 5\n"
             "def used():\n    return LIMIT\n"
             "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
             "class Shape:\n"
             "    def area(self):\n        return self.side()\n"
             "    def side(self):\n        return 1\n"
             "    @property\n    def name(self):\n        return 'x'\n"
             "    def __repr__(self):\n        return ''\n"
             "class Spare:\n    pass\n"
             "class Point(Record):\n    __slots__ = ('x', 'tag', '_cache')\n"
             "class Plain:\n    label: str\n",
        "b": "from .a import Plain, Point, Shape, used\nused()\nShape().area()\nname = 'local'\nname.upper()\n"
             "Point(1).x\nPlain()\n",
    }
    assert unused_public_names(sources) == [
        "a.Point.tag", "a.SPARE", "a.Shape.name", "a.Spare", "a.recursive"]


def _package_sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_every_public_name_has_a_reader_in_src():
    assert sorted(set(unused_public_names(_package_sources())) - set(NO_SRC_CALLER)) == []


def test_allow_list_names_exist_and_still_have_no_reader():
    sources = _package_sources()
    defined = {f"{module}.{qualname}" for module, text in sources.items()
               for qualname, _ in _public_definitions(ast.parse(text))}
    assert sorted(set(NO_SRC_CALLER) - defined) == []
    assert sorted(set(NO_SRC_CALLER) - set(unused_public_names(sources))) == []


def modules_loaded_by(code: str):
    """Every module a fresh interpreter holds after running ``code``, stdout silenced."""
    script = ("import contextlib, io, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(' '.join(sys.modules))\n")
    path = os.pathsep.join([str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def layers(loaded):
    """The curvebound modules among ``loaded``, named without the package prefix."""
    return {name.removeprefix("curvebound.") for name in loaded if name.split(".")[0] == "curvebound"}


def run_cli(argv):
    """The modules loaded by a fresh ``cli.main(argv)``."""
    return modules_loaded_by(f"from curvebound import cli\ncli.main({argv!r})")


def test_cli_import_loads_no_layer():
    assert layers(modules_loaded_by("import curvebound.cli")) == {"curvebound", "cli"}


def test_prank_loads_no_group_layer():
    loaded = layers(run_cli(["prank", "--p", "3", "--curve", "y^2=x^5-x"]))
    assert loaded.isdisjoint({"perm", "permgroup", "classical", "bounds"})


def test_group_audit_loads_neither_bounds_nor_prank():
    loaded = layers(run_cli(["group-audit", "alt7"]))
    assert "permgroup" in loaded and loaded.isdisjoint({"bounds", "prank"})


def test_bounds_loads_no_group_layer():
    loaded = layers(run_cli(["bounds", "all"]))
    assert "bounds" in loaded and loaded.isdisjoint({"perm", "permgroup"})


# No command loads NEVER_LOADED, and each command below loads none of its
# UNNEEDED modules, since it computes nothing with them; every module a cold
# process loads costs it milliseconds to compile.
NEVER_LOADED = {"dataclasses", "inspect", "csv"}
UNNEEDED = [
    ("group-audit", ["group-audit", "alt7"], {"fractions", "curvebound.fppoly"}),
    ("enumerate", ["enumerate", "--group", "m11", "--char", "3"], {"fractions", "curvebound.fppoly"}),
    ("bounds-all", ["bounds", "all"], {"curvebound.fppoly"}),
    ("bounds-classify", ["bounds", "main", "--order", "7920", "--genus", "26"], {"curvebound.fppoly"}),
    ("prank", ["prank", "--p", "3", "--curve", "y^2=x^5-x"], {"curvebound.ramification"}),
    ("prank-oracle", ["prank", "--p", "3", "--curve", "y^2=x^5-x", "--oracle"],
     {"fractions", "curvebound.ramification"}),
]


@pytest.mark.parametrize("argv, unneeded", [pytest.param(a, u, id=i) for i, a, u in UNNEEDED])
def test_each_command_loads_only_what_it_computes_with(argv, unneeded):
    loaded = run_cli(argv + ["--format", "json"])
    assert sorted(loaded & (NEVER_LOADED | unneeded)) == []


def test_only_the_csv_format_loads_csv():
    argv = ["bounds", "main", "--order", "7920", "--genus", "26", "--format"]
    assert "csv" not in run_cli(argv + ["text"])
    assert "csv" in run_cli(argv + ["csv"])
