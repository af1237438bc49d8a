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
import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from collections import Counter

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "curvebound"


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


def fresh_stdout(script: str, *dirs) -> str:
    """The stdout of ``script`` run by a fresh interpreter that imports from src/ and ``dirs``."""
    path = os.pathsep.join([str(SRC.parent), *map(str, dirs)]
                           + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return done.stdout


def modules_loaded_by(code: str):
    """Every module a fresh interpreter holds after running ``code``, stdout silenced."""
    script = ("import contextlib, io, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(' '.join(sys.modules))\n")
    return set(fresh_stdout(script).split())


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


# -- reachability --------------------------------------------------------------

README = TESTS.parent / "README.md"
PERFBENCH = TESTS.parent / "perfbench"

# Functions of src/ that no README command and no benchmark call runs, each
# with the reason it stays.  The ast check above cannot see a dead dunder, or
# a dead method whose name another class's attribute shares.
NEVER_CALLED = {
    "__init__.Record.__setattr__": "raises on a write to a field, which no path makes",
    "__init__.Record.__delattr__": "raises on a delete of a field, which no path makes",
    "__init__.Record._values": "value semantics README documents: read by Record's equality and hash",
    "__init__.Record.__eq__": "value semantics README documents",
    "__init__.Record.__hash__": "value semantics README documents",
    "__init__.Record.__repr__": "value semantics README documents",
    "perm.Permutation.__repr__": "value semantics README documents",
    "permgroup.PermGroup.__len__": "perfbench's traced normalizer hook reads it",
    "ramification.deuring_shafarevich": NO_SRC_CALLER["ramification.deuring_shafarevich"],
}


def readme_commands():
    """The argv of each ``curvebound`` line of README's CLI block."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("curvebound ")]


def reproduction_calls():
    """``module:first line`` of each src/ function run by the README commands as JSON
    (one more as CSV and one as text), the benchmark's seed-1 sporadic-audit and
    prank-oracle command lines, and two passes of its seed-1 library-warm calls.

    Meant for a fresh interpreter: a cache that earlier work warmed would skip
    the functions that fill it.
    """
    sys.path.insert(0, str(PERFBENCH))
    import worker
    from inputs import INPUTS
    from run import cold_calls

    from curvebound import cli, permgroup

    argvs = [argv + ["--format", "json"] for argv in readme_commands()]
    argvs += [argvs[0][:-1] + ["csv"], argvs[0][:-1] + ["text"]]
    argvs += [argv for workload in ("sporadic-audit", "prank-oracle")
              for argv, _ in cold_calls(workload, INPUTS[workload](1))]
    code = set()

    def profile(frame, event, arg):
        if event == "call":
            code.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)
        parents = {name: permgroup.load_group(name) for name in ("alt7", "m11")}
        calls = worker.library_calls(INPUTS["library-warm"](1), parents)
        for _ in range(2):  # the second pass hits the caches the first one filled
            for _, thunk in calls:
                thunk()
    finally:
        sys.setprofile(previous)
    return sorted(f"{path.stem}:{c.co_firstlineno}" for c in code
                  if (path := pathlib.Path(c.co_filename).resolve()).parent == SRC)


def _functions(node, prefix=""):
    """(qualified name, first line) of each ``def`` under ``node``, methods and nested
    ``def``s included; the first line of a decorated function is its first decorator's."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def test_functions_finds_methods_nested_defs_and_decorated_lines():
    source = "class A:\n    @property\n    def x(self):\n        def inner():\n            pass\n" \
             "if True:\n    def f():\n        return lambda: 0\n"
    assert sorted(_functions(ast.parse(source))) == [("A.x", 2), ("A.x.<locals>.inner", 4), ("f", 7)]


def test_every_src_function_runs_on_a_reproduction_path():
    called = set(json.loads(fresh_stdout(
        "import json, test_imports\nprint(json.dumps(test_imports.reproduction_calls()))", TESTS)))
    never = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py")
                   for name, line in _functions(ast.parse(path.read_text()))
                   if f"{path.stem}:{line}" not in called)
    assert never == sorted(NEVER_CALLED)
