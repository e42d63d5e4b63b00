"""Every function, class and method in the package is reached from it.

The walk starts at the entry points: `cli.main` (the console script),
`run_corpus`, the module-level statements that run on import, and the
deliberate exceptions listed below. A reached definition reaches every
definition whose name its body uses, as a name, an attribute or an
import; a reached class also reaches what its dunder methods and the
rest of its body name. The match is by name only, so it can miss dead
code that shares a name with live code, but a definition that only
tests or other unreached code call is reported.

No module keeps process-global state: no context variable, thread-local
or global statement, so one report cannot change the next. No
constructor takes a `check` option: where a check runs is named in the
code, by a call to `checked()`.
"""

import ast
import shutil
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import levelcert

SRC = Path(levelcert.__file__).parent

ENTRY_POINTS = {"main", "run_corpus"}

UNREACHED = {
    # perfbench/tracer.py wraps these by name
    "ChainMapSpace.class_coords": "tracer target",
    "ChainMapSpace.null_homotopy": "tracer target",
    "subspace_basis": "tracer target",
    "Mat.inverse": "tracer target",
    # helpers the test suite builds its cases with
    "GroebnerBasis.contains": "test API: ideal membership in Groebner "
                              "tests",
    "Mat.entry": "test API: reading one entry of a matrix",
    "Mat.to_lists": "test API: a matrix as nested lists",
    "artin_residue_field": "test API: the residue field of an artinian "
                           "base",
    "graded_residue_field": "test API: the residue field of a polynomial "
                            "base",
    "koszul_complex": "test API: the Koszul complex of the base",
    # the paper's bound from the dimension of the homology
    "homology_dimension_bound": "the paper's bound, not yet in reports",
    # generators of the property suites
    "random_complex": "property-suite generator",
    "random_free_homology_complex": "property-suite generator",
    "random_injective_homology_complex": "property-suite generator",
}


def _names(nodes):
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


@lru_cache(maxsize=None)
def _package(src):
    """(definitions, import-time names): each module-level function and
    class and each non-dunder method of a module-level class, by
    qualified name, with the names its body uses; and the names the
    module-level statements other than definitions and imports use."""
    defs, on_import = {}, set()
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = set(_names([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not _is_dunder(m.name)]
                rest = [m for m in node.body if m not in methods]
                defs[node.name] = set(_names(node.bases + node.decorator_list
                                             + rest))
                for m in methods:
                    defs[f"{node.name}.{m.name}"] = set(_names([m]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import.update(_names([node]))
    return defs, on_import


def unreached_definitions(roots, src=SRC):
    """Qualified names of the definitions that no walk from roots (bare
    or qualified names) and the import-time statements reaches."""
    defs, on_import = _package(src)
    by_name = defaultdict(list)
    for qual in defs:
        by_name[qual.rpartition(".")[2]].append(qual)
    reached = set()
    todo = list(on_import) + list(roots)
    while todo:
        name = todo.pop()
        for qual in by_name[name] + ([name] if name in defs else []):
            if qual not in reached:
                reached.add(qual)
                todo.extend(defs[qual])
    return set(defs) - reached


def test_every_definition_is_reached_or_listed():
    roots = ENTRY_POINTS | set(UNREACHED)
    assert sorted(unreached_definitions(roots)) == [], \
        "no entry point reaches these; delete them or list them"
    stale = [qual for qual in sorted(UNREACHED)
             if qual not in unreached_definitions(roots - {qual})]
    assert stale == [], "these are reached now; take them off the list"


def test_a_dead_chain_is_reported(tmp_path):
    # the second function is named, but only by the dead first one
    src = tmp_path / "levelcert"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "level.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _planted_head():\n    return _planted_tail()\n"
                 "\n\ndef _planted_tail():\n    return 0\n")
    roots = ENTRY_POINTS | set(UNREACHED)
    assert unreached_definitions(roots, src) == {"_planted_head",
                                                  "_planted_tail"}


def _process_global_state(path):
    """(line, name) for each global statement, use of contextvars and
    use of threading.local in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            names = ["global"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        for name in names:
            if name in ("global", "threading.local") \
                    or name.partition(".")[0] == "contextvars":
                yield node.lineno, name


def test_no_process_global_state():
    found = [(path.name, line, what) for path in sorted(SRC.glob("*.py"))
             for line, what in _process_global_state(path)]
    assert found == [], "state shared by every report in the process"


def _check_parameters(path):
    """(line, qualified name) for each __init__ in the module at path that
    takes a parameter named check."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "check" for a in params):
                    yield node.lineno, f"{cls.name}.__init__"


def test_no_constructor_takes_a_check_option():
    # construction trusts its caller; the places that take objects from
    # outside or confirm a map by its cone call checked() by name
    found = [(path.name, line, what) for path in sorted(SRC.glob("*.py"))
             for line, what in _check_parameters(path)]
    assert found == [], "constructors with a check option"
