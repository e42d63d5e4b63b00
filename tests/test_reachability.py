"""Every function, class and method in the package is reached from it.

The walk starts at the entry points: `cli.main` (the console script),
`run_corpus`, the module-level statements that run on import, and the
deliberate exceptions listed below. A reached definition reaches the
definitions its body names: a module-level function or class through a
bare name, an import or an attribute, a method only through an
attribute, so a local variable does not keep a method of the same name
alive. A reached class also reaches what its dunder methods and the
rest of its body name. The match is by name, so it can miss a dead
method that shares its name with a live attribute, but a definition that
only tests or other unreached code call is reported.

No module keeps process-global state: no context variable, thread-local
or global statement, so one report cannot change the next. No
constructor takes a `check` option: where a check runs is named in the
code, by a call to `checked()`. What a report may assume about its base
it reads off the ring's facts (`rings.py`), not off `ring.kind`, which
only chooses a module representation; and no code tests a class against
a literal tuple of class names, which `level.CLASSES` replaces. Neither
the cover tower nor the level reports shift a complex, so a shift keeps
no view of another complex's homology.
"""

import ast
import shutil
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import levelcert
from levelcert.level import CLASS_KEYS

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
    "PolyVec.text": "test API: a polynomial vector as text",
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
    """(name, is_attribute) for each name, attribute and import in nodes."""
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id, False
            elif isinstance(n, ast.Attribute):
                yield n.attr, True
            elif isinstance(n, ast.alias):
                yield n.name, False


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
    methods = defaultdict(list)
    for qual in defs:
        owner, _, name = qual.rpartition(".")
        if owner:
            methods[name].append(qual)
    reached = set()
    todo = list(on_import) + [(name, False) for name in roots]
    while todo:
        name, is_attribute = todo.pop()
        quals = [name] if name in defs else []
        if is_attribute:
            quals += methods[name]
        for qual in quals:
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
    # the second function is named, but only by the dead first one; the
    # planted method of a live class shares its name with a live local
    # variable (in _formality) that no code reads as an attribute
    src = tmp_path / "levelcert"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    level = src / "level.py"
    text = level.read_text(encoding="utf-8")
    live = "class LevelError(ValueError):\n    pass\n"
    assert live in text and "    hdegs = hd.nonzero_degrees()\n" in text
    level.write_text(
        text.replace(live, live + "\n    def hdegs(self):\n        return 0\n")
        + "\n\ndef _planted_head():\n    return _planted_tail()\n"
        "\n\ndef _planted_tail():\n    return 0\n", encoding="utf-8")
    roots = ENTRY_POINTS | set(UNREACHED)
    assert unreached_definitions(roots, src) == {
        "_planted_head", "_planted_tail", "LevelError.hdegs"}


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


# the comparisons with a ring's kind outside rings.py, by (file, function):
# each one chooses the module representation to build, parse or print
KIND_SITES = {
    ("cli.py", "_parse_twists"): "twist lists describe graded free modules",
    ("cli.py", "_poly_matrix_to_hom"): "graded columns need homogeneous "
                                       "entries and pick up twists",
    ("cli.py", "_bind_module"): "action literals build an artinian module",
    ("modules.py", "free_module"): "an artinian or a graded free module",
    ("randgen.py", "random_module"): "an artinian or a graded random module",
    ("resolutions.py", "Resolution.summary"): "the twists of graded terms",
    ("resolutions.py", "multiplication_chain_map"): "action matrices or "
                                                    "twisted graded columns",
}


def _kind_comparisons(node, where=""):
    """The qualified function around each comparison with a `.kind`
    attribute under node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        elif isinstance(child, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in [child.left, *child.comparators]):
            yield where
        yield from _kind_comparisons(child, inner)


def test_base_facts_are_read_off_the_ring():
    found = {(path.name, where)
             for path in sorted(SRC.glob("*.py")) if path.name != "rings.py"
             for where in _kind_comparisons(ast.parse(
                 path.read_text(encoding="utf-8"), filename=str(path)))}
    assert found - set(KIND_SITES) == set(), \
        "branches on ring.kind; read the ring's facts instead"
    assert set(KIND_SITES) - found == set(), \
        "these sites no longer compare kinds; take them off the list"


def _class_tuple_tests(path):
    """Line of each membership test, in the module at path, against a
    literal tuple, list or set that holds a class name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) \
                    and isinstance(right, (ast.Tuple, ast.List, ast.Set)) \
                    and any(isinstance(e, ast.Constant)
                            and e.value in CLASS_KEYS for e in right.elts):
                yield node.lineno


def test_no_class_is_tested_against_a_tuple_of_class_names():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _class_tuple_tests(path)]
    assert found == [], "class tuples; read level.CLASSES instead"


def _shift_calls(path):
    """Line of each `.shift(...)` call in the module at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "shift"]


def test_the_level_search_shifts_no_complex():
    # the cover tower keeps its layers suspended, so no report path
    # shifts a complex, and a shift needs no view of another's homology
    found = [(name, line) for name in ("adams.py", "level.py")
             for line in _shift_calls(SRC / name)]
    assert found == [], "shifted complexes on the report path"
    tree = ast.parse((SRC / "complexes.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ClassDef)
                   and node.name == "ShiftedHomologyData"
                   for node in ast.walk(tree))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "_root"
                   and isinstance(node.ctx, ast.Store)
                   for node in ast.walk(tree))
