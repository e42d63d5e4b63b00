"""Every function, class and method in the package is reached from it.

A definition counts as reached when its name appears somewhere in the
package source, outside the definition itself, as a name, an attribute
or an import alias. The check is by name only, so it can miss dead code
that shares a name with live code, but it catches a function that only
tests call. The names below are the deliberate exceptions.
"""

import ast
from collections import Counter
from pathlib import Path

import levelcert

SRC = Path(levelcert.__file__).parent

UNREACHED = {
    # perfbench/tracer.py wraps these by name
    "ChainMapSpace.class_coords": "tracer target",
    "ChainMapSpace.null_homotopy": "tracer target",
    "subspace_basis": "tracer target",
    "Mat.inverse": "tracer target",
    # helpers the test suite builds its cases with
    "Complex.truncate_ge": "test API: top truncations in complex tests",
    "GroebnerBasis.contains": "test API: ideal membership in Groebner "
                              "tests",
    "Mat.entry": "test API: reading one entry of a matrix",
    "Mat.to_lists": "test API: a matrix as nested lists",
    # claim 10 re-verifies every certificate built inside this scope
    "certificate_audit": "soundness audit of acceptance claim 10",
    "CertificateAudit.report": "soundness audit of acceptance claim 10",
    # the paper's bound from the dimension of the homology
    "homology_dimension_bound": "the paper's bound, not yet in reports",
    # generators of the property suites
    "random_complex": "property-suite generator",
    "random_injective_homology_complex": "property-suite generator",
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, bare name, node) of each module-level function and
    class and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name):
                    yield f"{node.name}.{m.name}", m.name, m


def unreached_definitions():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))]
    uses = Counter()
    for tree in trees:
        uses.update(_names(tree))
    out = set()
    for tree in trees:
        for qual, name, node in _definitions(tree):
            # a recursive call does not reach a definition from outside
            if uses[name] == sum(1 for n in _names(node) if n == name):
                out.add(qual)
    return out


def test_every_definition_is_reached_or_listed():
    unreached = unreached_definitions()
    assert sorted(unreached - set(UNREACHED)) == [], \
        "no code in the package reaches these; delete them or list them"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "these are reached now, or gone; take them off the list"
