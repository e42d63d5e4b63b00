"""Bundled worked examples with frozen expected values.

Every case rebuilds its objects from scratch, computes the claimed
quantity, and compares against the stored expectation; run_corpus
returns the full pass/fail table. The collection doubles as an
end-to-end self-test: perturbing an expected value must flip exactly
that row to failing.
"""

from __future__ import annotations

import random

from .adams import homology_stalks
from .complexes import module_stalk
from .level import (derived_hom, level_one_test, level_report,
                    upper_via_cycle_boundary, bass_check)
from .modules import artin_residue_field, free_module, graded_residue_field
from .poly import parse_poly
from .randgen import random_free_homology_complex
from .resolutions import depth_of, dimension_report, koszul_complex
from .rings import make_ring


KOSZUL_SCRIPT = """\
A = artin(F2; x | x^2)
complex K over A : range 1..0 ; d1 = [[x]]
level GI K
"""


def _square_zero_ring():
    return make_ring("artin(F2; x | x^2)")


def _case_base_ring():
    ring = _square_zero_ring()
    xsq = parse_poly(ring.field, ring.varnames, "x^2")
    return {"basis": ring.dim,
            "x_squared_is_zero": all(c == 0 for c in ring.nf_coeffs(xsq))}


def _case_residue_field_gid():
    ring = _square_zero_ring()
    rep = dimension_report(artin_residue_field(ring), "gid")
    return {"status": rep.status, "value": rep.value}


def _case_maps_to_homology():
    ring = _square_zero_ring()
    kx = koszul_complex(ring)
    hs = homology_stalks(kx)
    space, _ = derived_hom(kx, hs)
    top = max(i for i in kx.support()
              if not kx.hdata().homology(i).is_zero_module())
    hdim = space.hom_classes_dim()
    all_zero_on_top = all(
        space.class_representative(t).induced_on_homology(top).is_zero()
        for t in range(hdim))
    return {"classes": hdim, "zero_on_top_homology": all_zero_on_top,
            "formal": level_one_test(kx, "proj").verdict == "yes"}


def _case_free_homology_splits():
    ring = make_ring("poly(F101; x, y)")
    m = random_free_homology_complex(ring, random.Random(5), pieces=3)
    res = level_one_test(m, "proj")
    return {"verdict": res.verdict}


def _case_koszul_not_level_one():
    kx = koszul_complex(_square_zero_ring())
    res = level_one_test(kx, "inj")
    return {"verdict": res.verdict, "exhaustive": res.exhaustive}


def _case_regular_upper():
    ring = make_ring("poly(F101; x, y, z)")
    k = module_stalk(ring, graded_residue_field(ring))
    cert = level_report(k, "proj", budget=4).upper
    return {"value": cert.value, "verified": cert.verify()}


def _case_koszul_ginj_upper():
    kx = koszul_complex(_square_zero_ring())
    cert = level_report(kx, "ginj").upper
    return {"value": cert.value, "verified": cert.verify()}


def _case_flat_upper_triangle():
    ring = make_ring("poly(F101; x, y)")
    m = random_free_homology_complex(ring, random.Random(9), pieces=2)
    cert = upper_via_cycle_boundary(m, "flat")
    return {"value": cert.value, "at_most_two": cert.value <= 2,
            "verified": cert.verify()}


def _case_koszul_inj_lower():
    kx = koszul_complex(_square_zero_ring())
    cert = level_report(kx, "inj").lower
    return {"value": cert.value, "verified": cert.verify()}


def _case_regular_report():
    ring = make_ring("poly(F101; x, y, z)")
    k = module_stalk(ring, graded_residue_field(ring))
    rep = level_report(k, "proj")
    return {"verdict": list(rep.verdict)}


def _case_koszul_ginj_report():
    kx = koszul_complex(_square_zero_ring())
    rep = level_report(kx, "ginj")
    return {"verdict": list(rep.verdict)}


def _case_residue_ginj_report():
    ring = _square_zero_ring()
    k = module_stalk(ring, artin_residue_field(ring))
    rep = level_report(k, "ginj")
    return {"verdict": list(rep.verdict)}


def _case_bass_applies():
    ring = _square_zero_ring()
    e = module_stalk(ring, free_module(ring, [0]).dual())
    rep = bass_check(e)
    return {"applies": rep["applies"], "level_inj": rep["level_inj"],
            "depth_plus_one": depth_of(e) + 1}


def _case_bass_counterexample():
    kx = koszul_complex(_square_zero_ring())
    rep = bass_check(kx)
    return {"applies": rep["applies"],
            "level_inj_verdict": rep.get("level_inj_verdict")}


def _case_session_script():
    from .cli import parse, run_command
    sess = parse(KOSZUL_SCRIPT)
    ring = sess.rings["A"]
    kx = sess.complexes["K"]
    cmd, line = sess.commands[0]
    out = run_command(sess, cmd, {"budget": 4, "cutoff": 6}, line)
    return {"ring_kind": ring.kind,
            "complex_support": [int(i) for i in kx.support()],
            "verdict": out["certificate"]["verdict"]}


CASES = [
    ("square-zero base ring multiplication", _case_base_ring,
     {"basis": 2, "x_squared_is_zero": True}),
    ("residue field is Gorenstein injective of dimension zero",
     _case_residue_field_gid, {"status": "exact", "value": 0}),
    ("maps from the length-one Koszul complex to its homology vanish "
     "on top homology", _case_maps_to_homology,
     {"classes": 2, "zero_on_top_homology": True, "formal": False}),
    ("complexes with free homology over a graded base split",
     _case_free_homology_splits, {"verdict": "yes"}),
    ("the length-one Koszul complex is not quasi-isomorphic to its "
     "homology", _case_koszul_not_level_one,
     {"verdict": "no", "exhaustive": True}),
    ("residue field over a three-variable base: projective upper bound",
     _case_regular_upper, {"value": 4, "verified": True}),
    ("Koszul complex over the square-zero base: Gorenstein injective "
     "upper bound", _case_koszul_ginj_upper,
     {"value": 2, "verified": True}),
    ("free-homology complexes: flat bound through the cycle triangle",
     _case_flat_upper_triangle,
     {"value": 2, "at_most_two": True, "verified": True}),
    ("Koszul complex over the square-zero base: injective lower bound",
     _case_koszul_inj_lower, {"value": 2, "verified": True}),
    ("residue field over a three-variable base: projective level",
     _case_regular_report, {"verdict": ["exact", 4]}),
    ("Koszul complex over the square-zero base: Gorenstein injective "
     "level", _case_koszul_ginj_report, {"verdict": ["exact", 2]}),
    ("residue field over the square-zero base: Gorenstein injective "
     "level", _case_residue_ginj_report, {"verdict": ["exact", 1]}),
    ("faithfully injective module attains depth plus one",
     _case_bass_applies,
     {"applies": True, "level_inj": 1, "depth_plus_one": 1}),
    ("Koszul complex escapes the depth formula",
     _case_bass_counterexample,
     {"applies": False, "level_inj_verdict": ["exact", 2]}),
    ("session script binds the square-zero data and reports the level",
     _case_session_script,
     {"ring_kind": "artin", "complex_support": [0, 1],
      "verdict": ["exact", 2]}),
]


def run_corpus(filter_text: str | None = None) -> dict:
    """Run the bundled cases; filter selects by substring."""
    rows = []
    for name, fn, expected in CASES:
        if filter_text is not None and filter_text not in name:
            continue
        got = fn()
        rows.append({"name": name, "expected": expected, "got": got,
                     "ok": got == expected})
    passed = sum(1 for r in rows if r["ok"])
    return {"rows": rows, "total": len(rows), "passed": passed,
            "all_ok": passed == len(rows)}
