"""Levels in the derived category, with machine-checkable certificates.

The level of a complex m with respect to a class C of modules is the
least n such that m can be finitely built from shifted stalks of C
objects in n cone steps, counting the starting layer (a nonzero direct
sum of shifted stalks has level 1, a single extra cone gives 2, ...).
As Avramov, Buchweitz, Iyengar and Miller define it (Adv. Math. 2010),
a retract of an object built in n steps also has level at most n: the
upper routes build m itself, and the ghost lemma bounds retracts too.

Upper bounds are returned as explicit data: a route name together with
triangles whose outer layers are complexes with zero differential and
entries from C, or a one-step witness. Lower bounds come from chains of
homology-killing maps with a composite that is not null-homotopic, or
from a certified failure of the one-step test. Both sides share one
certificate record. Construction checks none of the evidence it
records: verify() is the one place that checks it, replaying the
checks from scratch and recomputing the value from the evidence, so a
changed value or a wrong witness fails.

level_report makes the decisions every route shares, once and in this
order: an exact complex is the zero object (level 0); the injective
classes over a graded ring are out of scope; the one-step test runs on
m; on an artinian base the injective classes pass by Matlis duality to
the projective ones on the dual complex; one cover tower of the
(possibly dualized) complex is set up, built on first use; the upper
and lower routes read that tower; certificates computed on the dual are
relabelled with the original class.
"""

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .complexes import (ChainMap, ChainMapSpace, Complex, Triangle, cone,
                        identity_chain_map, is_quasi_iso)
from .linalg import Mat, full_rank_combination
from .modules import top_matrices
from .resolutions import (dimension_report, semiprojective_resolution,
                          tr_screen)
from .adams import (AdamsTower, adams_step_inj, adams_step_proj,
                    adams_tower, homology_stalks)


class LevelError(ValueError):
    pass


CLASS_KEYS = ("proj", "flat", "inj", "gproj", "gflat", "ginj")

_ALIASES = {
    "projective": "proj", "free": "proj",
    "injective": "inj",
    "gorenstein-projective": "gproj", "gp": "gproj",
    "gorenstein-flat": "gflat", "gf": "gflat",
    "gorenstein-injective": "ginj", "gi": "ginj",
}

# Matlis duality swaps these pairs on an artinian base
DUAL_CLASS = {"inj": "proj", "ginj": "gproj"}

# classes whose one-step objects include all free modules
PROJ_SIDE = ("proj", "flat", "gproj", "gflat")


def normalize_class(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in CLASS_KEYS:
        raise LevelError(f"unknown class {name!r}")
    return key


def module_in_class(M, cls: str, window: int = 4):
    """(verdict, note) with verdict True, False, or None for undecided."""
    cls = normalize_class(cls)
    if M.is_zero_module():
        return True, "zero module"
    ring = M.ring
    if cls in DUAL_CLASS:
        if ring.kind != "artin":
            return False, "no nonzero finitely generated graded injectives"
        verdict, note = module_in_class(M.dual(), DUAL_CLASS[cls], window)
        return verdict, f"dual: {note}"
    if cls in ("proj", "flat"):
        return (True, "free") if M.is_free() else (False, "not free")
    if cls in ("gproj", "gflat"):
        if ring.kind != "artin":
            # regular base: totally reflexive reduces to free
            return (True, "free over a regular base") if M.is_free() \
                else (False, "not free over a regular base")
        if ring.is_gorenstein:
            return True, "every module over a self-injective base"
        if M.is_free():
            return True, "free"
        scr = tr_screen(M, window)
        if scr["first_obstruction"] is not None:
            kind, i = scr["first_obstruction"]
            return False, f"reflexivity screen fails: {kind} at step {i}"
        return None, f"reflexivity screen clean to window {window}"
    raise LevelError(f"unknown class {cls!r}")


def homology_class_check(m: Complex, cls: str, window: int = 4):
    """Membership of every homology module; (overall, per-degree notes)."""
    hd = m.hdata()
    per = {}
    overall = True
    for i in sorted(m.support()):
        h = hd.homology(i)
        if h.is_zero_module():
            continue
        verdict, note = module_in_class(h, cls, window)
        per[i] = (verdict, note)
        if verdict is False:
            overall = False
        elif verdict is None and overall is True:
            overall = None
    return overall, per


@dataclass
class LevelOneResult:
    verdict: str                 # "yes" | "no" | "inconclusive"
    reason: str
    pieces: dict
    witness: object = None       # chain map or cover data, when available
    exhaustive: bool = False

    def to_dict(self):
        return {"verdict": self.verdict, "reason": self.reason,
                "pieces": {str(i): [v, n] for i, (v, n) in
                           sorted(self.pieces.items())},
                "exhaustive": self.exhaustive}


def _replacement(m: Complex, extra: int = 2):
    """(P, aug) with P degreewise free and quasi-isomorphic to m in the
    window that matters for maps into complexes bounded above by
    sup H(m) + extra - 2; chain-map spaces out of P into such a target
    need all differentials up to that bound plus two.
    """
    if all(m.module(i).is_free() for i in m.support()):
        return m, identity_chain_map(m)
    hdegs = [i for i in m.support()
             if not m.hdata().homology(i).is_zero_module()]
    top = max(hdegs)
    res = semiprojective_resolution(m, ceiling=top + extra)
    return res.complex, res.aug


def _iter_class_maps(cms: ChainMapSpace):
    """Yield one chain map per basis class of the maps up to homotopy."""
    for j in range(cms.hom_classes_dim()):
        yield cms.class_representative(j)


def level_one_test(m: Complex, cls: str, window: int = 4) -> LevelOneResult:
    """Decide whether m is built from C in a single layer.

    That happens exactly when m is quasi-isomorphic to its homology
    complex (zero differentials) and every homology module lies in C.
    A map from a free replacement of m onto the homology complex is one
    when it is onto every homology module H (source and target homology
    are isomorphic), by Nakayama when it is onto H/mH: one
    full_rank_combination call over the homotopy classes decides that.
    """
    cls = normalize_class(cls)
    if _is_exact(m):
        return LevelOneResult("yes", "no homology", {}, exhaustive=True)
    if cls in DUAL_CLASS and m.ring.kind == "artin":
        inner = level_one_test(m.dual(), DUAL_CLASS[cls], window)
        inner.reason += " (computed on the dual complex)"
        return inner

    overall, per = homology_class_check(m, cls, window)
    if overall is False:
        bad = [i for i, (v, _) in per.items() if v is False]
        return LevelOneResult(
            "no", f"homology at degree {bad[0]} is outside the class",
            per, exhaustive=True)
    if overall is None:
        return LevelOneResult(
            "inconclusive", "class membership screen undecided", per)

    hdegs = sorted(per)
    if len(hdegs) == 1:
        return LevelOneResult(
            "yes", "homology concentrated in a single degree", per,
            exhaustive=True)

    hd = m.hdata()
    if cls in PROJ_SIDE and all(hd.homology(i).is_free() for i in hdegs):
        # the minimal cover of free homology is an isomorphism on
        # homology, so the cover map itself is the witness
        st = adams_step_proj(m)
        if is_quasi_iso(st.phi):
            return LevelOneResult("yes", "free homology, cover map is a "
                                  "quasi-isomorphism", per,
                                  witness=st.phi, exhaustive=True)

    P, aug = _replacement(m)
    cms = ChainMapSpace(P, homology_stalks(m))
    reps = list(_iter_class_maps(cms))
    verdict, found = "none", "no nonzero class"
    if reps:
        verdict, found = full_rank_combination(m.ring.field, [
            top_matrices([f.induced_on_homology(i) for f in reps])
            for i in hdegs])
    if verdict == "none":
        return LevelOneResult(
            "no", "no homotopy class of maps onto the homology complex "
            f"induces an isomorphism: {found}", per, exhaustive=True)
    if verdict == "found":
        f = cms.map_from_coords(
            cms.class_space()[1] @ Mat.column(cms.field, found))
        if all(f.induced_on_homology(i).is_iso() for i in hdegs):
            return LevelOneResult(
                "yes", "found a quasi-isomorphism onto the homology "
                "complex", per, witness=(aug, f), exhaustive=True)
    return LevelOneResult(
        "inconclusive", "no verified quasi-isomorphism onto the homology "
        "complex was found", per)


def derived_hom(m: Complex, n: Complex) -> ChainMapSpace:
    """Maps m -> n in the derived category, as a chain-map space.

    The source is replaced by a degreewise free complex built far enough
    beyond sup(n) that no chain-map or homotopy constraint is lost; the
    class space of the result has the dimension of the derived hom.
    """
    if m.is_zero_complex() or n.is_zero_complex():
        return ChainMapSpace(m, n)
    hdegs = [i for i in m.support()
             if not m.hdata().homology(i).is_zero_module()]
    if not hdegs:
        return ChainMapSpace(m, n)
    extra = max(2, n.max_deg - max(hdegs) + 2)
    P, _ = _replacement(m, extra)
    return ChainMapSpace(P, n)


# ---------------------------------------------------------------------------
# upper certificates


class CertificateAudit:
    """The certificates built while its certificate_audit() scope is open."""

    def __init__(self):
        self.certificates: list = []

    def report(self) -> dict:
        """Re-verify every recorded certificate."""
        failures = [(type(cert).__name__, cert) for cert in self.certificates
                    if not cert.verify()]
        counts = Counter(type(cert).__name__ for cert in self.certificates)
        return {"total": len(self.certificates), "counts": dict(counts),
                "failures": failures}


# the audits whose scopes are open; outside every scope nothing is kept
_OPEN_AUDITS: ContextVar = ContextVar("open_audits", default=())


@contextmanager
def certificate_audit():
    """`with certificate_audit() as audit:` records in audit.certificates
    every certificate built inside the block (and in every enclosing
    scope), so a soundness sweep can re-verify them with audit.report()."""
    audit = CertificateAudit()
    token = _OPEN_AUDITS.set(_OPEN_AUDITS.get() + (audit,))
    try:
        yield audit
    finally:
        _OPEN_AUDITS.reset(token)


def _record(cert):
    for audit in _OPEN_AUDITS.get():
        audit.certificates.append(cert)


def _is_exact(m) -> bool:
    return m is not None and (m.is_zero_complex() or m.hdata().is_exact())


def _says(one: LevelOneResult, verdict: str) -> bool:
    return one is not None and one.verdict == verdict


@dataclass
class BoundCertificate:
    """The record an upper or a lower bound shares: the bound's value,
    the route that proves it and the evidence the route reads."""

    cls: str
    value: int
    route: str
    data: dict = field(default_factory=dict)
    level_one: LevelOneResult = None
    dualized: bool = False
    notes: list = field(default_factory=list)
    subject: Complex = None       # the complex, where it is the evidence

    def __post_init__(self):
        _record(self)

    def to_dict(self):
        out = {"class": self.cls, "value": self.value, "route": self.route,
               "dualized": self.dualized, "notes": list(self.notes)}
        out.update(self.data)
        if self.level_one is not None:
            out["one_step"] = self.level_one.to_dict()
        return out


@dataclass
class UpperCertificate(BoundCertificate):
    triangles: list = field(default_factory=list)

    def to_dict(self):
        return {**super().to_dict(), "triangles": len(self.triangles)}

    def verify(self) -> bool:
        if not all(tri.verify() for tri in self.triangles):
            return False
        return self.value == self._proved_value()

    def _proved_value(self):
        """The bound the evidence proves, or None if it proves none."""
        tris = self.triangles
        if self.route == "zero-object":
            return 0 if _is_exact(self.subject) else None
        if self.route == "one-step":
            return 1 if _says(self.level_one, "yes") else None
        if self.route == "cycle-boundary":
            if len(tris) != 1:
                return None
            # an empty quotient layer leaves the sub layer alone
            return 1 if tris[0].w.is_zero_complex() else 2
        if self.route == "stratification":
            # one peel per term after the first
            if (self.subject is None
                    or len(self.subject.support()) != len(tris) + 1):
                return None
            return len(tris) + 1
        if self.route == "cover-tower":
            # n peeled covers and a one-step terminus
            if not tris or not _says(self.level_one, "yes"):
                return None
            return len(tris) + 1
        return None


def _stalk_members_ok(mods, cls, window):
    for M in mods:
        verdict, _ = module_in_class(M, cls, window)
        if verdict is not True:
            return False
    return True


def _zero_diff_complex(ring, mods: dict) -> Complex:
    return Complex(ring, {i: M for i, M in mods.items()
                          if not M.is_zero_module()}, {}, check=False)


def upper_via_cycle_boundary(m: Complex, cls: str, window: int = 4):
    """Two-layer bound from the triangle Z -> m -> shift(B) built on the
    cycle inclusion: both outer layers have zero differentials, so if
    every cycle and boundary module lies in C the level is at most 2.

    The triangle B -> m -> m/B on the boundary inclusion never does
    better. Every class decided here (free modules, their duals, all
    modules over a Gorenstein artinian base) is closed under extensions,
    kernels of surjections and summands. So if every B_i and X_i/B_i
    lies in C, then so do H_i, by 0 -> H_i -> X_i/B_i -> B_{i-1} -> 0,
    and Z_i; and the quotient layer X/B is zero only when m is.
    """
    cls = normalize_class(cls)
    hd = m.hdata()
    degs = sorted(m.support())
    cycles, bounds = {}, {}
    for i in degs:
        cycles[i] = hd.cycles(i)           # (Z_i, inclusion)
        bounds[i] = hd.boundaries(i - 1)   # (B_{i-1}, inclusion, epi)
    if not _stalk_members_ok([cycles[i][0] for i in degs]
                             + [bounds[i][0] for i in degs], cls, window):
        return None
    sub_cx = _zero_diff_complex(m.ring, {i: cycles[i][0] for i in degs})
    quot_cx = _zero_diff_complex(m.ring, {i: bounds[i][0] for i in degs})
    # the d^2 check of the cone confirms that u is a chain map
    u = ChainMap(sub_cx, m, {i: cycles[i][1] for i in degs
                             if not cycles[i][0].is_zero_module()},
                 check=False)
    cd = cone(u)
    t = ChainMap(cd.complex, quot_cx,
                 {i: bounds[i][2].compose(cd.pr_b[i])
                  for i in cd.complex.support() if i in quot_cx.support()},
                 check=False)
    tri = Triangle(u, quot_cx, t, cone_data=cd)
    # an empty quotient layer means the sub layer alone is already
    # quasi-isomorphic to m, so the bound tightens to one
    value = 1 if quot_cx.is_zero_complex() else 2
    return UpperCertificate(
        cls, value, "cycle-boundary",
        data={"sub_support": [int(i) for i in sub_cx.support()],
              "quotient_support": [int(i) for i in quot_cx.support()]},
        triangles=[tri])


def upper_via_stratification(m: Complex, cls: str, window: int = 4):
    """Peel the complex one term at a time by brutal truncations.

    Needs every term of the complex itself to lie in C; gives the number
    of nonzero terms as the bound, one triangle per peel.
    """
    cls = normalize_class(cls)
    degs = sorted(m.support())
    if not _stalk_members_ok([m.module(i) for i in degs], cls, window):
        return None
    if len(degs) == 1:
        return UpperCertificate(cls, 1, "stratification",
                                data={"strata": [int(degs[0])]}, subject=m)
    triangles = []
    for n in degs[:-1]:
        nxt = _next_degree(degs, n)
        below = m.truncate_le(n)
        upto = m.truncate_le(nxt)
        u = ChainMap(below, upto,
                     {i: below.module(i).identity_hom()
                      for i in below.support()}, check=False)
        cd = cone(u)
        stalk = _zero_diff_complex(m.ring, {nxt: m.module(nxt)})
        t = ChainMap(cd.complex, stalk, {nxt: cd.pr_b[nxt]}, check=False)
        triangles.append(Triangle(u, stalk, t, cone_data=cd))
    return UpperCertificate(
        cls, len(degs), "stratification",
        data={"strata": [int(i) for i in degs]}, triangles=triangles,
        subject=m)


def _next_degree(degs, n):
    return min(d for d in degs if d > n)


def upper_via_tower(cls: str, tower: AdamsTower, window: int = 4):
    """Cover-tower bound: peel free covers of the tower's complex until a
    one-layer terminus.

    Each step contributes a triangle whose free stalk layer lies in C,
    so a terminus at layer n certifies level at most n + 1. Valid for
    the classes that contain the free modules.
    """
    if cls not in PROJ_SIDE:
        return None
    for n in range(1, len(tower.steps) + 1):
        layer = tower.layer(n)
        lo = level_one_test(layer, cls, window)
        if lo.verdict == "yes":
            tris = [tower.steps[s].triangle for s in range(n)]
            return UpperCertificate(
                cls, n + 1, "cover-tower",
                data={"layers": n, "tower": tower.summary()},
                triangles=tris, level_one=lo)
    return None


def upper_certificate(m: Complex, cls: str, one: LevelOneResult,
                      tower: AdamsTower, window: int = 4):
    """Best available upper certificate for the level of m, a complex
    with homology and a class in scope on its ring.

    The caller supplies one = level_one_test(m, cls) and the cover tower
    of m; the tower is built only if the short routes give no bound of
    at most two.
    """
    if one.verdict == "yes":
        return UpperCertificate(cls, 1, "one-step", level_one=one)

    best = upper_via_cycle_boundary(m, cls, window=window)
    # stratification proves the number of terms, so it is tried only
    # when that number beats the bound already found
    if best is None or len(m.support()) < best.value:
        best = upper_via_stratification(m, cls, window) or best
    if best is not None and best.value <= 2:
        best.level_one = best.level_one or one
        return best
    tow = upper_via_tower(cls, tower, window)
    if tow is not None and (best is None or tow.value < best.value):
        best = tow
    return best


# ---------------------------------------------------------------------------
# lower certificates


@dataclass
class LowerCertificate(BoundCertificate):
    ghost: object = None          # (space, chain map, factors) if any

    def verify(self) -> bool:
        return self.value == self._proved_value()

    def _proved_value(self):
        """The bound the evidence proves, or None if it proves none."""
        if self.route == "zero-object":
            return 0 if _is_exact(self.subject) else None
        if self.route == "nonzero-homology":
            return 1 if self.subject is not None \
                and not _is_exact(self.subject) else None
        if self.route == "one-step-impossible":
            return 2 if _says(self.level_one, "no") \
                and self.level_one.exhaustive else None
        if self.route == "ghost-chain" and self.ghost is not None:
            space, comp, factors = self.ghost
            # n ghosts whose composite is a chain map, not null-homotopic
            if (len(factors) != self.data.get("chain_length")
                    or not all(d.induces_zero_on_homology() for d in factors)
                    or not comp.is_chain_map()
                    or space.is_null_homotopic(comp)):
                return None
            return len(factors) + 1
        return None


def ghost_lower_bound(m: Complex, cls: str, one: LevelOneResult,
                      tower: AdamsTower):
    """Best lower bound for the level of m, a complex with homology and a
    class in scope on its ring, from the routes valid for the class.

    For proj and flat, chains of maps that kill homology are ghosts, so
    a nonzero n-fold composite forces level at least n + 1. Over a
    polynomial ring (finite global dimension) a finitely generated
    Gorenstein projective module is projective and a Gorenstein flat one
    is flat, so those chains are gproj- and gflat-ghosts as well. Over an
    artinian base they prove nothing for the Gorenstein classes, and the
    bound falls back to a certified failure of the one-step test. The
    caller supplies one = level_one_test(m, cls) and the cover tower of
    m; the tower is built only for the classes whose ghosts it gives.
    """
    best = LowerCertificate(cls, 1, "nonzero-homology", subject=m)
    if one.verdict == "no" and one.exhaustive:
        best = LowerCertificate(cls, 2, "one-step-impossible",
                                level_one=one)

    if cls in ("proj", "flat") or (cls in ("gproj", "gflat")
                                   and m.ring.kind != "artin"):
        # targets of the composites carry homology up to n degrees above
        # the top of H(m), so the replacement needs that much headroom
        P, aug = _replacement(m, extra=len(tower.steps) + 2)
        for n in range(len(tower.steps), 0, -1):
            if best.value >= n + 1:
                break
            gamma = tower.ghost_composite(n)
            factors = [tower.steps[0].delta] + \
                [tower.steps[s].delta.shift(s) for s in range(1, n)]
            comp = gamma.compose(aug)
            space = ChainMapSpace(P, gamma.target)
            if not space.is_null_homotopic(comp):
                best = LowerCertificate(
                    cls, n + 1, "ghost-chain",
                    data={"chain_length": n},
                    ghost=(space, comp, factors))
                break
    return best


# ---------------------------------------------------------------------------
# assembled reports


@dataclass
class LevelCertificate:
    cls: str
    upper: UpperCertificate
    lower: LowerCertificate
    notes: list = field(default_factory=list)

    def __post_init__(self):
        _record(self)

    @property
    def verdict(self):
        if self.upper is not None and self.lower is not None:
            if self.upper.value == self.lower.value:
                return ("exact", self.upper.value)
            return ("range", self.lower.value, self.upper.value)
        if self.upper is not None:
            return ("at_most", self.upper.value)
        if self.lower is not None:
            return ("at_least", self.lower.value)
        return ("unknown",)

    def to_dict(self):
        v = self.verdict
        out = {"class": self.cls, "verdict": list(v),
               "notes": list(self.notes)}
        out["upper"] = self.upper.to_dict() if self.upper else None
        out["lower"] = self.lower.to_dict() if self.lower else None
        return out

    def verify(self) -> bool:
        if self.upper is not None and not self.upper.verify():
            return False
        if self.lower is not None and not self.lower.verify():
            return False
        if self.upper is not None and self.lower is not None:
            return self.lower.value <= self.upper.value
        return True


def level_report(m: Complex, cls: str, budget: int = 4,
                 window: int = 4) -> LevelCertificate:
    """Upper and lower certificates for the level of m, decided in the
    order of the module docstring; one tower of at most budget cover
    steps serves both bound routes."""
    cls = normalize_class(cls)
    if _is_exact(m):
        return LevelCertificate(
            cls, UpperCertificate(cls, 0, "zero-object", subject=m),
            LowerCertificate(cls, 0, "zero-object", subject=m))
    if cls in ("inj", "ginj") and m.ring.kind != "artin":
        return LevelCertificate(
            cls, None, None,
            notes=["out of scope: no nonzero finitely generated graded "
                   "injectives, the class builds only the zero object"])
    one = level_one_test(m, cls, window)
    dualized = cls in DUAL_CLASS and m.ring.kind == "artin"
    base, bcls = (m.dual(), DUAL_CLASS[cls]) if dualized else (m, cls)
    tower = adams_tower(base, budget)
    upper = upper_certificate(base, bcls, one, tower, window)
    lower = ghost_lower_bound(base, bcls, one, tower)
    if dualized:
        for cert, note in ((upper, "computed on the vector-space dual; "
                            "duality swaps projective and injective layers"),
                           (lower, "computed on the vector-space dual")):
            if cert is not None:
                cert.cls, cert.dualized = cls, True
                cert.notes.append(note)
    return LevelCertificate(cls, upper, lower)


# ---------------------------------------------------------------------------
# structural consequences


def bass_check(m: Complex, full: bool = False) -> dict:
    """Depth-zero base with finite injective dimension homology.

    Over an artinian base every module has injective dimension zero or
    infinity; when all homology modules are injective, the injective
    envelope of the homology maps in quasi-isomorphically and the level
    with respect to the injectives is exactly one.  With full=True a
    failing hypothesis additionally reports the actual injective-class
    level, so counterexamples carry the value that escapes the bound.
    """
    if m.ring.kind != "artin":
        return {"applies": False,
                "reason": "needs a depth-zero artinian base"}
    if _is_exact(m):
        return {"applies": False, "reason": "no homology"}
    hd = m.hdata()
    bad = []
    for i in sorted(m.support()):
        h = hd.homology(i)
        if h.is_zero_module():
            continue
        if not h.dual().is_free():
            bad.append(int(i))
    if bad:
        out = {"applies": False,
               "reason": "homology has infinite injective dimension",
               "degrees": bad}
        if full:
            rep = level_report(m, "inj")
            out["level_inj_verdict"] = list(rep.verdict)
        return out
    st = adams_step_inj(m)
    ok = is_quasi_iso(st.psi)
    return {"applies": True, "level_inj": 1 if ok else None,
            "witness_quasi_iso": ok,
            "gorenstein_note": "positive-depth variant does not apply "
                               "over an artinian base; the two bound "
                               "ingredients are checked separately",
            "envelope_ranks": {str(i): st.E.module(i).dim
                               for i in st.E.support()}}


def homology_dimension_bound(m: Complex, cls: str, window: int = 6):
    """Upper bound for the level from the dimension of the homology.

    Returns (bound, per-degree dimension reports). The bound is
    dim + 1 for proj, flat, and inj, and max(2, dim + 1) for the
    Gorenstein classes; None when some homology dimension is not known
    to be finite.
    """
    cls = normalize_class(cls)
    kind = {"proj": "pd", "flat": "fd", "inj": "id",
            "gproj": "gpd", "gflat": "gfd", "ginj": "gid"}[cls]
    hd = m.hdata()
    per = {}
    worst = 0
    for i in sorted(m.support()):
        h = hd.homology(i)
        if h.is_zero_module():
            continue
        rep = dimension_report(h, kind, window)
        per[int(i)] = rep
        if rep.status != "exact":
            return None, per
        worst = max(worst, rep.value)
    bound = worst + 1
    if cls in ("gproj", "gflat", "ginj"):
        bound = max(2, bound)
    return bound, per
