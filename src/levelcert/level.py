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
entries from C, or a one-step witness; the cycle-boundary route adds an
end map, a quasi-isomorphism from its triangle's cone onto the quotient
layer. Lower bounds come from chains of homology-killing maps with a
composite that is not null-homotopic, or from a certified failure of
the one-step test. Both sides share one certificate record, which names
its subject, the complex the bound is about; upper evidence and ghost
chains must chain from it. Construction checks none of the evidence it
records: verify() is the one place that checks it, replaying the checks
from scratch and recomputing the value from the evidence, so a changed
value or a wrong witness fails.

level_report makes the decisions every route shares, once and in this
order, reading the base's facts off the ring (rings.py) and the class's
off CLASSES: an exact complex is the zero object (level 0); the
injective classes are out of scope on a base with no duality, and on a
base with one pass by Matlis duality to the projective ones on the dual
complex, once per report; the one-step test runs on the (possibly
dualized) complex; one cover tower of it is set up, a capped walk along
the cover steps each layer keeps (adams.cover_step), so the steps are
built on first use and shared with every other report and command on
the same complex; the upper bound is decided first, with no cover-tower
route on a base of depth 0, and its value caps the lower search, which
tests no ghost composite at or past it and builds no step past the ones
those composites read; certificates computed on the dual are relabelled
with the original class.

Only the class-membership screens depend on the class. The rest of the
evidence is kept on the (possibly dualized) complex by Complex.derived,
built on first use and shared by every report of it: besides its
homology, dual and cover step, the formality decision of the one-step
test (whether m is quasi-isomorphic to its homology complex) with its
witness, the free replacement of the ghost search, and for each n the
n-fold ghost composite, its Hom complex and whether it is
null-homotopic. The cycle-boundary triangle is not kept: each report
whose class passes its screen builds it again. verify() reads none of
these decisions: it checks the evidence again, and shares only the
homology and cones kept on the complexes and maps it reads.
"""

from dataclasses import dataclass, field, replace
from functools import reduce

from .complexes import (ChainMap, ChainMapSpace, Complex, Triangle,
                        identity_chain_map, is_quasi_iso, module_stalk)
from .linalg import Mat, full_rank_combination
from .modules import top_matrices
from .resolutions import (dimension_report, semiprojective_resolution,
                          tr_screen)
from .adams import (AdamsTower, adams_step_inj, adams_tower, cover_step,
                    homology_stalks)


class LevelError(ValueError):
    pass


# class: (projective class it decides as, read on the dual?, dimension
# kind); for finite modules fd = pd and Gfd = Gdim (Christensen, LNM 1747)
CLASSES = {"proj": ("proj", False, "pd"), "flat": ("proj", False, "fd"),
           "inj": ("proj", True, "id"), "gproj": ("gproj", False, "gpd"),
           "gflat": ("gproj", False, "gfd"), "ginj": ("gproj", True, "gid")}
CLASS_KEYS = tuple(CLASSES)
DUAL_CLASS = {c: p for c, (p, dual, _) in CLASSES.items() if dual}

_ALIASES = {
    "projective": "proj", "free": "proj",
    "injective": "inj",
    "gorenstein-projective": "gproj", "gp": "gproj",
    "gorenstein-flat": "gflat", "gf": "gflat",
    "gorenstein-injective": "ginj", "gi": "ginj",
}


def normalize_class(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in CLASSES:
        raise LevelError(f"unknown class {name!r}")
    return key


def module_in_class(M, cls: str):
    """(verdict, note) with verdict True, False, or None for undecided;
    a dual class holds only the zero module on a base with no duality."""
    cls = normalize_class(cls)
    if M.is_zero_module():
        return True, "zero module"
    ring = M.ring
    proj, dual, _ = CLASSES[cls]
    if dual:
        if not ring.has_dual:
            return False, "no nonzero finitely generated graded injectives"
        verdict, note = module_in_class(M.dual(), proj)
        return verdict, f"dual: {note}"
    if proj == "proj":
        return (True, "free") if M.is_free() else (False, "not free")
    if ring.regular:
        return (True, "free over a regular base") if M.is_free() \
            else (False, "not free over a regular base")
    if ring.is_gorenstein:
        return True, "every module over a self-injective base"
    if M.is_free():
        return True, "free"
    scr = tr_screen(M)
    if scr["first_obstruction"] is not None:
        kind, i = scr["first_obstruction"]
        return False, f"reflexivity screen fails: {kind} at step {i}"
    return None, f"reflexivity screen clean to window {scr['window']}"


def homology_class_check(m: Complex, cls: str):
    """Membership of every homology module; (overall, per-degree notes)."""
    hd = m.hdata()
    per = {}
    overall = True
    for i in hd.nonzero_degrees():
        verdict, note = module_in_class(hd.homology(i), cls)
        per[i] = (verdict, note)
        if verdict is False:
            overall = False
        elif verdict is None and overall is True:
            overall = None
    return overall, per


@dataclass(frozen=True)
class LevelOneResult:
    """The one-step decision about subject. Read-only: its witness is
    kept on the subject and shared by every report of it."""

    subject: Complex             # the complex decided: m, or its dual
    verdict: str                 # "yes" | "no" | "inconclusive"
    reason: str
    pieces: dict
    witness: object = None       # chain map or cover data, when available

    @property
    def exhaustive(self) -> bool:
        """Whether the verdict is decided: every "yes" and "no" is."""
        return self.verdict != "inconclusive"

    def to_dict(self):
        return {"verdict": self.verdict, "reason": self.reason,
                "pieces": {str(i): [v, n] for i, (v, n) in
                           sorted(self.pieces.items())},
                "exhaustive": self.exhaustive}


def _replacement(m: Complex, extra: int = 2):
    """(P, aug) with P degreewise free and quasi-isomorphic to m in the
    range that matters for maps into complexes bounded above by
    sup H(m) + extra - 2; chain-map spaces out of P into such a target
    need all differentials up to that bound plus two.
    """
    if all(m.module(i).is_free() for i in m.support()):
        return m, identity_chain_map(m)
    hdegs = m.hdata().nonzero_degrees()
    top = max(hdegs)
    res = semiprojective_resolution(m, ceiling=top + extra)
    return res.complex, res.aug


def _iter_class_maps(cms: ChainMapSpace):
    """Yield one chain map per basis class of the maps up to homotopy."""
    for j in range(cms.hom_classes_dim()):
        yield cms.class_representative(j)


def level_one_test(m: Complex, cls: str) -> LevelOneResult:
    """Decide whether m is built from C in a single layer.

    That happens exactly when m is quasi-isomorphic to its homology
    complex (zero differentials) and every homology module lies in C.
    A map from a free replacement of m onto the homology complex is one
    when it is onto every homology module H (source and target homology
    are isomorphic), by Nakayama when it is onto H/mH: one
    full_rank_combination call over the homotopy classes decides that.
    The test runs on m itself for every class; level_report passes a
    dual class as its projective one on m.dual().
    """
    cls = normalize_class(cls)
    if _is_exact(m):
        return LevelOneResult(m, "yes", "no homology", {})
    overall, per = homology_class_check(m, cls)
    if overall is False:
        bad = [i for i, (v, _) in per.items() if v is False]
        return LevelOneResult(
            m, "no", f"homology at degree {bad[0]} is outside the class",
            per)
    if overall is None:
        return LevelOneResult(
            m, "inconclusive", "class membership screen undecided", per)

    if len(per) == 1:
        return LevelOneResult(
            m, "yes", "homology concentrated in a single degree", per)
    # every homology module lies in C, so what is left is whether m is
    # quasi-isomorphic to its homology complex: a question about m alone,
    # decided once and kept on m for every class
    verdict, reason, witness = m.derived("formality", _formality, m)
    return LevelOneResult(m, verdict, reason, per, witness)


def _formality(m: Complex):
    """(verdict, reason, witness): whether m, with homology in more than
    one degree, is quasi-isomorphic to its homology complex."""
    hd = m.hdata()
    hdegs = hd.nonzero_degrees()
    if all(hd.homology(i).is_free() for i in hdegs):
        # the minimal cover of free homology is an isomorphism on
        # homology, so the cover map itself is the witness; it is one
        # exactly when the layer the step has built is exact
        st = cover_step(m)
        if st.omega.is_exact():
            return ("yes", "free homology, cover map is a quasi-isomorphism",
                    st.phi)

    # maps onto the stalks, whose top is the top of H(m), need the
    # replacement's default headroom
    P, aug = _replacement(m)
    cms = ChainMapSpace(P, homology_stalks(m))
    reps = list(_iter_class_maps(cms))
    verdict, found = "none", "no nonzero class"
    if reps:
        verdict, found = full_rank_combination(m.ring.field, [
            top_matrices([f.induced_on_homology(i) for f in reps])
            for i in hdegs])
    if verdict == "none":
        return ("no", "no homotopy class of maps onto the homology complex "
                f"induces an isomorphism: {found}", None)
    if verdict == "found":
        f = cms.map_from_coords(
            cms.class_space()[1] @ Mat.column(cms.field, found))
        if all(f.induced_on_homology(i).is_iso() for i in hdegs):
            return ("yes", "found a quasi-isomorphism onto the homology "
                    "complex", (aug, f))
    return ("inconclusive", "no verified quasi-isomorphism onto the "
            "homology complex was found", None)


# ---------------------------------------------------------------------------
# upper certificates


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
    subject: Complex = None       # the complex the bound is about

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
    end_map: ChainMap = None      # cycle-boundary: Cone(u) -> its layer

    def to_dict(self):
        return {**super().to_dict(), "triangles": len(self.triangles)}

    def verify(self) -> bool:
        if not all(tri.verify() for tri in self.triangles):
            return False
        return self.value == self._proved_value()

    def _proved_value(self):
        """The bound the evidence proves, or None if it proves none."""
        tris = self.triangles
        one = self.level_one
        # a carried one-step result is about the subject, except on the
        # cover tower, where it is about the last layer
        if (one is not None and self.route != "cover-tower"
                and one.subject is not self.subject):
            return None
        if self.route == "zero-object":
            return 0 if _is_exact(self.subject) else None
        if self.route == "one-step":
            return 1 if _says(one, "yes") else None
        if self.route == "cycle-boundary":
            # the sub layer maps into the subject, and the end map is a
            # quasi-isomorphism from its cone onto the quotient layer
            t = self.end_map
            if (len(tris) != 1 or t is None
                    or tris[0].u.target is not self.subject
                    or tris[0].u.source.diffs or t.target.diffs
                    or t.source is not tris[0].w
                    or not (t.is_chain_map() and is_quasi_iso(t))):
                return None
            # an empty quotient layer leaves the sub layer alone
            return 1 if t.target.is_zero_complex() else 2
        if self.route == "stratification":
            # from one layer, each peel attaches a layer to what the one
            # before it built, and the last peel builds the subject
            built = tris[0].u.target if tris else self.subject
            if built is None or built.diffs:
                return None
            for tri in tris:
                if tri.u.target is not built or tri.u.source.diffs:
                    return None
                built = tri.w
            return len(tris) + 1 if built == self.subject else None
        if self.route == "cover-tower":
            # n peeled covers, each from the cone the one before it
            # built, starting at the subject, and a one-step terminus
            layer = self.subject
            for tri in tris:
                if tri.u.target is not layer or tri.u.source.diffs:
                    return None
                layer = tri.w
            if not tris or not _says(one, "yes") or one.subject is not layer:
                return None
            return len(tris) + 1
        return None


def _stalk_members_ok(mods, cls):
    return all(module_in_class(M, cls)[0] is True for M in mods)


def upper_via_cycle_boundary(m: Complex, cls: str):
    """Two-layer bound from the triangle Z -> m -> shift(B) built on the
    cycle inclusion: both outer layers have zero differentials, so if
    every cycle and boundary module lies in C the level is at most 2.

    The triangle B -> m -> m/B on the boundary inclusion never does
    better. Every class decided here (free modules, their duals, all
    modules over a Gorenstein artinian base) is closed under extensions,
    kernels of surjections and summands. So if every B_i and X_i/B_i
    lies in C, then so do H_i, by 0 -> H_i -> X_i/B_i -> B_{i-1} -> 0,
    and Z_i; and the quotient layer X/B is zero only when m is.

    The triangle and its end map are built for each class that passes
    the membership screen and are not kept on m: they are most of the
    memory the kept evidence would hold, and few reports read them.
    """
    cls = normalize_class(cls)
    hd = m.hdata()
    degs = m.support()
    if not _stalk_members_ok([hd.cycles(i)[0] for i in degs]
                             + [hd.boundaries(i - 1)[0] for i in degs], cls):
        return None
    tri, t = _cycle_boundary_triangle(m)
    sub_cx, quot_cx = tri.u.source, t.target
    # an empty quotient layer means the sub layer alone is already
    # quasi-isomorphic to m, so the bound tightens to one
    value = 1 if quot_cx.is_zero_complex() else 2
    return UpperCertificate(
        cls, value, "cycle-boundary",
        data={"sub_support": [int(i) for i in sub_cx.support()],
              "quotient_support": [int(i) for i in quot_cx.support()]},
        subject=m, triangles=[tri], end_map=t)


def _cycle_boundary_triangle(m: Complex):
    """(triangle Z -> m -> Cone(u), end map Cone(u) -> shift(B))."""
    hd = m.hdata()
    degs = m.support()
    cycles = {i: hd.cycles(i) for i in degs}          # (Z_i, inclusion)
    bounds = {i: hd.boundaries(i - 1) for i in degs}  # (B_{i-1}, incl, epi)
    sub_cx = Complex(m.ring, {i: cycles[i][0] for i in degs}, {})
    quot_cx = Complex(m.ring, {i: bounds[i][0] for i in degs}, {})
    # the d^2 check of the cone confirms that u is a chain map
    u = ChainMap(sub_cx, m, {i: cycles[i][1] for i in degs
                             if not cycles[i][0].is_zero_module()})
    tri = Triangle(u)
    cd = tri.cone_data
    # (z, x) in Cone(u)_i goes to the boundary d(x) in B_{i-1}
    t = ChainMap(cd.complex, quot_cx,
                 {i: bounds[i][2].compose(cd.pr_b[i])
                  for i in cd.complex.support() if i in quot_cx.support()})
    return tri, t


def upper_via_stratification(m: Complex, cls: str):
    """Peel the complex one term at a time by brutal truncations.

    Needs every term of the complex itself to lie in C; gives the number
    of nonzero terms as the bound, one triangle per peel. The truncation
    at degree n is the cone of d_n from m_n, placed in degree n - 1, to
    the truncation below n, so each peel is the triangle on its own cone
    and the last one builds m itself.
    """
    cls = normalize_class(cls)
    degs = sorted(m.support())
    if not _stalk_members_ok([m.module(i) for i in degs], cls):
        return None
    built = module_stalk(m.ring, m.module(degs[0]), degs[0])
    triangles = []
    for nxt in degs[1:]:
        layer = module_stalk(m.ring, m.module(nxt), nxt - 1)
        tri = Triangle(ChainMap(layer, built, {nxt - 1: m.diff(nxt)}))
        triangles.append(tri)
        built = tri.w
    return UpperCertificate(
        cls, len(degs), "stratification",
        data={"strata": [int(i) for i in degs]}, triangles=triangles,
        subject=m)


def upper_via_tower(cls: str, tower: AdamsTower):
    """Cover-tower bound: peel free covers of the tower's complex until a
    one-layer terminus.

    Each step contributes a triangle whose free stalk layer lies in C,
    so a terminus at layer n certifies level at most n + 1. The layer is
    T_n = shift(L_n, n), and the one-step pieces are reported in the
    degrees of L_n, like the tower summary. Valid for
    the classes that contain the free modules, the only ones that reach
    it: level_report passes inj and ginj on as their projective duals, or
    not at all on a base with no duality.
    """
    tris = []
    for step in tower.walk(tower.n):
        tris.append(step.triangle)
        lo = level_one_test(step.omega, cls)
        if lo.verdict == "yes":
            n = len(tris)
            return UpperCertificate(
                cls, n + 1, "cover-tower",
                data={"layers": n, "tower": tower.summary()},
                level_one=replace(lo, pieces={
                    i - n: p for i, p in lo.pieces.items()}),
                subject=tower.m, triangles=tris)
    return None


def upper_certificate(m: Complex, cls: str, one: LevelOneResult,
                      tower: AdamsTower):
    """Best available upper certificate for the level of m, a complex
    with homology and a class in scope on its ring.

    The caller supplies one = level_one_test(m, cls) and the cover tower
    of m; the cover-tower route reads its steps only if the short routes
    give no bound of at most two, one step at a time up to the first
    one-layer terminus, and then the rest up to the cap for the
    certificate's tower summary.

    No cover-tower route runs over a base of depth 0: it never succeeds
    there. Minimal covers give H(L_{s+1}) = Omega H(L_s). The classes
    that reach it are proj, flat, and gproj or gflat over a regular or
    non-Gorenstein base (inj and ginj arrive dualized; over a Gorenstein
    base cycle-boundary bounds the Gorenstein classes by 2 first), and
    module_in_class admits only free or zero modules to each. So a layer
    passes the one-step test only when Omega^s H(m) is free, which at
    depth 0 forces H(m) free (Auslander-Buchsbaum); free homology makes
    m formal, and the one-step route has already returned.
    """
    if one.verdict == "yes":
        return UpperCertificate(cls, 1, "one-step", level_one=one,
                                subject=m)

    best = upper_via_cycle_boundary(m, cls)
    # stratification proves the number of terms, so it is tried only
    # when that number beats the bound already found
    if best is None or len(m.support()) < best.value:
        best = upper_via_stratification(m, cls) or best
    if best is not None and best.value <= 2:
        best.level_one = best.level_one or one
    elif m.ring.depth > 0:
        tow = upper_via_tower(cls, tower)
        if tow is not None and (best is None or tow.value < best.value):
            best = tow
    return best


# ---------------------------------------------------------------------------
# lower certificates


@dataclass
class LowerCertificate(BoundCertificate):
    ghost: object = None          # (space, comp, factors, aug) if any

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
            one = self.level_one
            return 2 if _says(one, "no") \
                and one.subject is self.subject else None
        if self.route == "ghost-chain" and self.ghost is not None:
            space, comp, factors, aug = self.ghost
            # n ghosts from the subject, each from where the one before
            # ends, whose composite after aug, onto the subject from a
            # degreewise free complex, is comp: a chain map that is not
            # null-homotopic
            if (not factors or len(factors) != self.data.get("chain_length")
                    or factors[0].source is not self.subject
                    or any(g.source != f.target
                           for f, g in zip(factors, factors[1:]))
                    or aug.target is not self.subject
                    or aug.source is not space.x
                    or space.y is not factors[-1].target
                    or not all(P.is_free()
                               for P in aug.source.modules.values())
                    or not all(d.induces_zero_on_homology() for d in factors)
                    or comp != reduce(lambda c, f: f.compose(c), factors, aug)
                    or not comp.is_chain_map()
                    or space.is_null_homotopic(comp)):
                return None
            return len(factors) + 1
        return None


def ghost_lower_bound(m: Complex, cls: str, one: LevelOneResult,
                      tower: AdamsTower, upper: int | None):
    """Best lower bound for the level of m, a complex with homology and a
    class in scope on its ring, from the routes valid for the class.

    For proj and flat, chains of maps that kill homology are ghosts, so
    a nonzero n-fold composite forces level at least n + 1. Over a
    regular base (finite global dimension) a finitely generated
    Gorenstein projective module is projective and a Gorenstein flat one
    is flat, so those chains are gproj- and gflat-ghosts as well. Over
    any other base they prove nothing for the Gorenstein classes, and the
    bound falls back to a certified failure of the one-step test. The
    caller supplies one = level_one_test(m, cls) and the cover tower of
    m; the search reads its steps only for the classes whose ghosts it
    gives.

    upper is the value U of the upper certificate already proved for m,
    or None when there is none. It caps the search, which sizes itself
    by one walk capped at U - 1 steps and tests the composites from
    the last step that walk reaches down, so it builds at most U - 1
    steps. That loses nothing: by the ghost lemma a non-null n-fold
    composite proves level >= n + 1, and the upper certificate proves
    level <= U, so every composite with n >= U is null-homotopic and
    testing one would only confirm that. The capped search thus finds
    the same n, route and chain length as the uncapped one. When U is
    no more than the bound already in hand, the search is empty: it
    builds no step, replacement or Hom complex.

    The search itself is class-free: each composite is decided once and
    kept on m (_ghost_test), so every class whose ghosts are the tower's
    reads one search.
    """
    best = LowerCertificate(cls, 1, "nonzero-homology", subject=m)
    if one.verdict == "no":
        best = LowerCertificate(cls, 2, "one-step-impossible",
                                level_one=one, subject=m)
    if upper is not None and upper <= best.value:
        return best

    if CLASSES[cls][0] == "proj" or m.ring.regular:
        top = sum(1 for _ in tower.walk(tower.n if upper is None
                                        else upper - 1))
        if top < best.value:
            return best
        # targets of the composites carry homology up to n degrees above
        # the top of H(m), so the replacement needs that much headroom
        for n in range(top, best.value - 1, -1):
            ghost, null = m.derived(
                ("ghost", n, top + 2), _ghost_test, tower, n, top + 2)
            if not null:
                best = LowerCertificate(
                    cls, n + 1, "ghost-chain",
                    data={"chain_length": n}, subject=m, ghost=ghost)
                break
    return best


def _ghost_test(tower: AdamsTower, n: int, extra: int):
    """((space, comp, factors, aug), null) for the n-fold ghost composite
    of the tower of m = tower.m: the composite after the augmentation aug
    of the free replacement of m with headroom extra (kept on m), the
    Hom complex it lies in, its n ghost factors, and whether it is
    null-homotopic."""
    m = tower.m
    gamma, factors = tower.ghost_composite(n)
    P, aug = m.derived(("replacement", extra), _replacement, m, extra)
    comp = gamma.compose(aug)
    space = ChainMapSpace(P, gamma.target)
    return (space, comp, factors, aug), space.is_null_homotopic(comp)


# ---------------------------------------------------------------------------
# assembled reports


@dataclass
class LevelCertificate:
    cls: str
    upper: UpperCertificate
    lower: LowerCertificate
    notes: list = field(default_factory=list)

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
        return {"class": self.cls, "verdict": list(self.verdict),
                "notes": list(self.notes),
                "upper": self.upper.to_dict() if self.upper else None,
                "lower": self.lower.to_dict() if self.lower else None}

    def verify(self) -> bool:
        if self.upper is not None and not self.upper.verify():
            return False
        if self.lower is not None and not self.lower.verify():
            return False
        if self.upper is not None and self.lower is not None:
            return (self.upper.subject is self.lower.subject
                    and self.lower.value <= self.upper.value)
        return True


def level_report(m: Complex, cls: str, budget: int = 4) -> LevelCertificate:
    """Upper and lower certificates for the level of m, decided in the
    order of the module docstring; one tower capped at budget cover
    steps serves both bound routes."""
    cls = normalize_class(cls)
    if _is_exact(m):
        return LevelCertificate(
            cls, UpperCertificate(cls, 0, "zero-object", subject=m),
            LowerCertificate(cls, 0, "zero-object", subject=m))
    proj, dualized, _ = CLASSES[cls]
    if dualized and not m.ring.has_dual:
        return LevelCertificate(
            cls, None, None,
            notes=["out of scope: no nonzero finitely generated graded "
                   "injectives, the class builds only the zero object"])
    base, bcls = (m.dual(), proj) if dualized else (m, cls)
    one = level_one_test(base, bcls)
    if dualized:
        one = replace(one, reason=one.reason + " (computed on the dual "
                      "complex)")
    tower = adams_tower(base, budget)
    upper = upper_certificate(base, bcls, one, tower)
    lower = ghost_lower_bound(base, bcls, one, tower,
                              upper.value if upper is not None else None)
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


def bass_check(m: Complex, budget: int = 4) -> dict:
    """Depth-zero base with finite injective dimension homology.

    Over a base of depth 0 every module has injective dimension zero or
    infinity; when all homology modules are injective, the injective
    envelope of the homology maps in quasi-isomorphically and the level
    with respect to the injectives is exactly one. A failing hypothesis
    reports the actual injective-class level, so counterexamples carry
    the value that escapes the bound, at the given tower budget.
    """
    if m.ring.depth > 0:
        return {"applies": False,
                "reason": "needs a depth-zero artinian base"}
    if _is_exact(m):
        return {"applies": False, "reason": "no homology"}
    _, per = homology_class_check(m, "inj")
    bad = [int(i) for i, (verdict, _) in per.items() if verdict is False]
    if bad:
        rep = level_report(m, "inj", budget)
        return {"applies": False,
                "reason": "homology has infinite injective dimension",
                "degrees": bad, "level_inj_verdict": list(rep.verdict)}
    # the envelope m -> E = F^v is the dual of the cover phi: F -> m^v,
    # and the vector-space dual is exact, so it is a quasi-isomorphism
    # exactly when the layer the cover leaves is exact
    st = adams_step_inj(m)
    ok = st.omega.is_exact()
    return {"applies": True, "level_inj": 1 if ok else None,
            "witness_quasi_iso": ok,
            "gorenstein_note": "positive-depth variant does not apply "
                               "over an artinian base; the two bound "
                               "ingredients are checked separately",
            "envelope_ranks": {str(-i): st.F.module(i).dim
                               for i in reversed(st.F.support())}}


def homology_dimension_bound(m: Complex, cls: str, window: int = 6):
    """Upper bound for the level from the dimension of the homology.

    Returns (bound, per-degree dimension reports). The bound is
    dim + 1 for proj, flat, and inj, and max(2, dim + 1) for the
    Gorenstein classes; None when some homology dimension is not known
    to be finite.
    """
    cls = normalize_class(cls)
    proj, _, kind = CLASSES[cls]
    hd = m.hdata()
    per = {}
    worst = 0
    for i in hd.nonzero_degrees():
        rep = dimension_report(hd.homology(i), kind, window)
        per[int(i)] = rep
        if rep.status != "exact":
            return None, per
        worst = max(worst, rep.value)
    bound = worst + 1
    if proj == "gproj":
        bound = max(2, bound)
    return bound, per
