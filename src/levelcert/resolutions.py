"""Free resolutions by killing cycles, and homological dimension reports.

The resolution builder walks a bounded complex from the bottom. In each
degree it adjoins free generators hitting minimal generators of homology
(surjectivity of the comparison map on homology) and free generators
killing the cycles built so far whose image dies in the target
(injectivity). For a module placed as a stalk this is the classical
minimal free resolution.

Dimension reports carry a status, a certified value when one exists, and
a machine-checkable witness. Projective dimension of a complex is read
off the k-ranks of H(P (x) k); above the homology of the complex the
resolution is a free resolution of one module (the image of the last
needed differential), so the unbounded part is delegated to that
module's report. Injective-side dimensions over an artinian base go
through vector-space duality. Gorenstein dimensions use the depth
formula where the base ring makes it unconditional and an obstruction
screen (Ext into the ring, reflexivity) where it does not.

The screen reads Ext into an artinian ring R off ranks. For the minimal
resolution P of M with ranks b_i and differentials d_i,

    dim_k Ext^i(M, R) = dim R * b_i - rank Hom(d_{i+1}, R) - rank Hom(d_i, R),

and the k-matrix of Hom(d, R) is the block transpose of the matrix of d
(blocks of size dim R, one per entry of d). Tor in _complex_pd is read
the same way, from the ranks of d (x) k (modules.top_matrices).
Each probe runs in two phases: degree 1 from a resolution of length 2,
and only when that degree is zero, the degrees up to the window from
one resolution of length window + 1, cut at the first nonzero degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .linalg import Mat, hstack
from .poly import Poly
from .modules import (ArtinHom, ArtinModule, GradedHom, GradedModule,
                      free_hom, free_module, find_isomorphism, hom_space,
                      top_matrices, zero_hom, zero_module)
from .complexes import ChainMap, Complex, cone, module_stalk


class ResolutionError(ValueError):
    pass


def _is_complex(obj) -> bool:
    return isinstance(obj, Complex)


@dataclass
class Resolution:
    """P -> x with P free in each degree, built to the stated ceiling.

    complete is True when the construction closed off: every degree above
    the top recorded one is zero, so P is a finite free resolution.
    syzygy[i] is the module of cycles killed at step i; for a module
    resolved at degree 0 this is the i-th syzygy module.
    """

    x: Complex
    complex: Complex
    aug: ChainMap
    ceiling: int
    complete: bool
    ranks: dict = dataclass_field(default_factory=dict)
    syzygy: dict = dataclass_field(default_factory=dict)

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def top_nonzero(self):
        degs = [i for i, r in self.ranks.items() if r]
        return max(degs) if degs else None

    def betti(self):
        """Ranks from the bottom of the resolution upward, as a list."""
        degs = [i for i, r in self.ranks.items() if r]
        if not degs:
            return []
        lo, hi = min(degs), max(degs)
        return [self.ranks.get(i, 0) for i in range(lo, hi + 1)]

    def is_minimal(self) -> bool:
        P = self.complex
        for i, d in P.diffs.items():
            tgt = d.target
            if tgt.mode == "artin":
                if not tgt.radical_span().in_column_space(d.matrix):
                    return False
            else:
                for c in d.cols:
                    for (_, mono), _ in c.terms.items():
                        if sum(mono) == 0:
                            return False
        return True

    def summary(self) -> dict:
        out = {
            "ceiling": self.ceiling,
            "complete": self.complete,
            "minimal": self.is_minimal(),
            "ranks": {str(i): r for i, r in sorted(self.ranks.items()) if r},
        }
        if self.complex.ring.kind == "poly":
            out["twists"] = {
                str(i): list(self.complex.module(i).gen_twists)
                for i in self.complex.support()}
        return out


def semiprojective_resolution(x: Complex, ceiling: int | None = None) -> Resolution:
    """Degreewise-free P with a quasi-isomorphism P -> x, built by
    killing cycles from the bottom degree of homology up to the ceiling."""
    ring = x.ring
    hd = x.hdata()
    hdegs = hd.nonzero_degrees()
    if not hdegs:
        P = Complex(ring, {}, {}, check=False)
        aug = ChainMap(P, x, {}, check=False)
        return Resolution(x, P, aug, ceiling or 0, True)
    lo = min(hdegs)
    if ceiling is None:
        ceiling = max(hdegs) + 2
    if ceiling < lo:
        raise ResolutionError("ceiling below the bottom of homology")

    mods: dict[int, object] = {}
    diffs: dict[int, object] = {}
    eps: dict[int, object] = {}
    ranks: dict[int, int] = {}
    syz: dict[int, object] = {}
    complete = False
    prev_mod = zero_module(ring)

    for i in range(lo, ceiling + 1):
        Xi = x.module(i)
        z_imgs = []
        H = hd.homology(i)
        if not H.is_zero_module():
            _, zeta = hd.cycles(i)
            pi = hd.homology_proj(i)
            for hgen in H.min_gens():
                zc = pi.solve_preimage(hgen)
                assert zc is not None
                z_imgs.append(zeta.apply(zc))

        y_elems = []
        x_lifts = []
        if i > lo:
            dP = diffs.get(i - 1)
            if dP is None:
                dP = zero_hom(prev_mod, mods.get(i - 2, zero_module(ring)))
            ZP, zp = dP.kernel()
            if not ZP.is_zero_module():
                e_prev = eps.get(i - 1)
                comp = e_prev.compose(zp)
                C, cproj = hd.cmod(i - 1)
                Y, yinc = cproj.compose(comp).kernel()
                syz[i] = Y
                if not Y.is_zero_module():
                    dX = x.diff(i)
                    for g in Y.min_gens():
                        p_elem = zp.apply(yinc.apply(g))
                        tgt = e_prev.apply(p_elem)
                        lift = dX.solve_preimage(tgt)
                        assert lift is not None, "killed cycle is not a boundary"
                        y_elems.append(p_elem)
                        x_lifts.append(lift)

        rank = len(z_imgs) + len(y_elems)
        ranks[i] = rank
        Pi = free_module(ring, [Xi.degree(e) for e in z_imgs]
                         + [prev_mod.degree(e) for e in y_elems])
        if rank:
            mods[i] = Pi
            diffs[i] = free_hom(Pi, prev_mod,
                                [prev_mod.zero_elem()] * len(z_imgs) + y_elems)
            eps[i] = free_hom(Pi, Xi, z_imgs + x_lifts)
        else:
            eps[i] = zero_hom(Pi, Xi)
            diffs[i] = zero_hom(Pi, prev_mod)
        prev_mod = Pi
        if rank == 0 and i > x.max_deg:
            complete = True
            break

    P = Complex(ring, mods, diffs, check=True)
    aug = ChainMap(P, x, {i: e for i, e in eps.items() if not e.is_zero()},
                   check=True)
    return Resolution(x, P, aug, ceiling, complete, ranks, syz)


def minimal_free_resolution(M, length: int) -> Resolution:
    """Minimal free resolution of a module, built to the given length."""
    res = semiprojective_resolution(module_stalk(M.ring, M, 0), ceiling=length)
    assert res.is_minimal(), "module resolution came out non-minimal"
    return res


# ------------------------------------------------------ koszul and depth


def twist_module(M: GradedModule, a: int) -> GradedModule:
    return GradedModule(M.ring, [t + a for t in M.gen_twists], M.rels,
                        check=False)


def twist_complex(x: Complex, a: int) -> Complex:
    mods = {i: twist_module(m, a) for i, m in x.modules.items()}
    diffs = {i: GradedHom(mods[i], mods.get(i - 1, twist_module(x.module(i - 1), a)),
                          d.cols, check=False)
             for i, d in x.diffs.items()}
    return Complex(x.ring, mods, diffs, check=False)


def multiplication_chain_map(x: Complex, v: int) -> ChainMap:
    """Multiplication by the v-th ring variable, as a chain map into x.

    Over a graded base the source is x twisted so the map is degree
    preserving; over an artinian base the source is x itself.
    """
    ring = x.ring
    if ring.kind == "artin":
        p = Poly.variable(ring.field, ring.nvars, v)
        comps = {i: ArtinHom(m, m, m.poly_action(p), check=False)
                 for i, m in x.modules.items()}
        return ChainMap(x, x, comps, check=False)
    p = Poly.variable(ring.field, ring.nvars, v)
    xt = twist_complex(x, 1)
    comps = {}
    for i, m in x.modules.items():
        cols = [m.gen_elem(j).mul_poly(p) for j in range(m.ngens)]
        comps[i] = GradedHom(xt.module(i), m, cols, check=False)
    return ChainMap(xt, x, comps, check=False)


def koszul_of_complex(x: Complex) -> Complex:
    """Koszul complex on all ring variables, tensored onto x, as an
    iterated mapping cone of multiplication maps."""
    out = x
    for v in range(x.ring.nvars):
        out = cone(multiplication_chain_map(out, v)).complex
    return out


def koszul_complex(ring) -> Complex:
    """Koszul complex on all ring variables over the free rank-one module."""
    return koszul_of_complex(module_stalk(ring, free_module(ring, [0])))


def depth_of(obj):
    """Depth via Koszul homology; None for an object with no homology."""
    x = obj if _is_complex(obj) else module_stalk(obj.ring, obj, 0)
    ky = koszul_of_complex(x)
    degs = ky.hdata().nonzero_degrees()
    if not degs:
        return None
    return x.ring.nvars - max(degs)


# ------------------------------------------------- ext into the ring


def ring_dual_module(M: ArtinModule):
    """(Hom(M, R) as a module, the hom space giving its coordinates)."""
    ring = M.ring
    F1 = free_module(ring, [0])
    hs = hom_space(M, F1)
    acts = [hs.compose_matrix(hs, post=ArtinHom(F1, F1, ring.var_matrix(v),
                                                 check=False))
            for v in range(ring.nvars)]
    return ArtinModule(ring, hs.dim, acts, check=True), hs


def reflexivity_map(M: ArtinModule):
    """(ev: M -> Hom(Hom(M, R), R), the dual Hom(M, R) on the way)."""
    ring = M.ring
    Mstar, hs = ring_dual_module(M)
    Mss, hs2 = ring_dual_module(Mstar)
    F1 = hs.N
    s = hs.dim
    cols = []
    for j in range(M.dim):
        if s:
            mat = hstack([hs.basis_hom(t).matrix.col(j) for t in range(s)])
        else:
            mat = Mat.zeros(ring.field, ring.dim, 0)
        cols.append(hs2.coords(ArtinHom(Mstar, F1, mat, check=True)))
    mat = hstack(cols) if cols else Mat.zeros(ring.field, hs2.dim, 0)
    return ArtinHom(M, Mss, mat, check=True), Mstar


def ext_dims_into_ring(M: ArtinModule, window: int):
    """k-dimensions of Ext^i(M, R) for i = 0..window, read off the ranks
    of the minimal resolution P of M dualised into R (module docstring)."""
    if M.is_zero_module():
        return [0] * (window + 1)
    res = minimal_free_resolution(M, window + 1)
    D = M.ring.dim

    def dual_rank(i):
        if res.rank(i) == 0 or res.rank(i - 1) == 0:
            return 0
        return res.complex.diff(i).matrix.block_transpose(D).rank()

    ranks = [dual_rank(i) for i in range(window + 2)]
    return [D * res.rank(i) - ranks[i] - ranks[i + 1]
            for i in range(window + 1)]


def _ext_probe(M: ArtinModule, window: int) -> list:
    """dim Ext^i(M, R) for i = 1, 2, ... up to the first nonzero one, at
    most window of them: degree 1 from a length-2 resolution, the rest
    from one resolution to window + 1 only when degree 1 is zero."""
    if window < 1:
        return []
    dims = ext_dims_into_ring(M, 1)[1:]
    if not dims[0] and window > 1:
        dims = ext_dims_into_ring(M, window)[1:]
    hit = next((i for i, d in enumerate(dims) if d), None)
    return dims if hit is None else dims[:hit + 1]


def _tr_screen(M: ArtinModule, window: int) -> dict:
    first = None
    ext1 = _ext_probe(M, window)
    if ext1 and ext1[-1]:
        first = ("ext_to_ring", len(ext1))
    reflexive = None
    ext2 = []
    if first is None:
        ev, Mstar = reflexivity_map(M)
        reflexive = ev.is_iso()
        if not reflexive:
            first = ("not_reflexive", 1)
    if first is None:
        ext2 = _ext_probe(Mstar, window)
        if ext2 and ext2[-1]:
            first = ("dual_ext_to_ring", len(ext2))
    return {"window": window, "ext_to_ring": ext1, "dual_ext_to_ring": ext2,
            "reflexive": reflexive, "first_obstruction": first}


def tr_screen(M: ArtinModule, window: int = 4) -> dict:
    """Total-reflexivity obstruction screen over an artinian base.

    Probes Ext^i(M, R), bijectivity of the evaluation map, and
    Ext^i(Hom(M, R), R) for 1 <= i <= window, stopping at the first hit.
    A hit rules G-dimension zero out; a clean screen is evidence, not a
    certificate. The reported lists end where the probing stopped.

    The ring keeps one screen per (module value, window) for its own
    lifetime; each call returns a fresh copy of it.
    """
    key = (M, window)
    screen = M.ring.tr_screens.get(key)
    if screen is None:
        screen = M.ring.tr_screens[key] = _tr_screen(M, window)
    return {**screen, "ext_to_ring": list(screen["ext_to_ring"]),
            "dual_ext_to_ring": list(screen["dual_ext_to_ring"])}


# ------------------------------------------------------ dimension reports


@dataclass
class DimensionReport:
    kind: str
    status: str          # exact | infinite | at_least | inconclusive | out_of_scope
    value: int | None = None
    lower: int | None = None
    betti: list | None = None
    witness: dict = dataclass_field(default_factory=dict)
    notes: str = ""
    objects: dict = dataclass_field(default_factory=dict)

    def extended(self):
        """Value in the extended integers, or None when undetermined."""
        if self.status == "exact":
            return float("-inf") if self.value is None else self.value
        if self.status == "infinite":
            return float("inf")
        return None

    def rebrand(self, kind: str, extra_note: str = "") -> "DimensionReport":
        notes = self.notes
        if extra_note:
            notes = f"{extra_note}; {notes}" if notes else extra_note
        return DimensionReport(kind, self.status, self.value, self.lower,
                               self.betti, dict(self.witness), notes,
                               dict(self.objects))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "status": self.status, "value": self.value,
               "witness": self.witness}
        if self.lower is not None:
            out["lower"] = self.lower
        if self.betti is not None:
            out["betti"] = self.betti
        if self.notes:
            out["notes"] = self.notes
        return out


def _zero_report(kind: str) -> DimensionReport:
    return DimensionReport(kind, "exact", None,
                           witness={"zero_object": True},
                           notes="zero object; dimension is -infinity")


def _module_pd(M, window: int) -> DimensionReport:
    if M.is_zero_module():
        return _zero_report("pd")
    if M.mode == "graded":
        res = minimal_free_resolution(M, M.ring.nvars + 1)
        assert res.complete, "resolution over a polynomial ring must stop"
        top = res.top_nonzero()
        return DimensionReport(
            "pd", "exact", top, betti=res.betti(),
            witness={"route": "minimal-resolution",
                     "resolution": res.summary()},
            objects={"resolution": res})
    if M.is_free():
        return DimensionReport("pd", "exact", 0, betti=[M.mu()],
                               witness={"route": "free-module"})
    res = minimal_free_resolution(M, window)
    rep = DimensionReport(
        "pd", "infinite", None, betti=res.betti(),
        witness={"route": "local-depth",
                 "reason": "module is not free and the base is artinian "
                           "local, where finite projective dimension "
                           "forces freeness"},
        objects={"resolution": res})
    steps = sorted(i for i, Y in res.syzygy.items()
                   if not Y.is_zero_module())
    for a in steps:
        for b in steps:
            if b <= a or res.syzygy[a].dim != res.syzygy[b].dim:
                continue
            verdict, iso = find_isomorphism(res.syzygy[a], res.syzygy[b])
            if verdict == "iso":
                rep.witness["periodicity"] = {"syzygies": [a, b]}
                rep.objects["periodicity"] = (res.syzygy[a], res.syzygy[b], iso)
                return rep
    return rep


def _module_gpd(M, window: int) -> DimensionReport:
    if M.is_zero_module():
        return _zero_report("gpd")
    ring = M.ring
    if ring.kind == "poly":
        rep = _module_pd(M, window).rebrand(
            "gpd", "regular base: Gorenstein projective dimension equals "
                   "projective dimension")
        return rep
    if M.is_free():
        return DimensionReport("gpd", "exact", 0,
                               witness={"route": "free-module"})
    if ring.is_gorenstein:
        d = depth_of(M)
        return DimensionReport(
            "gpd", "exact", 0 - d,
            witness={"route": "depth-formula",
                     "ring_depth": 0, "module_depth": d},
            notes="Gorenstein artinian base: the dimension is finite and "
                  "equals depth of the ring minus depth of the module")
    screen = tr_screen(M, min(window, 4))
    first = screen["first_obstruction"]
    if first is not None:
        return DimensionReport(
            "gpd", "at_least", None, lower=first[1],
            witness={"route": "obstruction-screen", "screen": screen},
            notes="an obstruction to total reflexivity was found")
    return DimensionReport(
        "gpd", "inconclusive", None, lower=0,
        witness={"route": "obstruction-screen", "screen": screen},
        notes="no obstruction through the window; zero is consistent but "
              "not certified over a non-Gorenstein base")


def _complex_pd(x: Complex, window: int) -> DimensionReport:
    hd = x.hdata()
    hdegs = hd.nonzero_degrees()
    if not hdegs:
        return _zero_report("pd")
    a = max(hdegs) + 1
    res = semiprojective_resolution(x, ceiling=a + 1)
    lo = min(hdegs)

    def krank(i):  # rank of d_i (x) k
        if res.rank(i) == 0 or res.rank(i - 1) == 0:
            return 0
        return top_matrices([res.complex.diff(i)])[0].rank()

    hi = res.top_nonzero() if res.complete else a
    hi = hi if hi is not None else lo
    tor = {}
    for i in range(lo, hi + 1):
        r = res.rank(i)
        tor[i] = r - krank(i) - krank(i + 1)
        assert tor[i] >= 0
    direct_top = max((i for i, d in tor.items() if d), default=None)
    assert direct_top is not None, "nonzero complex with no derived fiber"
    betti = [tor.get(i, 0) for i in range(lo, direct_top + 1)]

    if res.complete:
        return DimensionReport(
            "pd", "exact", direct_top, betti=betti,
            witness={"route": "finite-free-resolution",
                     "resolution": res.summary()},
            objects={"resolution": res})

    B, _, _ = res.complex.diff(a).image()
    tail = _module_pd(B, window)
    wit = {"route": "derived-fiber-with-module-tail",
           "direct_through": a,
           "tail_report": tail.to_dict(),
           "resolution": res.summary()}
    objs = {"resolution": res, "tail": tail, "tail_module": B}
    if tail.status == "exact":
        d = tail.value if tail.value is not None else 0
        val = max(direct_top, a + d) if d >= 1 else direct_top
        return DimensionReport("pd", "exact", val, betti=betti, witness=wit,
                               objects=objs)
    assert tail.status == "infinite"
    return DimensionReport("pd", "infinite", None, betti=betti, witness=wit,
                           objects=objs)


def _single_degree_of_homology(x: Complex):
    degs = x.hdata().nonzero_degrees()
    if len(degs) == 1:
        return degs[0]
    return None


def _complex_gpd(x: Complex, window: int) -> DimensionReport:
    hdegs = x.hdata().nonzero_degrees()
    if not hdegs:
        return _zero_report("gpd")
    ring = x.ring
    if ring.kind == "poly":
        return _complex_pd(x, window).rebrand(
            "gpd", "regular base: Gorenstein projective dimension equals "
                   "projective dimension")
    if ring.is_gorenstein:
        d = depth_of(x)
        return DimensionReport(
            "gpd", "exact", 0 - d,
            witness={"route": "depth-formula", "ring_depth": 0,
                     "complex_depth": d},
            notes="Gorenstein artinian base: the dimension equals depth of "
                  "the ring minus depth of the complex")
    s = _single_degree_of_homology(x)
    if s is not None:
        rep = _module_gpd(x.hdata().homology(s), window)
        out = rep.rebrand("gpd", "homology sits in one degree, so the "
                                 "complex is equivalent to a shifted module")
        if out.status == "exact" and out.value is not None:
            out.value += s
        elif out.status == "at_least" and out.lower is not None:
            out.lower += s
        out.witness["shift"] = s
        return out
    return DimensionReport(
        "gpd", "inconclusive", None,
        witness={"route": "none"},
        notes="non-Gorenstein artinian base with homology in several "
              "degrees is outside the certified routes")


def dimension_report(obj, kind: str, window: int = 6) -> DimensionReport:
    """Dimension of a module or bounded complex.

    kind is one of pd, fd, id, gpd, gfd, gid. Flat kinds coincide with
    projective ones for finitely generated objects over a noetherian
    base. Injective kinds over a graded base are out of scope.
    """
    is_cx = _is_complex(obj)
    g = "Gorenstein " if kind.startswith("g") else ""
    proj = "gpd" if g else "pd"
    if kind == "pd":
        return _complex_pd(obj, window) if is_cx else _module_pd(obj, window)
    if kind == "gpd":
        return _complex_gpd(obj, window) if is_cx else _module_gpd(obj, window)
    if kind in ("fd", "gfd"):
        return dimension_report(obj, proj, window).rebrand(
            kind, f"finitely generated over a noetherian base: {g}flat "
                  f"equals {g}projective")
    if kind in ("id", "gid"):
        if obj.ring.kind == "poly":
            return DimensionReport(
                kind, "out_of_scope", None,
                notes=f"{g}injective dimension is computed through duality "
                      "over an artinian base only")
        return dimension_report(obj.dual(), proj, window).rebrand(
            kind, "computed on the vector-space dual, which exchanges the "
                  "projective and injective sides")
    raise ResolutionError(f"unknown dimension kind {kind!r}")


# --------------------------------------------- short exact sequence bounds


PROJECTIVE_KINDS = ("pd", "fd", "gpd", "gfd")
INJECTIVE_KINDS = ("id", "gid")


def ses_dimension_bounds(kind: str, rep_sub: DimensionReport,
                         rep_mid: DimensionReport,
                         rep_quot: DimensionReport) -> dict:
    """Check the dimension inequalities on 0 -> L -> M -> N -> 0.

    Each entry is True/False when all needed values are determined and
    None otherwise.
    """
    eL, eM, eN = (rep_sub.extended(), rep_mid.extended(), rep_quot.extended())

    def chk(lhs, rhs):
        if lhs is None or rhs is None:
            return None
        return lhs <= rhs

    def mx(a, b):
        if a is None or b is None:
            return None
        return max(a, b)

    if kind in PROJECTIVE_KINDS:
        return {
            "sub": chk(eL, mx(eM, eN - 1 if eN is not None else None)),
            "mid": chk(eM, mx(eL, eN)),
            "quot": chk(eN, mx(eM, eL + 1 if eL is not None else None)),
        }
    if kind in INJECTIVE_KINDS:
        return {
            "sub": chk(eL, mx(eM, eN + 1 if eN is not None else None)),
            "mid": chk(eM, mx(eL, eN)),
            "quot": chk(eN, mx(eM, eL - 1 if eL is not None else None)),
        }
    raise ResolutionError(f"unknown dimension kind {kind!r}")


def verify_module_ses(f, g, window: int = 8) -> bool:
    """Exactness of 0 -> L -f-> M -g-> N -> 0 for module homs.

    Injectivity, surjectivity, g.f = 0, and dimension additivity pin the
    image of f to the kernel of g (degreewise, over the Hilbert window,
    in the graded case).
    """
    if not f.is_injective() or not g.is_surjective():
        return False
    if not g.compose(f).is_zero():
        return False
    L, M, N = f.source, f.target, g.target
    if L.mode == "artin":
        return M.dim == L.dim + N.dim
    return all(M.hilbert(d) == L.hilbert(d) + N.hilbert(d)
               for d in range(-window, window + 1))


def check_ses_dimension_calculus(f, g, kinds=None, window: int = 6) -> dict:
    """Dimension reports for the terms of a short exact sequence of
    modules 0 -> L -f-> M -g-> N -> 0 plus the inequality checks."""
    if not verify_module_ses(f, g):
        raise ResolutionError("the given pair is not a short exact sequence")
    L, M, N = f.source, f.target, g.target
    if kinds is None:
        kinds = ("pd", "id", "gpd", "gid") if L.mode == "artin" \
            else ("pd", "gpd")
    out = {}
    for kind in kinds:
        rl = dimension_report(L, kind, window)
        rm = dimension_report(M, kind, window)
        rn = dimension_report(N, kind, window)
        out[kind] = {
            "reports": (rl, rm, rn),
            "bounds": ses_dimension_bounds(kind, rl, rm, rn),
        }
    return out
