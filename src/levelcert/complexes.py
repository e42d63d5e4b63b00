"""Bounded chain complexes, chain maps, cones, and triangles.

Conventions, fixed once for the whole package:
  (shift X)_i = X_{i-1} with differential negated per shift;
  Cone(f: A -> B)_i = A_{i-1} (+) B_i with d(a, b) = (-da, f(a) + db);
  so X (+) Y is the cone of the zero map shift(X, -1) -> Y.

A triangle is the cone of its map: Triangle(u) builds Cone(u), and its
third object w is that cone. verify() checks only that the stored cone
was built on the triangle's own u, so a u swapped in afterwards fails;
the components of a chain map and the differentials of a complex are
read-only mappings, so no u is changed in place under its cone. A
route that needs the third object up to quasi-isomorphism (the
cycle-boundary bound) carries that map on its own certificate.

Complexes and chain maps are read-only, so what is derived from one is
kept on it (Kept.derived): the homology, the dual and the cover step of
a complex, the cone of a chain map, and from the class-free evidence
of the level reports of a complex, the formality decision and the ghost
search with its free replacement (the cycle-boundary triangle is built
per report). A shift records the complex it shifts, its root, and
reads the root's homology through ShiftedHomologyData.

ChainMapSpace is the Hom complex Hom(X, Y) in degrees 1, 0 and -1, with
one differential builder: chain maps are the kernel of its differential
on degree 0, null-homotopic maps the image of its differential on degree 1.

Construction checks only that maps run between the right modules;
checked() checks d^2 = 0 or the chain-map condition. It runs on the
complexes of the command line and randgen, on every cone, on the splice
and on a semiprojective resolution with its augmentation.
"""

from __future__ import annotations

from types import MappingProxyType

from .linalg import Mat, hstack, vstack
from .modules import direct_sum, hom_space, zero_hom, zero_module


class ComplexError(ValueError):
    pass


class Kept:
    """A read-only object that keeps the values derived from it."""

    def derived(self, key, build, *args):
        """build(*args), built on the first call with this key and kept
        on the object, so every later caller reads the same value. Only
        what the object alone determines is kept under a key."""
        kept = self._derived
        if key not in kept:
            kept[key] = build(*args)
        return kept[key]


class Complex(Kept):
    def __init__(self, ring, modules: dict, diffs: dict,
                 label: str | None = None):
        self.ring = ring
        # modules and differentials are read-only, like Mat: the kept
        # homology, dual, cover step (adams.cover_step, shared by every
        # tower through this complex) and level evidence hang on them
        self.modules = MappingProxyType(
            {i: m for i, m in modules.items() if not m.is_zero_module()})
        self.label = label
        self._zero = zero_module(ring)
        self._derived = {}
        # shift() records the complex it shifts and by how much
        self._root, self._offset = self, 0
        kept = {}
        for i, d in diffs.items():
            if d.source.is_zero_module() or d.target.is_zero_module():
                continue
            if not (d.source == self.module(i) and d.target == self.module(i - 1)):
                raise ComplexError(f"differential at degree {i} mismatches modules")
            kept[i] = d
        self.diffs = MappingProxyType(kept)

    def checked(self) -> "Complex":
        """self, if d^2 = 0 in every degree; ComplexError if not."""
        for i, d in self.diffs.items():
            up = self.diffs.get(i + 1)
            if up is not None and not d.compose(up).is_zero():
                raise ComplexError(f"d^2 != 0 at degree {i + 1}")
        return self

    def module(self, i: int):
        return self.modules.get(i, self._zero)

    def diff(self, i: int):
        d = self.diffs.get(i)
        if d is None:
            return zero_hom(self.module(i), self.module(i - 1))
        return d

    def support(self):
        return sorted(self.modules)

    @property
    def min_deg(self) -> int:
        s = self.support()
        return s[0] if s else 0

    @property
    def max_deg(self) -> int:
        s = self.support()
        return s[-1] if s else 0

    def is_zero_complex(self) -> bool:
        return not self.modules

    def hdata(self) -> "HomologyData":
        return self.derived("hdata", self._homology_data)

    def _homology_data(self) -> "HomologyData":
        root, n = self._root, self._offset
        if root is self:
            return HomologyData(self)
        return root.hdata() if n == 0 else \
            ShiftedHomologyData(self, root.hdata(), n)

    def is_exact(self) -> bool:
        return self.hdata().is_exact()

    def shift(self, n: int = 1) -> "Complex":
        """(shift X)_i = X_{i-n} with differential (-1)^n d.

        The shift records its root, the complex that is not itself a
        shift, and its offset from it, so shifts of shifts compose. Its
        homology is a view of the root's, reindexed by the offset: a sign
        changes no kernel or image inclusion, so only the epi onto the
        boundaries is negated, for an odd offset. At offset 0 it is the
        root's homology itself.
        """
        mods = {i + n: m for i, m in self.modules.items()}
        diffs = {i + n: -d if n % 2 else d for i, d in self.diffs.items()}
        out = Complex(self.ring, mods, diffs)
        out._root, out._offset = self._root, self._offset + n
        return out

    def dual(self) -> "Complex":
        """Degreewise linear dual: (X^v)_i = (X_{-i})^v, d_i = (d^X_{1-i})^v.

        Kept like hdata(), so the dual keeps its computed homology.
        """
        if self.ring.kind != "artin":
            raise ComplexError("duality is only available over artinian rings")
        # d: X_i -> X_{i-1} dualizes to (X_{i-1})^v -> (X_i)^v at 1-i
        return self.derived("dual", lambda: Complex(
            self.ring, {-i: m.dual() for i, m in self.modules.items()},
            {1 - i: d.dual() for i, d in self.diffs.items()}))

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Complex) and other.modules == self.modules
                and all(self.diff(i) == other.diff(i)
                        for i in set(self.diffs) | set(other.diffs)))

    def __repr__(self):
        if self.is_zero_complex():
            return self.label or "Complex(0)"
        return self.label or f"Complex[{self.min_deg}..{self.max_deg}]"


def module_stalk(ring, M, n: int = 0) -> Complex:
    return Complex(ring, {n: M}, {})


class ChainMap(Kept):
    def __init__(self, source: Complex, target: Complex, comps: dict):
        self.source = source
        self.target = target
        self._derived = {}
        kept = {}
        for i, h in comps.items():
            if h.source.is_zero_module() or h.target.is_zero_module():
                continue
            if not (h.source == source.module(i) and h.target == target.module(i)):
                raise ComplexError(f"component at degree {i} mismatches modules")
            kept[i] = h
        # read-only, so the cone kept on this map cannot go stale
        self.comps = MappingProxyType(kept)

    def checked(self) -> "ChainMap":
        """self, if it is a chain map; ComplexError if not."""
        if not self.is_chain_map():
            raise ComplexError("not a chain map")
        return self

    def is_chain_map(self) -> bool:
        """Whether d . f == f . d in every degree: both sides vanish at
        degree i unless f has a component at i or i - 1."""
        degs = set(self.comps) | {i + 1 for i in self.comps}
        return all((self.target.diff(i).compose(self.comp(i))
                    - self.comp(i - 1).compose(self.source.diff(i))).is_zero()
                   for i in degs)

    def comp(self, i: int):
        h = self.comps.get(i)
        if h is None:
            return zero_hom(self.source.module(i), self.target.module(i))
        return h

    def compose(self, other: "ChainMap") -> "ChainMap":
        comps = {}
        for i in set(self.comps) | set(other.comps):
            comps[i] = self.comp(i).compose(other.comp(i))
        return ChainMap(other.source, self.target, comps)

    def __add__(self, other):
        comps = {}
        for i in set(self.comps) | set(other.comps):
            comps[i] = self.comp(i) + other.comp(i)
        return ChainMap(self.source, self.target, comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChainMap(self.source, self.target,
                        {i: -h for i, h in self.comps.items()})

    def scale(self, c):
        return ChainMap(self.source, self.target,
                        {i: h.scale(c) for i, h in self.comps.items()})

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.comps.values())

    def __eq__(self, other):
        return (isinstance(other, ChainMap) and other.source == self.source
                and other.target == self.target and (self - other).is_zero())

    def shift(self, n: int = 1) -> "ChainMap":
        return ChainMap(self.source.shift(n), self.target.shift(n),
                        {i + n: h for i, h in self.comps.items()})

    def dual(self) -> "ChainMap":
        return ChainMap(self.target.dual(), self.source.dual(),
                        {-i: h.dual() for i, h in self.comps.items()})

    def induced_on_homology(self, i: int):
        """The map H_i(source) -> H_i(target)."""
        hx = self.source.hdata()
        hy = self.target.hdata()
        zx, zetax = hx.cycles(i)
        zy, zetay = hy.cycles(i)
        zmap = self.comp(i).compose(zetax).lift_through(zetay)
        assert zmap is not None, "chain map does not preserve cycles"
        pix = hx.homology_proj(i)
        piy = hy.homology_proj(i)
        hmap = piy.compose(zmap).factor_through(pix)
        assert hmap is not None, "induced map fails to kill boundaries"
        return hmap

    def induces_zero_on_homology(self) -> bool:
        degs = set(self.source.hdata().nonzero_degrees())
        return all(self.induced_on_homology(i).is_zero() for i in degs)

    def __repr__(self):
        return f"ChainMap({self.source!r}->{self.target!r})"


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, {i: x.module(i).identity_hom() for i in x.support()})


def zero_chain_map(x: Complex, y: Complex) -> ChainMap:
    return ChainMap(x, y, {})


class HomologyData:
    """Cycles, boundaries, homology, and the associated canonical maps.

    For each degree i of the complex X:
      Z_i = ker d_i with inclusion zeta_i,
      B_i = im d_{i+1} with inclusion beta_i and epi X_{i+1} ->> B_i,
      lambda_i : B_i -> Z_i the lift of beta through zeta,
      H_i = coker(lambda_i) with projection pi_i : Z_i ->> H_i,
      C_i = coker(beta_i) = X_i / B_i with projection.
    """

    def __init__(self, x: Complex):
        self.x = x
        self._img = {}   # i -> (B_{i-1}, incl into X_{i-1}, epi from X_i)
        self._cyc = {}
        self._hom = {}
        self._cmod = {}

    def _image_of_diff(self, i: int):
        if i not in self._img:
            self._img[i] = self.x.diff(i).image()
        return self._img[i]

    def cycles(self, i: int):
        if i not in self._cyc:
            self._cyc[i] = self.x.diff(i).kernel()
        return self._cyc[i]

    def boundaries(self, i: int):
        """(B_i, incl: B_i -> X_i, epi: X_{i+1} -> B_i)."""
        return self._image_of_diff(i + 1)

    def _homology_parts(self, i: int):
        if i not in self._hom:
            z, zeta = self.cycles(i)
            b, beta, _ = self.boundaries(i)
            lam = beta.lift_through(zeta)
            assert lam is not None, "boundaries are not cycles?"
            h, pi = lam.cokernel()
            self._hom[i] = (h, pi, lam)
        return self._hom[i]

    def homology(self, i: int):
        return self._homology_parts(i)[0]

    def homology_proj(self, i: int):
        """pi_i : Z_i ->> H_i."""
        return self._homology_parts(i)[1]

    def generator_cycles(self, i: int):
        """(gens, reps): the minimal generators of H_i and, for each one, a
        cycle of X_i that pi_i sends to it."""
        gens = list(self.homology(i).min_gens())
        _, zeta = self.cycles(i)
        pi = self.homology_proj(i)
        reps = []
        for g in gens:
            zc = pi.solve_preimage(g)
            assert zc is not None
            reps.append(zeta.apply(zc))
        return gens, reps

    def cmod(self, i: int):
        """(C_i = X_i/B_i, proj)."""
        if i not in self._cmod:
            _, beta, _ = self.boundaries(i)
            self._cmod[i] = beta.cokernel()
        return self._cmod[i]

    def nonzero_degrees(self):
        return [i for i in self.x.support()
                if not self.homology(i).is_zero_module()]

    def is_exact(self) -> bool:
        return all(self.homology(i).is_zero_module() for i in self.x.support())


class ShiftedHomologyData(HomologyData):
    """The homology data of x = root.shift(n), read off the root's.

    Degree i of x is degree i - n of the root, and d^x = (-1)^n d, so
    cycles, boundary inclusions, homology and C_i are the root's; the
    epi X_{i+1} ->> B_i is negated for odd n, so that incl . epi is d^x.
    """

    def __init__(self, x: Complex, root: HomologyData, n: int):
        self.x, self.root, self.n = x, root, n

    def cycles(self, i: int):
        return self.root.cycles(i - self.n)

    def _image_of_diff(self, i: int):
        b, beta, epi = self.root._image_of_diff(i - self.n)
        return b, beta, -epi if self.n % 2 else epi

    def _homology_parts(self, i: int):
        return self.root._homology_parts(i - self.n)

    def cmod(self, i: int):
        return self.root.cmod(i - self.n)


class ConeData:
    """Cone(f: A -> B) with the degreewise summand maps remembered."""

    def __init__(self, f: ChainMap):
        self.f = f
        a, b = f.source, f.target
        ring = a.ring
        degs = sorted({i + 1 for i in a.support()} | set(b.support()))
        mods = {}
        self.in_a, self.in_b, self.pr_a, self.pr_b = {}, {}, {}, {}
        for i in degs:
            parts = [a.module(i - 1), b.module(i)]
            s, incs, prs = direct_sum(parts)
            mods[i] = s
            self.in_a[i], self.in_b[i] = incs
            self.pr_a[i], self.pr_b[i] = prs
        diffs = {}
        for i in degs:
            if i - 1 not in mods:
                continue
            # d(a, b) = (-da, f(a) + db)
            t1 = self.in_a[i - 1].compose(-a.diff(i - 1)).compose(self.pr_a[i])
            t2 = self.in_b[i - 1].compose(f.comp(i - 1)).compose(self.pr_a[i])
            t3 = self.in_b[i - 1].compose(b.diff(i)).compose(self.pr_b[i])
            diffs[i] = t1 + t2 + t3
        # d^2 = 0 on the cone is what confirms that f is a chain map
        self.complex = Complex(ring, mods, diffs).checked()

    def inclusion(self) -> ChainMap:
        """B -> Cone(f)."""
        return ChainMap(self.f.target, self.complex,
                        {i: self.in_b[i] for i in self.in_b})


def cone(f: ChainMap) -> ConeData:
    """Cone(f), kept on f, so is_quasi_iso reads one cone per map."""
    return f.derived("cone", ConeData, f)


def is_quasi_iso(f: ChainMap) -> bool:
    return cone(f).complex.is_exact()


class Triangle:
    """The distinguished triangle X -> Y -> Cone(u) on u: X -> Y.

    The third object w is the cone built here, so the triangle holds no
    witness of its own: verify() checks that the stored cone was built
    on this very u, which fails once u is replaced after construction.
    """

    def __init__(self, u: ChainMap):
        self.u = u
        self.cone_data = cone(u)

    @property
    def w(self) -> Complex:
        return self.cone_data.complex

    def verify(self) -> bool:
        return self.cone_data.f is self.u


class ChainMapSpace:
    """Exact coordinates on chain maps X -> Y and null-homotopic ones.

    This is the Hom complex in degrees 1, 0 and -1: degree n is the
    product of the hom spaces Hom(X_i, Y_{i+n}), with differential
    D s = d s - (-1)^n s d. Chain maps are the kernel of D on degree 0;
    null-homotopic maps are its image from degree 1.
    """

    def __init__(self, x: Complex, y: Complex):
        self.x, self.y = x, y
        self.field = x.ring.field
        self.spaces = self._hom_spaces(0)
        self.s_spaces = self._hom_spaces(1)  # homotopies
        self.total_dim = sum(s.dim for s in self.spaces.values())
        self._chain_basis = self._h_image = self._class_basis = None

    def _hom_spaces(self, n: int) -> dict:
        """Degree n of the Hom complex: i -> Hom(X_i, Y_{i+n}), over the
        degrees where both terms are nonzero."""
        x, y = self.x, self.y
        return {i: hom_space(x.module(i), y.module(i + n))
                for i in x.support() if i + n in y.modules}

    def _differential(self, n: int) -> Mat:
        """The matrix of D from degree n (0 or 1) to degree n - 1. Its
        component s_i goes to d^Y s_i in row block i and to
        -(-1)^n s_i d^X in row block i + 1."""
        cols = self.s_spaces if n else self.spaces
        rows = self.spaces if n else self._hom_spaces(-1)
        blocks = {}
        for i, space in cols.items():
            post = self.y.diffs.get(i + n)
            if post is not None and i in rows:
                blocks[i, i] = space.compose_matrix(rows[i], post=post)
            pre = self.x.diffs.get(i + 1)
            if pre is not None and i + 1 in rows:
                m = space.compose_matrix(rows[i + 1], pre=pre)
                blocks[i + 1, i] = m if n % 2 else -m
        return _block_matrix(self.field, rows, cols, blocks)

    @staticmethod
    def _split(spaces: dict, col: Mat) -> dict:
        """The components i -> hom of a coordinate column on spaces."""
        out, pos = {}, 0
        for i, space in spaces.items():
            if space.dim:
                out[i] = space.from_coords(
                    col.take_rows(range(pos, pos + space.dim)))
            pos += space.dim
        return out

    # -- coordinates

    def coords(self, f: ChainMap) -> Mat:
        return vstack([Mat.zeros(self.field, 0, 1)]
                      + [s.coords(f.comp(i)) for i, s in self.spaces.items()])

    def map_from_coords(self, col: Mat) -> ChainMap:
        return ChainMap(self.x, self.y, self._split(self.spaces, col))

    # -- chain maps and null homotopies

    def chain_map_basis(self) -> Mat:
        """Columns: coordinates of a basis of the space of chain maps."""
        if self._chain_basis is None:
            self._chain_basis = self._differential(0).kernel_basis()
        return self._chain_basis

    def homotopy_image(self) -> Mat:
        """Columns: coordinates of d s + s d over a basis of s-collections."""
        if self._h_image is None:
            self._h_image = self._differential(1)
        return self._h_image

    def is_null_homotopic(self, f: ChainMap) -> bool:
        """Whether f = d s + s d for some s, by one solve. False for a map
        that is not a chain map, so a certificate must check that first."""
        return self.homotopy_image().solve(self.coords(f)) is not None

    def null_homotopy(self, f: ChainMap):
        """Dict i -> s_i with f = d s + s d, or None."""
        sol = self.homotopy_image().solve(self.coords(f))
        return None if sol is None else self._split(self.s_spaces, sol)

    def class_space(self):
        """(hbasis, class_cols): homotopy image and coset representatives.

        Columns of class_cols complete the homotopy image to the full
        space of chain maps; their count is dim Hom up to homotopy.
        """
        if self._class_basis is None:
            h = self.homotopy_image().column_space_basis()
            full = hstack([h, self.chain_map_basis()])
            self._class_basis = (h, full.take_columns(
                c for c in full.rref()[1] if c >= h.ncols))
        return self._class_basis

    def hom_classes_dim(self) -> int:
        return self.class_space()[1].ncols

    def class_coords(self, f: ChainMap) -> Mat:
        """Coordinates of [f] modulo homotopy; zero iff f is null-homotopic."""
        h, cls = self.class_space()
        sol = hstack([h, cls]).solve(self.coords(f))
        if sol is None:
            raise ComplexError("map is not a chain map in the computed space")
        return sol.take_rows(range(h.ncols, h.ncols + cls.ncols))

    def class_representative(self, idx: int) -> ChainMap:
        _, cls = self.class_space()
        return self.map_from_coords(cls.take_columns([idx]))


def _block_matrix(field, rows: dict, cols: dict, blocks: dict) -> Mat:
    """The matrix with blocks[r, c] in block row r and block column c and
    zero elsewhere; rows and cols map each key, in order, to a hom space
    whose dimension sizes that block row or column."""
    ncols = sum(s.dim for s in cols.values())
    return vstack([Mat.zeros(field, 0, ncols)] + [
        hstack([Mat.zeros(field, rs.dim, 0)] + [
            blocks[r, c] if (r, c) in blocks
            else Mat.zeros(field, rs.dim, cs.dim)
            for c, cs in cols.items()])
        for r, rs in rows.items()])
