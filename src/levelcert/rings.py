"""Ring objects: finite-dimensional local algebras and graded polynomial rings.

An ArtinRing is k[x_1..x_n]/I with I given by arbitrary polynomial
relations, required to be finite dimensional over k and local (every
variable nilpotent modulo I). Elements are coefficient vectors over the
standard-monomial basis. A GradedPolyRing is k[x_1..x_n] with the
standard grading; its modules are handled through Groebner machinery and
never materialize a finite basis. Each GradedPolyRing computes the Groebner
basis and the syzygies of a generator list once and keeps them for its own
lifetime. Each ArtinRing likewise keeps the total-reflexivity screens of
its modules (resolutions.tr_screen), one per module value and window.
"""

from __future__ import annotations

from .linalg import Mat, parse_field, vstack
from .poly import PolyVec, grevlex_key, mono_mul, monomials_of_degree, parse_poly
from .grobner import buchberger, syzygies

MAX_STANDARD_DEGREE = 60


class InfiniteDimensional(ValueError):
    pass


class NotLocal(ValueError):
    pass


class ArtinRing:
    """The facts a report may assume about this base, fixed once per ring:
    - depth = 0: the maximal ideal is nilpotent.
    - has_dual: Matlis duality is the k-dual, which swaps the projective
      and the injective modules, and the Gorenstein ones likewise.
    - regular exactly when R is a field (dim == 1), and then Gdim = pd.
    - is_gorenstein exactly when the socle is one-dimensional: R is then
      self-injective, every module is Gorenstein projective, and
      Gdim M = depth R - depth M (Christensen, LNM 1747).
    """

    kind = "artin"
    depth = 0
    has_dual = True

    def __init__(self, field, varnames, relation_texts):
        self.field = field
        self.varnames = list(varnames)
        self.nvars = len(self.varnames)
        rels = [parse_poly(field, self.varnames, t) for t in relation_texts]
        rels = [r for r in rels if not r.is_zero()]
        if not rels and self.nvars > 0:
            raise InfiniteDimensional("no relations given")
        self.gb = buchberger(rels or [PolyVec.zero(field, 0)])
        if any(b == PolyVec.unit(field, self.nvars, 0) for b in self.gb.basis):
            raise ValueError("relations generate the unit ideal")
        self.basis_monos = self._standard_monomials()
        self.dim = len(self.basis_monos)
        self.index = {m: i for i, m in enumerate(self.basis_monos)}
        self._reg = None
        self._var_mats = {}
        # tr_screen keeps one screen per (module, window) here
        self.tr_screens = {}
        self._check_local()
        acts = [self.var_matrix(i) for i in range(self.nvars)]
        self.socle_dim = self.dim - (vstack(acts).rank() if acts else 0)
        self.is_gorenstein, self.regular = self.socle_dim == 1, self.dim == 1

    def _standard_monomials(self):
        leads = [b.lead()[0][1] for b in self.gb.basis]
        out = []
        d = 0
        while d <= MAX_STANDARD_DEGREE:
            layer = []
            for m in monomials_of_degree(self.nvars, d):
                if not any(all(x >= y for x, y in zip(m, lt)) for lt in leads):
                    layer.append(m)
            if not layer:
                break
            out.extend(layer)
            if self.nvars == 0:
                break
            d += 1
        else:
            raise InfiniteDimensional(
                f"standard monomials persist past degree {MAX_STANDARD_DEGREE}")
        out.sort(key=grevlex_key)
        return out

    def nf_coeffs(self, p: PolyVec):
        """Coefficient vector of the normal form of the polynomial p over
        the monomial basis."""
        rem = self.gb.normal_form(p)
        out = [self.field.zero] * self.dim
        for (_, m), c in rem.terms.items():
            out[self.index[m]] = c
        return out

    def regular_rep(self):
        """reg[i] = matrix of multiplication by basis monomial i."""
        if self._reg is None:
            cols_by_mono = []
            for mi in self.basis_monos:
                cols = []
                for mj in self.basis_monos:
                    prod = PolyVec.from_clean(self.field, self.nvars,
                                              {(0, mono_mul(mi, mj)): self.field.one})
                    cols.append(self.nf_coeffs(prod))
                cols_by_mono.append(Mat.from_rows(
                    self.field,
                    [[cols[j][r] for j in range(self.dim)] for r in range(self.dim)]))
            self._reg = cols_by_mono
        return self._reg

    def mult_matrix(self, p: PolyVec) -> Mat:
        """Multiplication-by-p as a dim x dim matrix."""
        coeffs = self.nf_coeffs(p)
        reg = self.regular_rep()
        out = Mat.zeros(self.field, self.dim, self.dim)
        for i, c in enumerate(coeffs):
            if not self.field.is_zero(c):
                out = out + reg[i].scale(c)
        return out

    def var_matrix(self, i: int) -> Mat:
        """Multiplication by variable i, built once per ring."""
        if i not in self._var_mats:
            self._var_mats[i] = self.mult_matrix(
                PolyVec.variable(self.field, self.nvars, i))
        return self._var_mats[i]

    def _check_local(self):
        for i in range(self.nvars):
            n = self.var_matrix(i)
            power = Mat.identity(self.field, self.dim)
            for _ in range(self.dim):
                power = n @ power
            if not power.is_zero():
                raise NotLocal(f"variable {self.varnames[i]} is not nilpotent")

    def decl_text(self) -> str:
        rels = ", ".join(b.component_text(0, self.varnames) for b in self.gb.basis)
        return f"artin({self.field.name}; {', '.join(self.varnames)} | {rels})"

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, ArtinRing) and other.field == self.field
                and other.varnames == self.varnames
                and other.gb.basis == self.gb.basis)

    def __hash__(self):
        return hash(("artin", self.field.name, tuple(self.varnames)))

    def __repr__(self):
        return self.decl_text()


class GradedPolyRing:
    """The facts a report may assume about this base, local at (x_1..x_n):
    - regular, hence Gorenstein: every finitely generated graded module has
      a finite free resolution (Hilbert), so Gdim = pd (Christensen, LNM
      1747) and a Gorenstein projective module is free.
    - depth = n: the variables are a maximal regular sequence.
    - has_dual = False: no nonzero finitely generated graded module is
      injective, so no duality carries the injective classes over.
    """

    kind = "poly"
    regular = is_gorenstein = True
    has_dual = False

    def __init__(self, field, varnames):
        self.field = field
        self.varnames = list(varnames)
        self.nvars = self.depth = len(self.varnames)
        self._mono_cache = {}
        self._gb_memo = {}
        self._syz_memo = {}

    def groebner(self, gens):
        """GroebnerBasis of the ordered list gens, computed once per ring.

        Keyed by tuple(gens), so an equal list built elsewhere gets the
        same object back. A BudgetExceeded propagates and stores nothing.
        Callers treat the result as read-only.
        """
        key = tuple(gens)
        gb = self._gb_memo.get(key)
        if gb is None:
            gb = self._gb_memo[key] = buchberger(key)
        return gb

    def syzygies(self, gens):
        """Syzygies of the ordered list gens, as a tuple, computed once per
        ring from groebner(gens)."""
        key = tuple(gens)
        syz = self._syz_memo.get(key)
        if syz is None:
            syz = self._syz_memo[key] = tuple(
                syzygies(key, gb=self.groebner(key)))
        return syz

    def monomials(self, d: int):
        if d not in self._mono_cache:
            self._mono_cache[d] = monomials_of_degree(self.nvars, d)
        return self._mono_cache[d]

    def decl_text(self) -> str:
        return f"poly({self.field.name}; {', '.join(self.varnames)})"

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, GradedPolyRing) and other.field == self.field
                and other.varnames == self.varnames)

    def __hash__(self):
        return hash(("poly", self.field.name, tuple(self.varnames)))

    def __repr__(self):
        return self.decl_text()


def make_ring(text: str):
    """Parse 'artin(F; vars | relations)' or 'poly(F; vars)'."""
    text = text.strip()
    if text.startswith("artin(") and text.endswith(")"):
        inner = text[len("artin("):-1]
        head, _, body = inner.partition(";")
        field = parse_field(head.strip())
        vars_part, _, rels_part = body.partition("|")
        varnames = [v.strip() for v in vars_part.split(",") if v.strip()]
        rels = [r.strip() for r in rels_part.split(",") if r.strip()]
        return ArtinRing(field, varnames, rels)
    if text.startswith("poly(") and text.endswith(")"):
        inner = text[len("poly("):-1]
        head, _, vars_part = inner.partition(";")
        field = parse_field(head.strip())
        varnames = [v.strip() for v in vars_part.split(",") if v.strip()]
        if not varnames:
            raise ValueError("poly ring needs at least one variable")
        return GradedPolyRing(field, varnames)
    raise ValueError(f"cannot parse ring declaration {text!r}")
