"""Finitely generated modules and their homs, in two backends.

ArtinModule: a finite-dimensional vector space with one commuting action
matrix per ring variable, satisfying the ring relations. Elements are
column vectors.

GradedModule: a finitely presented graded module over a polynomial ring,
stored as generator twists plus homogeneous relation vectors. Elements
are PolyVecs over the generators; equality is normal-form equality
modulo the relation Groebner basis.

Both backends share one vocabulary, so the complex and resolution layers
stay backend-agnostic. free_module(ring, twists) builds a free module
from a twist list on either ring (an artinian ring is ungraded and
counts the twists), and M.degree(e) is the degree of a homogeneous
element (always 0 on an ArtinModule), so a free cover of any module is
free_module(ring, [M.degree(g) for g in gens]). The homs share kernel,
image, cokernel, lift_through, factor_through, solve_preimage, ...;
top_matrices is the one routine for h (x) k.

On the artinian side these read every submodule and quotient off an
elimination already done, with no solve and no inverse. Each result is a
unique solution, so it is the one a solve would give:
- kernel: the canonical kernel basis is the identity on the non-pivot
  rows, so those rows are its coordinates (a basis has unique ones); the
  inclusion keeps them as its retraction.
- image: M = ib @ epi with epi the identity at the pivot columns, so the
  action on the image is epi @ x[:, piv] (ib is injective).
- cokernel: one rref of [M | I] gives the projection P, the one map with
  kernel col(M) and P @ S = I for the section S it keeps.
lift_through, factor_through and solve_preimage use the retraction or
section when the map carries one, and one solve otherwise.

hom_space(M, N) gives exact k-linear coordinates on Hom(M, N), zero
exactly on the zero hom; all homotopy-theoretic linear algebra runs
through it. On both backends a hom is the images of the generators of
M, which must kill the relations among them: vectors of N for the
minimal generators (ArtinHomSpace), or polynomial vectors over the
generators of N modulo its relations (GradedHomSpace), whose
coordinates are the entries (j, i, m): the coefficient of m e_i in the
image of generator j. Every graded matrix (the hom condition, the
trivial homs, composition, Hilbert functions and minimal generators)
comes from one degree-piece builder: _piece numbers the monomials of
given degrees of a free cover, _multiples writes the monomial multiples
of vectors in those rows.

Construction checks shapes only; checked() checks that a module's
actions commute and satisfy the ring relations, or that a hom respects
the structure. It runs on the action literal of the command line, the
projection of ArtinHom.cokernel, the graded free_hom and
free_hom_from_polys, and in ring_dual_module and reflexivity_map.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import (Mat, block_diag, extend_to_basis, full_rank_combination,
                     hstack, vstack)
from .poly import PolyVec, add_combination, mono_mul
from .rings import ArtinRing, GradedPolyRing


class ModuleError(ValueError):
    pass


def mat_vec(m: Mat) -> Mat:
    """Column-major vectorization as a single column."""
    return m.transpose().reshape(m.nrows * m.ncols, 1)


def mat_unvec(nrows: int, ncols: int, col: Mat) -> Mat:
    return col.reshape(ncols, nrows).transpose()


# ---------------------------------------------------------------- Artin side


class ArtinModule:
    mode = "artin"

    def __init__(self, ring: ArtinRing, dim: int, actions,
                 label: str | None = None):
        self.ring = ring
        self.dim = dim
        self.actions = list(actions)
        self.label = label
        self._mono_act = {}
        self._min_gens = None
        if len(self.actions) != ring.nvars:
            raise ModuleError("one action matrix per ring variable required")
        for a in self.actions:
            if a.shape != (dim, dim):
                raise ModuleError("action matrix shape mismatch")

    def checked(self) -> "ArtinModule":
        """self, if it is a module over its ring; ModuleError if not."""
        if not all(a @ b == b @ a for a, b in combinations(self.actions, 2)):
            raise ModuleError("actions do not commute")
        if not all(self.poly_action(r).is_zero() for r in self.ring.gb.basis):
            raise ModuleError("ring relation not satisfied by actions")
        return self

    @property
    def field(self):
        return self.ring.field

    def mono_action(self, mono) -> Mat:
        mono = tuple(mono)
        if mono not in self._mono_act:
            acts = [self.actions[v] for v, e in enumerate(mono)
                    for _ in range(e)]
            out = acts[0] if acts else Mat.identity(self.field, self.dim)
            for a in acts[1:]:
                out = a @ out
            self._mono_act[mono] = out
        return self._mono_act[mono]

    def poly_action(self, p: PolyVec) -> Mat:
        """The action of the polynomial p."""
        out = Mat.zeros(self.field, self.dim, self.dim)
        for (_, m), c in p.terms.items():
            out = out + self.mono_action(m).scale(c)
        return out

    # elements are dim x 1 Mats
    def zero_elem(self) -> Mat:
        return Mat.zeros(self.field, self.dim, 1)

    def degree(self, e: Mat) -> int:
        """An artinian module is ungraded: every element has degree 0."""
        return 0

    def basis_elem(self, i: int) -> Mat:
        return Mat.units(self.field, self.dim, [i])

    def elem_eq(self, a: Mat, b: Mat) -> bool:
        return a == b

    def is_zero_elem(self, a: Mat) -> bool:
        return a.is_zero()

    def is_zero_module(self) -> bool:
        return self.dim == 0

    def radical_span(self) -> Mat:
        """Matrix whose column space is m*M."""
        if not self.actions:
            return Mat.zeros(self.field, self.dim, 0)
        return hstack(self.actions)

    def min_gens(self):
        """Columns forming a minimal generating set (standard-vector lifts)."""
        if self._min_gens is None:
            idx = extend_to_basis(self.field, self.radical_span())
            self._min_gens = [self.basis_elem(i) for i in idx]
        return self._min_gens

    def mu(self) -> int:
        return len(self.min_gens())

    def socle_dim(self) -> int:
        if not self.actions:
            return self.dim
        return self.dim - vstack(self.actions).rank()

    def is_free(self) -> bool:
        if self.dim == 0:
            return True
        return self.mu() * self.ring.dim == self.dim

    def dual(self) -> "ArtinModule":
        """Matlis dual Hom_k(M, k) with (x.f)(m) = f(x.m)."""
        return ArtinModule(self.ring, self.dim,
                           [a.transpose() for a in self.actions],
                           label=None if self.label is None else self.label + "^v")

    def identity_hom(self) -> "ArtinHom":
        return ArtinHom(self, self, Mat.identity(self.field, self.dim))

    def invariants(self):
        return (self.dim, self.mu(), self.socle_dim(),
                tuple(a.rank() for a in self.actions))

    def __eq__(self, other):
        return (isinstance(other, ArtinModule) and other.ring == self.ring
                and other.actions == self.actions)

    def __hash__(self):
        return hash(("artmod", self.dim))

    def __repr__(self):
        return self.label or f"ArtinModule(dim={self.dim})"


def artin_free(ring: ArtinRing, n: int) -> ArtinModule:
    acts = [block_diag(ring.field, [ring.var_matrix(v)] * n)
            for v in range(ring.nvars)]
    out = ArtinModule(ring, n * ring.dim, acts, label=f"free^{n}")
    out.free_rank = n
    return out


def artin_residue_field(ring: ArtinRing) -> ArtinModule:
    return ArtinModule(ring, 1, [Mat.zeros(ring.field, 1, 1)] * ring.nvars,
                       label="k")


def _artin_sub(ambient: ArtinModule, cols: Mat, acts, images):
    """(S, incl: S -> ambient) for the span of the independent columns,
    acting by acts; one product per action checks cols @ y == x @ cols
    (given as images), which holds exactly when the span is a submodule
    and y is its action."""
    assert all(cols @ y == xc for y, xc in zip(acts, images)), \
        "columns do not span a submodule"
    sub = ArtinModule(ambient.ring, cols.ncols, acts)
    return sub, ArtinHom(sub, ambient, cols)


class ArtinHom:
    # a left inverse of a kernel inclusion and a right inverse of a
    # cokernel projection, set where they are built
    retraction = None
    section = None

    def __init__(self, source: ArtinModule, target: ArtinModule, matrix: Mat):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.shape != (target.dim, source.dim):
            raise ModuleError("hom matrix shape mismatch")

    def checked(self) -> "ArtinHom":
        """self, if it intertwines the actions; ModuleError if not."""
        for xs, xt in zip(self.source.actions, self.target.actions):
            if not (xt @ self.matrix == self.matrix @ xs):
                raise ModuleError("hom does not intertwine the actions")
        return self

    def apply(self, elem: Mat) -> Mat:
        return self.matrix @ elem

    def compose(self, other: "ArtinHom") -> "ArtinHom":
        assert other.target is self.source or other.target == self.source
        return ArtinHom(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        return ArtinHom(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return ArtinHom(self.source, self.target, self.matrix - other.matrix)

    def __neg__(self):
        return ArtinHom(self.source, self.target, -self.matrix)

    def scale(self, c):
        return ArtinHom(self.source, self.target, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, ArtinHom) and other.matrix == self.matrix
                and other.source == self.source and other.target == self.target)

    def __hash__(self):
        return hash(("arthom", self.matrix))

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.target.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()

    def kernel(self):
        """(K, incl: K -> source).

        The canonical kernel basis is the identity on the non-pivot rows
        (free), so the coordinates of any element of its span are its
        entries at free: the actions on K are those rows of x @ incl, and
        the unit rows at free are kept as incl.retraction, a left inverse
        for lift_through. No solve.
        """
        kb = self.matrix.kernel_basis()
        pivots = set(self.matrix.rref()[1])
        free = [j for j in range(self.source.dim) if j not in pivots]
        images = [x @ kb for x in self.source.actions]
        K, incl = _artin_sub(self.source, kb,
                             [xk.take_rows(free) for xk in images], images)
        incl.retraction = Mat.units(self.matrix.field, self.source.dim,
                                    free, axis=0)
        return K, incl

    def image(self):
        """(I, incl: I -> target, epi: source -> I) with incl . epi == self.

        ib is the pivot columns of the matrix, so the matrix is ib @ epi,
        where epi is the nonzero rows of its reduced row echelon form and
        is the identity at the pivot columns. Intertwining gives
        x_t @ ib @ epi = ib @ epi @ x_s; at the pivot columns this is
        x_t @ ib = ib @ (epi @ x_s[:, piv]), and ib is injective, so
        epi @ x_s[:, piv] is the unique action on I. No solve.
        """
        R, piv = self.matrix.rref()
        ib = self.matrix.column_space_basis()
        epi_mat = R.take_rows(range(len(piv)))
        img, incl = _artin_sub(
            self.target, ib,
            [epi_mat @ x.take_columns(piv) for x in self.source.actions],
            [x @ ib for x in self.target.actions])
        return img, incl, ArtinHom(self.source, img, epi_mat)

    def cokernel(self):
        """(C, proj: target -> C), proj carrying a section.

        One rref of [M | I_n], the elimination extend_to_basis does: its
        pivots past M pick the standard vectors e_idx that complete the
        column space of M to a basis. The rref is E [M | I] for an
        invertible E, so its I part is E, and its rows past r = rank M,
        P = E[r:], have P M = 0 (those rows of the rref vanish on M) and
        P e_idx = I (the pivot columns). P has rank n - r, so its kernel
        is exactly col(M), and a map is fixed by its kernel and its values
        on a complement: P is the one map with kernel col(M) and P S = I
        for the section S = I[:, idx]. The actions on C are P @ x @ S.
        No solve and no inverse.
        """
        m, n = self.source.dim, self.target.dim
        eye = Mat.identity(self.matrix.field, n)
        R, pivots = hstack([self.matrix, eye]).rref()
        r = sum(1 for c in pivots if c < m)
        idx = [c - m for c in pivots[r:]]
        proj_mat = R.take_rows(range(r, n)).take_columns(range(m, m + n))
        acts = [proj_mat @ x.take_columns(idx) for x in self.target.actions]
        cok = ArtinModule(self.target.ring, len(idx), acts)
        proj = ArtinHom(self.target, cok, proj_mat).checked()
        proj.section = eye.take_columns(idx)
        return cok, proj

    def lift_through(self, mono: "ArtinHom"):
        """h with mono . h == self, or None. mono must be injective.

        A mono with a retraction L (a kernel inclusion) gives h = L @ self,
        the only candidate; other monos take one solve. Either way
        mono . h == self is checked.
        """
        if mono.retraction is None:
            h = mono.matrix.solve(self.matrix)
            if h is None:
                return None
        else:
            h = mono.retraction @ self.matrix
        out = ArtinHom(self.source, mono.source, h)
        return out if mono.compose(out) == self else None

    def factor_through(self, epi: "ArtinHom"):
        """h with h . epi == self, or None. epi must be surjective.

        h is self @ S for a section S of epi: the one a cokernel
        projection carries, else one solve.
        """
        sect = epi.section
        if sect is None:
            sect = epi.matrix.solve(Mat.identity(self.matrix.field,
                                                 epi.target.dim))
            if sect is None:
                return None
        h = ArtinHom(epi.target, self.target, self.matrix @ sect)
        if not (h.compose(epi) == self):
            return None
        return h

    def solve_preimage(self, elem: Mat):
        """A preimage of elem, or None: S @ elem for a map with a section
        S, else the least-constrained solution. The two agree: the pivot
        columns of a cokernel projection P are idx and P[:, idx] = I."""
        if self.section is not None:
            return self.section @ elem
        return self.matrix.solve(elem)

    def dual(self) -> "ArtinHom":
        return ArtinHom(self.target.dual(), self.source.dual(),
                        self.matrix.transpose())

    def __repr__(self):
        return f"ArtinHom({self.source.dim}->{self.target.dim})"


# --------------------------------------------------------------- graded side


class GradedModule:
    mode = "graded"

    def __init__(self, ring: GradedPolyRing, gen_twists, rels,
                 label: str | None = None):
        self.ring = ring
        self.gen_twists = list(gen_twists)
        self.rels = [r for r in rels or [] if not r.is_zero()]
        self.label = label
        self._gb = None
        self._min_idx = None

    @property
    def field(self):
        return self.ring.field

    @property
    def ngens(self):
        return len(self.gen_twists)

    def rel_gb(self):
        if self._gb is None and self.rels:
            self._gb = self.ring.groebner(self.rels)
        return self._gb

    def nf(self, v: PolyVec) -> PolyVec:
        gb = self.rel_gb()
        return gb.normal_form(v) if gb else v

    def zero_elem(self) -> PolyVec:
        return PolyVec.zero(self.field, self.ring.nvars)

    def gen_elem(self, j: int) -> PolyVec:
        return PolyVec.unit(self.field, self.ring.nvars, j)

    def degree(self, e: PolyVec) -> int:
        """The degree of a homogeneous element."""
        d = e.homogeneous_degree(self.gen_twists)
        if d is None:
            raise ModuleError("element is not homogeneous")
        return d

    def elem_eq(self, a: PolyVec, b: PolyVec) -> bool:
        return self.nf(a - b).is_zero()

    def is_zero_elem(self, a: PolyVec) -> bool:
        return self.nf(a).is_zero()

    def is_zero_module(self) -> bool:
        """F/N = 0 exactly when every generator j is the lead (j, 1) of a
        relation basis element. If so, by descending j each e_j lies in N,
        since the other terms of that element sit in later components;
        conversely e_j in N has a lead dividing (j, 1), so equal to it."""
        gb = self.rel_gb()
        if gb is None:
            return self.ngens == 0
        units = {comp for (comp, m), _ in map(PolyVec.lead, gb.basis)
                 if not any(m)}
        return len(units) == self.ngens

    def hilbert(self, d: int) -> int:
        """dim_k of the degree-d piece."""
        rows = _piece(self, [d])
        return len(rows) - self.rel_multiples([d], rows).rank()

    def min_gens_indices(self):
        """Generator indices forming a minimal generating set.

        In each twist degree d, the constant parts of the degree-d
        relations, the rows (0, j, 1) of their multiples, span the
        redundancy; standard vectors completing that span name the
        surviving generators.
        """
        if self._min_idx is None:
            out, one = [], (0,) * self.ring.nvars
            degs = [r.homogeneous_degree(self.gen_twists) for r in self.rels]
            for d in sorted(set(self.gen_twists)):
                slots = [j for j, t in enumerate(self.gen_twists) if t == d]
                # a multiple m . r with deg m > 0 has no constant part
                top = [r for r, dr in zip(self.rels, degs) if dr == d]
                if top:
                    rows = _piece(self, [d])
                    w = _multiples(self.ring, top, [d] * len(top), [d], rows)
                    w = w.take_rows(rows[0, j, one] for j in slots)
                    slots = [slots[i] for i in extend_to_basis(self.field, w)]
                out.extend(slots)
            self._min_idx = sorted(out)
        return self._min_idx

    def rel_multiples(self, blocks, rows) -> Mat:
        """_multiples of the relations, in the rows of _piece(self, blocks)."""
        degs = [r.homogeneous_degree(self.gen_twists) for r in self.rels]
        return _multiples(self.ring, self.rels, degs, blocks, rows)

    def min_gens(self):
        return [self.gen_elem(j) for j in self.min_gens_indices()]

    def mu(self) -> int:
        return len(self.min_gens_indices())

    def relations_of(self, gens):
        """Generators of {c : sum c_j gens[j] == 0 in self}, as PolyVecs."""
        if not gens:
            return []
        sys = list(gens) + self.rels
        out = []
        for s in self.ring.syzygies(sys):
            first = PolyVec(self.field, self.ring.nvars,
                            {(j, m): c for (j, m), c in s.terms.items()
                             if j < len(gens)})
            if not first.is_zero():
                out.append(first)
        return out

    def is_free(self) -> bool:
        idx = self.min_gens_indices()
        if len(idx) == self.ngens and not self.rels:
            return True
        rels = self.relations_of([self.gen_elem(j) for j in idx])
        return all(r.is_zero() for r in rels)

    def identity_hom(self) -> "GradedHom":
        return GradedHom(self, self,
                         [self.gen_elem(j) for j in range(self.ngens)])

    def invariants(self):
        """(minimal generator twists, the Hilbert function in the six
        degrees from the lowest of them)."""
        idx = self.min_gens_indices()
        twists = sorted(self.gen_twists[j] for j in idx)
        if not twists:
            return ((), ())
        lo = twists[0]
        hil = tuple(self.hilbert(d) for d in range(lo, lo + 6))
        return (tuple(twists), hil)

    def __eq__(self, other):
        if not (isinstance(other, GradedModule) and other.ring == self.ring
                and other.gen_twists == self.gen_twists):
            return False
        ga, gb_ = self.rel_gb(), other.rel_gb()
        ba = ga.basis if ga else []
        bb = gb_.basis if gb_ else []
        return ba == bb

    def __hash__(self):
        return hash(("grmod", tuple(self.gen_twists)))

    def __repr__(self):
        return self.label or f"GradedModule(gens={self.ngens})"


def graded_free(ring: GradedPolyRing, twists) -> GradedModule:
    out = GradedModule(ring, list(twists), [], label=f"free{tuple(twists)}")
    out.free_rank = len(out.gen_twists)
    return out


def graded_residue_field(ring: GradedPolyRing) -> GradedModule:
    rels = [PolyVec.variable(ring.field, ring.nvars, v) for v in range(ring.nvars)]
    return GradedModule(ring, [0], rels, label="k")


def graded_submodule(ambient: GradedModule, gens):
    """(K, incl) for the submodule generated by the nonzero gens (elements
    of ambient)."""
    gens = [g for g in gens if not ambient.is_zero_elem(g)]
    if not gens:
        K = GradedModule(ambient.ring, [], [])
        return K, GradedHom(K, ambient, [])
    K = GradedModule(ambient.ring, [ambient.degree(g) for g in gens],
                     ambient.relations_of(gens))
    incl = GradedHom(K, ambient, list(gens))
    return K, incl


class GradedHom:
    def __init__(self, source: GradedModule, target: GradedModule, cols):
        self.source = source
        self.target = target
        self.cols = list(cols)
        if len(self.cols) != source.ngens:
            raise ModuleError("one column per source generator required")

    def checked(self) -> "GradedHom":
        """self, if it is a degree-0 hom; ModuleError if not."""
        twists = self.target.gen_twists
        if any(not c.is_zero() and c.homogeneous_degree(twists) != t
               for c, t in zip(self.cols, self.source.gen_twists)):
            raise ModuleError("hom column has wrong degree")
        for r in self.source.rels:
            if not self.target.is_zero_elem(self._apply_raw(r)):
                raise ModuleError("hom does not kill a source relation")
        return self

    def _apply_raw(self, elem: PolyVec) -> PolyVec:
        f = self.target.field
        return PolyVec.from_clean(f, self.target.ring.nvars, add_combination(
            {}, self.cols, elem.terms.items(), f))

    def apply(self, elem: PolyVec) -> PolyVec:
        return self.target.nf(self._apply_raw(elem))

    def compose(self, other: "GradedHom") -> "GradedHom":
        cols = [self._apply_raw(c) for c in other.cols]
        return GradedHom(other.source, self.target, cols)

    def __add__(self, other):
        return GradedHom(self.source, self.target,
                         [a + b for a, b in zip(self.cols, other.cols)])

    def __sub__(self, other):
        return GradedHom(self.source, self.target,
                         [a - b for a, b in zip(self.cols, other.cols)])

    def __neg__(self):
        return GradedHom(self.source, self.target, [-c for c in self.cols])

    def scale(self, c):
        return GradedHom(self.source, self.target,
                         [col.scale(c) for col in self.cols])

    def is_zero(self) -> bool:
        return all(self.target.is_zero_elem(c) for c in self.cols)

    def __eq__(self, other):
        return (isinstance(other, GradedHom) and other.source == self.source
                and other.target == self.target
                and all(self.target.elem_eq(a, b)
                        for a, b in zip(self.cols, other.cols)))

    def __hash__(self):
        return hash(("grhom", len(self.cols)))

    def _big_gb(self):
        """Groebner basis of [columns | target relations] with tracking."""
        sys = self.cols + self.target.rels
        if not sys:
            return None
        return self.target.ring.groebner(sys)

    def kernel(self):
        """(K, incl: K -> source)."""
        return graded_submodule(self.source,
                                self.target.relations_of(self.cols))

    def image(self):
        """(I, incl: I -> target, epi: source -> I).

        The image keeps the source generators; its relations are exactly
        the vectors the composite sends into the target relations.
        """
        img = GradedModule(self.target.ring, list(self.source.gen_twists),
                           self.target.relations_of(self.cols))
        incl = GradedHom(img, self.target, self.cols)
        epi = GradedHom(self.source, img,
                        [img.gen_elem(j) for j in range(self.source.ngens)])
        return img, incl, epi

    def cokernel(self):
        """(C, proj: target -> C)."""
        C = GradedModule(self.target.ring, list(self.target.gen_twists),
                         self.target.rels
                         + [c for c in self.cols if not c.is_zero()])
        proj = GradedHom(self.target, C,
                         [C.gen_elem(i) for i in range(self.target.ngens)])
        return C, proj

    def is_injective(self) -> bool:
        K, _ = self.kernel()
        return K.is_zero_module()

    def is_surjective(self) -> bool:
        C, _ = self.cokernel()
        return C.is_zero_module()

    def is_iso(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def solve_preimage(self, elem: PolyVec):
        """Element of source mapping to elem, or None."""
        gb = self._big_gb()
        if gb is None:
            return None if not self.target.is_zero_elem(elem) else \
                PolyVec.zero(self.source.field, self.source.ring.nvars)
        expr = gb.express_in_inputs(elem)
        if expr is None:
            return None
        return PolyVec(self.source.field, self.source.ring.nvars,
                       {(j, m): c for (j, m), c in expr.terms.items()
                        if j < len(self.cols)})

    def lift_through(self, mono: "GradedHom"):
        """h with mono . h == self, or None."""
        cols = []
        for c in self.cols:
            pre = mono.solve_preimage(c)
            if pre is None:
                return None
            cols.append(pre)
        out = GradedHom(self.source, mono.source, cols)
        if not (mono.compose(out) == self):
            return None
        return out

    def factor_through(self, epi: "GradedHom"):
        """h with h . epi == self, or None."""
        cols = []
        for i in range(epi.target.ngens):
            pre = epi.solve_preimage(epi.target.gen_elem(i))
            if pre is None:
                return None
            cols.append(self._apply_raw(pre))
        out = GradedHom(epi.target, self.target, cols)
        if not (out.compose(epi) == self):
            return None
        return out

    def __repr__(self):
        return f"GradedHom({self.source.ngens}->{self.target.ngens})"


# ----------------------------------------------------- mode-generic wrappers


def free_module(ring, twists):
    """The free module on generators of the given twists. An artinian
    ring is ungraded, so there only the number of twists counts."""
    if ring.kind == "artin":
        return artin_free(ring, len(twists))
    return graded_free(ring, twists)


def zero_module(ring):
    return free_module(ring, [])


def zero_hom(M, N):
    if M.mode == "artin":
        return ArtinHom(M, N, Mat.zeros(M.field, N.dim, M.dim))
    return GradedHom(M, N, [N.zero_elem() for _ in range(M.ngens)])


def free_cover(M):
    """(F, phi) with F free and phi a surjection onto M from minimal generators."""
    gens = M.min_gens()
    F = free_module(M.ring, [M.degree(g) for g in gens])
    if M.mode == "artin":
        phi = free_hom(F, M, gens)
        assert phi.is_surjective()
        return F, phi
    return F, GradedHom(F, M, gens)


def direct_sum(mods):
    """(S, incls, projs) for a finite list of modules over one ring."""
    assert mods
    if mods[0].mode == "artin":
        ring = mods[0].ring
        field = ring.field
        dims = [m.dim for m in mods]
        total = sum(dims)
        acts = []
        for v in range(ring.nvars):
            acts.append(block_diag(field, [m.actions[v] for m in mods]))
        S = ArtinModule(ring, total, acts)
        incls, projs = [], []
        off = 0
        for m in mods:
            block = range(off, off + m.dim)
            incls.append(ArtinHom(m, S, Mat.units(field, total, block)))
            projs.append(ArtinHom(S, m, Mat.units(field, total, block,
                                                  axis=0)))
            off += m.dim
        return S, incls, projs
    ring = mods[0].ring
    field = ring.field
    twists = []
    rels = []
    offs = []
    off = 0
    for m in mods:
        offs.append(off)
        twists.extend(m.gen_twists)
        for r in m.rels:
            rels.append(PolyVec(field, ring.nvars,
                                {(j + off, mm): c for (j, mm), c in r.terms.items()}))
        off += m.ngens
    S = GradedModule(ring, twists, rels)
    incls, projs = [], []
    for t, m in enumerate(mods):
        incls.append(GradedHom(m, S,
                               [S.gen_elem(offs[t] + j)
                                for j in range(m.ngens)]))
        pcols = [m.zero_elem()] * S.ngens
        for j in range(m.ngens):
            pcols[offs[t] + j] = m.gen_elem(j)
        projs.append(GradedHom(S, m, pcols))
    return S, incls, projs


def free_hom(F, N, images):
    """Hom out of a free module sending generator j to images[j]."""
    if F.mode == "artin":
        assert len(images) == F.free_rank
        return _artin_free_hom(
            F, N, hstack([Mat.zeros(F.field, N.dim, 0)] + list(images)))
    return GradedHom(F, N, list(images)).checked()


def _artin_free_hom(F, N, images: Mat) -> ArtinHom:
    """free_hom with the images as the columns of one matrix."""
    n, monos = images.ncols, F.ring.basis_monos
    # column m * n + j is m . images[j]; F orders its basis as (j, m)
    mat = hstack([N.mono_action(m) @ images for m in monos])
    order = [m * n + j for j in range(n) for m in range(len(monos))]
    # equivariant by construction
    return ArtinHom(F, N, mat.take_columns(order))


def free_hom_from_polys(F, G, entries):
    """Hom between frees from a polynomial entry matrix (rows G, columns F)."""
    m, n = G.free_rank, F.free_rank
    assert len(entries) == m and all(len(r) == n for r in entries)
    if F.mode == "artin":
        ring = F.ring
        images = []
        for j in range(n):
            flat = []
            for i in range(m):
                flat.extend(ring.nf_coeffs(entries[i][j]))
            images.append(Mat.column(F.field, flat))
        return free_hom(F, G, images)
    ring = F.ring
    cols = []
    for j in range(n):
        cols.append(PolyVec(ring.field, ring.nvars,
                            {(i, mono): c
                             for i in range(m)
                             for (_, mono), c in entries[i][j].terms.items()}))
    return GradedHom(F, G, cols).checked()


# ------------------------------------------------------------- hom spaces


class ArtinHomSpace:
    """Exact k-basis of Hom_A(M, N) in generator-image coordinates.

    The images of the minimal generators of M, stacked in N^mu, must kill
    the kernel of the free cover F -> M; a free source has no condition
    and the standard basis of N^mu. Coordinates are faithful.
    """

    def __init__(self, M: ArtinModule, N: ArtinModule):
        self.M, self.N = M, N
        f, nn = M.field, N.dim
        self.F, phi = free_cover(M)
        mu, d = self.F.free_rank, M.ring.dim
        self.gens = hstack([Mat.zeros(f, M.dim, 0)] + M.min_gens())
        # a hom from its images: the hom out of F, through a section of phi
        self.section = None if phi.matrix == Mat.identity(f, M.dim) \
            else phi.matrix.solve(Mat.identity(f, M.dim))
        rels = phi.matrix.kernel_basis()  # (mu*d) x r, rows (generator, mono)
        self.basis_mat = None             # None: the identity on N^mu
        self.dim = nn * mu
        if rels.ncols:
            # relation k kills the images when sum_{j,m} rels[(j,m),k]
            # m . v_j = 0; row (k, i) and column (j, t) of the condition
            # hold the coefficient of (v_j)_t in entry i of that sum
            acts = vstack([N.mono_action(m).reshape(1, nn * nn)
                           for m in M.ring.basis_monos])
            sys = hstack([(rels.take_rows(range(j * d, (j + 1) * d))
                           .transpose() @ acts).reshape(rels.ncols * nn, nn)
                          for j in range(mu)])
            self.basis_mat = sys.kernel_basis()
            self.dim = self.basis_mat.ncols

    def basis_hom(self, i: int) -> ArtinHom:
        f = self.M.field
        unit = [[f.zero]] * self.dim
        unit[i] = [f.one]
        return self.from_coords(Mat(f, self.dim, 1, unit))

    def coords(self, h: ArtinHom) -> Mat:
        v = mat_vec(h.matrix @ self.gens)
        c = v if self.basis_mat is None else self.basis_mat.solve(v)
        if c is None or not (self.from_coords(c).matrix == h.matrix):
            raise ModuleError("matrix is not a module hom")
        return c

    def from_coords(self, c: Mat) -> ArtinHom:
        if self.basis_mat is not None:
            c = self.basis_mat @ c
        # generator j goes to block j of c
        images = mat_unvec(self.N.dim, self.F.free_rank, c)
        mat = _artin_free_hom(self.F, self.N, images).matrix
        if self.section is not None:
            mat = mat @ self.section
        return ArtinHom(self.M, self.N, mat)

    def compose_matrix(self, U: "ArtinHomSpace", post=None,
                       pre=None) -> Mat:
        """Matrix of s -> post . s, or of s -> s . pre, from coordinates
        on this space to coordinates on U, the space it lands in.

        Post-composition acts on each generator image alone. For
        pre: M' -> M, write the generators of M' in the basis (j, m) of
        the free cover of M as E = section . pre . U.gens; generator k of
        M' then goes to sum_{j,m} E[(j,m), k] m . v_j, which on the
        stacked images is sum_m kron(E_m^T, A_m), E_m the rows (j, m).
        """
        f, mu = self.M.field, self.F.free_rank
        if post is not None:
            mat = block_diag(f, [post.matrix] * mu)
        else:
            E = pre.matrix @ U.gens
            if self.section is not None:
                E = self.section @ E
            monos = self.M.ring.basis_monos
            mat = Mat.zeros(f, self.N.dim * U.F.free_rank, self.N.dim * mu)
            for m, mono in enumerate(monos):
                E_m = E.take_rows(j * len(monos) + m for j in range(mu))
                mat = mat + E_m.transpose().kron(self.N.mono_action(mono))
        if self.basis_mat is not None:
            mat = mat @ self.basis_mat
        if U.basis_mat is None:
            return mat
        out = U.basis_mat.solve(mat)
        assert out is not None, "a composite of homs is a hom"
        return out


def _piece(N: GradedModule, blocks) -> dict:
    """The monomial basis (k, i, m) of degree blocks[k] of the free cover
    of N, once per block k, numbered in that order: m e_i with
    deg m = blocks[k] - twist i."""
    keys = [(k, i, m) for k, d in enumerate(blocks)
            for i, t in enumerate(N.gen_twists) if d >= t
            for m in N.ring.monomials(d - t)]
    return {key: r for r, key in enumerate(keys)}


def _row(rows: dict, key) -> int:
    r = rows.get(key)
    if r is None:
        raise ModuleError("hom is not homogeneous of degree zero")
    return r


def _multiples(ring, vecs, degs, blocks, rows: dict) -> Mat:
    """Columns m . v for each block k, each vector v of degree degs[v]
    (skipped when None) and each monomial m of degree blocks[k] - deg v,
    in that order, written in the rows (k, i, m') of block k."""
    triples, col = [], 0
    for k, d in enumerate(blocks):
        for v, dv in zip(vecs, degs):
            if dv is None or d < dv:
                continue
            for m in ring.monomials(d - dv):
                triples.extend((_row(rows, (k, i, mono_mul(mm, m))), col, c)
                               for (i, mm), c in v.terms.items())
                col += 1
    return Mat.from_triples(ring.field, len(rows), col, triples)


class GradedHomSpace:
    """k-basis of degree-0 Hom_R(M, N), coordinates modulo maps into relations.

    A hom is its entries (j, i, m), the coefficient of m e_i in the image
    of generator j of M: the rows _piece(N, twists of M). Every matrix
    here is built from _piece and _multiples. Coordinates are faithful:
    coords(f) == coords(g) iff f == g as homs.
    """

    def __init__(self, M: GradedModule, N: GradedModule):
        self.M, self.N = M, N
        self.pos = _piece(N, M.gen_twists)
        self.entry_index = list(self.pos)
        self._entries_of = [[] for _ in M.gen_twists]  # j -> (col, i, m)
        for col, (j, i, m) in enumerate(self.entry_index):
            self._entries_of[j].append((col, i, m))
        na = len(self.entry_index)
        # trivial homs: columns lying in the relation submodule of N
        self.triv = N.rel_multiples(M.gen_twists, self.pos).column_space_basis()
        # when every entry is a basis direction (no relation to kill and
        # no trivial hom), the coordinates are the entries themselves and
        # there is no quotient basis quot
        self._read_off = not M.rels and not self.triv.ncols
        if self._read_off:
            self.dim = na
            return
        if M.rels:
            # a hom kills relation k of M when its image of that relation
            # is a combination of multiples of the relations of N
            degs = [r.homogeneous_degree(M.gen_twists) for r in M.rels]
            rows = _piece(N, degs)
            kern = hstack([self._pre(M.rels, rows),
                           -N.rel_multiples(degs, rows)]
                          ).kernel_basis().take_rows(range(na))
        else:
            kern = Mat.identity(M.field, na)
        full = hstack([self.triv, kern])
        # quotient basis: pivot columns of [triv | kernel] beyond the triv block
        self.quot = full.take_columns(
            c for c in full.rref()[1] if c >= self.triv.ncols)
        self.dim = self.quot.ncols
        self._solve_block = hstack([self.triv, self.quot])

    def _pre(self, vecs, rows: dict) -> Mat:
        """Matrix from the entries of a hom s to the images under s of
        vecs (vectors over the generators of M): the image of vecs[k],
        in the rows (k, i, m) of rows."""
        triples = [(_row(rows, (k, i, mono_mul(mu, m))), col, c)
                   for k, v in enumerate(vecs)
                   for (j, m), c in v.terms.items()
                   for col, i, mu in self._entries_of[j]]
        return Mat.from_triples(self.M.field, len(rows), len(self.pos), triples)

    def _coords(self, v: Mat) -> Mat:
        """Coordinates of the homs whose entries are the columns of v."""
        if self._read_off:
            return v
        sol = self._solve_block.solve(v)
        if sol is None:
            raise ModuleError("hom outside the computed hom space")
        return sol.take_rows(range(self.triv.ncols, self.triv.ncols + self.dim))

    def _hom_from_entry_vec(self, col: Mat) -> GradedHom:
        f = self.M.field
        cols = [{} for _ in range(self.M.ngens)]
        for (j, i, m), c in zip(self.entry_index, col.col_entries(0)):
            cols[j][(i, m)] = c
        return GradedHom(self.M, self.N,
                         [PolyVec(f, self.M.ring.nvars, t) for t in cols])

    def basis_hom(self, i: int) -> GradedHom:
        # with read-off coordinates, coordinate i is entry i
        return self._hom_from_entry_vec(
            Mat.units(self.M.field, self.dim, [i]) if self._read_off
            else self.quot.take_columns([i]))

    def coords(self, h: GradedHom) -> Mat:
        triples = [(_row(self.pos, (j, i, m)), 0, c)
                   for j, col in enumerate(h.cols)
                   for (i, m), c in col.terms.items()]
        return self._coords(Mat.from_triples(self.M.field, len(self.pos), 1,
                                             triples))

    def from_coords(self, c: Mat) -> GradedHom:
        if self.dim == 0:
            return zero_hom(self.M, self.N)
        if c.shape != (self.dim, 1):
            raise ModuleError(f"{c.shape} coordinates for a hom space of "
                              f"dimension {self.dim}")
        return self._hom_from_entry_vec(c if self._read_off
                                        else self.quot @ c)

    def compose_matrix(self, U: "GradedHomSpace", post=None,
                       pre=None) -> Mat:
        """Matrix of s -> post . s, or of s -> s . pre, from coordinates
        on this space to coordinates on U, the space it lands in.

        Entry (j, i, m) of s sends generator j to m times column i of
        post, so post . s has the entries of the multiples of the columns
        of post; s . pre has the images under s of the columns of pre.
        """
        if post is not None:
            mat = _multiples(post.target.ring, post.cols, self.N.gen_twists,
                             self.M.gen_twists, U.pos)
        else:
            mat = self._pre(pre.cols, U.pos)
        return U._coords(mat if self._read_off else mat @ self.quot)


def hom_space(M, N):
    if M.mode == "artin":
        return ArtinHomSpace(M, N)
    return GradedHomSpace(M, N)


# ------------------------------------------------------------ isomorphism


def top_matrices(homs):
    """Matrices of h (x) k : M/mM -> N/mN for homs h: M -> N with one M, N.

    This is the one routine for h (x) k: the level-one test, the
    isomorphism search and the Tor ranks of a free resolution read it.

    Columns follow the minimal generators of M; rows are a basis of the
    functionals on N that vanish on mN. By Nakayama a hom is surjective
    exactly when its matrix has full row rank.
    """
    M, N = homs[0].source, homs[0].target
    if M.mode == "artin":
        gens = hstack(M.min_gens())
        ann = N.radical_span().transpose().kernel_basis().transpose()
        return [ann @ h.matrix @ gens for h in homs]
    f, zero = M.field, (0,) * M.ring.nvars

    def top(v):  # coefficients of the generators of N in degree 0 of v
        return [v.terms.get((i, zero), f.zero) for i in range(N.ngens)]

    # N/mN is k^ngens modulo the constant parts of the relations
    ann = Mat(f, len(N.rels), N.ngens,
              [top(r) for r in N.rels]).kernel_basis().transpose()
    idx = M.min_gens_indices()
    return [ann @ Mat(f, len(idx), N.ngens,
                      [top(h.cols[j]) for j in idx]).transpose()
            for h in homs]


def find_isomorphism(M, N):
    """('iso', hom) | ('not_iso', reason) | ('inconclusive', None).

    Once M and N agree on their invariants, a hom onto the minimal
    generators of N is onto N, and a surjection is an isomorphism unless
    the dimensions (or Hilbert functions past the compared window) differ.
    """
    if M.invariants() != N.invariants():
        return ("not_iso", "invariant mismatch")
    if M.is_zero_module():
        return ("iso", zero_hom(M, N))
    H = hom_space(M, N)
    if H.dim == 0:
        return ("not_iso", "no nonzero homs")
    basis = [H.basis_hom(j) for j in range(H.dim)]
    verdict, found = full_rank_combination(M.field, [top_matrices(basis)])
    if verdict == "none":
        return ("not_iso", f"no hom is onto the generators: {found}")
    if verdict == "inconclusive":
        return ("inconclusive", None)
    cand = H.from_coords(Mat.column(M.field, found))
    if cand.is_iso():
        return ("iso", cand)
    return ("not_iso", "a surjection is not injective")
