"""Timing wrappers installed on levelcert from outside.

`Tracer.install()` replaces public functions and methods of each layer
module with wrappers that record a span (name, start, end, parent) and
bump counters.  Modules import functions by name (`from .linalg import
hstack`), so a function is replaced at every binding site: in every
loaded levelcert module whose namespace holds the original object.
Methods are replaced on their class.  `install()` raises `LookupError`
naming every target it could not find, so a refactor of the program
that renames or inlines one makes the traced run fail instead of
reading a lost measurement as zero.

Spans live in flat arrays and are written out once, at the end.  A
layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("linalg", "grobner", "rings", "modules", "complexes",
          "resolutions", "adams", "level", "cli")

# public entry points per layer module; "Class.method" names a method
SPANS = {
    "linalg": ["Mat.rref", "Mat.solve", "Mat.kernel_basis", "Mat.inverse",
               "Mat.column_space_basis", "Mat.in_column_space",
               "Mat.__matmul__", "Mat.kron", "Mat.from_rows", "hstack",
               "vstack", "block_diag", "subspace_basis",
               "extend_to_basis"],
    "grobner": ["buchberger", "syzygies", "schreyer_syzygies",
                "normal_form", "GroebnerBasis.express",
                "GroebnerBasis.express_in_inputs"],
    "rings": ["make_ring", "ArtinRing.mult_matrix", "ArtinRing.regular_rep"],
    "modules": ["hom_space", "find_isomorphism", "free_cover",
                "direct_sum", "free_hom", "free_hom_from_polys",
                "ArtinModule.dual", "ArtinModule.min_gens",
                "ArtinModule.is_free", "ArtinHom.kernel", "ArtinHom.image",
                "ArtinHom.cokernel", "ArtinHom.lift_through",
                "ArtinHom.factor_through", "ArtinHom.solve_preimage",
                "ArtinHom.is_iso", "GradedModule.min_gens_indices",
                "GradedModule.hilbert", "GradedModule.is_free",
                "GradedHom.kernel", "GradedHom.image",
                "GradedHom.cokernel", "GradedHom.lift_through",
                "GradedHom.factor_through", "GradedHom.solve_preimage",
                "GradedHom.is_iso", "ArtinHomSpace.coords",
                "ArtinHomSpace.from_coords", "GradedHomSpace.coords",
                "GradedHomSpace.from_coords"],
    "complexes": ["ChainMapSpace.__init__", "ChainMapSpace.class_space",
                  "ChainMapSpace.class_coords",
                  "ChainMapSpace.chain_map_basis",
                  "ChainMapSpace.homotopy_image",
                  "ChainMapSpace.null_homotopy",
                  "ChainMapSpace.class_representative",
                  "HomologyData._homology_parts", "HomologyData.cycles",
                  "HomologyData._image_of_diff", "HomologyData.cmod",
                  "Complex.dual", "ChainMap.induced_on_homology",
                  "Triangle.verify", "cone", "is_quasi_iso"],
    "resolutions": ["semiprojective_resolution", "minimal_free_resolution",
                    "dimension_report", "depth_of", "tr_screen",
                    "ext_dims_into_ring", "reflexivity_map",
                    "ring_dual_module", "Resolution.is_minimal"],
    "adams": ["adams_step_proj", "adams_step_inj", "adams_tower",
              "verify_splice", "splice_complex", "homology_stalks",
              "AdamsTower.ghost_composite"],
    "level": ["level_report", "level_one_test", "upper_certificate",
              "ghost_lower_bound", "upper_via_cycle_boundary",
              "upper_via_stratification", "upper_via_tower", "bass_check",
              "module_in_class", "homology_class_check", "_replacement",
              "LevelCertificate.verify", "UpperCertificate.verify",
              "LowerCertificate.verify"],
    "cli": ["parse", "run_command"],
}

# span name -> counter bumped once per call
COUNTED = {
    "linalg.Mat.solve": "linalg.solve_calls",
    "grobner.buchberger": "grobner.calls",
    "grobner.syzygies": "grobner.calls",
    "modules.hom_space": "modules.hom_space_calls",
    "complexes.ChainMapSpace.__init__": "complexes.chain_map_spaces",
    "resolutions.semiprojective_resolution": "resolutions.resolution_calls",
    "adams.adams_step_proj": "adams.cover_steps",
    "level.level_one_test": "level.level_one_calls",
}

# span name -> (maximum, size of the result)
MAXIMA = {
    "modules.hom_space": ("modules.hom_space_max_dim", lambda h: h.dim),
    "resolutions.semiprojective_resolution": (
        "resolutions.max_rank", lambda res: max(res.ranks.values(),
                                                default=0)),
}

CERTIFICATE_TYPES = ("UpperCertificate", "LowerCertificate",
                     "LevelCertificate")

PACKAGE = "levelcert"


class Tracer:
    def __init__(self):
        self.missing: list = []        # wrap targets not found
        self.names: list = []          # span name table
        self.name_ids: dict = {}
        self.layer_of: list = []       # name id -> layer index
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    # ---------------------------------------------------------- spans

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(name.split(".", 1)[0]))
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_start.append(time.perf_counter())
        self.s_end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.s_end[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        """fn wrapped in a span; calls of COUNTED names are counted and
        MAXIMA names record the largest size of a result."""
        counter = COUNTED.get(name)
        size = MAXIMA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                self.counts[counter] += 1
            if size:
                key, measure = size
                self.maxima[key] = max(self.maxima[key], measure(result))
            return result
        return wrapper

    # ---------------------------------------------------------- install

    @staticmethod
    def _module(layer: str):
        return sys.modules[f"{PACKAGE}.{layer}"]

    def _replace(self, layer: str, attr: str, make):
        """Replace layer.attr (a function or Class.method) by make(orig);
        a target that does not exist is added to self.missing."""
        mod = self._module(layer)
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            orig = owner.__dict__.get(meth) if owner is not None else None
            if orig is None:
                self.missing.append(f"{layer}.{attr}")
                return
            if isinstance(orig, staticmethod):
                setattr(owner, meth, staticmethod(make(orig.__func__)))
            else:
                setattr(owner, meth, make(orig))
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.append(f"{layer}.{attr}")
            return
        new = make(orig)
        for name, m in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)

    def install(self):
        """Wrap every target; raise LookupError if any is missing."""
        for layer, attrs in SPANS.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                self._replace(layer, attr,
                              lambda fn, name=name: self.span(name, fn))
        self._install_counters()
        level = self._module("level")
        self.missing += [f"level.{n}" for n in CERTIFICATE_TYPES
                         if not hasattr(level, n)]
        if self.missing:
            raise LookupError("tracer targets not found: "
                              + ", ".join(self.missing))
        # every counter reads 0 until its first call, never absent
        for key in COUNTED.values():
            self.counts[key] = 0
        for key, _ in MAXIMA.values():
            self.maxima[key] = 0

    def _install_counters(self):
        c, mx = self.counts, self.maxima
        c.update(dict.fromkeys(
            ("linalg.rref_calls", "linalg.rref_cells", "linalg.mat_builds",
             "complexes.homology_calls", "level.candidate_maps"), 0))
        mx["linalg.rref_max_cells"] = 0

        def count_rref(fn):
            # rref caches its result on the matrix: count eliminations only
            @functools.wraps(fn)
            def wrapper(mat, *args, **kwargs):
                if mat._rref is None:
                    cells = mat.nrows * mat.ncols
                    c["linalg.rref_calls"] += 1
                    c["linalg.rref_cells"] += cells
                    mx["linalg.rref_max_cells"] = max(
                        mx["linalg.rref_max_cells"], cells)
                return fn(mat, *args, **kwargs)
            return wrapper

        def count_builds(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                c["linalg.mat_builds"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_homology(fn):
            # homology is cached per degree: count computations only
            @functools.wraps(fn)
            def wrapper(hd, i):
                if i not in hd._hom:
                    c["complexes.homology_calls"] += 1
                return fn(hd, i)
            return wrapper

        def count_yields(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    c["level.candidate_maps"] += 1
                    yield item
            return wrapper

        self._replace("linalg", "Mat.rref", count_rref)
        self._replace("linalg", "Mat.__init__", count_builds)
        self._replace("complexes", "HomologyData._homology_parts",
                      count_homology)
        self._replace("level", "_iter_class_maps", count_yields)

    # ---------------------------------------------------------- results

    def live_certificates(self) -> int:
        """Certificate objects still reachable at the end of the run."""
        level = self._module("level")
        types = tuple(getattr(level, n) for n in CERTIFICATE_TYPES)
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, types))

    def arrays(self):
        return (np.frombuffer(self.s_name, dtype=np.int32),
                np.frombuffer(self.s_parent, dtype=np.int32),
                np.frombuffer(self.s_start, dtype=np.float64),
                np.frombuffer(self.s_end, dtype=np.float64))

    def self_times(self) -> dict:
        """Per-layer self time: span durations minus direct children."""
        name, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        layer = np.asarray(self.layer_of, dtype=np.int64)[name] \
            if len(name) else np.zeros(0, dtype=np.int64)
        per = np.bincount(layer, weights=dur - child,
                          minlength=len(LAYERS))
        return {f"{lay}.self_s": float(per[i])
                for i, lay in enumerate(LAYERS)}

    def inclusive(self, span_name: str) -> float:
        """Total time in the spans of one name (used for names that do
        not nest)."""
        nid = self.name_ids.get(span_name)
        if nid is None:
            return 0.0
        name, _, start, end = self.arrays()
        return float(np.sum((end - start)[name == nid]))

    def save(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
