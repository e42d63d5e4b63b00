from dataclasses import FrozenInstanceError

import pytest

import levelcert.adams
from levelcert.level import level_report
from levelcert.rings import make_ring
from levelcert.modules import (artin_free, artin_residue_field,
                               find_isomorphism, graded_residue_field)
from levelcert.complexes import ChainMap, module_stalk
from levelcert.resolutions import koszul_complex
from levelcert.adams import (adams_step_proj, adams_step_inj, adams_tower,
                             homology_stalks, splice_complex, verify_splice)


@pytest.fixture(scope="module")
def A():
    return make_ring("artin(F2; x | x^2)")


@pytest.fixture(scope="module")
def R2():
    return make_ring("poly(F101; x, y)")


def k_stalk(ring):
    return module_stalk(ring, artin_residue_field(ring))


def test_a_cover_step_is_read_only(A):
    # every tower through a complex reads the one step it keeps, so no
    # reader may change it for the next
    st = adams_step_proj(k_stalk(A))
    with pytest.raises(FrozenInstanceError):
        st.omega = st.m
    with pytest.raises(TypeError):
        st.cover[1] = st.cover[0]


def test_towers_through_a_complex_share_its_steps(A):
    K = koszul_complex(A)
    short, long = adams_tower(K, 1), adams_tower(K, 3)
    assert short.steps[0] is long.steps[0]
    assert len(short.steps) == len(list(short.walk(5))) == 1
    assert long.steps[1] is adams_tower(long.steps[0].omega, 1).steps[0]
    assert adams_step_inj(K) is adams_tower(K.dual(), 1).steps[0]


def test_step_on_residue_field(A):
    # H(k) = k needs one generator, so the cover is the rank-1 free module
    m = k_stalk(A)
    st = adams_step_proj(m)
    assert list(st.F.support()) == [0]
    assert st.F.module(0).free_rank == 1
    assert st.phi.induced_on_homology(0).is_surjective()
    # over F2[x]/(x^2) the first syzygy layer of k is k again; the tower
    # keeps it suspended once, so its degree 0 is degree 1 of the cone
    h = st.omega.hdata().homology(1)
    verdict, _ = find_isomorphism(h, m.module(0))
    assert verdict == "iso"


def test_step_cover_of_two_homology_degrees(A):
    # the unit Koszul complex has k in degrees 0 and 1, one cover rank each
    K = koszul_complex(A)
    st = adams_step_proj(K)
    assert sorted(st.F.support()) == [0, 1]
    assert st.F.module(0).free_rank == 1
    assert st.F.module(1).free_rank == 1
    for i in (0, 1):
        assert st.phi.induced_on_homology(i).is_surjective()


def test_connecting_map_kills_homology(A):
    K = koszul_complex(A)
    st = adams_step_proj(K)
    assert st.delta.induces_zero_on_homology()


def test_splice_residue_field_one_layer(A):
    # 0 -> k -> A -> k -> 0 in degree 0
    m = k_stalk(A)
    tw = adams_tower(m, 1)
    sp = splice_complex(tw.steps, 0)
    dims = [sp.module(j).dim for j in range(3)]
    assert dims == [1, 2, 1]
    assert sp.is_exact()


def test_splice_tower_depth_three(A):
    m = k_stalk(A)
    tw = adams_tower(m, 3)
    rep = verify_splice(tw)
    assert rep["ok"]
    assert rep["layers"] == 3
    # periodic layers: every cover has rank 1, in degree 0 of L_s, which
    # is degree s of the suspended layer T_s the step covers
    for s, step in enumerate(tw.steps):
        assert step.F.support() == [s]
        assert step.F.module(s).free_rank == 1


def test_splice_koszul_layers(A):
    K = koszul_complex(A)
    tw = adams_tower(K, 2)
    rep = verify_splice(tw)
    assert rep["ok"]
    assert set(rep["per_degree"]) >= {0, 1}


def test_free_stalk_cover_splices(A):
    # the minimal cover of a free stalk has its rank and splices exactly
    F = artin_free(A, 1)
    m = module_stalk(A, F)
    tw = adams_tower(m, 1)
    assert tw.steps[0].F.module(0).free_rank == 1
    assert verify_splice(tw)["ok"]


def test_tower_stops_on_exact_layer(A):
    # a free module resolves itself in one step, the tower ends there
    F = artin_free(A, 1)
    m = module_stalk(A, F)
    tw = adams_tower(m, 4)
    assert len(tw.steps) == 1
    assert all(tw.steps[0].omega.hdata().homology(i).is_zero_module()
               for i in tw.steps[0].omega.support())


def test_ghost_composite_is_chain_map(A):
    m = k_stalk(A)
    tw = adams_tower(m, 3)
    g2, factors = tw.ghost_composite(2)
    assert g2.source == m
    # target is layer 2, kept suspended twice as the cone T_2
    assert g2.target is tw.steps[1].omega
    assert len(factors) == 2
    assert all(d.induces_zero_on_homology() for d in factors)
    # recheck commuting squares explicitly
    ChainMap(g2.source, g2.target, g2.comps).checked()


def test_graded_tower_and_splice(R2):
    # over F101[x, y]: H(layer 1) of k is the maximal ideal, splice is
    # 0 -> (x, y) -> R -> k -> 0
    m = module_stalk(R2, graded_residue_field(R2))
    tw = adams_tower(m, 2)
    rep = verify_splice(tw)
    assert rep["ok"]
    st = tw.steps[0]
    assert st.F.module(0).free_rank == 1
    # degree 0 of layer 1 is degree 1 of the cone the tower keeps
    h = st.omega.hdata().homology(1)
    # two generators, each of internal degree 1
    assert h.ngens == 2
    assert h.gen_twists == [1, 1]


def test_inj_step_embeds_homology(A):
    # the envelope step of m is the cover step of its dual: the cover is
    # onto H(m^v), so its dual psi: m -> E = F^v embeds H(m), and the dual
    # of the next layer is the cokernel layer shifted down once, with
    # homology k in degree -1
    m = k_stalk(A)
    st = adams_step_inj(m)
    assert st.m is m.dual()
    assert st.phi.induced_on_homology(0).is_surjective()
    assert st.F.dual().module(0).dim == 2
    psi = st.phi.dual()
    assert psi.source == m
    assert psi.induced_on_homology(0).is_injective()
    h = st.omega.dual().hdata().homology(-1)
    verdict, _ = find_isomorphism(h, m.module(0))
    assert verdict == "iso"


def test_inj_tower_coghost(A):
    # the coghost composite into K is the dual of a ghost composite out
    # of the dual complex
    K = koszul_complex(A)
    tw = adams_tower(K.dual(), 2)
    rep = verify_splice(tw)
    assert rep["ok"]
    cg = tw.ghost_composite(2)[0].dual()
    assert cg.target == K.dual().dual()
    ChainMap(cg.source, cg.target, cg.comps).checked()


def test_homology_stalks_helper(A):
    K = koszul_complex(A)
    hs = homology_stalks(K)
    assert sorted(hs.support()) == [0, 1]
    assert all(hs.module(i).dim == 1 for i in (0, 1))
    assert hs.is_zero_complex() is False


def test_each_reader_walks_the_tower_once(monkeypatch):
    # over poly(F101; x, y, z) the tower of k has 4 steps; the splice
    # reads each of them once, and one level report takes one walk per
    # reader (the upper route, its summary, the search size and the
    # composite it tests), not one walk per step it reads
    R3 = make_ring("poly(F101; x, y, z)")
    calls, cover_step = [], levelcert.adams.cover_step

    def counted(m):
        calls.append(m)
        return cover_step(m)

    monkeypatch.setattr(levelcert.adams, "cover_step", counted)
    k = module_stalk(R3, graded_residue_field(R3))
    rep = verify_splice(adams_tower(k, 4))
    assert rep["ok"] and rep["layers"] == 4
    assert len(calls) == 4
    calls.clear()
    k = module_stalk(R3, graded_residue_field(R3))
    cert = level_report(k, "proj", budget=4)
    assert cert.verdict == ("exact", 4)
    assert len(set(map(id, calls))) == 4 and len(calls) <= 20
