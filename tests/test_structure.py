"""Canonical factors, structure groups, and degree-k bundle
decomposition."""

import dataclasses
import random
from functools import partial

import pytest

from nilcube import cohomology as coh
from nilcube import cubes as cb
from nilcube import groups as gr
from nilcube import structure as stc
from nilcube.cubespace import (ExplicitCubespace, GroupCubespace, abelian_Dk, check_axioms,
                               equivalence_violation)


def test_heisenberg_level1_classes_are_centre_cosets(heis2_space, heis2):
    G, filt = heis2
    classes = stc.sim_classes(heis2_space, 1)
    assert classes == [[0, 4], [1, 5], [2, 6], [3, 7]]
    centre = filt.subgroup(2)
    for cls in classes:
        rep = cls[0]
        coset = {G.op(rep, z) for z in centre}
        assert set(cls) == coset
    assert equivalence_violation(range(heis2_space.size),
                                 partial(stc.related_k, heis2_space, 1)) is None


def test_factor_of_heisenberg_is_the_abelianization(heis2_space, heis2):
    G, filt = heis2
    F = stc.factor(heis2_space, 1)
    assert F.size == 4
    rep = check_axioms(F, 3)
    assert rep.is_nilspace and rep.step == 1
    # the factor is the degree-1 structure on G/G_2
    Q, proj = gr.quotient(G, filt.subgroup(2))
    ref = abelian_Dk(Q, 1)
    relabel = {F.project(x): proj(x) for x in range(G.order)}
    for n in (1, 2):
        got = {tuple(relabel[c] for c in q) for q in F.cubes(n)}
        assert got == ref.cubes(n)


def test_factor_at_top_level_is_identity_relabelling(d2z2):
    F = stc.factor(d2z2, 2)
    assert F.size == d2z2.size
    for n in (1, 2, 3):
        got = {tuple(F.project(x) for x in q) for q in d2z2.cubes(n)}
        assert got == F.cubes(n)


def test_local_translation_is_a_fibre_bijection(heis2_space):
    t = stc.local_translation(heis2_space, 2, 0, 4)
    assert set(t.keys()) == {0, 4}
    assert set(t.values()) == {0, 4}
    assert t[0] == 4


def test_structure_group_of_d2z2(d2z2):
    sg = stc.structure_group(d2z2, 2)
    assert sg.invariants == (2,)
    assert sg.fibre == [0, 1]
    # the action is addition mod 2
    for a in range(2):
        for x in range(2):
            assert sg.act(a, x) == (a + x) % 2


def test_structure_group_of_heisenberg_top_level(heis2_space, heis2):
    G, filt = heis2
    sg = stc.structure_group(heis2_space, 2)
    assert sg.invariants == (2,)
    assert set(sg.fibre) == set(filt.subgroup(2))
    # the action is right multiplication by the centre element
    z = [g for g in sg.fibre if g != 0][0]
    for x in range(G.order):
        assert sg.act(sg.fibre.index(z), x) == G.op(x, z)


def test_decompose_d2z2(d2z2):
    dec = stc.decompose(d2z2, n_max=3)
    assert dec.step == 2
    assert [lvl.group_invariants for lvl in dec.levels] == [(), (2,)]
    assert dec.factors[0].size == 1
    assert dec.factors[1].size == 1
    assert dec.factors[2].size == 2


def test_decompose_heisenberg(heis2_space, heis2):
    G, filt = heis2
    dec = stc.decompose(heis2_space, n_max=3)
    assert dec.step == 2
    assert [lvl.group_invariants for lvl in dec.levels] == [(2, 2), (2,)]
    # both invariants independently from the group side
    Q, _ = gr.quotient(G, filt.subgroup(2))
    assert gr.abelian_invariants(Q) == (2, 2)
    assert len(filt.subgroup(2)) == 2
    assert [f.size for f in dec.factors] == [1, 4, 8]


def test_decompose_coset_space(coset_space):
    dec = stc.decompose(coset_space, n_max=3)
    assert dec.step == 2
    assert all(lvl.verified_dims == (1, 2, 3) for lvl in dec.levels)


def test_bundle_verification_rejects_doctored_action(d2z2):
    sg = stc.structure_group(d2z2, 2)
    bad = stc.StructureGroup(
        sg.k, sg.base_point, sg.fibre, sg.group, sg.invariants,
        [[0, 1], [0, 1]],  # the non-identity element acts trivially
    )
    base = stc.factor(d2z2, 1)
    ext = stc.ExtensionData(d2z2, base, base.image, bad.group, 2, bad.act)
    assert stc.verify_degree_k_bundle(ext, 2) == ("action", 0)


def _d1z2_extension():
    """The trivial degree-1 extension M(0) -> D_1(Z/2) by Z/2."""
    X = abelian_Dk(gr.CyclicProduct((2,)), 1)
    A = gr.FiniteAbelianGroup((2,))
    return coh.build_extension(coh.coboundary_of(X, [0, 0], 1, A)).as_extension_data()


def test_bundle_verification_witnesses_each_failure(d2z2):
    ext = _d1z2_extension()
    assert stc.verify_degree_k_bundle(ext, 3) is None
    squares = sorted(ext.X.cubes(2))
    # a base that lacks a square: some cube upstairs projects outside it
    fewer = ExplicitCubespace(2, {1: ext.X.cubes(1), 2: squares[1:]}, step=1)
    bad = stc.verify_degree_k_bundle(dataclasses.replace(ext, X=fewer), 2)
    assert bad[:2] == ("projection-not-cube", 2)
    assert tuple(ext.pi[y] for y in bad[2]) == squares[0]
    # a base with a square no cube upstairs projects to
    more = ExplicitCubespace(2, {1: ext.X.cubes(1), 2: squares + [(0, 0, 0, 1)]}, step=1)
    assert stc.verify_degree_k_bundle(dataclasses.replace(ext, X=more), 2) == (
        "projection-not-onto", 2, (0, 0, 0, 1))
    # D_2(Z/2) over a point is a degree-2 bundle, not a degree-1 one: the
    # 16 squares over the point are more than the 8 degree-1 perturbations
    top = stc.decompose(d2z2, n_max=2).extensions[1]
    assert stc.verify_degree_k_bundle(top, 2) is None
    assert stc.verify_degree_k_bundle(dataclasses.replace(top, k=1), 2) == (
        "fibre-correspondence", 2, (0, 0, 0, 0))


_DECOMPOSE_SPACES = pytest.mark.parametrize(
    "space", ["heis2_space", "coset_space", "d1z2", "d1z3", (4, 1), "d2z2", (3, 2)],
    ids=["H2", "coset", "D1(Z/2)", "D1(Z/3)", "D1(Z/4)", "D2(Z/2)", "D2(Z/3)"])


def _decompose_space(space, request):
    """A fixture space, or D_k(Z/m) for space = (m, k)."""
    if isinstance(space, tuple):
        return abelian_Dk(gr.CyclicProduct((space[0],)), space[1])
    return request.getfixturevalue(space)


@_DECOMPOSE_SPACES
def test_every_decompose_level_is_a_degree_k_bundle(space, request):
    X = _decompose_space(space, request)
    dec = stc.decompose(X, n_max=3)
    assert len(dec.extensions) == dec.step
    for i, ext in enumerate(dec.extensions, start=1):
        assert ext.k == i and ext.Y is dec.factors[i] and ext.X is dec.factors[i - 1]
        for n_max in (2, 3):
            assert stc.verify_degree_k_bundle(ext, n_max) is None


@_DECOMPOSE_SPACES
def test_every_factor_cube_set_is_the_projected_set(space, request):
    X = _decompose_space(space, request)
    factors = stc.decompose(X, n_max=2).factors
    # the top factor projects by the identity and shares X's cube sets
    assert factors[-1].image == list(range(X.size))
    for n in range(1, X.step + 2):
        assert factors[-1].cubes(n) is X.cubes(n)
        for F in factors:
            assert F.cubes(n) == {tuple(F.image[x] for x in q) for q in X.cubes(n)}


def test_decompose_names_the_level_that_is_not_a_bundle(d2z2, monkeypatch):
    real = stc.structure_group

    def doctored(X, k):
        sg = real(X, k)
        if k == 2:
            sg.action = [list(range(X.size))] * len(sg.fibre)
        return sg

    monkeypatch.setattr(stc, "structure_group", doctored)
    with pytest.raises(ValueError, match=r"level 2 is not a degree-2 bundle: \('action', 0\)"):
        stc.decompose(d2z2, n_max=2)


def test_fibre_is_a_torsor(heis2_space):
    # the structure group acts simply transitively on each level-1 fibre
    sg = stc.structure_group(heis2_space, 2)
    for x in range(heis2_space.size):
        orbit = {sg.act(a, x) for a in range(len(sg.fibre))}
        assert len(orbit) == len(sg.fibre)
        fibre = {y for y in range(heis2_space.size) if stc.related_k(heis2_space, 1, x, y)}
        assert orbit == fibre


def test_analyze_morphism(heis2_space, heis2):
    G, filt = heis2
    F = stc.factor(heis2_space, 1)
    ok, wit = stc.analyze_morphism([F.project(x) for x in range(G.order)], heis2_space, F, 2)
    assert ok and wit is None
    # a non-morphism: swap two points in one fibre only at the source
    f = list(range(G.order))
    f[0], f[1] = 1, 0
    ok2, wit2 = stc.analyze_morphism(f, heis2_space, heis2_space, 2)
    assert not ok2 and wit2 is not None


def test_lift_cube_through_factor(heis2_space):
    F = stc.factor(heis2_space, 1)
    rng = random.Random(3)
    base_cubes = sorted(F.cubes(2))
    for _ in range(20):
        qbar = rng.choice(base_cubes)
        q = F.lift(2, qbar)
        assert q is not None
        assert heis2_space.membership(2, q)
        assert tuple(F.project(x) for x in q) == qbar


def test_lift_cube_through_returns_the_first_lift_of_the_scan(heis2_space):
    # the scan assigns vertices in colex order and tries each fibre in
    # increasing order, so the first lift is the least cube over qbar (the
    # greatest with every fibre reversed, the second lift that
    # cohomology.cross_section_cocycle scans for)
    F = stc.factor(heis2_space, 1)
    over = {}
    for q in heis2_space.cubes(2):
        over.setdefault(F.project_cube(q), []).append(q)
    for qbar, qs in over.items():
        assert F.lift(2, qbar) == min(qs)
        reversed_fibres = [F.fibres[b][::-1] for b in qbar]
        assert next(heis2_space._scan_maps(2, False, reversed_fibres)) == max(qs)
    assert F.fibres == [[x for x in range(heis2_space.size) if F.project(x) == b]
                        for b in range(F.size)]
    assert F.lift(1, (0, 0)) is not None
    with pytest.raises(ValueError):
        F.lift(1, (0, F.size))
