"""Translation groups, translation cubes, and lifting through the top
factor."""

import itertools

import pytest

from nilcube import cubegroups as cg
from nilcube import groups as gr
from nilcube import translations as tr
from nilcube.cubespace import GroupCubespace, abelian_Dk
from nilcube.structure import factor, structure_group


def test_translations_of_d1zm_are_exactly_the_shifts():
    for m in (2, 3, 4):
        X = abelian_Dk(gr.CyclicProduct((m,)), 1)
        found = set(tr.translation_group(X, 1))
        shifts = {tuple((x + c) % m for x in range(m)) for c in range(m)}
        assert found == shifts
        # cross-check the sufficiency shortcut against the raw definition
        for alpha in itertools.permutations(range(m)):
            fast = tr.is_translation(X, alpha, 1)
            slow = tr.is_translation(X, alpha, 1, all_dims=True, n_max=3)
            assert fast == slow
            assert fast == (alpha in shifts)


def test_translation_tower_of_d2z2(d2z2):
    tower = tr.translation_tower(d2z2)
    assert [len(h) for h in tower.heights] == [2, 2]
    assert tr.translation_action_transitive(tower)
    assert gr.validate_filtration(tower.filtration) is None


def test_translation_tower_of_heisenberg(heis2_space, heis2, heis2_tower):
    G, filt = heis2
    tower = heis2_tower
    assert [len(h) for h in tower.heights] == [32, 2]
    assert tr.translation_action_transitive(tower)
    # left multiplications are height-1 translations
    for g in G.elements():
        alpha = tuple(G.op(g, x) for x in G.elements())
        assert alpha in set(tower.bijections)
    # Tran_2 is exactly the structure-group action at the top level
    sg = structure_group(heis2_space, 2)
    tran2 = {tower.bijections[j] for j in tower.heights[1]}
    acts = {tuple(sg.act(a, x) for x in range(G.order)) for a in range(len(sg.fibre))}
    assert tran2 == acts


def test_tran_k_matches_structure_group_on_coset_space(coset_space):
    tower = tr.translation_tower(coset_space)
    sg = structure_group(coset_space, 2)
    tran2 = {tower.bijections[j] for j in tower.heights[1]}
    acts = {
        tuple(sg.act(a, x) for x in range(coset_space.size))
        for a in range(len(sg.fibre))
    }
    assert tran2 == acts


def test_generated_group_recovers_tower(d2z2):
    tower = tr.translation_tower(d2z2)
    gen = tr.generated_translation_group(d2z2, 1, tower.bijections[1:2])
    assert set(gen) <= set(tower.bijections)


def _translation_cubes(tower, n):
    """The maps q(v) = c(v)(x): c an n-cube of the translation filtration
    (its values are tower elements), x a point."""
    return {tuple(tower.bijections[a][x] for a in c)
            for c in cg.enumerate_cubes(tower.filtration, n) for x in range(tower.X.size)}


def test_translation_cube_test_exhausts_d2z2(d2z2):
    tower = tr.translation_tower(d2z2)
    assert _translation_cubes(tower, 3) == d2z2.cubes(3)


def test_translation_cubes_are_cubes(heis2_space, heis2_tower):
    assert _translation_cubes(heis2_tower, 2) <= heis2_space.cubes(2)


def test_brute_force_cap():
    G, filt = gr.make_heisenberg(3)
    X = GroupCubespace(filt)
    with pytest.raises(ValueError):
        tr.translation_group(X, 1)


def test_translation_bundle_and_lift_on_d2z2(d2z2):
    # the 1-factor of a degree-2 structure on Z/2 is one point, so the
    # only base translation is the identity; the bundle machinery must
    # still validate and find a lift
    tb = tr.translation_bundle(d2z2, [0], i=1)
    assert tb.extension_report is None
    res = tr.try_lift_translation(d2z2, [0], i=1)
    assert res.found
    assert res.searched >= 1
    assert tr.is_translation(d2z2, res.beta, 1)


def test_lift_translation_on_heisenberg_factor(heis2_space):
    base = factor(heis2_space, 1)
    # a genuine height-1 translation of the 4-point factor
    cands = tr.translation_group(base, 1)
    moved = [a for a in cands if a != tuple(range(base.size))]
    abar = moved[0]
    # n_max=2 keeps the section scan cheap; the found lift is certified
    # independently by is_translation below
    res = tr.try_lift_translation(heis2_space, abar, i=1, n_max=2)
    assert res.found
    beta = res.beta
    assert tr.is_translation(heis2_space, beta, 1)
    for x in range(heis2_space.size):
        assert base.project(beta[x]) == abar[base.project(x)]
