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
from nilcube.cubespace import (CosetCubespace, Cubespace, ExplicitCubespace, GroupCubespace,
                               ProductCubespace, abelian_Dk, check_axioms, equivalence_violation)
from oracles import abelian_invariants_by_torsion, analyze_morphism, \
    structure_group_by_local_translations, verify_degree_k_bundle_by_projection


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
    Q = gr.QuotientGroup(G, filt.subgroup(2))
    ref = abelian_Dk(Q, 1)
    relabel = {F.project(x): Q.project(x) for x in range(G.order)}
    for n in (1, 2):
        got = {tuple(relabel[c] for c in q) for q in F.cubes(n)}
        assert got == ref.cubes(n)


def test_factor_at_top_level_is_identity_relabelling(d2z2):
    F = stc.factor(d2z2, 2)
    assert F.size == d2z2.size
    for n in (1, 2, 3):
        got = {tuple(F.project(x) for x in q) for q in d2z2.cubes(n)}
        assert got == F.cubes(n)


def _fibre(ext):
    """The point that each element of the structure group moves 0 to."""
    return [ext.act(a, 0) for a in range(ext.A.order)]


def test_local_translation_is_a_fibre_bijection(heis2_space):
    # the action of a fibre element, restricted to the base fibre
    ext = stc.structure_group(heis2_space, 2)
    fibre = _fibre(ext)
    assert fibre == [0, 4]
    t = {y: ext.act(fibre.index(4), y) for y in fibre}
    assert set(t.values()) == {0, 4}
    assert t[0] == 4


def test_structure_group_of_d2z2(d2z2):
    ext = stc.structure_group(d2z2, 2)
    assert ext.A.invariants == (2,)
    assert _fibre(ext) == [0, 1]
    # the action is addition mod 2
    for a in range(2):
        for x in range(2):
            assert ext.act(a, x) == (a + x) % 2


def test_structure_group_of_heisenberg_top_level(heis2_space, heis2):
    G, filt = heis2
    ext = stc.structure_group(heis2_space, 2)
    assert ext.A.invariants == (2,)
    fibre = _fibre(ext)
    assert set(fibre) == set(filt.subgroup(2))
    # the action is right multiplication by the centre element
    z = [g for g in fibre if g != 0][0]
    for x in range(G.order):
        assert ext.act(fibre.index(z), x) == G.op(x, z)


def _explicit_product():
    """Explicit D_1(Z/2) x explicit D_2(Z/2), a 4-point space of step 2."""
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    d2 = abelian_Dk(gr.CyclicProduct((2,)), 2)
    return ProductCubespace(ExplicitCubespace(2, {n: d1.cubes(n) for n in (1, 2)}, step=1),
                            ExplicitCubespace(2, {n: d2.cubes(n) for n in (1, 2, 3)}, step=2))


def _assert_matches_oracle(ext, X, k):
    # the oracle indexes its table group by the sorted fibre, the library
    # its invariant-factor group: they agree up to that relabelling
    assert ext.Y is X and ext.k == k
    assert ext.X.fibres == stc.factor(X, k - 1).fibres and ext.pi == ext.X.image
    ref = structure_group_by_local_translations(X, k)
    fibre = _fibre(ext)
    assert sorted(fibre) == ref.fibre == ext.fibres[ext.pi[0]]
    ref_of = [ref.fibre.index(y) for y in fibre]
    A = ext.A
    assert [[ext.act(a, x) for x in range(X.size)] for a in A.elements()] == [
        ref.action[r] for r in ref_of]
    assert all(ref_of[A.op(a, b)] == ref.group.op(ref_of[a], ref_of[b])
               for a in A.elements() for b in A.elements())
    assert A.invariants == abelian_invariants_by_torsion(ref.group)


_STRUCTURE_SPACES = pytest.mark.parametrize("space,k", [
    ("d2z2", 2), ((4, 1), 1), ((4, 1), 2), ("heis2_space", 2), ("product", 2),
], ids=["D2(Z/2)", "D1(Z/4)", "D1(Z/4)-k2", "H2", "explicit-product"])


@_STRUCTURE_SPACES
def test_structure_group_completes_one_corner_per_entry(space, k, request, monkeypatch):
    # one completion per action entry and per two-vertex sum, and one
    # level relation per pair of points (the base factor, whose fibre
    # through 0 is the group): the addition table is read from the action
    X = _decompose_space(space, request)
    calls = {"completions": 0, "related_k": 0}
    completions, related_k = Cubespace.completions, stc.related_k

    def counted_completions(self, n, corner):
        calls["completions"] += 1
        return completions(self, n, corner)

    def counted_related_k(*args):
        calls["related_k"] += 1
        return related_k(*args)

    monkeypatch.setattr(Cubespace, "completions", counted_completions)
    monkeypatch.setattr(stc, "related_k", counted_related_k)
    m = stc.structure_group(X, k).A.order
    assert calls == {"completions": m * (X.size + m), "related_k": X.size * (X.size - 1) // 2}


@_STRUCTURE_SPACES
def test_structure_group_matches_the_local_translations(space, k, request):
    X = _decompose_space(space, request)
    _assert_matches_oracle(stc.structure_group(X, k), X, k)


def _composed_images(dec, size):
    """images[i][x]: the point of X_i under x, each factor's image of
    the factor above composed from X down."""
    images = [list(range(size))]
    for F in reversed(dec.factors):
        images.insert(0, [F.image[y] for y in images[0]])
    return images[:-1]


def _quotient_invariants(G, sub, normal):
    """Invariants of the abelian quotient sub / normal, both subgroups of
    G with normal inside sub, by the p-torsion oracle."""
    reps, index = gr.left_cosets(G, normal)
    cosets = sorted({index[g] for g in sub})
    label = {c: i for i, c in enumerate(cosets)}
    table = [[label[index[G.op(reps[a], reps[b])]] for b in cosets] for a in cosets]
    return abelian_invariants_by_torsion(gr.TableGroup(table))


def _heis2_coset(gamma):
    G, filt = gr.make_heisenberg(2)
    return CosetCubespace(filt, gr.subgroup_closure(G, [gamma]))


@pytest.mark.parametrize("space", [
    lambda: GroupCubespace(gr.make_heisenberg(2)[1]),
    lambda: _heis2_coset(1), lambda: _heis2_coset(2), lambda: _heis2_coset(4),
    lambda: abelian_Dk(gr.CyclicProduct((4,)), 2),
    lambda: abelian_Dk(gr.CyclicProduct((4,)), 1),
    lambda: abelian_Dk(gr.CyclicProduct((2,)), 3),
], ids=["H2", "H2/<1>", "H2/<2>", "H2/<4>", "D2(Z/4)", "D1(Z/4)", "D3(Z/2)"])
def test_structure_groups_are_the_filtration_quotients(space):
    # with G_0 = G_1, the level-i structure group of G/Gamma is
    # G_i / G_{i+1}(Gamma n G_i)
    X = space()
    filt = X.filt
    G = filt.group
    gamma = X.cosets.Gamma if isinstance(X, CosetCubespace) else frozenset({0})
    assert filt.subgroup(0) == filt.subgroup(1)
    dec = stc.decompose(X, n_max=1)
    images = _composed_images(dec, X.size)
    assert [[[x for x in range(X.size) if image[x] == b] for b in range(F.size)]
            for image, F in zip(images, dec.factors)] == [
        stc.sim_classes(X, i) for i in range(dec.step + 1)]
    for i, (ext, level) in enumerate(zip(dec.extensions, dec.levels), start=1):
        Gi = filt.subgroup(i)
        normal = gr.subgroup_closure(G, filt.subgroup(i + 1) | (gamma & Gi))
        assert level.group_invariants == _quotient_invariants(G, Gi, normal)
        _assert_matches_oracle(ext, dec.factors[i], i)


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
    Q = gr.QuotientGroup(G, filt.subgroup(2))
    assert gr.abelian_invariants(Q) == (2, 2)
    assert len(filt.subgroup(2)) == 2
    assert [f.size for f in dec.factors] == [1, 4, 8]


def test_decompose_coset_space(coset_space):
    dec = stc.decompose(coset_space, n_max=3)
    assert dec.step == 2
    assert all(lvl.verified_dims == (1, 2, 3) for lvl in dec.levels)


def _doctored_action(d2z2):
    """The top level of D_2(Z/2) with the non-identity element acting
    trivially."""
    return dataclasses.replace(stc.structure_group(d2z2, 2),
                               act=lambda a, x: [[0, 1], [0, 1]][a][x])


def test_bundle_verification_rejects_doctored_action(d2z2):
    assert stc.verify_degree_k_bundle(_doctored_action(d2z2), 2) == ("action", 0)


def _d1z2_extension():
    """The trivial degree-1 extension M(0) -> D_1(Z/2) by Z/2."""
    X = abelian_Dk(gr.CyclicProduct((2,)), 1)
    A = gr.FiniteAbelianGroup((2,))
    return coh.build_extension(coh.coboundary_of(X, [0, 0], 1, A)).extension


def _failing_extensions(d2z2):
    """Three extensions that are not degree-k bundles: M(0) -> D_1(Z/2)
    over a base that lacks its least square, over a base with one square
    more, and D_2(Z/2) over a point taken as a degree-1 extension."""
    ext = _d1z2_extension()
    squares = sorted(ext.X.cubes(2))
    fewer = ExplicitCubespace(2, {1: ext.X.cubes(1), 2: squares[1:]}, step=1)
    more = ExplicitCubespace(2, {1: ext.X.cubes(1), 2: squares + [(0, 0, 0, 1)]}, step=1)
    top = stc.decompose(d2z2, n_max=2).extensions[1]
    return (dataclasses.replace(ext, X=fewer), dataclasses.replace(ext, X=more),
            dataclasses.replace(top, k=1))


def test_bundle_verification_witnesses_each_failure(d2z2):
    ext = _d1z2_extension()
    assert stc.verify_degree_k_bundle(ext, 3) is None
    squares = sorted(ext.X.cubes(2))
    fewer, more, top1 = _failing_extensions(d2z2)
    # a base that lacks a square: some cube upstairs projects outside it
    bad = stc.verify_degree_k_bundle(fewer, 2)
    assert bad[:2] == ("projection-not-cube", 2)
    assert tuple(ext.pi[y] for y in bad[2]) == squares[0]
    # a base with a square no cube upstairs projects to
    assert stc.verify_degree_k_bundle(more, 2) == ("projection-not-onto", 2, (0, 0, 0, 1))
    # D_2(Z/2) over a point is a degree-2 bundle, not a degree-1 one: the
    # 16 squares over the point are more than the 8 degree-1 perturbations
    top = stc.decompose(d2z2, n_max=2).extensions[1]
    assert stc.verify_degree_k_bundle(top, 2) is None
    assert stc.verify_degree_k_bundle(top1, 2) == ("fibre-correspondence", 2, (0, 0, 0, 0))


_DECOMPOSE_SPACES = pytest.mark.parametrize(
    "space", ["heis2_space", "coset_space", "d1z2", "d1z3", (4, 1), "d2z2", (3, 2)],
    ids=["H2", "coset", "D1(Z/2)", "D1(Z/3)", "D1(Z/4)", "D2(Z/2)", "D2(Z/3)"])


def _decompose_space(space, request):
    """A fixture space, D_k(Z/m) for space = (m, k), or the explicit
    product."""
    if space == "product":
        return _explicit_product()
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
    dec = stc.decompose(X, n_max=2)
    factors, images = dec.factors, _composed_images(dec, X.size)
    # the top factor projects by the identity and shares X's cube sets
    assert factors[-1].image == list(range(X.size))
    for n in range(1, X.step + 2):
        assert factors[-1].cubes(n) is X.cubes(n)
        for F, image in zip(factors, images):
            assert F.cubes(n) == {tuple(image[x] for x in q) for q in X.cubes(n)}


@pytest.mark.parametrize("case", ["heis2_space", "coset_space", "d1z2", "d1z3", (4, 1), "d2z2",
                                  (3, 2), "models", "doctored"],
                         ids=["H2", "coset", "D1(Z/2)", "D1(Z/3)", "D1(Z/4)", "D2(Z/2)",
                              "D2(Z/3)", "M(rho0),M(rho1)", "doctored"])
def test_the_bundle_check_matches_the_projection_oracle(case, request):
    # the model-cube check and the projection-grouping oracle give the
    # same answer, None or the same witness, on every decompose level, on
    # the models M(rho) and on the extensions doctored to fail
    if case == "models":
        exts = [M.extension for M in request.getfixturevalue("model_extensions")]
    elif case == "doctored":
        d2z2 = request.getfixturevalue("d2z2")
        exts = _failing_extensions(d2z2) + (_doctored_action(d2z2),)
    else:
        exts = stc.decompose(_decompose_space(case, request), n_max=3).extensions
    for ext in exts:
        for n_max in (2, 3):
            assert stc.verify_degree_k_bundle(ext, n_max) == \
                verify_degree_k_bundle_by_projection(ext, n_max)


def test_decompose_names_the_level_that_is_not_a_bundle(d2z2, monkeypatch):
    real = stc.structure_group

    def doctored(X, k):
        ext = real(X, k)
        return dataclasses.replace(ext, act=lambda a, x: x) if k == 2 else ext

    monkeypatch.setattr(stc, "structure_group", doctored)
    with pytest.raises(ValueError, match=r"level 2 is not a degree-2 bundle: \('action', 0\)"):
        stc.decompose(d2z2, n_max=2)


def test_fibre_is_a_torsor(heis2_space):
    # the structure group acts simply transitively on each level-1 fibre
    ext = stc.structure_group(heis2_space, 2)
    for x in range(heis2_space.size):
        orbit = {ext.act(a, x) for a in range(ext.A.order)}
        assert len(orbit) == ext.A.order
        fibre = {y for y in range(heis2_space.size) if stc.related_k(heis2_space, 1, x, y)}
        assert orbit == fibre


def test_analyze_morphism(heis2_space, heis2):
    G, filt = heis2
    F = stc.factor(heis2_space, 1)
    ok, wit = analyze_morphism([F.project(x) for x in range(G.order)], heis2_space, F, 2)
    assert ok and wit is None
    # a non-morphism: swap two points in one fibre only at the source
    f = list(range(G.order))
    f[0], f[1] = 1, 0
    ok2, wit2 = analyze_morphism(f, heis2_space, heis2_space, 2)
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
