"""Acceptance suite: one test per headline guarantee, each ending with a
single pass/fail line (run with -s to see them; a failed assertion means
the line is never printed)."""

import itertools
import random
import time

import pytest

import oracles
from nilcube import cohomology as coh
from nilcube import cubegroups as cg
from nilcube import cubes as cb
from nilcube import groups as gr
from nilcube import poly
from nilcube import structure as stc
from nilcube import translations as tr
from nilcube.cubespace import (
    ExplicitCubespace,
    GroupCubespace,
    abelian_Dk,
    check_axioms,
    check_parallelepiped_axioms,
    is_tricube_morphism,
    simplicial_extend,
    tricube_compose,
)

Z2 = gr.FiniteAbelianGroup((2,))


def _report(num, name):
    print("criterion %02d (%s): PASS" % (num, name))


def _three_way(values, filt):
    a = cg.is_cube(values, filt)
    b = cg.is_cube_by_equations(values, filt)
    c = poly.cube_to_binomial(values, filt) is not None
    assert a == b == c, values
    return a


def test_criterion_01_three_way_membership(heis2):
    t0 = time.perf_counter()
    Z4 = gr.CyclicProduct((4,))
    f4 = gr.maximal_degree_k_filtration(Z4, 1)
    for n in (1, 2, 3):
        for values in itertools.product(range(4), repeat=1 << n):
            _three_way(values, f4)
    G, filt = heis2
    for values in itertools.product(range(8), repeat=4):
        _three_way(values, filt)
    rng = random.Random(0)
    hits = 0
    for _ in range(100_000):
        values = tuple(rng.randrange(8) for _ in range(8))
        hits += _three_way(values, filt)
    assert hits > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "took %.1fs" % elapsed
    _report(1, "three-way membership, %.1fs" % elapsed)


def test_criterion_02_factorization_round_trip(heis3):
    G, filt = heis3
    rng = random.Random(1)
    for trial in range(10_000):
        n = rng.randrange(1, 4)
        th = cg._thresholds(n)
        coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
        values = cg.multiply_out(coeffs, n, G)
        assert cg.factorize(values, filt) == coeffs
        # build the same kind of product applying the upper-face factors
        # in a shuffled order; the result is still a cube and its
        # factorization round-trips through the canonical order
        order = list(range(1 << n))
        rng.shuffle(order)
        vals = [0] * (1 << n)
        for v in order:
            for w in range(1 << n):
                if w & v == v:
                    vals[w] = G.op(vals[w], coeffs[v])
        got = cg.factorize(vals, filt)
        assert not isinstance(got, cg.Reject)
        assert cg.multiply_out(got, n, G) == tuple(vals)
    _report(2, "factorization round trip")


def test_criterion_03_corner_completion(heis2, heis3, heis2_space):
    G, filt = heis2
    corners = {q[:-1] for q in heis2_space.cubes(3)}
    # the top subgroup is trivial, so completions are unique and corners
    # biject with cubes
    assert len(corners) == len(heis2_space.cubes(3)) == 32768
    for corner in corners:
        full = cg.complete_corner(dict(enumerate(corner)), 3, filt)
        brute = [x for x in range(G.order) if heis2_space.membership(3, corner + (x,))]
        # |G_3| = 1, so completion is unique
        assert brute == [full[-1]]
    G3, filt3 = heis3
    rng = random.Random(2)
    th = cg._thresholds(3)
    for _ in range(300):
        coeffs = [rng.choice(sorted(filt3.subgroup(t))) for t in th]
        q = cg.multiply_out(coeffs, 3, G3)
        corner = q[:-1]
        full = cg.complete_corner(dict(enumerate(corner)), 3, filt3)
        brute = [x for x in range(G3.order) if cg.is_cube(corner + (x,), filt3)]
        assert brute == [full[-1]]
    _report(3, "corner completion vs brute force")


def test_criterion_04_hom_equals_poly():
    t0 = time.perf_counter()
    for m in (2, 3):
        Zm = gr.CyclicProduct((m,))
        hfilt = gr.lower_central_series(Zm)
        gfilt = gr.maximal_degree_k_filtration(Zm, 2)
        polys = []
        for g in itertools.product(range(m), repeat=m):
            a = poly.is_polynomial(g, hfilt, gfilt)
            b, _ = poly.is_cube_morphism(g, hfilt, gfilt)
            assert a == b, g
            if a:
                polys.append(g)
        # group structure under pointwise operations
        for g1 in polys:
            assert poly.is_polynomial(poly.pointwise_inverse(g1, Zm), hfilt, gfilt)
            for g2 in polys:
                assert poly.is_polynomial(poly.pointwise_product(g1, g2, Zm), hfilt, gfilt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, "took %.1fs" % elapsed
    _report(4, "hom = poly, %.1fs" % elapsed)


def test_criterion_05_one_flip_classes(heis2, heis2_space, coset_space):
    G, filt = heis2
    G2 = filt.subgroup(2)
    classes = stc.sim_classes(heis2_space, 1)
    cosets = {frozenset(G.op(x, z) for z in G2) for x in G.elements()}
    assert {frozenset(c) for c in classes} == cosets
    # on the coset space: classes = orbits of G_2 acting on cosets
    cls2 = stc.sim_classes(coset_space, 1)
    orbits = {
        frozenset(coset_space.cosets.act(z, x) for z in G2)
        for x in range(coset_space.size)
    }
    assert {frozenset(c) for c in cls2} == orbits
    _report(5, "one-flip classes match cosets and orbits")


def test_criterion_06_bundle_decomposition(d2z2, heis2, heis2_space, coset_space):
    # decompose() raises unless both containments of the fibre-cube
    # correspondence hold exhaustively at n <= 3 and the perturbation
    # rebuild reproduces each cube set exactly
    dec_a = stc.decompose(d2z2, n_max=3)
    dec_b = stc.decompose(heis2_space, n_max=3)
    dec_c = stc.decompose(coset_space, n_max=3)
    assert [l.group_invariants for l in dec_a.levels] == [(), (2,)]
    assert [l.group_invariants for l in dec_b.levels] == [(2, 2), (2,)]
    for dec in (dec_a, dec_b, dec_c):
        assert all(l.verified_dims == (1, 2, 3) for l in dec.levels)
    # case (b) structure groups independently from the group side
    G, filt = heis2
    Q = gr.QuotientGroup(G, filt.subgroup(2))
    assert gr.abelian_invariants(Q) == (2, 2)
    assert gr.abelian_invariants(gr.TableGroup(
        [[sorted(filt.subgroup(2)).index(G.op(a, b)) for b in sorted(filt.subgroup(2))]
         for a in sorted(filt.subgroup(2))])) == (2,)
    # explicit rebuild for case (b): every 2-cube is a degree-2
    # perturbation of a lift of its projection, and all perturbations of
    # all lifts give back exactly the cube set
    top = dec_b.extensions[-1]
    F = dec_b.factors[1]
    afilt = gr.maximal_degree_k_filtration(top.A, 2)
    rebuilt = set()
    for qbar in F.cubes(2):
        lift = top.lift(2, qbar)
        for avals in cg.enumerate_cubes(afilt, 2):
            rebuilt.add(tuple(top.act(a, x) for a, x in zip(avals, lift)))
    assert rebuilt == set(heis2_space.cubes(2))
    _report(6, "bundle decomposition")


def test_criterion_07_translation_groups(d2z2, heis2_space, heis2_tower, coset_space):
    # Tran(D_1(Z/m)) over all m! bijections
    for m in (2, 3, 4):
        X = abelian_Dk(gr.CyclicProduct((m,)), 1)
        shifts = {tuple((x + c) % m for x in range(m)) for c in range(m)}
        found = {
            alpha
            for alpha in itertools.permutations(range(m))
            if oracles.is_translation_by_definition(X, alpha, 1, 3)
        }
        assert found == shifts
    # Tran_k = structure-group shifts on the three decomposition cases
    for X, tower in (
        (d2z2, tr.translation_tower(d2z2)),
        (heis2_space, heis2_tower),
        (coset_space, tr.translation_tower(coset_space)),
    ):
        top = stc.structure_group(X, 2)
        topmost = {tower.bijections[j] for j in tower.heights[-1]}
        acts = {
            tuple(top.act(a, x) for x in range(X.size)) for a in range(top.A.order)
        }
        assert topmost == acts
        # commutator inclusions of the whole chain, exhaustively
        assert gr.validate_filtration(tower.filtration) is None
    _report(7, "translation groups and filtration")


def test_criterion_08_cohomology_round_trips(d1z2):
    for k in (1, 2):
        cocycles = coh.enumerate_cocycles(d1z2, k, Z2)
        assert cocycles, "no cocycles found at degree %d" % k
        for rho in cocycles:
            M = coh.build_extension(rho)
            rep = check_axioms(M, 3)
            assert rep.is_nilspace
            data = M.extension
            back = coh.cross_section_cocycle(data, [ys[0] for ys in data.fibres])
            assert back.table == rho.table
            # brute-force coboundary scan (|A|^|X| = 4 <= 10^6)
            brute = any(
                coh.coboundary_of(d1z2, f, k, Z2).table == rho.table
                for f in itertools.product(range(2), repeat=2)
            )
            assert (coh.is_coboundary(rho) is not None) == brute
    _report(8, "cohomology round trips")


def _random_tricube(X, n, rng):
    cubes = sorted(X.cubes(n))
    base = rng.choice(cubes)
    pattern = {}
    for w in cb.vertices(n):
        key = cb.tricube_lambda_embed(cb.tricube_embed((0,) * n, w))
        pattern[key] = base[cb.vertex_index(w)]
    full = simplicial_extend(X, 2 * n, pattern.keys(), pattern)
    return {p: full[cb.tricube_lambda_embed(p)] for p in cb.tricube_points(n)}


def test_criterion_09_tricubes(d2z2, heis2_space, d1z2):
    rng = random.Random(4)
    n = 2
    for X, trials in ((d2z2, 500), (heis2_space, 500)):
        for _ in range(trials):
            t = _random_tricube(X, n, rng)
            assert is_tricube_morphism(X, t, n)
            out = tricube_compose(X, t, n)
            assert X.membership(n, out)
    # beta(t, rho) = rho(t o omega_2), exhaustive on D_1(Z/2)
    cocycles = coh.enumerate_cocycles(d1z2, 1, Z2)
    pts = cb.tricube_points(2)
    count = 0
    for vals in itertools.product(range(2), repeat=len(pts)):
        t = dict(zip(pts, vals))
        if not is_tricube_morphism(d1z2, t, 2):
            continue
        count += 1
        outer = coh.tricube_outer(t, 2)
        for rho in cocycles:
            assert coh.tricube_sum(t, rho.table, 2, Z2) == rho.table[outer]
    assert count == 32
    _report(9, "tricube composition and sums")


def test_criterion_10_parallelepiped_equivalence(d1z2, d1z3, d2z2):
    genuine = [d1z2, d1z3, d2z2]
    doctored = []
    # completion failure: a 2-cube removed
    t1 = {1: set(d1z2.cubes(1)), 2: set(d1z2.cubes(2))}
    t1[2].discard(sorted(t1[2])[3])
    doctored.append(("closing", ExplicitCubespace(2, t1)))
    # ergodicity failure: only the constant cubes survive
    t2 = {1: {(0, 0), (1, 1)}, 2: {(0, 0, 0, 0), (1, 1, 1, 1)}}
    doctored.append(("ergodic", ExplicitCubespace(2, t2)))
    # composition/symmetry failure: an extra non-parallelogram whose
    # reflection is still missing
    t3 = {1: set(d1z2.cubes(1)), 2: set(d1z2.cubes(2)) | {(0, 0, 0, 1)}}
    doctored.append(("symmetry", ExplicitCubespace(2, t3)))
    instances = [(None, X) for X in genuine] + doctored
    assert len(instances) == 6
    for label, X in instances:
        nil = check_axioms(X, 2)
        para = check_parallelepiped_axioms(X, 2)
        assert nil.is_nilspace == para.all_ok == (label is None)
        if label is None:
            assert para.witness is None
        if label == "closing":
            assert not para.closing_ok
            assert para.witness[:2] == ("closing", 2) and not X.completions(2, para.witness[2])
        if label == "ergodic":
            assert not nil.ergodic_ok and not para.full_p1 and para.witness is None
        if label == "symmetry":
            assert not nil.composition_ok and not para.symmetry_ok
            # the witness is the last failing check of its dimension
            assert para.witness == ("symmetric", 2, (0, 0), (0, 1))
    _report(10, "parallelepiped equivalence on 6 instances")


def test_criterion_11_translation_bundle_lifting(d2z2):
    # the 1-step factor of D_2(Z/2) is a single point, so the only
    # base-level translation is the identity; the T* bundle of the oracle
    # must pass the bundle check, the section that the lift induces on it
    # must preserve cubes, and the lift must be certified and cover abar
    base = stc.factor(d2z2, 1)
    abar = [0] * base.size
    assert tr.is_translation(base, abar, 1)
    tb = oracles.translation_bundle(d2z2, abar, i=1)
    assert stc.verify_degree_k_bundle(tb.extension, 3) is None
    beta = tr.try_lift_translation(stc.decompose(d2z2, 3), abar, i=1)
    assert beta is not None
    assert oracles.analyze_morphism(tb.section(beta), base, tb.extension.Y, 3) == (True, None)
    assert tr.is_translation(d2z2, beta, 1)
    for x in range(d2z2.size):
        assert base.image[beta[x]] == abar[base.image[x]]
    _report(11, "translation-bundle lifting")
