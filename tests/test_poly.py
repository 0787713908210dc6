"""Polynomial maps: derivatives, the hom = poly cross-check, and
binomial extensions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nilcube import cubegroups as cg
from nilcube import groups as gr
from nilcube import poly


def test_derivative_of_affine_map():
    Z5 = gr.CyclicProduct((5,))
    g = tuple((2 * x + 1) % 5 for x in range(5))
    for h in range(5):
        dg = poly.derivative(g, Z5, Z5, h)
        assert all(v == (2 * h) % 5 for v in dg)


def test_affine_is_polynomial_of_degree_one():
    Z5 = gr.CyclicProduct((5,))
    hfilt = gr.lower_central_series(Z5)
    gfilt = gr.maximal_degree_k_filtration(Z5, 1)
    g = tuple((3 * x + 2) % 5 for x in range(5))
    assert poly.is_polynomial(g, hfilt, gfilt)
    ok, _ = poly.is_cube_morphism(g, hfilt, gfilt)
    assert ok


def test_square_map_degree_two_not_one():
    Z9 = gr.CyclicProduct((9,))
    hfilt = gr.lower_central_series(Z9)
    g = tuple((x * x) % 9 for x in range(9))
    d2 = gr.maximal_degree_k_filtration(Z9, 2)
    d1 = gr.maximal_degree_k_filtration(Z9, 1)
    assert poly.is_polynomial(g, hfilt, d2)
    assert not poly.is_polynomial(g, hfilt, d1)
    ok2, _ = poly.is_cube_morphism(g, hfilt, d2)
    ok1, wit = poly.is_cube_morphism(g, hfilt, d1)
    assert ok2 and not ok1 and wit is not None


def test_hom_poly_agree_exhaustively_small():
    Z2 = gr.CyclicProduct((2,))
    Z3 = gr.CyclicProduct((3,))
    cases = [
        (Z2, gr.maximal_degree_k_filtration(Z2, 2)),
        (Z3, gr.maximal_degree_k_filtration(Z3, 2)),
    ]
    for H, gfilt in cases:
        hfilt = gr.lower_central_series(H)
        n_poly = 0
        for g in itertools.product(range(H.order), repeat=H.order):
            a = poly.is_polynomial(g, hfilt, gfilt)
            b, _ = poly.is_cube_morphism(g, hfilt, gfilt)
            assert a == b
            n_poly += a
        # every map into a degree-|H|-like target of step >= |H|-1 is
        # polynomial here only when the group is small enough; record
        # the counts so regressions show up
        assert n_poly == H.order ** H.order


def _verdict(is_polynomial, g, hfilt, gfilt):
    try:
        return is_polynomial(g, hfilt, gfilt)
    except poly.ClosureBlowup:
        return "blowup"


@pytest.mark.parametrize("cap", [poly.CLOSURE_CAP, 16])
def test_weight_0_closure_matches_the_frontier_loop(cap, monkeypatch):
    # domain chains with H_0 != H_1, the only ones that close a level
    # under weight-0 derivatives; at the small cap some levels blow up
    monkeypatch.setattr(poly, "CLOSURE_CAP", cap)
    H2 = gr.Heisenberg(2)
    domains = [gr.Filtration(gr.CyclicProduct((4,)), ({0, 1, 2, 3}, {0, 2})),
               gr.Filtration(H2, (set(H2.elements()), {0, H2.index_of((0, 0, 1))}))]
    targets = [gr.maximal_degree_k_filtration(gr.CyclicProduct((m,)), k)
               for m, k in ((2, 1), (2, 2), (4, 1), (4, 2))]
    rng = random.Random(cap)
    seen = set()
    for hfilt in domains:
        assert gr.validate_filtration(hfilt) is None
        for gfilt in targets:
            for _ in range(20):
                g = tuple(rng.randrange(gfilt.group.order) for _ in range(hfilt.group.order))
                want = _verdict(oracles.is_polynomial_by_frontier, g, hfilt, gfilt)
                assert _verdict(poly.is_polynomial, g, hfilt, gfilt) == want, g
                seen.add(want)
    assert seen == ({True, False, "blowup"} if cap == 16 else {True, False})


def test_polynomials_closed_under_product_and_inverse():
    Z3 = gr.CyclicProduct((3,))
    hfilt = gr.lower_central_series(Z3)
    gfilt = gr.maximal_degree_k_filtration(Z3, 2)
    polys = [
        g
        for g in itertools.product(range(3), repeat=3)
        if poly.is_polynomial(g, hfilt, gfilt)
    ]
    for g1 in polys:
        for g2 in polys:
            assert poly.is_polynomial(poly.pointwise_product(g1, g2, Z3), hfilt, gfilt)
        assert poly.is_polynomial(poly.pointwise_inverse(g1, Z3), hfilt, gfilt)


def test_leibman_with_a_nonabelian_target():
    # every map Z/4 -> H_2 (4,096 maps) by both routes; the products and
    # inverses of the polynomial maps are maps Z/4 -> H_2 too, so both
    # verdicts on them are looked up rather than computed again
    Z4 = gr.CyclicProduct((4,))
    hfilt = gr.lower_central_series(Z4)
    H2, gfilt = gr.make_heisenberg(2)
    verdicts = {}
    for g in itertools.product(range(H2.order), repeat=Z4.order):
        verdicts[g] = (poly.is_polynomial(g, hfilt, gfilt),
                       poly.is_cube_morphism(g, hfilt, gfilt)[0])
        assert verdicts[g][0] == verdicts[g][1], g
    polys = [g for g, (is_poly, _) in verdicts.items() if is_poly]
    assert len(polys) == 128
    noncommuting = 0
    for g1 in polys:
        assert verdicts[poly.pointwise_inverse(g1, H2)] == (True, True)
        for g2 in polys:
            product = poly.pointwise_product(g1, g2, H2)
            assert verdicts[product] == (True, True)
            noncommuting += product != poly.pointwise_product(g2, g1, H2)
    # the theorem says more than linearity here: products depend on order
    assert noncommuting > 0


def _morphism_cases():
    """(domain filtration, target filtration, maps): every map Z/3 -> Z/3
    and Z/4 -> Z/4 into the degree-1 and degree-2 filtrations, and 300
    seeded maps Z/4 -> H_2, each domain with its lower central series."""
    for m in (3, 4):
        Z = gr.CyclicProduct((m,))
        maps = list(itertools.product(range(m), repeat=m))
        for k in (1, 2):
            yield gr.lower_central_series(Z), gr.maximal_degree_k_filtration(Z, k), maps
    Z4 = gr.CyclicProduct((4,))
    H2, gfilt = gr.make_heisenberg(2)
    rng = random.Random(4)
    yield (gr.lower_central_series(Z4), gfilt,
           [tuple(rng.randrange(H2.order) for _ in range(4)) for _ in range(300)])


def test_cube_morphism_by_the_top_dimension_matches_every_dimension():
    from oracles import is_cube_morphism_in_every_dimension

    for hfilt, gfilt, maps in _morphism_cases():
        top = gfilt.degree + 1
        for g in maps:
            ok, witness = poly.is_cube_morphism(g, hfilt, gfilt)
            assert ok == is_cube_morphism_in_every_dimension(g, hfilt, gfilt)[0], g
            if not ok:
                assert len(witness) == 1 << top and cg.is_cube(witness, hfilt)
                assert not cg.is_cube(tuple(g[x] for x in witness), gfilt)


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_binomial_form_restricts_to_cube(seed, n):
    rng = random.Random(seed)
    G, filt = gr.make_heisenberg(2)
    th = cg._thresholds(n)
    coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
    values = cg.multiply_out(coeffs, n, G)
    form = poly.cube_to_binomial(values, filt)
    assert form is not None
    assert all(g in filt.subgroup(t) for g, t in zip(form.coefficients, th))
    # the restriction of the extension to {0,1}^n is the cube itself
    for idx in range(1 << n):
        t = tuple((idx >> j) & 1 for j in range(n))
        assert poly.binomial_extension(form, t, G) == values[idx]


def test_binomial_extension_integer_points_stay_consistent():
    # restricting the extension of a 2-cube to any unit subcube of Z^2
    # again yields a cube
    G, filt = gr.make_heisenberg(2)
    rng = random.Random(17)
    for _ in range(20):
        th = cg._thresholds(2)
        coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
        values = cg.multiply_out(coeffs, 2, G)
        form = poly.cube_to_binomial(values, filt)
        for a in range(-1, 3):
            for b in range(-1, 3):
                shifted = tuple(
                    poly.binomial_extension(form, (a + (i & 1), b + (i >> 1)), G)
                    for i in range(4)
                )
                assert cg.is_cube(shifted, filt)


def test_binomial_coefficient_weight():
    assert poly.binomial_coefficient_weight((3, 2), 0b00) == 1
    assert poly.binomial_coefficient_weight((3, 2), 0b01) == 3
    assert poly.binomial_coefficient_weight((3, 2), 0b10) == 2
    assert poly.binomial_coefficient_weight((3, 2), 0b11) == 6


def test_noncube_has_no_binomial_form():
    A = gr.CyclicProduct((4,))
    filt = gr.maximal_degree_k_filtration(A, 1)
    assert poly.cube_to_binomial([0, 1, 0, 2], filt) is None
