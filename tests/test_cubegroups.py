"""Cube groups of filtered groups: alternating products, the upper-face
factorization, corner completion, arrows, abelian specials."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcube import cubegroups as cg
from nilcube import cubes as cb
from nilcube import groups as gr

import oracles


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_sigma_gray_equals_recursive(seed, n):
    rng = random.Random(seed)
    G, _ = gr.make_heisenberg(3)
    vals = [rng.randrange(G.order) for _ in range(1 << n)]
    assert cg.sigma(vals, n, G) == oracles.sigma_recursive(vals, n, G)


def test_sigma_two_closed_form():
    G, _ = gr.make_heisenberg(2)
    rng = random.Random(3)
    for _ in range(50):
        g00, g10, g01, g11 = (rng.randrange(8) for _ in range(4))
        want = G.op(G.op(G.inv(g01), g11), G.op(G.inv(g10), g00))
        assert cg.sigma((g00, g10, g01, g11), 2, G) == want


def test_sigma_concatenation_identity():
    G, _ = gr.make_heisenberg(2)
    rng = random.Random(5)
    n = 2
    half = 1 << (n - 1)
    for _ in range(100):
        q1 = [rng.randrange(8) for _ in range(1 << n)]
        q2 = q1[half:] + [rng.randrange(8) for _ in range(half)]
        conc = q1[:half] + q2[half:]
        assert cg.sigma(conc, n, G) == G.op(cg.sigma(q2, n, G), cg.sigma(q1, n, G))


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_factorize_multiply_out_round_trip(seed, n):
    rng = random.Random(seed)
    G, filt = gr.make_heisenberg(3)
    th = cg._thresholds(n)
    coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
    values = cg.multiply_out(coeffs, n, G)
    got = cg.factorize(values, filt)
    assert got == coeffs


def test_factorize_rejects_with_first_bad_vertex():
    A = gr.CyclicProduct((4,))
    filt = gr.maximal_degree_k_filtration(A, 1)
    # (0,1,0,2) has second-order difference 1 != 0
    res = cg.factorize([0, 1, 0, 2], filt)
    assert isinstance(res, cg.Reject)
    assert res.index == 3 and res.required_level == 2


def test_membership_three_ways_small():
    G = gr.CyclicProduct((4,))
    filt = gr.lower_central_series(G)
    for values in itertools.product(range(4), repeat=4):
        a = cg.is_cube(values, filt)
        b = cg.is_cube_by_equations(values, filt)
        from nilcube.poly import cube_to_binomial

        c = cube_to_binomial(values, filt) is not None
        assert a == b == c


def test_cube_counts():
    G, filt = gr.make_heisenberg(2)
    assert cg.count_cubes(filt, 2) == 8 * 8 * 8 * 2
    assert len(set(cg.enumerate_cubes(filt, 2))) == cg.count_cubes(filt, 2)
    assert cg.count_cubes(filt, 3) == 32768


def test_complete_corner_matches_bruteforce_unique():
    G, filt = gr.make_heisenberg(2)
    rng = random.Random(11)
    n = 3
    for _ in range(60):
        th = cg._thresholds(n)
        coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
        full = cg.multiply_out(coeffs, n, G)
        corner = {i: full[i] for i in range((1 << n) - 1)}
        algo = cg.complete_corner(corner, n, filt)
        brute = [
            x for x in G.elements()
            if cg.is_cube(tuple(corner[i] for i in range((1 << n) - 1)) + (x,), filt)
        ]
        assert algo[-1] in brute
        assert set(q[-1] for q in oracles.enumerate_completions(corner, n, filt)) == set(brute)


def test_complete_corner_rejects_bad_premise():
    A = gr.CyclicProduct((2,))
    filt = gr.lower_central_series(A)
    # lower face (0,1,0) is not a 1-step cube lower-face pattern at n=2:
    # premise face {v0=0} has values (0, 1) which is fine, but the 2-face
    # premise fails at n=3 when one 2-face is not a cube
    filt2 = gr.maximal_degree_k_filtration(A, 1)
    corner = {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
    with pytest.raises(cg.CornerError):
        cg.complete_corner(corner, 3, filt2)


def test_arrow_membership_splits():
    G, filt = gr.make_heisenberg(2)
    rng = random.Random(13)
    cubes2 = list(cg.enumerate_cubes(filt, 2))
    hits = 0
    for _ in range(200):
        q0 = rng.choice(cubes2)
        q1 = rng.choice(cubes2)
        direct = cg.is_cube(cg.arrow(q0, q1, 2, 1), filt)
        split = oracles.arrow_membership(q0, q1, 2, 1, filt)
        assert direct == split
        hits += direct
    assert 0 < hits < 200


def test_standard_abelian_cube_three_characterizations():
    A = gr.CyclicProduct((3,))
    count = 0
    for values in itertools.product(range(3), repeat=4):
        if oracles.is_standard_abelian_cube(values, A):
            count += 1
    assert count == 27  # x, h1, h2 free


def test_degree_k_cube_counts():
    A = gr.CyclicProduct((2,))
    is_cube = oracles.is_degree_k_abelian_cube
    n2 = sum(is_cube(v, A, 1) for v in itertools.product(range(2), repeat=4))
    n3 = sum(is_cube(v, A, 2) for v in itertools.product(range(2), repeat=8))
    low = sum(is_cube(v, A, 2) for v in itertools.product(range(2), repeat=4))
    assert n2 == 8
    assert n3 == 128
    assert low == 16  # dimension <= k: everything
    # the face criterion is the oracle for the cubes of the maximal
    # degree-k filtration, which the bundle check enumerates
    Z3, Z4, Z2Z2 = gr.CyclicProduct((3,)), gr.CyclicProduct((4,)), gr.CyclicProduct((2, 2))
    for B, k, n in [(A, 1, 2), (A, 2, 3), (A, 2, 2), (Z3, 1, 3), (Z3, 2, 3), (Z4, 1, 2),
                    (Z2Z2, 1, 2)]:
        filt = gr.maximal_degree_k_filtration(B, k)
        scanned = {v for v in itertools.product(range(B.order), repeat=1 << n)
                   if is_cube(v, B, k)}
        assert set(cg.enumerate_cubes(filt, n)) == scanned


def test_enumerate_cubes_equals_membership_scan():
    A = gr.CyclicProduct((3,))
    filt = gr.maximal_degree_k_filtration(A, 1)
    enumerated = set(cg.enumerate_cubes(filt, 2))
    scanned = {v for v in itertools.product(range(3), repeat=4) if cg.is_cube(v, filt)}
    assert enumerated == scanned


def _enumerate_cubes_by_coefficients(filt, n):
    """Every coefficient tuple in itertools.product order, multiplied
    out: the oracle for the top-coordinate recursion."""
    pools = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
    for coeffs in itertools.product(*pools):
        yield cg.multiply_out(coeffs, n, filt.group)


_ENUMERATION_FILTRATIONS = {
    "H2": lambda: gr.make_heisenberg(2)[1],
    "H3": lambda: gr.make_heisenberg(3)[1],
    "D1(Z/2)": lambda: gr.maximal_degree_k_filtration(gr.CyclicProduct((2,)), 1),
    "D2(Z/2)": lambda: gr.maximal_degree_k_filtration(gr.CyclicProduct((2,)), 2),
    # G_0 = Z/4 > G_1 = 2Z/4: cubes of a filtration that is not ergodic
    "Z/4 > 2Z/4": lambda: gr.Filtration(gr.CyclicProduct((4,)), (
        frozenset(range(4)), frozenset({0, 2}))),
    "D1(Z/4)": lambda: gr.maximal_degree_k_filtration(gr.CyclicProduct((4,)), 1),
    "D2(Z/4)": lambda: gr.maximal_degree_k_filtration(gr.CyclicProduct((4,)), 2),
    "Z/8 > 2Z/8 > 4Z/8": lambda: gr.Filtration(gr.CyclicProduct((8,)), (
        frozenset(range(8)), frozenset(range(8)), frozenset({0, 2, 4, 6}), frozenset({0, 4}))),
    "H2 shifted by 1": lambda: oracles.shift_filtration(gr.make_heisenberg(2)[1], 1),
    "H3 shifted by 1": lambda: oracles.shift_filtration(gr.make_heisenberg(3)[1], 1),
    "D2(Z/4) shifted by 2": lambda: oracles.shift_filtration(
        gr.maximal_degree_k_filtration(gr.CyclicProduct((4,)), 2), 2),
}


@pytest.mark.parametrize("name", sorted(_ENUMERATION_FILTRATIONS))
def test_enumerate_cubes_matches_coefficient_product_as_a_sequence(name):
    """The recursion reads the subgroups G_s up to s = n, so the shifted
    filtrations check shifts by up to 7 at n = 5."""
    filt = _ENUMERATION_FILTRATIONS[name]()
    compared = []
    for n in range(6):
        if cg.count_cubes(filt, n) > 40_000:
            continue
        got = list(cg.enumerate_cubes(filt, n))
        assert got == list(_enumerate_cubes_by_coefficients(filt, n))
        assert len(got) == cg.count_cubes(filt, n)
        compared.append(n)
    # H3 has 59,049 2-cubes, so it compares n = 0, 1 only
    assert len(compared) >= 2
    if name in ("D1(Z/2)", "D2(Z/2)", "Z/4 > 2Z/4"):
        assert 4 in compared


def test_enumerate_cubes_forms_one_top_cube_per_step():
    """The first 3-cube of H3 costs the op calls of the levels below,
    Cu^d(G_{+s}) for d = 1, 2 and s + d <= 3, each cube of level d 2^(d-1)
    of them, and 2^2 for itself: no other 3-cube is formed before it is
    yielded."""
    n = 3
    G = _CountingHeisenberg(3)
    filt = gr.lower_central_series(G)

    def count(s, d):
        return cg.count_cubes(oracles.shift_filtration(filt, s), d)

    below = sum(count(s, d - 1) * count(s + 1, d - 1) << (d - 1)
                for d in range(1, n) for s in range(n - d + 1))
    G.calls = 0
    first = next(cg.enumerate_cubes(filt, n))
    assert G.calls <= below + (1 << (n - 1))
    assert first == next(_enumerate_cubes_by_coefficients(filt, n))


def _complete_corner_rebuilding(corner, n, filt):
    """Corner completion by the constructive quotient recursion: quotient
    out the last nontrivial filtration level, complete the projected
    corner, lift its factorization coefficients to the least element of
    their level over each coset, and correct weight levels 1..d with
    upper-face factors.  A fresh QuotientGroup and pushed filtration at
    every level.  Kept as the independent oracle for complete_corner."""
    if n < 1:
        raise cg.CornerError("corners of dimension 0 are disallowed")
    for i, tbl in enumerate(cb.face_index_tables(n - 1, n)[0::2]):
        if not cg.is_cube_by_equations([corner[t] for t in tbl], filt):
            raise cg.CornerError("corner premise fails on the face with coordinate %d = 0" % i)
    return _rebuild(corner, n, filt)


def _rebuild(corner, n, filt):
    top = (1 << n) - 1
    G = filt.group
    d = filt.degree
    if d <= 0:
        return tuple(corner.get(j, corner[0]) for j in range(1 << n))
    Gd = filt.subgroup(d)
    Q = gr.QuotientGroup(G, Gd)
    qfilt = gr.Filtration(Q, tuple(frozenset(Q.project(g) for g in S) for S in filt.chain))
    qcorner = {j: Q.project(v) for j, v in corner.items()}
    qfull = _rebuild(qcorner, n, qfilt)
    qcoeffs = cg.factorize(qfull, qfilt)
    assert not isinstance(qcoeffs, cg.Reject)
    lifted = []
    for t, gbar in zip(cg._thresholds(n), qcoeffs):
        lvl = filt.subgroup(min(t, d))
        lifted.append(min(g for g in lvl if Q.project(g) == gbar))
    values = list(cg.multiply_out(lifted, n, G))
    c = G.op(corner[0], G.inv(values[0]))
    assert c in Gd
    values = [G.op(c, v) for v in values]
    for j in range(1, min(d, n) + 1):
        for v in range(1 << n):
            if v == top or bin(v).count("1") != j:
                continue
            g = G.op(G.inv(values[v]), corner[v])
            if g not in Gd:
                raise cg.CornerError("corner values are inconsistent at vertex %d" % v)
            if g == 0:
                continue
            for w in range(1 << n):
                if w & v == v:
                    values[w] = G.op(values[w], g)
    for v in range(1 << n):
        if v != top and values[v] != corner[v]:
            raise cg.CornerError("corner is not completable: mismatch at vertex %d" % v)
    return tuple(values)


def _tower_filtrations():
    """Filtrations of degrees 0 to 3."""
    z8 = gr.CyclicProduct((8,))
    explicit = gr.Filtration(z8, (frozenset(range(8)), frozenset(range(8)),
                                  frozenset({0, 2, 4, 6}), frozenset({0, 4}), frozenset({0})))
    assert gr.validate_filtration(explicit) is None
    return {
        "H2": gr.make_heisenberg(2)[1],
        "H3": gr.make_heisenberg(3)[1],
        "H4": gr.make_heisenberg(4)[1],
        "H5": gr.make_heisenberg(5)[1],
        "D0(Z/3)": gr.maximal_degree_k_filtration(gr.CyclicProduct((3,)), 0),
        "D1(Z/6)": gr.maximal_degree_k_filtration(gr.CyclicProduct((6,)), 1),
        "D2(Z/4)": gr.maximal_degree_k_filtration(gr.CyclicProduct((4,)), 2),
        "Z/8 > 2Z/8 > 4Z/8": explicit,
    }


def _outcome(complete, corner, n, filt):
    try:
        return complete(corner, n, filt)
    except cg.CornerError as e:
        return ("CornerError", str(e))


@pytest.mark.parametrize("name", sorted(_tower_filtrations()))
def test_complete_corner_matches_quotient_recursion_oracle(name):
    """complete_corner agrees with the quotient recursion, completions and
    refusal messages alike, on corners of random cubes, the same corners
    with one vertex changed, and uniform random corners."""
    filt = _tower_filtrations()[name]
    G = filt.group
    rng = random.Random(name)
    refusals = 0
    for n in range(1, 5):
        top = (1 << n) - 1
        levels = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
        for _ in range(6):
            cube = cg.multiply_out([rng.choice(lv) for lv in levels], n, G)
            genuine = dict(enumerate(cube[:top]))
            perturbed = dict(genuine)
            j = rng.randrange(top)
            perturbed[j] = rng.choice([x for x in G.elements() if x != perturbed[j]])
            uniform = {j: rng.randrange(G.order) for j in range(top)}
            for corner in (genuine, perturbed, uniform):
                got = _outcome(cg.complete_corner, corner, n, filt)
                assert got == _outcome(_complete_corner_rebuilding, corner, n, filt), (n, corner)
                refusals += isinstance(got[0], str)
            assert cg.complete_corner(genuine, n, filt)[:top] == cube[:top]
    assert refusals > 0


@pytest.mark.parametrize("name", sorted(_tower_filtrations()))
def test_canonical_completion_has_the_identity_top_coefficient(name):
    """complete_corner returns the completion whose upper-face
    coefficient at 1^n is the identity, for corners of random cubes, the
    same corners with one vertex changed, and uniform random corners."""
    filt = _tower_filtrations()[name]
    G = filt.group
    rng = random.Random("top " + name)
    completed = 0
    for n in range(1, 5):
        top = (1 << n) - 1
        levels = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
        for _ in range(6):
            cube = cg.multiply_out([rng.choice(lv) for lv in levels], n, G)
            genuine = dict(enumerate(cube[:top]))
            perturbed = dict(genuine)
            j = rng.randrange(top)
            perturbed[j] = rng.choice([x for x in G.elements() if x != perturbed[j]])
            uniform = {j: rng.randrange(G.order) for j in range(top)}
            for corner in (genuine, perturbed, uniform):
                try:
                    full = cg.complete_corner(corner, n, filt)
                except cg.CornerError:
                    continue
                assert full[:top] == tuple(corner[j] for j in range(top))
                assert cg.factorize(full, filt)[top] == 0, (n, corner)
                completed += 1
    assert completed >= 4 * 6


def _completion_filtrations():
    """The tower filtrations but H4, and one whose points 2Z/8 are a
    proper subgroup of its group Z/8."""
    filts = _tower_filtrations()
    del filts["H4"]
    z8 = gr.CyclicProduct((8,))
    even = frozenset({0, 2, 4, 6})
    filts["2Z/8 > 4Z/8"] = gr.Filtration(z8, (even, even, frozenset({0, 4}), frozenset({0})))
    assert gr.validate_filtration(filts["2Z/8 > 4Z/8"]) is None
    return filts


def _any_outcome(complete, corner, n, filt):
    try:
        return complete(corner, n, filt)
    except ValueError as e:  # CornerError too
        return (type(e).__name__, str(e))


def _out_of_range(rng, corner, n, G):
    """The corner with one or two defects: a value outside 0..order-1, a
    missing vertex, or a key that is not a vertex below the top."""
    bad = dict(corner)
    top = (1 << n) - 1
    for _ in range(rng.randint(1, 2)):
        defect = rng.randrange(3)
        if defect == 0 and top:
            bad[rng.randrange(top)] = rng.choice([-1, G.order, G.order + 7])
        elif defect == 1 and top:
            bad.pop(rng.randrange(top), None)
        else:
            bad[rng.choice([top, top + 1, -1])] = 0
    return bad


@pytest.mark.parametrize("name", sorted(_completion_filtrations()))
def test_complete_corner_matches_the_face_by_face_oracle(name):
    """One pass gives the cube, or the exception type and message, that
    factorizing each face {x_i = 0} and multiplying out gives: on corners
    of random cubes, the same corners with one vertex changed, uniform
    corners and corners with out-of-range values or keys, n = 0..5."""
    filt = _completion_filtrations()[name]
    G = filt.group
    rng = random.Random("faces " + name)
    seen = set()
    for n in range(6):
        top = (1 << n) - 1
        levels = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
        for _ in range(15):
            cube = cg.multiply_out([rng.choice(lv) for lv in levels], n, G)
            genuine = dict(enumerate(cube[:top]))
            perturbed = dict(genuine)
            if top:
                j = rng.randrange(top)
                perturbed[j] = rng.choice([x for x in G.elements() if x != perturbed[j]])
            uniform = {j: rng.randrange(G.order) for j in range(top)}
            for corner in (genuine, perturbed, uniform, _out_of_range(rng, uniform, n, G)):
                got = _any_outcome(cg.complete_corner, corner, n, filt)
                assert got == _any_outcome(oracles.complete_corner_by_faces, corner, n, filt), \
                    (n, corner)
                seen.add(got[0] if isinstance(got[0], str) else "cube")
    assert seen == {"cube", "CornerError", "ValueError"}


class _CountingHeisenberg(gr.Heisenberg):
    """H_m that counts its group-law calls."""

    def __init__(self, m):
        super().__init__(m)
        self.calls = 0

    def op(self, x, y):
        self.calls += 1
        return super().op(x, y)

    def inv(self, x):
        self.calls += 1
        return super().inv(x)


def _counted_h3_cubes(rng, n):
    """H3 counting its group-law calls, its filtration, and three maps of
    dimension n: a random cube, the cube with one vertex changed and a
    uniform map."""
    G = _CountingHeisenberg(3)
    filt = gr.lower_central_series(G)
    levels = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
    cube = cg.multiply_out([rng.choice(lv) for lv in levels], n, G)
    perturbed = list(cube)
    j = rng.randrange(1 << n)
    perturbed[j] = (perturbed[j] + 1 + rng.randrange(G.order - 1)) % G.order
    return G, filt, (cube, tuple(perturbed), tuple(rng.randrange(G.order) for _ in cube))


def test_complete_corner_costs_one_factorization_pass():
    """complete_corner makes at most n 2^n + 1 op and inv calls on H3:
    one product and one inverse per step of the transform, and the
    inverse of the top coefficient.  A walk through the supersets of
    each vertex makes more from n = 2 on: 11, 33, 92, 253 at n = 2..5."""
    rng = random.Random("counted corners")
    for n in range(1, 6):
        top = (1 << n) - 1
        worst = 0
        for _ in range(20):
            G, filt, maps = _counted_h3_cubes(rng, n)
            for values in maps:
                G.calls = 0
                try:
                    cg.complete_corner(dict(enumerate(values[:top])), n, filt)
                except cg.CornerError:
                    pass
                worst = max(worst, G.calls)
        assert worst <= n * 2 ** n + 1, (n, worst)


def test_factorize_costs_n_2_to_the_n_calls():
    """factorize makes at most n 2^(n-1) products and as many inverses
    on H3, on cubes and on maps that are not.  A walk through the
    supersets of each vertex makes more: 13, 35, 90, 233 at n = 2..5."""
    rng = random.Random("counted factorizations")
    for n in range(1, 6):
        worst = 0
        for _ in range(20):
            G, filt, maps = _counted_h3_cubes(rng, n)
            for values in maps:
                G.calls = 0
                cg.factorize(values, filt)
                worst = max(worst, G.calls)
        assert worst <= n * 2 ** n, (n, worst)


def test_multiply_out_costs_n_2_to_the_n_minus_1_products():
    """multiply_out makes at most n 2^(n-1) products on H3, against the
    3^n of a walk through the subsets of each vertex."""
    rng = random.Random("counted products")
    for n in range(1, 6):
        worst = 0
        for _ in range(20):
            G, _filt, maps = _counted_h3_cubes(rng, n)
            for coeffs in maps:
                G.calls = 0
                cg.multiply_out(coeffs, n, G)
                worst = max(worst, G.calls)
        assert worst <= n * 2 ** (n - 1), (n, worst)


@pytest.mark.parametrize("name", ["H2", "H3", "H5", "D2(Z/4)", "D1(Z/6)", "Z/8 > 2Z/8 > 4Z/8"])
def test_factorize_and_multiply_out_match_the_vertex_filter_oracles(name):
    """factorize and multiply_out give the vertex-filter loops'
    coefficients, Reject fields and multiplied-out tuples, on random cubes,
    the same cubes with one vertex changed and uniform maps, unweighted
    and weighted, n = 0..6.  Uniform coefficient lists check that the
    product order is kept in the non-abelian groups."""
    filt = _tower_filtrations()[name]
    G = filt.group
    rng = random.Random("vertex filter " + name)
    accepted = rejected = 0
    for n in range(7):
        levels = [sorted(filt.subgroup(t)) for t in cg._thresholds(n)]
        for _ in range(4):
            anything = [rng.randrange(G.order) for _ in range(1 << n)]
            assert (cg.multiply_out(anything, n, G)
                    == oracles.multiply_out_by_vertex_filter(anything, n, G))
            coeffs = [rng.choice(lv) for lv in levels]
            cube = cg.multiply_out(coeffs, n, G)
            assert cube == oracles.multiply_out_by_vertex_filter(coeffs, n, G)
            assert cg.factorize(cube, filt) == coeffs
            perturbed = list(cube)
            j = rng.randrange(1 << n)
            perturbed[j] = rng.choice([x for x in G.elements() if x != cube[j]])
            for values in (cube, perturbed, anything):
                got = cg.factorize(values, filt)
                assert got == oracles.factorize_by_vertex_filter(values, filt)
                if isinstance(got, cg.Reject):
                    rejected += 1
                else:
                    accepted += 1
                    assert cg.multiply_out(got, n, G) == tuple(values)
    assert accepted > 0 and rejected > 0


_HIGH_DIMENSIONS = [(name, n) for name, n_max in (("D1(Z/2)", 10), ("Z/8 > 2Z/8 > 4Z/8", 10),
                                                  ("H2", 8))
                    for n in range(7, n_max + 1)]


@pytest.mark.parametrize("name,n", _HIGH_DIMENSIONS)
def test_transforms_match_the_oracles_in_high_dimension(name, n):
    """factorize, multiply_out and complete_corner against the
    vertex-filter and face-by-face oracles at n = 7..10 (n = 7..8 on
    H2), where most transform steps run on the upper coordinates: random
    cubes, the same cubes with one vertex changed and uniform maps, four
    times."""
    if name == "D1(Z/2)":
        filt = gr.maximal_degree_k_filtration(gr.CyclicProduct((2,)), 1)
    else:
        filt = _tower_filtrations()[name]
    G = filt.group
    rng = random.Random("high %s %d" % (name, n))
    top = (1 << n) - 1
    for _ in range(4):
        coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in cg._thresholds(n)]
        cube = cg.multiply_out(coeffs, n, G)
        assert cube == oracles.multiply_out_by_vertex_filter(coeffs, n, G)
        assert cg.factorize(cube, filt) == coeffs
        perturbed = list(cube)
        j = rng.randrange(1 << n)
        perturbed[j] = rng.choice([x for x in G.elements() if x != cube[j]])
        anything = [rng.randrange(G.order) for _ in cube]
        assert (cg.multiply_out(anything, n, G)
                == oracles.multiply_out_by_vertex_filter(anything, n, G))
        for values in (cube, perturbed, anything):
            assert (cg.factorize(values, filt)
                    == oracles.factorize_by_vertex_filter(values, filt))
            corner = dict(enumerate(values[:top]))
            assert (_any_outcome(cg.complete_corner, corner, n, filt)
                    == _any_outcome(oracles.complete_corner_by_faces, corner, n, filt))


def test_out_of_range_values_are_refused():
    A = gr.CyclicProduct((2,))
    filt = gr.maximal_degree_k_filtration(A, 1)
    for bad in ([0, 5], [0, -1]):
        with pytest.raises(ValueError, match="vertex 1"):
            cg.factorize(bad, filt)
    with pytest.raises(ValueError, match="corner vertex 2") as info:
        cg.complete_corner({0: 0, 1: 1, 2: 2}, 2, filt)
    assert not isinstance(info.value, cg.CornerError)


@pytest.mark.parametrize("corner,vertex", [
    ({0: 0, 1: 1}, "vertex 2"),
    ({0: 0, 1: 1, 2: 2, 3: 5}, "key 3"),
    ({0: 0, 1: 1, 2: 2, 7: 0}, "key 7"),
    ({0: 0, 2: 2, 7: 0}, "vertex 1"),
])
def test_corner_keys_must_be_the_vertices_below_the_top(heis2, corner, vertex):
    _G, filt = heis2
    with pytest.raises(ValueError, match=vertex) as info:
        cg.complete_corner(corner, 2, filt)
    assert not isinstance(info.value, cg.CornerError)


@pytest.mark.parametrize("length", [0, 3, 5, 6])
def test_a_map_of_a_length_other_than_a_power_of_two_is_a_value_error(heis2, length):
    from nilcube import poly

    _G, filt = heis2
    A = gr.CyclicProduct((2,))
    for check, args in ((cg.factorize, (filt,)), (cg.is_cube, (filt,)),
                        (cg.is_cube_by_equations, (filt,)), (poly.cube_to_binomial, (filt,)),
                        (oracles.is_standard_abelian_cube, (A,)),
                        (oracles.is_degree_k_abelian_cube, (A, 1))):
        with pytest.raises(ValueError, match=r"a cube needs 2\^n values, not %d" % length):
            check([0] * length, *args)


def test_the_length_check_is_not_an_assert():
    # python -O strips assert statements; the check must survive it
    code = ("from nilcube import cubegroups as cg, groups as gr\n"
            "try:\n    cg.factorize([0, 0, 0], gr.make_heisenberg(2)[1])\n"
            "except ValueError:\n    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.stdout.strip() == "refused", out.stderr


@pytest.mark.parametrize("length", [3, 5])
def test_a_coefficient_list_of_the_wrong_length_is_a_value_error(heis2, length):
    G, _filt = heis2
    with pytest.raises(ValueError, match=r"^%d coefficients for a cube of dimension 2: "
                                         r"it needs 2\^2 = 4$" % length):
        cg.multiply_out(list(range(length)), 2, G)
