"""Cocycles, coboundaries, model extensions, cross sections, and
tricube sums."""

import itertools
import random
import time

import pytest

from nilcube import cohomology as coh
from nilcube import cubes as cb
from nilcube import groups as gr
from nilcube import structure as stc
from nilcube.cubespace import (
    Cubespace,
    ExplicitCubespace,
    abelian_Dk,
    check_axioms,
    simplicial_extend,
    tricube_compose,
)


Z2 = gr.FiniteAbelianGroup((2,))


def _all_cocycles(X, k, A):
    return coh.enumerate_cocycles(X, k, A)


def test_cocycle_counts_on_d1z2(d1z2):
    for k in (1, 2):
        cocs = _all_cocycles(d1z2, k, Z2)
        assert len(cocs) == 2
        classes = coh.cohomology_classes(cocs)
        assert len(classes) == 2
        # only the zero cocycle is a coboundary
        cobs = [rho for rho in cocs if coh.is_coboundary(rho) is not None]
        assert len(cobs) == 1
        assert all(v == 0 for v in cobs[0].table.values())


def test_coboundaries_are_cocycles(d1z3):
    A = gr.FiniteAbelianGroup((3,))
    for f in itertools.product(range(3), repeat=3):
        rho = coh.coboundary_of(d1z3, f, 1, A)
        assert coh.validate_cocycle(rho) is None
        got = coh.is_coboundary(rho)
        assert got is not None
        assert coh.coboundary_of(d1z3, got, 1, A).table == rho.table


def test_is_coboundary_matches_bruteforce(d1z2):
    # exhaustively compare the exact solver with a scan over all
    # candidate functions
    for rho in _all_cocycles(d1z2, 1, Z2):
        brute = None
        for f in itertools.product(range(2), repeat=2):
            if coh.coboundary_of(d1z2, f, 1, Z2).table == rho.table:
                brute = f
                break
        assert (coh.is_coboundary(rho) is not None) == (brute is not None)


def test_automorphism_sign_law(d1z3):
    A = gr.FiniteAbelianGroup((3,))
    rho = coh.coboundary_of(d1z3, [0, 1, 2], 1, A)
    for theta in cb.automorphism_group(2):
        tbl = theta.to_morphism().index_table()
        for q in d1z3.cubes(2):
            qq = tuple(q[t] for t in tbl)
            want = rho.table[q] if theta.r() % 2 == 0 else A.inv(rho.table[q])
            assert rho.table[qq] == want


def test_model_extension_is_a_nilspace(d1z2):
    for rho in _all_cocycles(d1z2, 1, Z2):
        M = coh.build_extension(rho)
        rep = check_axioms(M, 3, composition_budget=200_000)
        assert rep.is_nilspace
        data = M.as_extension_data()
        assert stc.verify_degree_k_bundle(data, 2) is None


def test_nonzero_degree1_extension_of_d1z2_is_z4(d1z2):
    nz = [rho for rho in _all_cocycles(d1z2, 1, Z2) if any(rho.table.values())][0]
    M = coh.build_extension(nz)
    rep = check_axioms(M, 3, composition_budget=200_000)
    assert rep.step == 1
    ref = abelian_Dk(gr.CyclicProduct((4,)), 1)
    # 1-step, 4 points, ergodic: it must be D_1(Z/4) up to relabelling;
    # confirm via cube-set sizes
    for n in (1, 2):
        assert len(M.cubes(n)) == len(ref.cubes(n))


def test_obvious_section_round_trip(d1z2):
    for k in (1, 2):
        for rho in _all_cocycles(d1z2, k, Z2):
            M = coh.build_extension(rho)
            data = M.as_extension_data()
            back = coh.cross_section_cocycle(data, M.obvious_section())
            assert back.table == rho.table


def test_extension_iso_with_twisted_section(d1z2):
    # M(rho) is isomorphic to M(rho_s) for every section s: the cocycle of
    # a twisted section is in the class of rho
    nz = [rho for rho in _all_cocycles(d1z2, 1, Z2) if any(rho.table.values())][0]
    M = coh.build_extension(nz)
    data = M.as_extension_data()
    s = [M.encode(0, 0), M.encode(1, 1)]
    assert coh.cocycles_equivalent(coh.cross_section_cocycle(data, s), nz)


def test_tricube_sum_equals_outer_evaluation(d1z2):
    # beta(t, rho) = rho(t o omega_k) for every cocycle and every tricube
    # morphism (exhaustive at k = 2 over all morphism tables)
    from nilcube.cubespace import is_tricube_morphism

    k = 2
    cocs = _all_cocycles(d1z2, 1, Z2)
    pts = cb.tricube_points(k)
    count = 0
    for vals in itertools.product(range(2), repeat=len(pts)):
        t = dict(zip(pts, vals))
        if not is_tricube_morphism(d1z2, t, k):
            continue
        count += 1
        outer = coh.tricube_outer(t, k)
        assert d1z2.membership(k, outer)
        for rho in cocs:
            assert coh.tricube_sum(t, rho.table, k, Z2) == rho.table[outer]
    assert count == 32


def test_cross_section_lift_independence(d2z2):
    # a degree-2 coboundary on a 2-step base: the cross-section machinery
    # must produce lift-independent values (asserted inside)
    A = gr.FiniteAbelianGroup((2,))
    f = [x % 2 for x in range(d2z2.size)]
    rho = coh.coboundary_of(d2z2, f, 2, A)
    assert coh.validate_cocycle(rho) is None
    M = coh.build_extension(rho)
    data = M.as_extension_data()
    back = coh.cross_section_cocycle(data, M.obvious_section())
    assert back.table == rho.table


def test_build_extension_rejects_non_cocycle(d1z2):
    dom = sorted(d1z2.cubes(2))
    bad_table = {q: 0 for q in dom}
    bad_table[dom[0]] = 1  # breaks the automorphism law
    bad = coh.Cocycle(d1z2, 1, Z2, bad_table)
    assert coh.validate_cocycle(bad) is not None
    with pytest.raises(ValueError):
        coh.build_extension(bad)


def test_is_coboundary_on_degree_2_tables_of_h2(heis2_space):
    # 32,768 equations in 8 unknowns: the Smith elimination carries the
    # constants, not a 32,768 x 32,768 row transform
    X = heis2_space
    start = time.perf_counter()
    zero = coh.Cocycle(X, 2, Z2, {q: 0 for q in X.cubes(3)})
    assert coh.is_coboundary(zero) == [0] * X.size
    assert time.perf_counter() - start < 10.0
    A = gr.FiniteAbelianGroup((2, 4))
    rng = random.Random(3)
    rho = coh.coboundary_of(X, [rng.randrange(A.order) for _ in range(X.size)], 2, A)
    f = coh.is_coboundary(rho)
    assert f is not None and coh.coboundary_of(X, f, 2, A).table == rho.table


# the cube set of dimension 2 is not closed under the cube symmetries
ASYMMETRIC = ExplicitCubespace(2, {1: [(0, 0), (0, 1), (1, 0), (1, 1)], 2: [(0, 0, 0, 1)]})


@pytest.mark.parametrize("space,k,invariants", [
    ("d1z2", 1, (2,)), ("d1z2", 2, (2,)), ("d2z2", 1, (2,)), ("d1z2", 1, (4,)),
    ("d1z2", 1, (2, 2)), ("d1z2", 0, (3,)), ("d1z3", 0, (3,)), ("asymmetric", 1, (2,)),
], ids=["d1z2-k1", "d1z2-k2", "d2z2-k1", "d1z2-z4", "d1z2-z2xz2", "d1z2-k0-z3", "d1z3-k0",
        "asymmetric"])
def test_cocycle_class_counts_equal_enumeration(request, space, k, invariants):
    X = ASYMMETRIC if space == "asymmetric" else request.getfixturevalue(space)
    A = gr.FiniteAbelianGroup(invariants)
    cocycles = coh.enumerate_cocycles(X, k, A)
    want = (len(cocycles), len(coh.cohomology_classes(cocycles)))
    assert coh.count_cocycle_classes(X, k, A) == want
    assert want != (0, 0) or space == "asymmetric"


def _rank_mod_p(rows, p):
    """The rank over Z/p of integer rows, by Gaussian elimination."""
    basis = []  # (pivot, row with 1 at pivot and 0 at every earlier pivot)
    for row in rows:
        row = [c % p for c in row]
        for piv, b in basis:
            if row[piv]:
                f = row[piv]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, p)
            basis.append((piv, [x * inv % p for x in row]))
    return len(basis)


@pytest.mark.parametrize("m,k,p", [(2, 3, 2), (4, 1, 2), (3, 1, 3), (3, 2, 3)])
def test_cocycle_count_past_the_table_cap_is_p_to_the_nullity(m, k, p):
    # |A|^|Cu^(k+1)| tables are too many to enumerate; over A = Z/p the
    # cocycles are the null space of the sign laws of every automorphism
    # and the concatenations
    X = abelian_Dk(gr.CyclicProduct((m,)), 1)
    A = gr.FiniteAbelianGroup((p,))
    n = k + 1
    dom = sorted(X.cubes(n))
    with pytest.raises(ValueError):
        coh.enumerate_cocycles(X, k, A)
    pos = {q: i for i, q in enumerate(dom)}
    rows = set()
    for theta in cb.automorphism_group(n):
        tbl = theta.to_morphism().index_table()
        for q in dom:
            row = [0] * len(dom)
            row[pos[tuple(q[t] for t in tbl)]] += 1
            row[pos[q]] += -1 if theta.r() % 2 == 0 else 1
            rows.add(tuple(row))
    half = 1 << k
    for q1 in dom:
        for q2 in dom:
            if q1[half:] == q2[:half]:
                row = [0] * len(dom)
                for q, c in ((q1[:half] + q2[half:], 1), (q1, -1), (q2, -1)):
                    row[pos[q]] += c
                rows.add(tuple(row))
    z, _classes = coh.count_cocycle_classes(X, k, A)
    assert z == p ** (len(dom) - _rank_mod_p(sorted(rows), p))


def _extension_cases():
    from nilcube.groups import CyclicProduct

    d1, d2 = abelian_Dk(CyclicProduct((2,)), 1), abelian_Dk(CyclicProduct((2,)), 2)
    cases = [pytest.param(rho, id="%s-k%d-%d" % (name, k, i))
             for name, X, k in (("d1z2", d1, 1), ("d1z2", d1, 2), ("d2z2", d2, 1))
             for i, rho in enumerate(coh.enumerate_cocycles(X, k, Z2))]
    # a base 2-cube with the non-cube (0, 1) as a face, which does not lift
    tables = {1: [(0, 0), (1, 0), (1, 1)], 2: sorted(d1.cubes(2))}
    nonzero = next(c.values[0] for c in cases[:2] if any(c.values[0].table.values()))
    base = ExplicitCubespace(2, tables, 1)
    cases.append(pytest.param(coh.Cocycle(base, 1, Z2, dict(nonzero.table)), id="not-lifting"))
    return cases


@pytest.mark.parametrize("rho", _extension_cases())
def test_extension_cubes_are_the_scanned_cubes(rho):
    assert coh.validate_cocycle(rho) is None
    M = coh.ExtensionSpace(rho)
    for n in (1, 2, 3):
        # a fresh M(rho) has no cube sets, so its scan asks membership
        scanned = frozenset(Cubespace._scan_maps(coh.ExtensionSpace(rho), n, False))
        assert M.cubes(n) == scanned
        assert M.count_cubes(n, 10 ** 6) == len(scanned)
        product = len(rho.X.cubes(n)) * len(M.fibre_space.cubes(n))
        assert M.count_cubes(n, len(scanned) - 1) == product >= len(scanned)
