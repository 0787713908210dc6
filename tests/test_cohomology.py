"""Cocycles, coboundaries, model extensions, cross sections, and
tricube sums."""

import itertools
import random

import pytest

from nilcube import cohomology as coh
from nilcube import cubes as cb
from nilcube import groups as gr
from nilcube import structure as stc
from nilcube.cubespace import abelian_Dk, check_axioms, simplicial_extend, tricube_compose


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
