"""Discrete-cube combinatorics: morphism normal form, faces,
automorphisms, Gray order, injective decompositions, tricubes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcube import cubes as cb


def all_morphisms(m, n):
    entries = [cb.CONST0, cb.CONST1]
    for i in range(m):
        entries.append(cb.Id(i))
        entries.append(cb.Refl(i))
    for coords in itertools.product(entries, repeat=n):
        yield cb.CubeMorphism(m, n, tuple(coords))


def is_morphism_bruteforce(images, m, n):
    # a map {0,1}^m -> {0,1}^n is a cube morphism iff it matches some
    # entry normal form; check by scanning all of them
    for phi in all_morphisms(m, n):
        if tuple(phi.vertex_table()) == images:
            return True
    return False


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_validate_morphism_matches_normal_form_oracle(m, n):
    verts = list(cb.vertices(n))
    dom = list(cb.vertices(m))
    hits = 0
    for images in itertools.product(verts, repeat=1 << m):
        got = cb.validate_morphism(dict(zip(dom, images)), m, n)
        want = is_morphism_bruteforce(images, m, n)
        assert (got is not None) == want
        if want:
            hits += 1
            assert tuple(got.vertex_table()) == images
    assert hits == (2 + 2 * m) ** n


def test_every_entry_combination_is_a_morphism():
    for m, n in [(1, 2), (2, 2), (3, 2)]:
        dom = list(cb.vertices(m))
        for phi in all_morphisms(m, n):
            table = dict(zip(dom, phi.vertex_table()))
            assert cb.validate_morphism(table, m, n) is not None


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_morphisms_pointwise(l, m, n, data):
    phis = list(all_morphisms(m, n))
    psis = list(all_morphisms(l, m))
    phi = data.draw(st.sampled_from(phis))
    psi = data.draw(st.sampled_from(psis))
    comp = cb.compose_morphisms(phi, psi)
    for v in cb.vertices(l):
        assert comp.apply(v) == phi.apply(psi.apply(v))


def test_face_map_counts():
    for m, n in [(0, 2), (1, 2), (1, 3), (2, 3), (3, 3)]:
        maps = cb.enumerate_face_maps(m, n)
        for phi in maps:
            assert cb.is_face_map(phi)
        assert len(set(tuple(p.index_table()) for p in maps)) == len(maps)


def test_face_index_tables_cache_agrees():
    for m, n in [(1, 3), (2, 4), (3, 4)]:
        tables = cb.face_index_tables(m, n)
        fresh = tuple(tuple(p.index_table()) for p in cb.enumerate_face_maps(m, n))
        assert tables == fresh


def test_automorphism_generators_generate_the_group_and_are_memoised():
    for n in range(5):
        entries = cb.automorphism_generator_tables(n)
        gens = [theta for theta, _tbl, _r in entries]
        assert len(gens) == n
        for theta, tbl, r in entries:
            assert tbl == tuple(theta.to_morphism().index_table())
            assert r == theta.r()
        ident = cb.CubeAutomorphism(tuple(range(n)), (0,) * n)
        closure, frontier = {ident}, [ident]
        while frontier:
            a = frontier.pop()
            for s in gens:
                b = a.compose(s)
                if b not in closure:
                    closure.add(b)
                    frontier.append(b)
        assert closure == set(cb.automorphism_group(n))
        assert cb.automorphism_generator_tables(n) is entries


def test_automorphism_group_sizes_and_closure():
    for n, size in [(1, 2), (2, 8), (3, 48)]:
        auts = cb.automorphism_group(n)
        assert len(auts) == size
        tables = {tuple(a.to_morphism().vertex_table()) for a in auts}
        for a in auts:
            for b in auts:
                c = a.compose(b)
                assert tuple(c.to_morphism().vertex_table()) in tables
            inv = a.inverse()
            comp = a.compose(inv)
            assert all(comp.apply(v) == v for v in cb.vertices(n))


def test_gray_order_adjacency():
    for n in range(1, 7):
        order = [cb.vertex_index(v) for v in cb.gray_order(n)]
        assert sorted(order) == list(range(1 << n))
        for a, b in zip(order, order[1:]):
            assert bin(a ^ b).count("1") == 1


def test_j_sets_injectivity_and_face():
    phi = cb.CubeMorphism(2, 2, (cb.Id(0), cb.Id(1)))
    js, used = cb.j_sets(phi)
    assert cb.is_injective_morphism(phi) and cb.is_face_map(phi)
    phi2 = cb.CubeMorphism(2, 2, (cb.Id(0), cb.Id(0)))
    assert not cb.is_injective_morphism(phi2)
    phi3 = cb.CubeMorphism(1, 2, (cb.Id(0), cb.Refl(0)))
    assert cb.is_injective_morphism(phi3) and not cb.is_face_map(phi3)


def test_decompose_injective_morphisms_exhaustive_small():
    # every injective non-face morphism splits into 2..4 adjacent parts
    # that multiply back pointwise (adjacency checked inside)
    count = 0
    for m, n in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        for phi in all_morphisms(m, n):
            if not cb.is_injective_morphism(phi) or cb.is_face_map(phi):
                continue
            theta, parts = cb.decompose_injective_morphism(phi)
            assert 2 <= len(parts) <= 4
            count += 1
    assert count > 50


def test_tricube_embeddings():
    n = 2
    pts = cb.tricube_points(n)
    assert len(pts) == 9
    seen = set()
    for v in cb.vertices(n):
        for w in cb.vertices(n):
            p = cb.tricube_embed(v, w)
            assert p in pts
            seen.add((v, p))
        # the 0-corner of the v-subcube is the outer point, the 1-corner
        # the centre
        assert cb.tricube_embed(v, (0,) * n) == cb.outer_point(v)
        assert cb.tricube_embed(v, (1,) * n) == (0,) * n
    # lambda embedding is injective on tricube points
    lam = {p: cb.tricube_lambda_embed(p) for p in pts}
    assert len(set(lam.values())) == len(pts)


def test_outer_composition_morphism_reads_outer_points():
    for n in (1, 2):
        phi = cb.outer_composition_morphism(n)
        for v in cb.vertices(n):
            assert phi.apply(v) == cb.tricube_lambda_embed(cb.outer_point(v))
