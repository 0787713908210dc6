"""Discrete-cube combinatorics: faces, automorphisms, Gray order,
tricubes."""

from math import comb

from nilcube import cubes as cb


def test_face_map_counts():
    for m, n in [(0, 2), (1, 2), (1, 3), (2, 3), (3, 3)]:
        maps = cb.enumerate_face_maps(m, n)
        assert len(maps) == comb(n, m) << (n - m)
        for phi in maps:
            # each input coordinate is copied, unreflected, to one output
            free = [e[1] for e in phi.coords if e[0] != "c"]
            assert sorted(free) == list(range(m))
            assert all(e[0] in ("c", "id") for e in phi.coords)
        assert len(set(tuple(p.index_table()) for p in maps)) == len(maps)


def test_face_index_tables_cache_agrees():
    for m, n in [(1, 3), (2, 4), (3, 4)]:
        tables = cb.face_index_tables(m, n)
        fresh = tuple(tuple(p.index_table()) for p in cb.enumerate_face_maps(m, n))
        assert tables == fresh


def _compose(a, b):
    """a o b (b applied first):
    a(b(v))[j] = b(v)[a.perm[j]] ^ a.flips[j]
               = v[b.perm[a.perm[j]]] ^ b.flips[a.perm[j]] ^ a.flips[j]."""
    perm = tuple(b.perm[p] for p in a.perm)
    flips = tuple(b.flips[p] ^ f for p, f in zip(a.perm, a.flips))
    return cb.CubeAutomorphism(perm, flips)


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
                b = _compose(a, s)
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
                c = _compose(a, b)
                assert tuple(c.to_morphism().vertex_table()) in tables
            assert any(all(_compose(a, b).apply(v) == v for v in cb.vertices(n)) for b in auts)


def test_gray_order_adjacency():
    for n in range(1, 7):
        order = [cb.gray_index(j) for j in range(1 << n)]
        assert sorted(order) == list(range(1 << n))
        for a, b in zip(order, order[1:]):
            assert bin(a ^ b).count("1") == 1


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
