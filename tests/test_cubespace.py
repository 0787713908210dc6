"""Cubespace constructions and the two axiom checkers."""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcube import cubegroups as cg
from nilcube import cubes as cb
from nilcube import cubespace as cs_module
from nilcube import groups as gr
from nilcube.cubespace import (
    ArrowCubespace,
    CosetCubespace,
    Cubespace,
    ExplicitCubespace,
    GroupCubespace,
    ProductCubespace,
    SliceCubespace,
    abelian_Dk,
    check_axioms,
    check_parallelepiped_axioms,
    composition_violation,
    partition,
    simplicial_extend,
    tricube_compose,
)

import oracles
from oracles import RestrictedCubespace


def test_d1z2_is_a_one_step_nilspace(d1z2):
    rep = check_axioms(d1z2, 3)
    assert rep.is_nilspace
    assert rep.step == 1
    assert rep.completion[2].unique
    assert not rep.completion[1].unique  # two completions of a 1-corner? no:
    # dimension-1 corners are single points, completed by every point


def test_d2z2_axioms_and_step(d2z2):
    rep = check_axioms(d2z2, 3)
    assert rep.is_nilspace
    assert rep.step == 2
    assert len(d2z2.cubes(2)) == 16  # every map {0,1}^2 -> Z/2
    assert len(d2z2.cubes(3)) == 128


def test_heisenberg_space_axioms(heis2_space):
    rep = check_axioms(heis2_space, 3)
    assert rep.is_nilspace
    assert rep.step == 2


def test_face_criterion_matches_factorization(heis2_space):
    # dimension 4 goes through the 3-face criterion; cross-check against
    # direct factorization on random maps and on genuine cubes
    X = heis2_space
    filt = X.filt
    rng = random.Random(23)
    cubes3 = sorted(X.cubes(3))
    for _ in range(40):
        q = [rng.randrange(8) for _ in range(16)]
        assert X.membership(4, q) == cg.is_cube(q, filt)
    th = cg._thresholds(4)
    for _ in range(25):
        coeffs = [rng.choice(sorted(filt.subgroup(t))) for t in th]
        q = cg.multiply_out(coeffs, 4, filt.group)
        assert X.membership(4, q)


def test_corner_enumeration_matches_definition(d1z2):
    # corners = maps on the punctured cube whose faces through 0 are cubes
    n = 2
    got = set(map(tuple, d1z2.corners(n)))
    want = set()
    for vals in itertools.product(range(2), repeat=3):
        ok = True
        for i in range(n):
            face = cb.Face.make(n, {i: 0})
            tbl = face.face_map().index_table()
            if not d1z2.membership(n - 1, tuple(vals[t] for t in tbl)):
                ok = False
        if ok:
            want.add(vals)
    assert got == want


def test_completions_against_bruteforce(heis2_space):
    rng = random.Random(5)
    cubes = sorted(heis2_space.cubes(2))
    for _ in range(30):
        q = rng.choice(cubes)
        corner = q[:-1]
        sols = oracles.complete_corner_bruteforce(heis2_space, 2, corner)
        assert q[-1] in sols
        assert sols == heis2_space.completions(2, corner)


def _quotient_spaces():
    """Cosets of H_2 by <(1,0,0)> and <(0,1,0)> (not normal), by its
    centre <(0,0,1)> and by <(1,1,0)> (index 2); then every canonical
    factor of H_2, D_2(Z/2) and D_3(Z/2)."""
    from nilcube.structure import factor

    G, filt = gr.make_heisenberg(2)
    for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)):
        yield CosetCubespace(filt, gr.subgroup_closure(G, [G.index_of(gen)]))
    Z2 = gr.CyclicProduct((2,))
    for X in (GroupCubespace(filt), abelian_Dk(Z2, 2), abelian_Dk(Z2, 3)):
        for k in range(X.step + 1):
            yield factor(X, k)


def test_coset_space_membership_matches_projection():
    # a map is a cube of an image space (coset space or canonical factor)
    # exactly when it lifts: exhaustively for n <= 2, and for n = 3 on the
    # projected cubes plus every one-vertex change of up to 40 of them
    rng = random.Random(0)
    for Y in _quotient_spaces():
        for n in (1, 2, 3):
            projected = {Y.project_cube(q) for q in Y.X.cubes(n)}
            if n <= 2:
                maps = set(itertools.product(range(Y.size), repeat=1 << n))
            else:
                maps = set(projected)
                for q in rng.sample(sorted(projected), min(40, len(projected))):
                    maps.update(q[:v] + (x,) + q[v + 1:] for v in range(8) for x in range(Y.size))
            for vals in maps:
                lift = Y.lift(n, vals)
                assert (lift is not None) == (vals in projected)
                if lift is not None:
                    assert Y.project_cube(lift) == vals and Y.X.membership(n, lift)
            assert Y.cubes(n) == frozenset(projected)
        if isinstance(Y, CosetCubespace):
            proj = Y.cosets.project
            for n in (1, 2, 3):
                assert Y.cubes(n) == {tuple(proj(g) for g in q)
                                      for q in cg.enumerate_cubes(Y.filt, n)}


def test_coset_space_is_a_nilspace(coset_space):
    rep = check_axioms(coset_space, 3)
    assert rep.is_nilspace


def test_product_and_point_spaces(d1z2, d1z3):
    P = ProductCubespace(d1z2, d1z3)
    assert P.size == 6
    rep = check_axioms(P, 2)
    assert rep.is_nilspace
    for q in P.cubes(2):
        xs = [divmod(p, P.Y.size)[0] for p in q]
        ys = [divmod(p, P.Y.size)[1] for p in q]
        assert d1z2.membership(2, xs) and d1z3.membership(2, ys)
    pt = ExplicitCubespace(1, {0: [(0,)], 1: [(0, 0)]}, step=0)
    assert check_axioms(pt, 3).is_nilspace


def test_product_of_factors_of_different_step_answers_below_its_own_step(d1z2, d2z2):
    # D1(Z/2) x D2(Z/2) has step 2: a 3-cube is decided factor-wise, the
    # D1(Z/2) factor answering by its face criterion
    cubes = sorted(ProductCubespace(d1z2, d2z2).cubes(3))
    assert len(cubes) == 16 * 128
    maps = set(cubes)
    for q in cubes:
        for v in range(8):
            maps.update(q[:v] + (x,) + q[v + 1:] for x in range(4))
    two = gr.CyclicProduct((2,))
    P = ProductCubespace(abelian_Dk(two, 1), abelian_Dk(two, 2))  # nothing built
    for q in sorted(maps):
        xs, ys = zip(*(divmod(p, P.Y.size) for p in q))
        assert P.membership(3, q) == (xs in d1z2.cubes(3) and ys in d2z2.cubes(3)), q


def test_arrow_space_of_d1z2_splits_in_two(d1z2):
    A = ArrowCubespace(d1z2, 1)
    assert A.size == 4
    comps = [RestrictedCubespace(A, pts) for pts in partition(A.size, A.cubes(1))]
    # pairs (x0, x1) are points 2 x0 + x1; components by x1 - x0, least point first
    assert [c.points for c in comps] == [[0, 3], [1, 2]]
    for c in comps:
        assert check_axioms(c, 2).is_nilspace


def test_slice_space_drops_step(d2z2):
    S = SliceCubespace(d2z2, 0)
    assert S.step == 1
    rep = check_axioms(S, 2)
    assert rep.is_nilspace
    # a slice of a degree-2 structure at 0 is the degree-1 structure
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    assert S.cubes(2) == d1.cubes(2)


def test_explicit_space_round_trip(d1z2):
    tables = {n: d1z2.cubes(n) for n in (0, 1, 2, 3)}
    E = ExplicitCubespace(2, tables, step=1)
    for n in (0, 1, 2, 3):
        assert E.cubes(n) == d1z2.cubes(n)
    assert check_axioms(E, 3).is_nilspace


def test_partition_orders_classes_by_least_element():
    # the union-find roots (5 and 2) are not the least elements
    assert partition(6, [(0, 5), (1, 2)]) == [[0, 5], [1, 2], [3], [4]]
    assert partition(3, []) == [[0], [1], [2]]
    pairs = iter([(2, 1), (1, 0)])
    assert partition(3, pairs) == [[0, 1, 2]]
    assert next(pairs, None) is None  # consumed once


def test_membership_rejects_points_out_of_range():
    R = RestrictedCubespace(abelian_Dk(gr.CyclicProduct((4,)), 1), [0, 2])
    for n, values in [(1, (0, -1)), (1, (0, 2)), (0, (-1,)), (2, (0, 0, 0, 5))]:
        with pytest.raises(ValueError, match="outside 0..1"):
            R.membership(n, values)
    assert R.membership(1, (0, 1)) and R.membership(1, (0, 1))  # memo hit
    R.cubes(1)
    assert R.membership(1, (1, 0))  # cube-set hit
    with pytest.raises(ValueError, match="outside 0..1"):
        R.membership(1, (0, -1))  # cube-set miss


def _face_based_pruning(n, step, include_top):
    """Pruning tables built from Face objects: the faces of dimension 1..n-1
    (at most step+1), optionally without those through the top vertex,
    grouped by their largest vertex index."""
    by_last = {}
    maxdim = n - 1 if step is None else min(n - 1, step + 1)
    for dim in range(1, maxdim + 1):
        for face in cb.enumerate_faces(n, dim):
            if not include_top and all(b == 1 for _c, b in face.fixed):
                continue
            tbl = tuple(face.face_map().index_table())
            by_last.setdefault(max(tbl), []).append((dim, tbl))
    return by_last


def _layout_tables(n, maxdim):
    """_pruning_layout(n, maxdim) with each getter read back as the index
    table it applies (a getter applied to 0..2^n-1 gives its table), and
    the vertices without faces left out."""
    identity = tuple(range(1 << n))
    return {i: [(dim, face(identity)) for dim, face in faces]
            for i, faces in enumerate(cs_module._pruning_layout(n, maxdim)) if faces}


@pytest.mark.parametrize("step", [None, 0, 1, 2])
def test_memoised_pruning_and_premise_tables_match_faces(step):
    for n in range(1, 6):
        got = _layout_tables(n, n - 1 if step is None else min(n - 1, step + 1))
        top = (1 << n) - 1
        assert got == _face_based_pruning(n, step, include_top=True)
        # a corner scan never reaches the faces through the top vertex
        assert {i: f for i, f in got.items() if i != top} == _face_based_pruning(
            n, step, include_top=False)
        premise = [tuple(cb.Face.make(n, {i: 0}).face_map().index_table()) for i in range(n)]
        assert list(cb.face_index_tables(n - 1, n)[0::2]) == premise


def _reference_scan(X, n, corner):
    """The maps the face-pruned scan should yield, in its order: vertices
    assigned in colex order, each point tried in increasing order, and
    each face of _face_based_pruning asked of membership once its last
    vertex is assigned."""
    by_last = _face_based_pruning(n, X.step, include_top=True)
    domain = (1 << n) - corner

    def extend(prefix):
        i = len(prefix)
        if i == domain:
            if corner or X.membership(n, prefix):
                yield tuple(prefix)
            return
        for x in range(X.size):
            q = prefix + [x]
            if all(X.membership(dim, [q[t] for t in tbl]) for dim, tbl in by_last.get(i, ())):
                yield from extend(q)

    return list(extend([]))


def _scan_spaces():
    from nilcube import cohomology as coh

    h2 = gr.lower_central_series(gr.Heisenberg(2))
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    rho = next(r for r in coh.enumerate_cocycles(d1, 1, gr.FiniteAbelianGroup((2,)))
               if any(r.table.values()))
    tables = {1: [(0, 0), (1, 0), (1, 1)], 2: [(0, 0, 0, 0), (1, 1, 1, 1)]}
    return [pytest.param(make, n_max, id=name) for name, make, n_max in [
        ("group-D1(Z/3)", lambda: abelian_Dk(gr.CyclicProduct((3,)), 1), 3),
        ("group-H2", lambda: GroupCubespace(h2), 2),
        ("coset-H2/<(1,0,0)>", lambda: CosetCubespace(h2, gr.subgroup_closure(h2.group, [1])), 3),
        ("slice-D2(Z/3)", lambda: SliceCubespace(abelian_Dk(gr.CyclicProduct((3,)), 2), 1), 3),
        ("M(rho)-D1(Z/2)", lambda: coh.ExtensionSpace(rho), 3),
        ("explicit-step-1", lambda: ExplicitCubespace(2, tables, step=1), 3),
        ("explicit-no-step", lambda: ExplicitCubespace(2, tables), 2),
    ]]


@pytest.mark.parametrize("make,n_max", _scan_spaces())
def test_scan_yields_the_face_pruned_maps_in_order(make, n_max):
    for n in range(1, n_max + 1):
        for corner in (False, True):
            # fresh spaces, so that neither scan sees a cube set the other built
            want = _reference_scan(make(), n, corner)
            assert list(make()._scan_maps(n, corner)) == want, (n, corner)
            assert want  # every space here has cubes and corners in each dimension


@pytest.mark.parametrize("size,tables,why", [
    (2, {1: [(0, 5)]}, "outside 0..1"),
    (2, {1: [(0, -1)]}, "outside 0..1"),
    (2, {1: [(0,)]}, "needs 2 values"),
    (2, {-1: [(0,)]}, "negative dimension"),
    (0, {1: [(0, 0)]}, "empty"),
    (2, {0: [(0,)], 1: [(0, 0)]}, "dimension 0 holds 1 of the 2 points"),
    (2, {0: [], 1: [(0, 0)]}, "dimension 0 holds 0 of the 2 points"),
])
def test_explicit_space_rejects_malformed_tables(size, tables, why):
    with pytest.raises(ValueError, match=why):
        ExplicitCubespace(size, tables)


def test_parallelepiped_axioms_agree_with_nilspace_axioms(d1z2, d1z3, d2z2):
    for X in (d1z2, d1z3, d2z2):
        para = check_parallelepiped_axioms(X, 3)
        nil = check_axioms(X, 3)
        assert para.all_ok == nil.is_nilspace
        assert para.all_ok


def test_doctored_space_fails_closing(d1z2):
    tables = {n: set(d1z2.cubes(n)) for n in (1, 2)}
    removed = sorted(tables[2])[3]
    tables[2].discard(removed)
    bad = ExplicitCubespace(2, tables)
    para = check_parallelepiped_axioms(bad, 2)
    assert not para.all_ok
    nil = check_axioms(bad, 2)
    assert not nil.is_nilspace


def test_doctored_space_fails_ergodicity(d1z2):
    tables = {1: set(d1z2.cubes(1)), 2: set(d1z2.cubes(2))}
    tables[1].discard((0, 1))
    tables[1].discard((1, 0))
    bad = ExplicitCubespace(2, tables)
    assert not check_parallelepiped_axioms(bad, 2).full_p1
    assert not check_axioms(bad, 2).ergodic_ok


def test_simplicial_extension_of_an_edge_pattern(d1z2):
    # extend values on the three single-coordinate supports of {0,1}^2
    pattern = [(0, 0), (1, 0), (0, 1)]
    f = {(0, 0): 0, (1, 0): 1, (0, 1): 1}
    full = simplicial_extend(d1z2, 2, pattern, f)
    q = tuple(full[v] for v in cb.vertices(2))
    assert d1z2.membership(2, q)
    for v in pattern:
        assert full[v] == f[v]


def test_simplicial_extension_rejects_non_closed_pattern(d1z2):
    with pytest.raises(ValueError):
        simplicial_extend(d1z2, 2, [(1, 1)], {(1, 1): 0})


def _random_pattern(rng, S):
    """Vertices of {0,1}^S: the vertices below a few random ones, with one
    more vertex (perhaps breaking support-closure) now and then."""
    tops = rng.sample(range(1 << S), rng.randint(0, min(3, 1 << S)))
    ws = {w for w in range(1 << S) if any(w & t == w for t in tops)}
    if rng.random() < 0.2:
        ws.add(rng.randrange(1 << S))
    return [cb.bits_of(w, S) for w in sorted(ws)]


def test_simplicial_extension_matches_the_support_set_oracle(heis2_space):
    # random values on the pattern: many extend, some lack a completion,
    # some patterns are not support-closed or differ from f's domain
    rng = random.Random(2024)
    spaces = [(abelian_Dk(gr.CyclicProduct((m,)), k), 4) for m, k in ((2, 1), (2, 2), (3, 1))]
    spaces.append((heis2_space, 3))
    outcomes = {"extends": 0, "raises": 0}
    for X, max_S in spaces:
        for _ in range(300):
            S = rng.randint(0, max_S)
            pattern = _random_pattern(rng, S)
            f = {v: rng.randrange(X.size) for v in pattern}
            if pattern and rng.random() < 0.05:
                del f[pattern[-1]]
            try:
                want = oracles.simplicial_extend_by_supports(X, S, pattern, f)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    simplicial_extend(X, S, pattern, f)
                assert str(got.value) == str(e)
                outcomes["raises"] += 1
            else:
                assert list(simplicial_extend(X, S, pattern, f).items()) == list(want.items())
                outcomes["extends"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_concatenation(d1z3):
    cubes = sorted(d1z3.cubes(2))
    rng = random.Random(7)
    done = 0
    while done < 30:
        q1 = rng.choice(cubes)
        q2 = rng.choice(cubes)
        if q1[2:] != q2[:2]:
            continue
        # q1's upper face is q2's lower face: the outer faces form a cube
        assert d1z3.membership(2, q1[:2] + q2[2:])
        done += 1


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_tricube_composition_is_a_cube(seed):
    rng = random.Random(seed)
    X = abelian_Dk(gr.CyclicProduct((3,)), 1)
    n = 2
    # build a tricube morphism by extending random subcube data greedily:
    # start from a random 2-cube at v=(0,0) and complete the rest by
    # simplicial extension of the lambda-embedded pattern
    cubes = sorted(X.cubes(n))
    base = rng.choice(cubes)
    pattern = {}
    for w in cb.vertices(n):
        pattern[cb.tricube_lambda_embed(cb.tricube_embed((0, 0), w))] = base[cb.vertex_index(w)]
    full = simplicial_extend(X, 2 * n, pattern.keys(), pattern)
    t = {}
    for p in cb.tricube_points(n):
        t[p] = full[cb.tricube_lambda_embed(p)]
    out = tricube_compose(X, t, n)
    assert X.membership(n, out)
    assert out == tuple(t[cb.outer_point(v)] for v in cb.vertices(n))


# ---------------------------------------------------------------------------
# the cube-set test against membership


def _bad_face_space():
    # the 2-cube (0,1,0,1) has the face (0,1), which is not a 1-cube
    return ExplicitCubespace(2, {1: [(0, 0), (1, 1)], 2: [(0, 0, 0, 0), (0, 1, 0, 1)]}, step=1)


def _no_reflection_space():
    # every pair is a 1-cube, but the 2-cubes are not closed under reflection
    return ExplicitCubespace(2, {1: list(itertools.product(range(2), repeat=2)),
                                 2: [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)]}, step=1)


def _kernel_spaces():
    """Fresh spaces (no cube set built): the group space of H2, a coset
    space of H2, a factor of D2(Z/2), a model extension over D1(Z/2) and
    an explicit space whose table holds a 2-cube with a non-cube face."""
    from nilcube import cohomology as coh
    from nilcube.structure import factor

    G, filt = gr.make_heisenberg(2)
    Z2 = gr.FiniteAbelianGroup((2,))
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    rho = next(r for r in coh.enumerate_cocycles(d1, 1, Z2) if coh.is_coboundary(r) is None)
    return {
        "H2": lambda: GroupCubespace(filt),
        "H2/<(1,0,0)>": lambda: CosetCubespace(
            filt, gr.subgroup_closure(G, [G.index_of((1, 0, 0))])),
        "factor D2(Z/2)": lambda: factor(abelian_Dk(gr.CyclicProduct((2,)), 2), 2),
        "M(rho) over D1(Z/2)": lambda: coh.build_extension(rho),
        "explicit bad face": _bad_face_space,
    }


KERNEL_SPACES = _kernel_spaces()


def _maps_to_compare(X, d):
    """Every map for d <= 2; at d = 3 every cube and every one-vertex
    change of up to 60 of them (read from a fresh copy's cube set)."""
    if d <= 2:
        return list(itertools.product(range(X.size), repeat=1 << d))
    cubes = sorted(X.cubes(d))
    out = list(cubes)
    for q in random.Random(d).sample(cubes, min(60, len(cubes))):
        for v in range(1 << d):
            for x in range(X.size):
                if x != q[v]:
                    out.append(q[:v] + (x,) + q[v + 1:])
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
def test_cube_test_matches_membership_before_and_after_the_cube_set(name):
    make = KERNEL_SPACES[name]
    for d in range(4):
        maps = _maps_to_compare(make(), d)
        oracle, X = make(), make()
        want = [oracle.membership(d, q) for q in maps]
        assert [X._cube_test(d)(q) for q in maps] == want  # before cubes(d)
        X.cubes(d)
        test = X._cube_test(d)
        assert test == X.cubes(d).__contains__
        assert [test(q) for q in maps] == want


def _count_spaces():
    """The spaces of KERNEL_SPACES (group, coset, factor, M(rho), explicit)
    and a product, an arrow and a slice space: every kind that counts its
    cubes in its own way."""
    _G, filt = gr.make_heisenberg(2)

    def dk(m, k):
        return abelian_Dk(gr.CyclicProduct((m,)), k)

    return dict(KERNEL_SPACES, **{
        "D1(Z/2) x D2(Z/2)": lambda: ProductCubespace(dk(2, 1), dk(2, 2)),
        "arrow D1(Z/3)": lambda: ArrowCubespace(dk(3, 1), 1),
        "slice H2": lambda: SliceCubespace(GroupCubespace(filt), 3),
    })


COUNT_SPACES = _count_spaces()


@pytest.mark.parametrize("cap", [10, 10 ** 5])
@pytest.mark.parametrize("name", sorted(COUNT_SPACES))
def test_a_count_within_the_cap_is_the_size_of_the_cube_set(name, cap):
    make = COUNT_SPACES[name]
    for n in range(4):
        got = make().count_cubes(n, cap)
        if got <= cap:
            assert got == len(make().cubes(n)), n


def test_face_getters_restrict_like_the_index_tables():
    q = tuple(range(100, 132))
    for n in range(6):
        for m in range(n + 1):
            got = [face(q) for face in cb.face_getters(m, n)]
            assert got == [tuple(q[t] for t in tbl) for tbl in cb.face_index_tables(m, n)]
            assert all(len(sub) == 1 << m for sub in got)  # dimension 0 gives 1-tuples
    assert cb.face_getters(2, 4) is cb.face_getters(2, 4)


def _reference_corners(X, n):
    """The corner scan as it was before the cube-set test: a face inside
    the corner domain (dimension 1..n-1, at most step+1) is checked with
    membership and a generator-built tuple once its last vertex is set."""
    top = (1 << n) - 1
    maxdim = n - 1 if X.step is None else min(n - 1, X.step + 1)
    by_last = {}
    for dim in range(1, maxdim + 1):
        for tbl in cb.face_index_tables(dim, n):
            if top not in tbl:
                by_last.setdefault(max(tbl), []).append((dim, tbl))
    out, values = [], []

    def rec():
        i = len(values)
        if i == top:
            out.append(tuple(values))
            return
        for x in range(X.size):
            values.append(x)
            if all(X.membership(dim, tuple(values[t] for t in tbl))
                   for dim, tbl in by_last.get(i, ())):
                rec()
            values.pop()

    rec()
    return out


def _all_morphisms(m, n):
    """Every morphism {0,1}^m -> {0,1}^n: each coordinate is 0, 1, v_i or
    1 - v_i."""
    entries = [("c", 0), ("c", 1)]
    for i in range(m):
        entries.append(cb.Id(i))
        entries.append(cb.Refl(i))
    for coords in itertools.product(entries, repeat=n):
        yield cb.CubeMorphism(m, n, tuple(coords))


def _reference_check_axioms(X, n_max):
    """check_axioms with the exhaustive per-morphism composition scan
    (never sampled) and the per-face membership loops it had before the
    cube-set test, as the oracle for the report."""
    from nilcube.cubespace import AxiomReport, CompletionLevel

    comp_ok, comp_wit, checks = True, None, 0
    for n in range(n_max + 1):
        cubeset = sorted(X.cubes(n))
        for m in range(n_max + 1):
            for phi in _all_morphisms(m, n):
                tbl = phi.index_table()
                for q in cubeset:
                    checks += 1
                    if not X.membership(m, tuple(q[t] for t in tbl)):
                        comp_ok, comp_wit = False, (n, q, phi.coords, m)
                        break
                if not comp_ok:
                    break
            if not comp_ok:
                break
        if not comp_ok:
            break
    pairs = X.cubes(1)
    erg = [(x, y) for x in range(X.size) for y in range(X.size) if (x, y) not in pairs]
    completion = {}
    for n in range(1, n_max + 1):
        corners = _reference_corners(X, n)
        complete, unique, witness = True, True, None
        for c in corners:
            sols = [x for x in range(X.size) if X.membership(n, c + (x,))]
            if not sols:
                complete, unique, witness = False, False, c
                break
            unique = unique and len(sols) == 1
        completion[n] = CompletionLevel(len(corners), complete, unique, witness)
    step = next((n - 1 for n in sorted(completion)
                 if completion[n].complete and completion[n].unique), None)
    return AxiomReport(n_max, comp_ok, comp_wit, checks, not erg,
                       erg[0] if erg else None, completion, step)


AXIOM_SPACES = dict(KERNEL_SPACES, **{"explicit no reflection": _no_reflection_space})


@pytest.mark.parametrize("name", sorted(AXIOM_SPACES))
def test_check_axioms_report_matches_the_membership_loops(name):
    make = AXIOM_SPACES[name]
    n_max = 2 if name == "H2" else 3
    got = check_axioms(make(), n_max)
    want = _reference_check_axioms(make(), n_max)
    # the generator check counts and names its witnesses its own way
    assert (got.composition_witness is None) == (want.composition_witness is None)
    blank = dict(composition_checks=0, composition_witness=None)
    assert dataclasses.replace(got, **blank) == dataclasses.replace(want, **blank)
    # the two explicit spaces fail composition, the others pass
    assert got.composition_ok == (not name.startswith("explicit"))


@functools.lru_cache(maxsize=None)
def _morphism_getters(m, n):
    return tuple(cb.index_getter(phi.index_table()) for phi in _all_morphisms(m, n))


def _closed_under_every_morphism(C):
    """The composition axiom by its definition on cube sets C_0..C_N:
    q o phi in C_m for every morphism phi: m -> n and q in C_n."""
    return all(all(map(C[m].__contains__, map(restrict, C[n])))
               for n in range(len(C)) for m in range(len(C))
               for restrict in _morphism_getters(m, n))


def _witness_fails(C, witness):
    """Whether the generator the witness names really takes its cube q
    outside the cube sets C."""
    name, a, q = witness[:3]
    if q not in C[a]:
        return False
    if name == "automorphism":
        tbl = witness[3].to_morphism().index_table()
        return tuple(q[t] for t in tbl) not in C[a]
    if name == "degeneracy":
        return q + q not in C[a + 1]
    half = 1 << (a - 1)
    if name == "facet":
        return q[:half] not in C[a - 1]
    assert name == "duplication"
    dup = cb.CubeMorphism(a - 1, a, tuple(cb.Id(i) for i in range(a - 1)) + (cb.Id(a - 2),))
    return tuple(q[t] for t in dup.index_table()) not in C[a - 1]


def _perturbation_bases():
    """(name, size, cube sets C_0..C_N, trials) for the nilspaces to
    perturb; the coset space, with 2048 3-cubes, gets fewer trials."""
    G, filt = gr.make_heisenberg(2)
    coset = CosetCubespace(filt, gr.subgroup_closure(G, [G.index_of((1, 0, 0))]))
    spaces = [("D1(Z/2)", abelian_Dk(gr.CyclicProduct((2,)), 1), 3, 100),
              ("D2(Z/2)", abelian_Dk(gr.CyclicProduct((2,)), 2), 3, 100),
              ("D1(Z/3)", abelian_Dk(gr.CyclicProduct((3,)), 1), 3, 100),
              ("D1(Z/4)", abelian_Dk(gr.CyclicProduct((4,)), 1), 3, 100),
              ("D0(Z/2)", abelian_Dk(gr.CyclicProduct((2,)), 0), 3, 100),
              ("H2/<(1,0,0)>", coset, 3, 20),
              ("D2(Z/3)", abelian_Dk(gr.CyclicProduct((3,)), 2), 2, 100)]
    return [(name, X.size, [X.cubes(a) for a in range(N + 1)], trials)
            for name, X, N, trials in spaces]


def _orbit(q, a):
    return {tuple(q[t] for t in theta.to_morphism().index_table())
            for theta in cb.automorphism_group(a)}


def test_generator_check_finds_a_witness_exactly_when_some_morphism_fails():
    """Each base loses or gains, in one cube set C_a (a >= 1; C_0 is the
    points), one cube or the automorphism orbit of one map; the orbits
    removed are of top-dimensional cubes, which often leaves the sets
    closed.  The generator check reports a witness exactly when the scan
    over every morphism finds a failure, and the witness is a real one."""
    rng = random.Random(8)
    outcomes = []
    for name, size, base, trials in _perturbation_bases():
        assert composition_violation(base)[0] is None, name
        assert _closed_under_every_morphism(base), name
        # the dimensions where some map is not a cube, so that one can be added
        open_dims = [a for a in range(1, len(base)) if len(base[a]) < size ** (1 << a)]
        for trial in range(trials):
            C = list(base)
            kind = trial % 4 if open_dims else 1 + 2 * (trial % 2)
            if kind % 2:  # remove one cube, or the orbit of a top-dimensional one
                a = len(C) - 1 if kind == 3 else rng.randrange(1, len(C))
                q = rng.choice(sorted(C[a]))
                change = {q} if kind == 1 else _orbit(q, a)
                C[a] = C[a] - change
            else:  # add one map, or the orbit of one
                a = rng.choice(open_dims)
                q = next(iter(C[a]))
                while q in C[a]:
                    q = tuple(rng.randrange(size) for _ in range(1 << a))
                change = {q} if kind == 0 else _orbit(q, a)
                C[a] = C[a] | change
            witness, checks = composition_violation(C)
            closed = _closed_under_every_morphism(C)
            assert (witness is None) == closed, (name, a, sorted(change))
            assert closed or _witness_fails(C, witness), (name, witness)
            assert checks > 0
            outcomes.append(closed)
    assert len(outcomes) >= 600
    assert outcomes.count(True) >= 60 and outcomes.count(False) >= 400


def test_a_diagonal_no_face_sees_needs_the_duplication_generator():
    # the 1-cubes are the path 0 - 1 - 2; every edge of the 2-cube
    # (0, 1, 1, 2) is a 1-cube but its diagonal (0, 2) is not.  Faces,
    # automorphisms and degeneracies use each input once, so only the
    # duplication v -> (v, v) sees it.
    R = {(x, x) for x in range(3)} | {(0, 1), (1, 0), (1, 2), (2, 1)}
    squares = set()
    for q in [(0, 1, 1, 2)] + [(x, y, x, y) for x, y in R]:
        squares |= _orbit(q, 2)
    C = [frozenset((x,) for x in range(3)), frozenset(R), frozenset(squares)]
    assert composition_violation(C)[0] == ("duplication", 2, (0, 1, 1, 2))
    assert not _closed_under_every_morphism(C)


def test_composition_checks_count_generator_pairs_on_h2():
    rep = check_axioms(GroupCubespace(gr.make_heisenberg(2)[1]), 3)
    # Cu^0..Cu^3 of H2: 8, 64, 1024, 32768 cubes; 0, 1, 2, 3 automorphism
    # generators; facets, duplications and degeneracies between them
    sizes = [8, 64, 1024, 32768]
    want = (sum(a * c for a, c in enumerate(sizes)) + sum(sizes[1:]) + sum(sizes[2:])
            + sum(sizes[:3]))
    assert rep.composition_ok and rep.composition_witness is None
    assert rep.composition_checks == want == 169_160
    assert [rep.completion[n].corners for n in (1, 2, 3)] == [8, 512, 32768]
    assert rep.step == 2


def test_completions_reject_a_point_outside_before_and_after_the_cube_set():
    X = abelian_Dk(gr.CyclicProduct((2,)), 1)
    for build in (False, True):
        if build:
            X.cubes(2)
        with pytest.raises(ValueError, match="outside 0..1"):
            X.completions(2, (0, 1, 2))
        assert X.completions(2, (0, 1, 1)) == [0]
