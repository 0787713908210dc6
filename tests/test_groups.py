"""Finite groups, filtrations, quotients, and exact abelian linear
algebra."""

import itertools
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcube import groups as gr
from oracles import abelian_invariants_by_torsion, shift_filtration, subgroup_closure_by_frontier


def test_cyclic_product_axioms_and_indexing():
    G = gr.CyclicProduct((2, 3))
    G.validate()
    assert G.order == 6
    for a in G.elements():
        assert G.index_of(G.tuple_of(a)) == a
    assert G.is_abelian()


def test_heisenberg_axioms_and_nonabelian():
    G, filt = gr.make_heisenberg(2)
    G.validate()
    assert G.order == 8
    assert not G.is_abelian()
    assert gr.validate_filtration(filt) is None
    # the commutator of the two generators spans the centre
    a = G.index_of((1, 0, 0))
    b = G.index_of((0, 1, 0))
    c = G.commutator(a, b)
    assert c == G.index_of((0, 0, 1))
    assert filt.subgroup(2) == frozenset({0, c})


def test_heisenberg_mod3_lcs():
    G, filt = gr.make_heisenberg(3)
    assert G.order == 27
    assert len(filt.subgroup(1)) == 27
    assert len(filt.subgroup(2)) == 3
    assert filt.degree == 2


def test_lower_central_series_of_abelian_group():
    G = gr.CyclicProduct((4,))
    filt = gr.lower_central_series(G)
    assert filt.degree == 1
    assert filt.subgroup(1) == frozenset(G.elements())
    assert filt.subgroup(2) == frozenset({0})


def test_invalid_filtration_witness():
    G, _ = gr.make_heisenberg(2)
    # chain without the centre at level 2 breaks the commutator condition
    bad = gr.Filtration(G, (frozenset(G.elements()), frozenset(G.elements()), frozenset({0})))
    witness = gr.validate_filtration(bad)
    assert witness is not None and witness[0] == "commutator"


def test_maximal_degree_k_filtration():
    A = gr.CyclicProduct((4,))
    filt = gr.maximal_degree_k_filtration(A, 2)
    assert filt.degree == 2
    assert filt.subgroup(1) == filt.subgroup(2) == frozenset(A.elements())
    with pytest.raises(ValueError):
        gr.maximal_degree_k_filtration(gr.make_heisenberg(2)[0], 2)


def test_shift_filtration():
    G, filt = gr.make_heisenberg(2)
    sh = shift_filtration(filt, 1)
    assert sh.subgroup(0) == filt.subgroup(1)
    assert sh.subgroup(1) == filt.subgroup(2)
    assert sh.subgroup(2) == frozenset({0})


def test_quotient_of_heisenberg_by_centre():
    G, filt = gr.make_heisenberg(2)
    Q, proj = gr.quotient(G, filt.subgroup(2))
    Q.validate()
    assert Q.order == 4
    assert Q.is_abelian()
    assert gr.abelian_invariants(Q) == (2, 2)
    for a in G.elements():
        for b in G.elements():
            assert proj(G.op(a, b)) == Q.op(proj(a), proj(b))


def test_coset_space_action():
    G, _ = gr.make_heisenberg(2)
    Gamma = gr.subgroup_closure(G, [G.index_of((1, 0, 0))])
    cs = gr.CosetSpace(G, Gamma)
    assert cs.size == 4
    for g in G.elements():
        for x in range(cs.size):
            assert 0 <= cs.act(g, x) < cs.size
    # the action by the identity is trivial
    assert all(cs.act(0, x) == x for x in range(cs.size))


@pytest.mark.parametrize(
    "moduli,want",
    [((2, 4), (2, 4)), ((6,), (6,)), ((2, 12), (2, 12)), ((4, 2), (2, 4)), ((2, 3), (6,))],
)
def test_abelian_invariants(moduli, want):
    G = gr.CyclicProduct(moduli)
    assert gr.abelian_invariants(G) == want


def _sorted_moduli(bound, least=2):
    """Every nondecreasing tuple of moduli >= least with product <= bound,
    the empty tuple first."""
    yield ()
    for m in range(least, bound + 1):
        for rest in _sorted_moduli(bound // m, m):
            yield (m,) + rest


def _relabelled(G, rng):
    """G as a TableGroup with its nonidentity elements renumbered at
    random."""
    label = [0] + rng.sample(range(1, G.order), G.order - 1)
    back = {x: a for a, x in enumerate(label)}
    return gr.TableGroup([[label[G.op(back[x], back[y])] for y in range(G.order)]
                          for x in range(G.order)])


def _abelian_family(rng):
    """Cyclic products of order <= 400 with their factors in either order,
    tables of order <= 64 relabelled at random, quotients of cyclic
    products of order <= 144 by random subgroups, and H_m / [H_m, H_m]
    for m = 2..5."""
    tuples = list(_sorted_moduli(400))[1:]
    groups = [gr.CyclicProduct(ms[::rng.choice((1, -1))]) for ms in rng.sample(tuples, 90)]
    small = [ms for ms in tuples if prod(ms) <= 64]
    groups += [_relabelled(gr.CyclicProduct(ms), rng) for ms in rng.sample(small, 40)]
    for ms in rng.sample([ms for ms in tuples if prod(ms) <= 144], 110):
        G = gr.CyclicProduct(ms)
        gens = rng.sample(range(G.order), rng.randrange(1, 3))
        groups.append(gr.QuotientGroup(G, gr.subgroup_closure(G, gens)))
    for m in range(2, 6):
        H = gr.Heisenberg(m)
        groups.append(gr.QuotientGroup(H, H.lower_central_chain()[2]))
    return groups


def test_abelian_invariants_match_the_torsion_counts():
    groups = _abelian_family(random.Random(24))
    assert len(groups) == 244
    for G in groups:
        # coords is a bijection onto A, and its inverse adds the unit
        # vectors of A correctly, which makes coords a homomorphism
        A, coords = gr.abelian_coordinates(G)
        assert A.invariants == abelian_invariants_by_torsion(G), G.order
        assert sorted(coords) == list(A.elements())
        element = {c: g for g, c in enumerate(coords)}
        assert all(element[A.op(a, u)] == G.op(element[a], element[u])
                   for a in A.elements() for u in A.generators())
    with pytest.raises(ValueError):
        gr.abelian_invariants(gr.Heisenberg(2))


def _assert_smith_normal_form(M):
    """smith_normal_form(M) is exact: U M V = D with U and V unimodular,
    D diagonal, d1 | d2 | ..., nonnegative with the zeros last."""
    rows, cols = len(M), len(M[0])
    U, D, V = gr.smith_normal_form(M, _identity(rows))
    UM = [[sum(U[i][t] * M[t][j] for t in range(rows)) for j in range(cols)] for i in range(rows)]
    assert [[sum(UM[i][t] * V[t][j] for t in range(cols)) for j in range(cols)]
            for i in range(rows)] == D, M
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j), (M, D)
    diag = [D[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0, (M, diag)
    assert all(d >= 0 for d in diag)
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    return diag


def test_smith_normal_form_random():
    # dense matrices up to 3x3, sparse ones up to 6x6, signed permutations
    # of diagonals with entries 2..8 up to 6x6, and every such diagonal of
    # size 4: on these the divisibility chain often breaks after the first
    # elimination, some twice, as diag(4, 6, 7, 4) does
    rng = random.Random(7)
    for _ in range(150):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        _assert_smith_normal_form([[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)])
    for _ in range(400):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        _assert_smith_normal_form([[rng.choice((0, 0, 0, rng.randrange(-9, 10))) for _ in range(cols)]
                                   for _ in range(rows)])
    for _ in range(400):
        n = rng.randrange(1, 7)
        perm = rng.sample(range(n), n)
        _assert_smith_normal_form([[rng.choice((1, -1)) * rng.randrange(2, 9) if perm[i] == j else 0
                                    for j in range(n)] for i in range(n)])
    for diag in itertools.product(range(2, 9), repeat=4):
        _assert_smith_normal_form([[diag[i] if i == j else 0 for j in range(4)] for i in range(4)])


# a signed permutation of diag(4, 6, 7, 4): Z/2 + Z/4 + Z/84
SIGNED_4_6_7_4 = [[0, 0, -4, 0], [0, 6, 0, 0], [0, 0, 0, 7], [-4, 0, 0, 0]]


def test_smith_normal_form_of_a_signed_4_6_7_4():
    assert _assert_smith_normal_form(SIGNED_4_6_7_4) == [1, 2, 4, 84]


@pytest.mark.parametrize("invariants", [(8,), (168,)])
def test_solver_on_the_signed_permutation_of_4_6_7_4(invariants):
    # 200 right-hand sides M x for seeded x: each system is solvable, and
    # the solver's answer satisfies it (it raises on a non-solution)
    A = gr.FiniteAbelianGroup(invariants)
    rng = random.Random(invariants[0])
    for _ in range(200):
        x = [rng.randrange(A.order) for _ in range(4)]
        eqs = [(row, sum(c * v for c, v in zip(row, x)) % A.order) for row in SIGNED_4_6_7_4]
        got = gr.solve_abelian_linear_system(A, 4, eqs)
        assert got is not None
        assert all(sum(c * v for c, v in zip(row, got)) % A.order == b for row, b in eqs)


def test_abelian_coordinates_of_4_4_6_7_are_a_homomorphism():
    G = gr.CyclicProduct((4, 4, 6, 7))
    A, coords = gr.abelian_coordinates(G)
    assert A.invariants == (2, 4, 84)
    assert sorted(coords) == list(A.elements())
    assert all(coords[G.op(g, u)] == A.op(coords[g], coords[u])
               for g in G.elements() for u in G.generators())


def _identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _det(M):
    """Integer determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


@pytest.mark.parametrize("M,U,D,V", [
    ([[2, 0], [0, 3]], [[-1, 1], [-3, 2]], [[1, 0], [0, 6]], [[1, -3], [1, -2]]),
    ([[0, 2], [3, 0]], [[-1, 1], [-3, 2]], [[1, 0], [0, 6]], [[1, -2], [1, -3]]),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]],
     [[-1, 1, 0], [9, -6, 7], [-15, 10, -12]], [[2, 0, 0], [0, 2, 0], [0, 0, 60]],
     [[1, 6, 105], [1, 4, 70], [0, -1, -18]]),
    ([[2, 0, 0], [0, 0, 0], [0, 0, 3]],
     [[-1, 0, 1], [-3, 0, 2], [0, 1, 0]], [[1, 0, 0], [0, 6, 0], [0, 0, 0]],
     [[1, -3, 0], [0, 0, 1], [1, -2, 0]]),
    ([[6, 4], [4, 6]], [[-1, 1], [3, -2]], [[2, 0], [0, 10]], [[0, 1], [1, 1]]),
], ids=["diag-2-3", "antidiag-2-3", "diag-4-6-10", "diag-2-0-3", "6-4-4-6"])
def test_smith_normal_form_divisibility_fix_up_is_pinned(M, U, D, V):
    # where the divisibility chain breaks, column i + 1 is added into
    # column i and the elimination re-enters at i; these are the
    # transforms it produces
    assert gr.smith_normal_form(M, _identity(len(M))) == (U, D, V)


def test_finite_abelian_group_is_the_invariant_factor_cyclic_product():
    for invariants in [(2,), (4,), (2, 4), (3, 6), (2, 2, 2)]:
        A, C = gr.FiniteAbelianGroup(invariants), gr.CyclicProduct(invariants)
        assert A.order == C.order and A.invariants == invariants
        for a in A.elements():
            assert A.tuple_of(a) == C.tuple_of(a) and A.inv(a) == C.inv(a)
            assert [A.op(a, b) for b in A.elements()] == [C.op(a, b) for b in C.elements()]
    A = gr.FiniteAbelianGroup((2, 4))  # the first factor varies fastest
    assert A.tuple_of(3) == (1, 1) and A.index_of((1, 3)) == 7
    assert A.power(A.index_of((1, 1)), 3) == A.index_of((1, 3))
    for trivial in [(), (1,), (1, 1)]:
        T = gr.FiniteAbelianGroup(trivial)
        assert T.order == 1 and T.invariants == () and T.tuple_of(0) == ()
    with pytest.raises(ValueError):
        gr.FiniteAbelianGroup((4, 2))
    for bad in [(), (0,), (2, -1)]:
        with pytest.raises(ValueError):
            gr.CyclicProduct(bad)


def _brute_solve(A, num_unknowns, equations):
    import itertools

    for cand in itertools.product(range(A.order), repeat=num_unknowns):
        ok = True
        for coeffs, const in equations:
            acc = 0
            for c, x in zip(coeffs, cand):
                acc = A.op(acc, A.power(x, c))
            if acc != const:
                ok = False
                break
        if ok:
            return cand
    return None


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_force(seed):
    rng = random.Random(seed)
    A = gr.FiniteAbelianGroup(rng.choice([(2,), (3,), (4,), (2, 2), (2, 4)]))
    r = rng.randrange(1, 4)
    neq = rng.randrange(1, 4)
    eqs = []
    for _ in range(neq):
        coeffs = [rng.randrange(-3, 4) for _ in range(r)]
        eqs.append((coeffs, rng.randrange(A.order)))
    got = gr.solve_abelian_linear_system(A, r, eqs)
    want = _brute_solve(A, r, eqs)
    assert (got is None) == (want is None)


def test_solver_unsolvable_parity():
    A = gr.FiniteAbelianGroup((4,))
    # 2x = 1 has no solution mod 4
    assert gr.solve_abelian_linear_system(A, 1, [([2], 1)]) is None
    assert gr.solve_abelian_linear_system(A, 1, [([2], 2)]) is not None


def test_subgroup_closure_and_commutator_subgroup():
    G, filt = gr.make_heisenberg(2)
    H = gr.subgroup_closure(G, [G.index_of((1, 0, 0))])
    assert len(H) == 2
    X = gr.generating_set(G, frozenset(G.elements()))
    C = gr.commutator_subgroup(G, X, X)[0]
    assert C == filt.subgroup(2)


def test_left_cosets_agree_with_coset_sets():
    G, filt = gr.make_heisenberg(3)
    for S in (filt.subgroup(2), gr.subgroup_closure(G, [G.index_of((1, 0, 0))]), frozenset({0})):
        reps, index = gr.left_cosets(G, S)
        cosets = {frozenset(G.op(g, s) for s in S) for g in G.elements()}
        assert reps == sorted(min(c) for c in cosets)
        for g in G.elements():
            assert g in {G.op(reps[index[g]], s) for s in S}


@pytest.mark.parametrize("table,why", [
    ([[0, 1], [1, 1]], "no inverse"),
    ([[0, 1], [1]], "square"),
    ([[0, 2], [2, 0]], "element indices"),
])
def test_table_group_rejects_non_groups(table, why):
    with pytest.raises(ValueError, match=why):
        gr.TableGroup(table)


def _symmetric(k):
    """S_k as a table group on its permutations in lexicographic order
    (the identity first)."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return gr.TableGroup([[index[tuple(p[q[i]] for i in range(k))] for q in perms]
                          for p in perms])


def _commutator_subgroup_all_pairs(G, H, K):
    """[H, K] from all |H| |K| commutators: the oracle."""
    return gr.subgroup_closure(G, {G.commutator(h, k) for h in H for k in K})


def _lower_central_series_all_pairs(G):
    full = frozenset(G.elements())
    chain = [full, full]
    while chain[-1] != frozenset({0}):
        nxt = _commutator_subgroup_all_pairs(G, full, chain[-1])
        if nxt == chain[-1]:
            return None
        chain.append(nxt)
    return tuple(chain)


def _subgroups(G, cap=40):
    """The subgroups generated by at most two elements, ordered by size
    and then elements; past the cap, an evenly spaced selection that
    keeps the trivial and the full group."""
    cyclic = {}
    for g in G.elements():
        cyclic.setdefault(gr.subgroup_closure(G, [g]), g)
    gens = sorted(cyclic.values())
    subs = sorted({gr.subgroup_closure(G, [a, b])
                   for a, b in itertools.combinations_with_replacement(gens, 2)},
                  key=lambda S: (len(S), sorted(S)))
    if len(subs) > cap:
        subs = [subs[i * (len(subs) - 1) // (cap - 1)] for i in range(cap)]
    return subs


def _h4_mod_2z():
    G = gr.Heisenberg(4)
    return gr.QuotientGroup(G, frozenset({0, G.index_of((0, 0, 2))}))


_ORACLE_GROUPS = {
    "H2": lambda: gr.Heisenberg(2),
    "H3": lambda: gr.Heisenberg(3),
    "H4": lambda: gr.Heisenberg(4),
    "H5": lambda: gr.Heisenberg(5),
    "S3": lambda: _symmetric(3),
    "S4": lambda: _symmetric(4),
    "H4/<(0,0,2)>": _h4_mod_2z,
    "Z/2xZ/4": lambda: gr.CyclicProduct((2, 4)),
    "Z/1xZ/3": lambda: gr.CyclicProduct((1, 3)),
    "A(2,6)": lambda: gr.FiniteAbelianGroup((2, 6)),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_commutator_subgroup_matches_all_pairs(name):
    G = _ORACLE_GROUPS[name]()
    subs = _subgroups(G)
    assert subs[0] == frozenset({0}) and subs[-1] == frozenset(G.elements())
    # non-normal subgroups are among them whenever G is non-abelian
    assert G.is_abelian() or not all(gr.is_normal(G, K) for K in subs)
    for H in subs:
        for K in subs:
            got = gr.commutator_subgroup(G, gr.generating_set(G, H), gr.generating_set(G, K))[0]
            assert got == _commutator_subgroup_all_pairs(G, H, K)
    want = _lower_central_series_all_pairs(G)
    if want is None:  # S3 and S4 are not nilpotent
        with pytest.raises(ValueError, match="does not reach"):
            gr.lower_central_series(G)
    else:
        assert gr.lower_central_series(G).chain == want


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_subgroup_closure_matches_the_frontier_loop(name):
    G = _ORACLE_GROUPS[name]()
    rng = random.Random(name)
    for k in (0, 1, 1, 1, 2, 2, 2, 3, 3):
        gens = [rng.randrange(G.order) for _ in range(k)]
        assert gr.subgroup_closure(G, gens) == subgroup_closure_by_frontier(G, gens), gens


def test_generating_set_is_greedy_and_spans():
    G = gr.Heisenberg(3)
    full = frozenset(G.elements())
    X = gr.generating_set(G, full)
    assert X == [1, 3]  # (1, 0, 0) and (0, 1, 0)
    assert gr.subgroup_closure(G, X) == full
    assert gr.generating_set(G, frozenset({0})) == []


@pytest.mark.parametrize("G", [gr.Heisenberg(m) for m in range(2, 8)]
                         + [gr.CyclicProduct(m) for m in ((1,), (1, 3), (2, 1, 4), (2, 4))]
                         + [gr.FiniteAbelianGroup(d) for d in ((), (1,), (2, 6))]
                         + [_symmetric(3), _h4_mod_2z()],
                         ids=lambda G: "H%d" % G.m if isinstance(G, gr.Heisenberg)
                         else "%s%s" % (type(G).__name__, getattr(G, "moduli", "")))
def test_declared_generators_span_the_group(G):
    gens = G.generators()
    assert gr.subgroup_closure(G, gens) == frozenset(G.elements())
    if isinstance(G, gr.Heisenberg):
        assert [G.tuple_of(g) for g in gens] == [(1, 0, 0), (0, 1, 0)]
    elif isinstance(G, gr.CyclicProduct):
        # one unit vector per factor other than Z/1
        assert sorted(G.tuple_of(g).index(1) for g in gens) == [
            i for i, m in enumerate(G.moduli) if m > 1]
    else:
        assert gens == gr.generating_set(G, frozenset(G.elements()))


@pytest.mark.parametrize("G", [gr.Heisenberg(m) for m in range(2, 8)]
                         + [gr.CyclicProduct(m) for m in ((1,), (1, 3), (2, 1, 4), (2, 4))]
                         + [gr.FiniteAbelianGroup(d) for d in ((), (1,), (2, 6))],
                         ids=lambda G: "H%d" % G.m if isinstance(G, gr.Heisenberg)
                         else "%s%s" % (type(G).__name__, G.moduli))
def test_declared_lower_central_series_matches_all_pairs(G):
    declared = gr.lower_central_series(G).chain
    assert declared == _lower_central_series_all_pairs(G)
    # the commutator closure every other group takes agrees as well
    assert declared == gr.Filtration(G, gr.FiniteGroup.lower_central_chain(G)).chain


@pytest.mark.parametrize("G", [gr.CyclicProduct(m) for m in ((1,), (1, 3), (2, 1, 4), (3, 5))]
                         + [gr.FiniteAbelianGroup(d) for d in ((), (2, 6))],
                         ids=lambda G: "%s%s" % (type(G).__name__, G.moduli))
def test_cyclic_products_are_abelian_by_declaration(G):
    assert G.is_abelian() is True
    assert gr.FiniteGroup.is_abelian(G)


@pytest.mark.parametrize("G", [gr.CyclicProduct(m) for m in
                               ((2,), (4,), (6,), (2, 2), (2, 4), (3, 5), (2, 3, 4))]
                         + [gr.FiniteAbelianGroup(d) for d in ((), (1,), (5,), (2, 6), (2, 2, 4))],
                         ids=lambda G: "%s%s" % (type(G).__name__, G.moduli))
def test_cyclic_group_law_matches_the_digit_tuples(G):
    for a in range(G.order):
        ta = G.tuple_of(a)
        assert G.inv(a) == G.index_of(tuple(-x for x in ta))
        for b in range(G.order):
            assert G.op(a, b) == G.index_of(tuple(x + y for x, y in zip(ta, G.tuple_of(b))))
