"""Translation groups, translation cubes, and lifting through the top
factor."""

import dataclasses
import itertools
from functools import lru_cache, partial
from types import SimpleNamespace

import pytest

import oracles
from nilcube import cli
from nilcube import cubegroups as cg
from nilcube import cubes as cb
from nilcube import groups as gr
from nilcube import structure as stc
from nilcube import translations as tr
from nilcube.cubespace import CosetCubespace, ExplicitCubespace, GroupCubespace, \
    ProductCubespace, abelian_Dk, check_axioms
from nilcube.structure import factor, structure_group, verify_degree_k_bundle


def test_translations_of_d1zm_are_exactly_the_shifts():
    for m in (2, 3, 4):
        X = abelian_Dk(gr.CyclicProduct((m,)), 1)
        found = set(tr.translation_group(X, 1))
        shifts = {tuple((x + c) % m for x in range(m)) for c in range(m)}
        assert found == shifts
        # cross-check the sufficiency shortcut against the raw definition
        for alpha in itertools.permutations(range(m)):
            fast = tr.is_translation(X, alpha, 1)
            slow = oracles.is_translation_by_definition(X, alpha, 1, 3)
            assert fast == slow
            assert fast == (alpha in shifts)


_CERTIFIED_SPACES = {
    "D1(Z/4)": lambda request: abelian_Dk(gr.CyclicProduct((4,)), 1),
    "D1(Z/2xZ/2)": lambda request: abelian_Dk(gr.CyclicProduct((2, 2)), 1),
    "D2(Z/2)": lambda request: abelian_Dk(gr.CyclicProduct((2,)), 2),
    "D2(Z/3)": lambda request: abelian_Dk(gr.CyclicProduct((3,)), 2),
    "D3(Z/2)": lambda request: abelian_Dk(gr.CyclicProduct((2,)), 3),
    "coset_space": lambda request: request.getfixturevalue("coset_space"),
}


def _certificate_agrees_with_arrows(X, heights):
    """Both routes on every bijection and height; the verdicts by height."""
    verdicts = {}
    for i in heights:
        certify = tr.translation_certifier(X, i)
        verdicts[i] = []
        for alpha in itertools.permutations(range(X.size)):
            want = oracles.is_translation_by_arrows(X, alpha, i)
            assert certify(alpha) == tr.is_translation(X, alpha, i) == want, (i, alpha)
            verdicts[i].append(want)
    return verdicts


@pytest.mark.parametrize("name", sorted(_CERTIFIED_SPACES))
def test_certificate_matches_the_per_arrow_route(request, name):
    X = _CERTIFIED_SPACES[name](request)
    verdicts = _certificate_agrees_with_arrows(X, range(1, X.step + 1))
    # every height has a translation (the identity) and a non-translation,
    # except on two points, where the swap is a translation of every height
    assert all(any(v) for v in verdicts.values())
    assert X.size == 2 or all(not all(v) for v in verdicts.values())


def _d1z2_without_a_square():
    """D1(Z/2) as tables, less the degenerate square (0, 1, 0, 1)."""
    squares = abelian_Dk(gr.CyclicProduct((2,)), 1).cubes(2) - {(0, 1, 0, 1)}
    return ExplicitCubespace(2, {1: list(itertools.product((0, 1), repeat=2)), 2: squares}, step=1)


def _d1z2_without_the_arrows_of_the_swap():
    """D1(Z/2) as tables up to dimension 3, less the arrows of the swap
    in the 3-cubes."""
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    arrows = {cg.arrow(q, tuple(1 - x for x in q), 2, 1) for q in d1.cubes(2)}
    return ExplicitCubespace(2, {1: d1.cubes(1), 2: d1.cubes(2), 3: d1.cubes(3) - arrows}, step=1)


def test_certificate_answers_the_alpha_free_faces_once():
    # D1(Z/2) without the degenerate square (0, 1, 0, 1): the arrow faces
    # of height 2 that never read alpha include that square, restricted
    # from the cube (0, 1, 1, 0), so no bijection is a translation there
    X = _d1z2_without_a_square()
    assert (0, 1, 1, 0) in X.cubes(2)
    assert not check_axioms(X, 2).composition_ok
    verdicts = _certificate_agrees_with_arrows(X, (1, 2, 3))
    assert verdicts[2] == verdicts[3] == [False, False]


class _AskedCubes(frozenset):
    """A cube set that holds every map asked of it and records them."""

    def __init__(self, cubes):
        self.asked = set()

    def issuperset(self, rows):
        self.asked.update(rows)
        return True


@pytest.mark.parametrize("k1,i", itertools.product(range(1, 5), range(1, 4)))
def test_certificate_asks_every_face_of_the_arrow(k1, i):
    # the (k1)-faces of the i-arrow <q, alpha o q>_i are the j-arrows of
    # the faces of q and their alpha-free repeats: on a space whose one
    # k1-cube is q = (0, .., 2^k1 - 1) and alpha(x) = x + 2^k1, the
    # certificate must ask exactly the face restrictions of the symbolic
    # arrow, q itself (a cube) aside
    q, aq = range(1 << k1), range(1 << k1, 2 << k1)
    arrow = cg.arrow(q, aq, k1, i)
    faces = {tuple(arrow[t] for t in tbl) for tbl in cb.face_index_tables(k1, k1 + i)}
    C = _AskedCubes([tuple(q)])
    X = SimpleNamespace(step=k1 - 1, cubes={k1: C}.__getitem__, _cube_sets={k1: C})
    assert tr.translation_certifier(X, i)(tuple(aq))
    assert C.asked | {tuple(q)} == faces


def test_certificate_falls_back_to_arrows_on_a_table_of_the_arrow_dimension():
    # D1(Z/2) with a 3-cube table that leaves out the arrows of the swap:
    # membership looks arrows up in that table, so the swap is no height-1
    # translation there, although every face of its arrows is a cube
    d1 = abelian_Dk(gr.CyclicProduct((2,)), 1)
    plain = ExplicitCubespace(2, {n: d1.cubes(n) for n in (1, 2)}, step=1)
    assert tr.is_translation(plain, (1, 0), 1)
    assert _certificate_agrees_with_arrows(_d1z2_without_the_arrows_of_the_swap(), (1,))[1] == [
        True, False]


def _dk(moduli, k):
    return abelian_Dk(gr.CyclicProduct(moduli), k)


def _group_and_coset_spaces():
    """Builders of the group and coset spaces that the tests build, as far
    as their (step + 1)-cube sets are small enough to build (those of H_3
    and H_5 are not)."""
    G, filt = gr.make_heisenberg(2)
    spaces = {"D%d(Z/%d)" % (k, m): partial(_dk, (m,), k)
              for m, k in ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2), (4, 2), (2, 3))}
    spaces["D1(Z/2xZ/2)"] = partial(_dk, (2, 2), 1)
    spaces["H2"] = partial(GroupCubespace, filt)
    for g in range(1, G.order):  # g = 0 gives H2 again
        spaces["H2/<%d>" % g] = partial(CosetCubespace, filt, gr.subgroup_closure(G, [g]))
    for moduli, k, g in (((6,), 1, 2), ((6,), 1, 3), ((4,), 2, 2), ((2, 2), 1, 1)):
        A = gr.CyclicProduct(moduli)
        spaces["D%d(Z/%s)/<%d>" % (k, moduli, g)] = partial(
            CosetCubespace, gr.maximal_degree_k_filtration(A, k), gr.subgroup_closure(A, [g]))
    return spaces


_SPACES = _group_and_coset_spaces()


# H2 itself is compared through the tower fixture below; of its cosets,
# <1> and <2> are not normal and <4> is the centre
@pytest.mark.parametrize("name", ["D1(Z/%d)" % m for m in range(2, 7)]
                         + ["D2(Z/2)", "D2(Z/3)", "D2(Z/4)", "D3(Z/2)", "D1(Z/2xZ/2)",
                            "H2/<1>", "H2/<2>", "H2/<4>"])
def test_translation_group_matches_the_search_that_certifies_every_leaf(name):
    X = _SPACES[name]()
    heights = range(1, X.step + 1)
    found = [tr.translation_group(X, i) for i in heights]  # before the oracle builds anything
    assert found == [oracles.translation_group_certifying_every_leaf(X, i) for i in heights]


def _searched_space(name, request):
    """A space of _SPACES, M(rho0), M(rho1), D1(Z/2) x D2(Z/2), or one of
    the D1(Z/2) tables that fail the axioms, built afresh (the M(rho) are
    the session's)."""
    if name.startswith("M("):
        return request.getfixturevalue("model_extensions")[int(name[5])]
    if name == "D1(Z/2)xD2(Z/2)":
        return ProductCubespace(_dk((2,), 1), _dk((2,), 2))
    if name == "D1(Z/2) less a square":
        return _d1z2_without_a_square()
    if name == "D1(Z/2) less the swap's arrows":
        return _d1z2_without_the_arrows_of_the_swap()
    return _SPACES[name]()


@pytest.mark.parametrize("name", sorted(_SPACES) + [
    "M(rho0)", "M(rho1)", "D1(Z/2)xD2(Z/2)", "D1(Z/2) less a square",
    "D1(Z/2) less the swap's arrows"])
def test_translation_group_matches_the_recursive_search(name, request):
    # the depth-first kernel, on the same checks in the same order, lists
    # what the recursion lists, in its order; the explicit tables fail
    # the axioms, so they reach bijections that the certificate refuses
    X = _searched_space(name, request)
    heights = range(1, X.step + 1)
    found = [tr.translation_group(X, i) for i in heights]
    assert found == [oracles.translation_group_by_recursion(X, i) for i in heights]


def test_heisenberg_tower_matches_the_search_that_certifies_every_leaf(heis2_space, heis2_tower):
    # the search lists bijections in lexicographic order, as the tower does
    # (the identity, which it puts first, is the least)
    tower = heis2_tower
    for i, level in enumerate(tower.heights, 1):
        found = [tower.bijections[j] for j in level]
        assert found == oracles.translation_group_certifying_every_leaf(heis2_space, i), i


@pytest.mark.parametrize("name", sorted(_SPACES))
def test_left_multiplications_by_g_i_are_certified_translations(name):
    X = _SPACES[name]()
    G = X.filt.group
    if isinstance(X, CosetCubespace):
        fibres, project = X.fibres, X.project
    else:
        fibres, project = [[x] for x in range(X.size)], (lambda x: x)
    for i in range(1, X.step + 1):
        # g acts on the point of each fibre through a representative
        mults = {tuple(project(G.op(g, f[0])) for f in fibres) for g in X.filt.subgroup(i)}
        assert X.known_translations(i) == mults
        certify = tr.translation_certifier(X, i)
        assert all(certify(alpha) for alpha in mults), i


def test_the_tower_of_d3z2_builds_no_certificate():
    # every translation of D3(Z/2) is a left multiplication, so no leaf of
    # the search asks for the certificate or the 4-cubes it reads
    X = _dk((2,), 3)
    tower = tr.translation_tower(X)
    assert [len(h) for h in tower.heights] == [2, 2, 2]
    assert X.step + 1 not in X._cube_sets
    space = {"source": "group", "group": {"type": "cyclic_product", "moduli": [2]},
             "filtration": {"type": "maximal_degree_k", "k": 3}}
    assert cli.run({"kind": "translations", "cubespace": space})["sizes"] == [2, 2, 2]
    # D2(Z/4) has bijections that pass the pruning but are no translations
    Y = _dk((4,), 2)
    tr.translation_tower(Y)
    assert Y.step + 1 in Y._cube_sets


def test_translation_tower_of_d2z2(d2z2):
    tower = tr.translation_tower(d2z2)
    assert [len(h) for h in tower.heights] == [2, 2]
    assert tr.translation_action_transitive(tower)
    assert gr.validate_filtration(tower.filtration) is None


def test_translation_tower_of_heisenberg(heis2_space, heis2, heis2_tower):
    G, filt = heis2
    tower = heis2_tower
    assert [len(h) for h in tower.heights] == [32, 2]
    assert tr.translation_action_transitive(tower)
    # left multiplications are height-1 translations
    for g in G.elements():
        alpha = tuple(G.op(g, x) for x in G.elements())
        assert alpha in set(tower.bijections)
    # Tran_2 is exactly the structure-group action at the top level
    top = structure_group(heis2_space, 2)
    tran2 = {tower.bijections[j] for j in tower.heights[1]}
    acts = {tuple(top.act(a, x) for x in range(G.order)) for a in range(top.A.order)}
    assert tran2 == acts


def test_tran_k_matches_structure_group_on_coset_space(coset_space):
    tower = tr.translation_tower(coset_space)
    top = structure_group(coset_space, 2)
    tran2 = {tower.bijections[j] for j in tower.heights[1]}
    acts = {
        tuple(top.act(a, x) for x in range(coset_space.size))
        for a in range(top.A.order)
    }
    assert tran2 == acts


# ROADMAP item 11: a transitive tower is a filtered group whose coset
# space by the stabilizer of a point is X again
_TRANSITIVE_TOWERS = ["D1(Z/4)", "D2(Z/3)", "D2(Z/4)", "D1(Z/2xZ/2)", "D3(Z/2)",
                      "H2/<1>", "H2/<2>", "H2/<4>", "D1(Z/2)xD2(Z/2)", "M(rho0)", "H2"]


@pytest.mark.parametrize("name", _TRANSITIVE_TOWERS)
def test_the_tower_rebuilds_the_space_as_the_coset_space_of_a_stabilizer(name, request):
    if name == "H2":  # its 3-cubes upstairs number 2^24
        X, tower, n_max = (request.getfixturevalue("heis2_space"),
                           request.getfixturevalue("heis2_tower"), 2)
    else:
        X = _searched_space(name, request)
        tower, n_max = tr.translation_tower(X), X.step + 1
    assert tr.translation_action_transitive(tower)
    stabilizer = frozenset(j for j, a in enumerate(tower.bijections) if a[0] == 0)
    model = CosetCubespace(tower.filtration, stabilizer)
    # the coset g Stab(0) goes to g(0)
    point = [tower.bijections[coset[0]][0] for coset in model.fibres]
    assert sorted(point) == list(range(X.size))
    for n in range(n_max + 1):
        assert {tuple(point[c] for c in q) for q in model.cubes(n)} == X.cubes(n), n


def test_the_tower_of_a_non_split_extension_is_not_transitive(model_extensions):
    # the base shift of M(rho1) does not lift (see the lift test below),
    # so every translation keeps the fibres {0, 1} and {2, 3}
    tower = tr.translation_tower(model_extensions[1])
    assert not tr.translation_action_transitive(tower)
    assert {frozenset(a[:2]) for a in tower.bijections} == {frozenset({0, 1})}


def _translation_cubes(tower, n):
    """The maps q(v) = c(v)(x): c an n-cube of the translation filtration
    (its values are tower elements), x a point."""
    return {tuple(tower.bijections[a][x] for a in c)
            for c in cg.enumerate_cubes(tower.filtration, n) for x in range(tower.X.size)}


def test_translation_cube_test_exhausts_d2z2(d2z2):
    tower = tr.translation_tower(d2z2)
    assert _translation_cubes(tower, 3) == d2z2.cubes(3)


def test_translation_cubes_are_cubes(heis2_space, heis2_tower):
    assert _translation_cubes(heis2_tower, 2) <= heis2_space.cubes(2)


def test_brute_force_cap():
    G, filt = gr.make_heisenberg(3)
    X = GroupCubespace(filt)
    with pytest.raises(ValueError):
        tr.translation_group(X, 1)


def test_translation_bundle_and_lift_on_d2z2(d2z2):
    # the 1-factor of a degree-2 structure on Z/2 is one point, so the
    # only base translation is the identity; the T* bundle of the oracle
    # must validate, and the lift must induce a cube-preserving section
    tb = oracles.translation_bundle(d2z2, [0], i=1)
    assert verify_degree_k_bundle(tb.extension, 3) is None
    beta = tr.try_lift_translation(d2z2, [0], i=1)
    assert beta is not None and tr.is_translation(d2z2, beta, 1)
    assert oracles.analyze_morphism(tb.section(beta), tb.extension.X, tb.extension.Y, 3) == (
        True, None)


def test_lift_refuses_an_action_that_is_not_well_defined_on_tstar(d2z2, monkeypatch):
    # the lift reads the cocycle of the top extension, so a structure
    # group whose action is no bijection must be refused by decompose's
    # bundle check before a "no lift" could be trusted
    real = structure_group

    def doctored(X, k):
        ext = real(X, k)
        if k == 2:
            action = [list(range(X.size)), [1, 1]]
            ext = dataclasses.replace(ext, act=lambda a, x: action[a][x])
        return ext

    monkeypatch.setattr(stc, "structure_group", doctored)
    with pytest.raises(ValueError, match=r"level 2 is not a degree-2 bundle: \('action', 1\)"):
        tr.try_lift_translation(d2z2, [0], i=1)


def test_bundle_refuses_a_space_that_is_not_its_own_top_factor():
    # every map on two points is a cube, so 0 ~_1 1: the structure group
    # of the 1-point 1-factor cannot act on the points of X
    X = ExplicitCubespace(2, {n: list(itertools.product((0, 1), repeat=1 << n)) for n in (1, 2)},
                          step=1)
    for build in (partial(stc.decompose, X, 2), partial(tr.try_lift_translation, X, (0,), 1)):
        with pytest.raises(ValueError, match="not its own 1-factor: 0 ~_1 1"):
            build()


def test_lift_translation_on_heisenberg_factor(heis2_space):
    base = factor(heis2_space, 1)
    # a genuine height-1 translation of the 4-point factor
    cands = tr.translation_group(base, 1)
    moved = [a for a in cands if a != tuple(range(base.size))]
    abar = moved[0]
    # the found lift is certified independently by is_translation below
    beta = tr.try_lift_translation(heis2_space, abar, i=1)
    assert beta is not None
    assert tr.is_translation(heis2_space, beta, 1)
    for x in range(heis2_space.size):
        assert base.project(beta[x]) == abar[base.project(x)]


@lru_cache(maxsize=None)
def _lift_space(name):
    """A space of _SPACES, D_1(Z/2) x D_2(Z/2) or Z/9 filtered by
    Z/9 >= Z/9 >= 3Z/9 (its 1-factor is Z/3), built once for all its
    lift cases."""
    if name == "Z/9 > 3Z/9":
        A = gr.CyclicProduct((9,))
        full = frozenset(A.elements())
        return GroupCubespace(gr.Filtration(A, (full, full, frozenset({0, 3, 6}))))
    return _searched_space(name, None)


@pytest.mark.parametrize("space,i,abar", [
    ("H2", 1, (1, 0, 3, 2)), ("H2", 2, (0, 1, 2, 3)),
    ("H2/<1>", 1, (1, 0)), ("H2/<1>", 2, (0, 1)),
    ("H2/<2>", 1, (1, 0)), ("H2/<2>", 2, (0, 1)),
    ("H2/<4>", 1, (2, 3, 0, 1)), ("H2/<4>", 2, (0, 1, 2, 3)),
    ("D2(Z/2)", 1, (0,)), ("D2(Z/2)", 2, (0,)), ("D1(Z/4)", 1, (0,)),
    ("D2(Z/4)", 1, (0,)), ("D2(Z/4)", 2, (0,)),
    ("D3(Z/2)", 2, (0,)), ("D3(Z/2)", 3, (0,)),
    ("D2(Z/3)", 1, (0,)), ("D2(Z/3)", 2, (0,)),
    ("D1(Z/2)xD2(Z/2)", 1, (1, 0)), ("D1(Z/2)xD2(Z/2)", 2, (0, 1)),
    ("M(rho0)", 1, (1, 0)), ("M(rho0)", 2, (0, 1)),
    ("M(rho1)", 1, (0, 1)), ("M(rho1)", 1, (1, 0)), ("M(rho1)", 2, (0, 1)),
    ("D3(Z/2)", 1, (0,)), ("Z/9 > 3Z/9", 1, (1, 2, 0)),
])
def test_linear_lift_agrees_with_the_section_search(space, i, abar, request):
    fixtures = {"H2": "heis2_space", "H2/<1>": "coset_space", "D2(Z/2)": "d2z2"}
    if space in fixtures:
        X = request.getfixturevalue(fixtures[space])
    elif space.startswith("M("):
        X = request.getfixturevalue("model_extensions")[int(space[5])]
    else:
        X = _lift_space(space)
    beta = tr.try_lift_translation(X, abar, i)
    # the same beta, or None, as the section of T* that one linear system
    # finds, and the same verdict as the search over every section
    assert beta == oracles.try_lift_translation_by_tstar(X, abar, i)
    ref, searched = oracles.try_lift_translation_by_search(X, abar, i)
    assert (beta is None) == (ref is None)
    # the base shift of M(rho1) is the one translation that does not lift:
    # the search exhausts its 4 sections
    if (space, i, abar) == ("M(rho1)", 1, (1, 0)):
        assert beta is None and searched == 4
    else:
        assert beta is not None and tr.is_translation(X, beta, i)
    # the one case where beta(a s(y)) = (a - g(y)) s(abar(y)), with the
    # sign of the coboundary solution g flipped, is no translation
    if space == "Z/9 > 3Z/9":
        assert beta == (1, 5, 0, 4, 8, 3, 7, 2, 6)
