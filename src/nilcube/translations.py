"""Translations of a finite cubespace: height-i translation detection
on the faces of arrows, which are j-arrows of faces; the groups Tran_i(X)
and their filtration, the bundle of translation pairs T and its factor
T*, and lifting a translation of the top factor by one linear system:
it lifts exactly when T* -> X_{k-1} has a cube-preserving section,
which `cohomology.morphism_section` decides.  The bundle is a
`structure.ExtensionData`; its cube axioms are checked by
`structure.verify_degree_k_bundle`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import List, Optional, Sequence

from . import cubegroups as cg
from . import cubes as cb
from .cohomology import morphism_section
from .cubespace import ArrowCubespace, Cubespace, RestrictedCubespace, depth_first, partition
from .groups import Filtration, TableGroup, closure, validate_filtration
from .structure import ExtensionData, factor, related_k, structure_group

BRUTE_FORCE_CAP = 12


def is_translation(X: Cubespace, alpha: Sequence[int], i: int = 1) -> bool:
    """alpha (a bijection on points) is a translation of height i.

    On a k-step space it is enough that <q, alpha o q>_i is a cube for
    every (k+1)-cube q, which translation_certifier checks; the test
    suite cross-checks it against the raw definition over every
    dimension.
    """
    if sorted(alpha) != list(range(X.size)):
        raise ValueError("translations must be bijections")
    return translation_certifier(X, i)(alpha)


def _arrows_are_cubes(X: Cubespace, alpha: Sequence[int], n: int, i: int) -> bool:
    """Whether <q, alpha o q>_i is an (n+i)-cube for every n-cube q, one
    membership question per arrow."""
    for q in X.cubes(n):
        aq = tuple(alpha[x] for x in q)
        if not X.membership(n + i, cg.arrow(q, aq, n, i)):
            return False
    return True


def _columns(rows, width: int) -> list:
    """The columns of a collection of rows of the given width."""
    return list(zip(*rows)) or [()] * width


def translation_certifier(X: Cubespace, i: int):
    """The predicate alpha -> is_translation(X, alpha, i) for bijections
    alpha of a space with a step bound k, built once per (X, i).

    The arrow <q, alpha o q>_i of a (k+1)-cube q has dimension
    k+1+i >= k+2, so membership answers it by the face criterion: every
    (k+1)-face restriction must lie in cubes(k+1).  Those faces are the
    j-arrows of the faces of q: a (k+1)-face with j free arrow
    coordinates restricts q to a face F of codimension j, and reads
    <q|F, alpha o q|F>_j when its fixed arrow coordinates are all 1, and
    q|F repeated 2^j times otherwise (only when j < i).  The certificate
    keeps, for each face F of codimension j <= min(i, k+1), the distinct
    restrictions of cubes(k+1) to it (projected from those of the faces
    of codimension j - 1 that F is a facet of), held column by column,
    so that alpha maps a whole column at once and zip assembles the
    arrows, smallest faces first.  The repeats, which never read alpha,
    are answered here, once.  When X already holds a cube set of the
    arrow dimension, membership would look the arrow up there instead,
    so the predicate asks membership arrow by arrow.
    """
    if X.step is None:
        raise ValueError("the translation certificate needs a step bound")
    k1 = X.step + 1
    C = X.cubes(k1)
    if k1 + i in X._cube_sets:
        return lambda alpha: _arrows_are_cubes(X, alpha, k1, i)
    faces = {tuple(range(1 << k1)): _columns(C, 1 << k1)}  # F -> its restrictions by column
    checks = []  # (q|F repeated 2^j - 1 times, q|F), by column, of each face F
    for j in range(min(i, k1) + 1):
        if j:  # the faces of codimension j, as the facets of those of codimension j - 1
            faces = {tuple(P[t] for t in G): _columns(set(zip(*(cols[t] for t in G))), len(G))
                     for P, cols in faces.items() for G in cb.face_index_tables(k1 - j, k1 - j + 1)}
        for cols in faces.values():
            if 0 < j < i and not C.issuperset(zip(*(cols * (1 << j)))):
                return lambda alpha: False
            checks.append((cols * ((1 << j) - 1), cols))
    checks.sort(key=lambda c: len(c[1][0]))  # small faces refute first

    def certify(alpha):
        image = alpha.__getitem__
        return all(C.issuperset(zip(*fixed, *(tuple(map(image, c)) for c in cols)))
                   for fixed, cols in checks)

    return certify


def compose_bijections(a: Sequence[int], b: Sequence[int]) -> tuple:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def translation_group(X: Cubespace, i: int = 1) -> List[tuple]:
    """All height-i translations, in lexicographic order, from the
    depth-first search (cubespace.depth_first) over partial bijections
    alpha.  alpha(x) is tried among the points in the level-(i-1) class
    of x (the 0-cube arrow condition), and kept when it is new and, for
    each earlier z, the i-arrows of the 1-cubes (x, z) and (z, x) are
    (1+i)-cubes.  A full bijection is accepted when it is one of
    X.known_translations(i) (a group's or coset space's own left
    multiplications by G_i), and otherwise when translation_certifier
    certifies it; the certifier, and with it cubes(step + 1), is built
    only when the first such bijection is reached."""
    if X.size > BRUTE_FORCE_CAP:
        raise ValueError("brute-force search capped at %d points" % BRUTE_FORCE_CAP)
    if X.step is None:
        raise ValueError("the translation certificate needs a step bound")
    pairs1, arrow_test = X.cubes(1), X._cube_test(1 + i)
    candidates, checks = [], []
    for x in range(X.size):
        candidates.append([y for y in range(X.size) if related_k(X, i - 1, x, y)])
        checks.append([(itemgetter(slice(x + 1)), _last_is_new)] + [
            (itemgetter(a, b), partial(_arrow_is_cube, arrow_test, (a, b), i))
            for z in range(x) for a, b in ((x, z), (z, x)) if (a, b) in pairs1])
    known = X.known_translations(i)
    out, certify = [], None
    for alpha in depth_first(candidates, checks):
        if alpha not in known:
            certify = certify or translation_certifier(X, i)
            if not certify(alpha):
                continue
        out.append(alpha)
    return out


def _last_is_new(values: Sequence[int]) -> bool:
    return values[-1] not in values[:-1]


def _arrow_is_cube(test, q: tuple, i: int, image: tuple) -> bool:
    """Whether the i-arrow <q, image>_i of the 1-cube q passes test."""
    return test(cg.arrow(q, image, 1, i))


def generated_translation_group(X: Cubespace, i: int, seeds: Sequence[Sequence[int]]) -> List[tuple]:
    """The group generated by a seed set of certified height-i
    translations: the closure of the identity under right composition
    by the seeds (groups.closure), which holds the inverses, since a
    bijection of a finite set has one of its powers as inverse.  Only
    its test calls it so far: step 2 of ROADMAP item 5 (translation
    towers) can keep this closure with the same loop and skip the
    certificate of a candidate already inside it."""
    for s in seeds:
        if not is_translation(X, s, i):
            raise ValueError("seed is not a height-%d translation" % i)
    return sorted(closure([tuple(range(X.size))],
                          lambda a: (compose_bijections(a, s) for s in seeds)))


@dataclass
class TranslationTower:
    """Tran_1 >= Tran_2 >= ... as a filtered group under composition.
    Element 0 of the table group is the identity bijection."""

    X: Cubespace
    bijections: List[tuple]  # index -> bijection
    group: TableGroup
    filtration: Filtration
    heights: List[List[int]]  # heights[i-1] = indices of Tran_i


def translation_tower(X: Cubespace) -> TranslationTower:
    """Compute Tran_i for i = 1..step, assemble the composition group of
    Tran_1 and the chain as a validated filtration (this rechecks every
    commutator inclusion [Tran_i, Tran_j] <= Tran_{i+j})."""
    if X.step is None:
        raise ValueError("needs a step bound")
    k = max(X.step, 1)
    tran = {i: translation_group(X, i) for i in range(1, k + 1)}
    ident = tuple(range(X.size))
    bijections = sorted(tran[1], key=lambda a: (a != ident, a))
    index = {a: j for j, a in enumerate(bijections)}
    m = len(bijections)
    table = [[0] * m for _ in range(m)]
    for ja, a in enumerate(bijections):
        for jb, b in enumerate(bijections):
            c = compose_bijections(a, b)
            if c not in index:
                raise ValueError("translations do not close under composition")
            table[ja][jb] = index[c]
    group = TableGroup(table)
    chain = [frozenset(range(m))]
    heights = []
    for i in range(1, k + 1):
        if not index.keys() >= set(tran[i]):
            raise ValueError("a height-%d translation is not a height-1 translation" % i)
        level = sorted(index[a] for a in tran[i])
        heights.append(level)
        chain.append(frozenset(level))
    filt = Filtration(group, tuple(chain))
    bad = validate_filtration(filt)
    if bad is not None:
        raise ValueError("translation chain is not a filtration: %r" % (bad,))
    return TranslationTower(X, bijections, group, filt, heights)


def translation_action_transitive(tower: TranslationTower) -> bool:
    """Whether the points form one orbit of Tran_1."""
    size = tower.X.size
    return len(partition(size, ((x, a[x]) for a in tower.bijections for x in range(size)))) == 1


# ---------------------------------------------------------------------------
# lifting translations through the top factor


@dataclass
class TranslationBundle:
    """For a k-step space X and a height-i translation abar of the
    (k-1)-factor X_{k-1}: T is the subspace of X |><|_i X of pairs
    (x0, x1) with pi(x1) = abar(pi(x0)).  extension is its (k-1)-factor
    Tstar as a degree-(k-i) extension of X_{k-1}: it projects through
    the first coordinate, and the top structure group of X acts through
    the second."""

    T: RestrictedCubespace
    extension: ExtensionData  # Tstar -> X_{k-1}, both ImageCubespaces

    def covering(self, section: Sequence[int]) -> Optional[tuple]:
        """beta for a section of Tstar -> X_{k-1}: beta(x) is the unique
        partner of x in the class section(pi(x)); None when some point
        has no partner there or more than one."""
        arrows, base, Tstar = self.T.X, self.extension.X, self.extension.Y
        beta = []
        for x in range(arrows.X.size):
            pairs = (arrows.decode(self.T.points[p]) for p in Tstar.fibres[section[base.project(x)]])
            partners = {x1 for x0, x1 in pairs if x0 == x}
            if len(partners) != 1:
                return None
            beta.append(partners.pop())
        return tuple(beta)


def translation_bundle(X: Cubespace, abar: Sequence[int], i: int = 1) -> TranslationBundle:
    """The bundle of abar.  X must be its own k-factor, k its step (else
    a ValueError naming x ~_k y): the top structure group acts there.
    The action of the structure group on a pair p of T must not depend
    on the representative p of its Tstar class (else a ValueError); the
    cube axioms of the bundle are not checked."""
    if X.step is None or X.step < 1:
        raise ValueError("needs a space of known positive step")
    k = X.step
    if not 1 <= i <= k:
        raise ValueError("height must satisfy 1 <= i <= step")
    top = factor(X, k)
    if top.size < X.size:
        x, y = next(cls for cls in top.fibres if len(cls) > 1)[:2]
        raise ValueError("X is not its own %d-factor: %d ~_%d %d" % (k, x, k, y))
    base = factor(X, k - 1)
    if sorted(abar) != list(range(base.size)):
        raise ValueError("abar must be a bijection of the factor")
    if not is_translation(base, abar, i):
        raise ValueError("abar is not a height-%d translation of the factor" % i)
    A = ArrowCubespace(X, i)
    pts = [
        A.encode(x0, x1)
        for x0 in range(X.size)
        for x1 in range(X.size)
        if base.project(x1) == abar[base.project(x0)]
    ]
    T = RestrictedCubespace(A, pts)
    Tstar = factor(T, k - 1)
    gamma = []
    for cls in Tstar.fibres:
        firsts = {base.project(A.decode(T.points[p])[0]) for p in cls}
        if len(firsts) != 1:
            raise ValueError("first-coordinate projection is not constant on classes")
        gamma.append(firsts.pop())
    sg = structure_group(top, k)
    pair_class = {T.points[p]: c for c, cls in enumerate(Tstar.fibres) for p in cls}

    def moved(a, p):
        x0, x1 = A.decode(T.points[p])
        return pair_class[A.encode(x0, sg.act(a, x1))]

    for c, cls in enumerate(Tstar.fibres):
        for a in sg.group.elements():
            if len({moved(a, p) for p in cls}) != 1:
                raise ValueError("Tstar is not a bundle over the factor: %r"
                                 % (("action-not-well-defined", c, a),))
    ext = ExtensionData(Tstar, base, gamma, sg.group, k - i,
                        lambda a, c: moved(a, Tstar.fibres[c][0]))
    return TranslationBundle(T, ext)


@dataclass
class LiftResult:
    section: Optional[List[int]]  # base point -> Tstar class
    beta: Optional[tuple]  # the lifted translation, None when abar does not lift


def try_lift_translation(X: Cubespace, abar: Sequence[int], i: int = 1) -> LiftResult:
    """Lift abar through the top factor: it lifts exactly when
    Tstar -> X_{k-1} has a cube-preserving section m, which
    cohomology.morphism_section finds or refutes by one linear system.
    From m, beta(x) is the unique partner of x in the class m(pi(x)).
    beta is certified as a height-i translation covering abar; a
    section whose beta fails that raises a ValueError.  A "no lift"
    answer is not certified: it assumes Tstar is a degree-(k-i) bundle,
    as when X is a k-step nilspace, and checks only that the action on
    Tstar is well defined (translation_bundle raises if not)."""
    tb = translation_bundle(X, abar, i)
    m = morphism_section(tb.extension)
    if m is None:
        return LiftResult(None, None)
    beta = tb.covering(m)
    base = tb.extension.X
    if beta is None or not is_translation(X, beta, i) or any(
            base.project(beta[x]) != abar[base.project(x)] for x in range(X.size)):
        raise ValueError("the section does not lift abar to a height-%d translation" % i)
    return LiftResult(m, beta)
