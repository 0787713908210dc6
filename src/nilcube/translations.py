"""Translations of a finite cubespace: height-i translation detection
on the faces of arrows, which are j-arrows of faces; the groups Tran_i(X)
and their filtration; and lifting a translation abar of the top factor
by one linear system: abar lifts exactly when the cocycle of the top
extension X_k -> X_{k-1}, pulled back along abar, is a coboundary.  The
top extension comes from `structure.decompose`, which checks it as a
degree-k bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import List, Optional, Sequence

from . import cubegroups as cg
from . import cubes as cb
from .cohomology import Cocycle, cross_section_cocycle, is_coboundary
from .cubespace import Cubespace, depth_first, partition
from .groups import Filtration, TableGroup, validate_filtration
from .structure import decompose, related_k

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


def try_lift_translation(X: Cubespace, abar: Sequence[int], i: int = 1) -> Optional[tuple]:
    """Lift a height-i translation abar of the (k-1)-factor X_{k-1} of a
    k-step space X to a height-i translation beta of X covering it, or
    None when there is none.

    The top level X_k -> X_{k-1} of decompose(X, k + 1), checked there as
    a degree-k bundle, has the cocycle rho of the section s through the
    first point of each fibre.  abar lifts exactly when the pulled-back
    table q -> rho(<q, abar o q>_i) on the (k-i+1)-cubes of X_{k-1} is a
    coboundary of some g (cohomology.is_coboundary); then
    beta(a s(y)) = (a + g(y)) s(abar(y)).  beta is certified as a height-i
    translation covering abar, and a beta that fails that raises a
    ValueError."""
    if X.step is None or X.step < 1:
        raise ValueError("needs a space of known positive step")
    k = X.step
    if not 1 <= i <= k:
        raise ValueError("height must satisfy 1 <= i <= step")
    top = decompose(X, k + 1).extensions[-1]  # its points are those of X
    base, A = top.X, top.A
    if sorted(abar) != list(range(base.size)):
        raise ValueError("abar must be a bijection of the factor")
    if not is_translation(base, abar, i):
        raise ValueError("abar is not a height-%d translation of the factor" % i)
    s = [ys[0] for ys in top.fibres]
    rho = cross_section_cocycle(top, s).table
    n = k - i + 1
    pulled = {q: rho[cg.arrow(q, tuple(abar[y] for y in q), n, i)] for q in base.cubes(n)}
    g = is_coboundary(Cocycle(base, k - i, A, pulled))
    if g is None:
        return None
    beta = [0] * X.size
    for y in range(base.size):
        for a in range(A.order):
            beta[top.act(a, s[y])] = top.act(A.op(a, g[y]), s[abar[y]])
    if not is_translation(X, beta, i) or any(
            top.pi[beta[x]] != abar[top.pi[x]] for x in range(X.size)):
        raise ValueError("the coboundary does not lift abar to a height-%d translation" % i)
    return tuple(beta)
