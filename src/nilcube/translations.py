"""Translations of a finite cubespace: height-i translation detection,
the groups Tran_i(X) and their filtration, the bundle of translation
pairs T and its factor T*, and the section-search lifting criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import cubegroups as cg
from .cubespace import ArrowCubespace, Cubespace, RestrictedCubespace, partition
from .groups import Filtration, TableGroup, validate_filtration
from .structure import (
    ExtensionData,
    FactorCubespace,
    analyze_morphism,
    factor,
    related_k,
    structure_group,
    verify_degree_k_bundle,
)

BRUTE_FORCE_CAP = 12
BUNDLE_N_MAX = 3  # dimensions up to which translation_bundle verifies T* -> base


def is_translation(
    X: Cubespace,
    alpha: Sequence[int],
    i: int = 1,
    all_dims: bool = False,
    n_max: Optional[int] = None,
) -> bool:
    """alpha (a bijection on points) is a translation of height i.

    On a k-step space it is enough that <q, alpha o q>_i is a cube for
    every (k+1)-cube q, which is what this checks by default; with
    all_dims the raw definition is scanned for every dimension up to
    n_max (the two agree on nilspaces, cross-checked in the test suite).
    """
    if sorted(alpha) != list(range(X.size)):
        raise ValueError("translations must be bijections")
    if X.step is None and n_max is None:
        raise ValueError("n_max required when no step bound is known")
    if all_dims:
        dims = range((n_max if n_max is not None else X.step + 1) + 1)
    else:
        dims = [X.step + 1 if n_max is None else n_max]
    for n in dims:
        for q in X.cubes(n):
            aq = tuple(alpha[x] for x in q)
            if not X.membership(n + i, cg.arrow(q, aq, n, i)):
                return False
    return True


def compose_bijections(a: Sequence[int], b: Sequence[int]) -> tuple:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def translation_group(X: Cubespace, i: int = 1) -> List[tuple]:
    """All height-i translations by depth-first search over partial
    bijections.  Pruning: alpha(x) stays in the level-(i-1) class of x
    (the 0-cube arrow condition) and assigned pairs pass the 1-cube
    arrow condition; survivors are certified by is_translation."""
    if X.size > BRUTE_FORCE_CAP:
        raise ValueError("brute-force search capped at %d points" % BRUTE_FORCE_CAP)
    size = X.size
    candidates = [
        [y for y in range(size) if related_k(X, i - 1, x, y)] for x in range(size)
    ]
    pairs1 = X.cubes(1)
    out = []
    alpha = [-1] * size
    used = [False] * size

    def pair_ok(x, z):
        for (a, b) in ((x, z), (z, x)):
            if (a, b) in pairs1:
                ar = cg.arrow((a, b), (alpha[a], alpha[b]), 1, i)
                if not X.membership(1 + i, ar):
                    return False
        return True

    def rec(x):
        if x == size:
            if is_translation(X, alpha, i):
                out.append(tuple(alpha))
            return
        for y in candidates[x]:
            if used[y]:
                continue
            alpha[x] = y
            used[y] = True
            if all(pair_ok(x, z) for z in range(x)):
                rec(x + 1)
            used[y] = False
        alpha[x] = -1

    rec(0)
    # rec refers to itself; dropping that reference frees X's caches now
    # instead of at the next full garbage collection
    rec = None
    return out


def generated_translation_group(X: Cubespace, i: int, seeds: Sequence[Sequence[int]]) -> List[tuple]:
    """The group generated by a seed set of certified height-i
    translations: their closure under composition, which holds the
    inverses, since a bijection of a finite set has one of its powers as
    inverse.  Only its test calls it so far: the first step of ROADMAP
    item 5 (translation towers) keeps this closure incrementally and
    skips the certificate of a candidate already inside it."""
    ident = tuple(range(X.size))
    for s in seeds:
        if not is_translation(X, s, i):
            raise ValueError("seed is not a height-%d translation" % i)
    group = {ident}
    frontier = [tuple(s) for s in seeds]
    while frontier:
        a = frontier.pop()
        for g in list(group):
            for c in (compose_bijections(g, a), compose_bijections(a, g)):
                if c not in group:
                    group.add(c)
                    frontier.append(c)
    return sorted(group)


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
    (k-1)-factor: T is the subspace of X |><|_i X of pairs (x0, x1) with
    pi(x1) = abar(pi(x0)); Tstar its (k-1)-factor; gamma the projection
    Tstar -> X_{k-1} through the first coordinate.  Tstar is a
    degree-(k-i) extension of the factor with the top structure group."""

    X: Cubespace
    i: int
    base: FactorCubespace  # X_{k-1}
    abar: tuple
    T: RestrictedCubespace
    Tstar: FactorCubespace
    gamma: List[int]  # Tstar class -> base point
    extension_report: Optional[tuple]  # None when the extension validates


def translation_bundle(X: Cubespace, abar: Sequence[int], i: int = 1,
                       validate: bool = True) -> TranslationBundle:
    if X.step is None or X.step < 1:
        raise ValueError("needs a space of known positive step")
    k = X.step
    if not 1 <= i <= k:
        raise ValueError("height must satisfy 1 <= i <= step")
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
    for cls in Tstar.classes:
        firsts = {base.project(A.decode(T.points[p])[0]) for p in cls}
        if len(firsts) != 1:
            raise ValueError("first-coordinate projection is not constant on classes")
        gamma.append(firsts.pop())
    report = None
    if validate:
        report = _validate_bundle_extension(X, base, A, T, Tstar, gamma, k - i, BUNDLE_N_MAX)
    return TranslationBundle(X, i, base, tuple(abar), T, Tstar, gamma, report)


def _validate_bundle_extension(X, base, A, T, Tstar, gamma, degree, n_max):
    """Check Tstar -> base is a degree-(k-i) extension with the top
    structure group of X acting through the second coordinate."""
    k = X.step
    sg = structure_group(factor(X, k), k)
    pair_class = {T.points[p]: c for c, cls in enumerate(Tstar.classes) for p in cls}

    def act(a, c):
        p = T.points[Tstar.classes[c][0]]
        x0, x1 = A.decode(p)
        moved = A.encode(x0, sg.act(a, x1))
        return pair_class[moved]

    # well-definedness across class representatives
    for c, cls in enumerate(Tstar.classes):
        for a in range(len(sg.fibre)):
            images = {act(a, c)}
            for p in cls:
                x0, x1 = A.decode(T.points[p])
                images.add(pair_class[A.encode(x0, sg.act(a, x1))])
            if len(images) != 1:
                return ("action-not-well-defined", c, a)
    return verify_degree_k_bundle(ExtensionData(Tstar, base, gamma, sg.group, degree, act), n_max)


@dataclass
class LiftResult:
    found: bool
    section: Optional[List[int]]  # base point -> Tstar class
    beta: Optional[tuple]  # the lifted translation, if found
    searched: int = 0  # sections examined (exhaustion certificate)


def try_lift_translation(X: Cubespace, abar: Sequence[int], i: int = 1, n_max: int = 3) -> LiftResult:
    """Search for a cube-preserving section m of gamma: Tstar -> X_{k-1};
    from a section, beta(x) is the unique partner of x in the class
    m(pi(x)).  A returned lift is certified as a height-i translation
    covering abar.  When no section exists at this scale the search is
    exhaustive and says so."""
    tb = translation_bundle(X, abar, i, validate=False)
    base, Tstar, gamma = tb.base, tb.Tstar, tb.gamma
    A = tb.T.X  # the ambient arrow space
    fibres = [
        [c for c in range(Tstar.size) if gamma[c] == x] for x in range(base.size)
    ]
    searched = 0
    if any(not f for f in fibres):
        return LiftResult(False, None, None, searched)
    for choice in itertools.product(*fibres):
        searched += 1
        ok, _w = analyze_morphism(list(choice), base, Tstar, n_max)
        if not ok:
            continue
        beta = [-1] * X.size
        good = True
        for x in range(X.size):
            cls = Tstar.classes[choice[base.project(x)]]
            partners = {
                A.decode(tb.T.points[p])[1]
                for p in cls
                if A.decode(tb.T.points[p])[0] == x
            }
            if len(partners) != 1:
                good = False
                break
            beta[x] = partners.pop()
        if not good or sorted(beta) != list(range(X.size)):
            continue
        if not is_translation(X, beta, i):
            continue
        if any(base.project(beta[x]) != abar[base.project(x)] for x in range(X.size)):
            continue
        return LiftResult(True, list(choice), tuple(beta), searched)
    return LiftResult(False, None, None, searched)
