"""Canonical factors and abelian-bundle structure of finite ergodic
nilspaces: the one-flip relations, factor cubespaces, structure groups
(the action by one-flip corner completions, its addition checked
against a two-vertex corner, the group a `groups.FiniteAbelianGroup`)
and the degree-k extension record `ExtensionData`, the one form of each
level of a nilspace and each model M(rho): it holds the fibres, D_k(A)
and the lift of a base cube.  Its degree-k bundle check is
`verify_degree_k_bundle`, which `decompose` runs on every level of a
space that is its own step-factor; the translation lift reads its
cocycle off the top level.  A factor is a `cubespace.ImageCubespace`,
whose `lift` finds a cube upstairs over a factor cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groups import FiniteAbelianGroup, TableGroup, abelian_coordinates
from .cubespace import Cubespace, ImageCubespace, abelian_Dk, partition


# ---------------------------------------------------------------------------
# one-flip relations and factors


def related_k(X: Cubespace, k: int, x: int, y: int) -> bool:
    """x ~ y at level k: the (k+1)-dimensional map constantly x except y
    at the top vertex is a cube."""
    total = 1 << (k + 1)
    vals = (x,) * (total - 1) + (y,)
    return X.membership(k + 1, vals)


def sim_classes(X: Cubespace, k: int) -> List[List[int]]:
    """Classes of the level-k relation, ordered by least element
    (union-find closure; for genuine nilspaces the raw relation is
    already an equivalence)."""
    pairs = ((x, y) for x in range(X.size) for y in range(x + 1, X.size)
             if related_k(X, k, x, y))
    return partition(X.size, pairs)


def factor(X: Cubespace, k: int) -> ImageCubespace:
    """The canonical k-step factor: the image of X under the class map
    of the level-k relation, so its fibres are sim_classes(X, k)."""
    classes = sim_classes(X, k)
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    return ImageCubespace(X, class_of.__getitem__, len(classes), step=k)


# ---------------------------------------------------------------------------
# the structure group


def _one_flip_corner(k: int, x0: int, x1: int, y0: int):
    """Corner on {0,1}^{k+1}: x0 on the lower face except y0 at its top
    vertex, x1 on the upper face, the final vertex open."""
    half = 1 << k
    vals = [x0] * half + [x1] * (half - 1)
    vals[half - 1] = y0
    return vals


def _unique_completion(X: Cubespace, n: int, corner, what: str, at: tuple) -> int:
    sols = X.completions(n, corner)
    if len(sols) != 1:
        raise ValueError("%s not well defined at %r: %d completions" % (what, at, len(sols)))
    return sols[0]


@dataclass
class StructureGroup:
    """The abelian group acting on the level-(k-1) fibres of a k-step
    ergodic cubespace."""

    k: int
    fibre: List[int]  # fibre[a]: the point that element a moves the base point to
    group: FiniteAbelianGroup  # element 0 is the base point
    action: List[List[int]]  # action[a][x] moves x by the element a

    def act(self, a: int, x: int) -> int:
        return self.action[a][x]


def structure_group(X: Cubespace, k: int) -> StructureGroup:
    """Structure group of a k-step ergodic cubespace at its top level
    (k >= 1).

    Elements are the points of the fibre through the smallest point b.
    The element y moves x to the unique completion of the one-flip
    corner that is b on the lower face except y at its top vertex and x
    on the upper face; addition y1 + y2 is y2 moving y1.  Addition is
    recomputed by a second route (a corner that is b everywhere except
    y1 and y2 at two weight-k vertices, whose unique completion is the
    sum) and the two must agree.  The group is returned in
    invariant-factor form, the fibre and the action reindexed by it.
    """
    b = 0
    fibre = [y for y in range(X.size) if related_k(X, k - 1, b, y)]
    index_in_fibre = {y: i for i, y in enumerate(fibre)}
    action = [[_unique_completion(X, k + 1, _one_flip_corner(k, b, x, y), "action", (y, x))
               for x in range(X.size)] for y in fibre]
    table = [[index_in_fibre.get(moves[y1]) for moves in action] for y1 in fibre]
    if any(None in row for row in table):
        raise ValueError("fibre translation left the fibre")

    v1 = (1 << k) - 1  # a weight-k vertex below the top
    v2 = v1 ^ 1 | (1 << k)  # another weight-k vertex
    for i, y1 in enumerate(fibre):
        for j, y2 in enumerate(fibre):
            corner = [b] * ((2 << k) - 1)
            corner[v1] = y1
            corner[v2] = y2
            s = _unique_completion(X, k + 1, corner, "addition", (y1, y2))
            if index_in_fibre.get(s) != table[i][j]:
                raise ValueError("the two addition constructions disagree")

    A, coords = abelian_coordinates(TableGroup(table))
    at = sorted(range(len(fibre)), key=coords.__getitem__)  # fibre position of each element
    return StructureGroup(k, [fibre[j] for j in at], A, [action[j] for j in at])


# ---------------------------------------------------------------------------
# degree-k bundle verification


@dataclass
class BundleLevel:
    k: int
    group_invariants: Tuple[int, ...]
    fibre_size: int
    verified_dims: Tuple[int, ...]


@dataclass
class ExtensionData:
    """A candidate degree-k extension Y -> X: pi projects points, and the
    abelian group A acts on Y by act(a, y).  The fibres and the fibre
    space D_k(A) are computed once, at construction."""

    Y: Cubespace
    X: Cubespace
    pi: List[int]  # Y point -> X point
    A: FiniteAbelianGroup
    k: int
    act: Callable[[int, int], int]  # (a, y) -> y shifted by a
    fibres: List[List[int]] = field(init=False)  # fibres[x]: pi^-1(x), increasing
    fibre_space: Cubespace = field(init=False)  # D_k(A)

    def __post_init__(self):
        self.fibres = [[] for _ in range(self.X.size)]
        for y, x in enumerate(self.pi):
            self.fibres[x].append(y)
        self.fibre_space = abelian_Dk(self.A, self.k)

    def lift(self, n: int, q: Sequence[int]) -> Optional[tuple]:
        """The first n-cube of Y over the base cube q, in Y's scan order
        with each fibre tried in increasing order; None when there is
        none."""
        return next(self.Y._scan_maps(n, False, [self.fibres[x] for x in q]), None)


@dataclass
class Decomposition:
    step: int
    factors: List[ImageCubespace]
    groups: List[StructureGroup]
    levels: List[BundleLevel]
    extensions: List[ExtensionData]  # extensions[i-1]: X_i -> X_{i-1}


def verify_degree_k_bundle(ext: ExtensionData, n_max: int):
    """None, or a witness that ext is not a degree-k bundle up to
    dimension n_max.  A acts freely and preserves the fibres of pi
    (else ("action", y)); per dimension n, cubes project onto exactly
    the base cubes (else ("projection-not-cube", n, q) or
    ("projection-not-onto", n, base cube)); and the cubes over each base
    cube are the degree-k perturbations of any one of them (else
    ("fibre-correspondence", n, base cube)).  The last condition makes
    every difference of two cubes over one base cube a degree-k cube."""
    Y, X, A = ext.Y, ext.X, ext.A
    moves = [[ext.act(a, y) for y in range(Y.size)] for a in range(A.order)]  # [a][y]: y moved by a
    for y in range(Y.size):
        seen = {row[y] for row in moves}
        if len(seen) != A.order or any(ext.pi[p] != ext.pi[y] for p in seen):
            return ("action", y)
    project = ext.pi.__getitem__
    for n in range(1, n_max + 1):
        ycubes = Y.cubes(n)
        xcubes = X.cubes(n)
        by_proj: Dict[tuple, set] = {}
        for q in ycubes:
            pq = tuple(map(project, q))
            if pq not in xcubes:
                return ("projection-not-cube", n, q)
            by_proj.setdefault(pq, set()).add(q)
        if set(by_proj) != xcubes:
            missing = sorted(xcubes - set(by_proj))[0]
            return ("projection-not-onto", n, missing)
        acubes = ext.fibre_space.cubes(n)
        for pq, qs in by_proj.items():
            ref = next(iter(qs))
            pert = {tuple(map(getitem, map(moves.__getitem__, av), ref)) for av in acubes}
            if pert != qs:
                return ("fibre-correspondence", n, pq)
    return None


def decompose(X: Cubespace, n_max: int = 3) -> Decomposition:
    """Full tower: canonical factors X_1, ..., X_k, structure groups,
    and per-level degree-i bundle verification up to dimension n_max.
    X must be its own k-factor, k its step (else a ValueError naming
    x ~_k y), so the points of X_k are those of X."""
    if X.step is None:
        raise ValueError("decompose needs a step bound")
    k = X.step
    factors = [factor(X, i) for i in range(0, k + 1)]
    if factors[k].size < X.size:
        x, y = next(cls for cls in factors[k].fibres if len(cls) > 1)[:2]
        raise ValueError("X is not its own %d-factor: %d ~_%d %d" % (k, x, k, y))
    groups: List[StructureGroup] = []
    levels: List[BundleLevel] = []
    extensions: List[ExtensionData] = []
    for i in range(1, k + 1):
        Xi = factors[i]
        Xprev = factors[i - 1]
        sg = structure_group(Xi, i)
        # the factor map X_i -> X_{i-1} factors through the points of X
        to_prev = [Xprev.project(cls[0]) for cls in Xi.fibres]
        ext = ExtensionData(Xi, Xprev, to_prev, sg.group, i, sg.act)
        bad = verify_degree_k_bundle(ext, n_max)
        if bad is not None:
            raise ValueError("level %d is not a degree-%d bundle: %r" % (i, i, bad))
        groups.append(sg)
        levels.append(BundleLevel(i, sg.group.invariants, len(sg.fibre), tuple(range(1, n_max + 1))))
        extensions.append(ext)
    return Decomposition(k, factors, groups, levels, extensions)
