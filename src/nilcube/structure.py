"""Canonical factors and abelian-bundle structure of finite ergodic
nilspaces: one-flip relations, factors (each a `cubespace.ImageCubespace`
with its `image` and `fibres`), and `ExtensionData`, the one record of a
degree-k level Y -> X of a nilspace or of a model M(rho): its fibres,
section, cocycle, D_k(A), lifts and model cubes (the lifts moved by the
cubes of D_k(A)).  `structure_group` returns the top level of a space,
its group acting by one-flip corner completions with addition checked
against a two-vertex corner; `decompose` chains the levels top-down and
checks each against its model cubes (`verify_degree_k_bundle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem
from typing import Callable, List, Optional, Sequence, Tuple

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
# a tower level: the extension record and the structure group


@dataclass
class ExtensionData:
    """A candidate degree-k extension Y -> X: pi projects points, and the
    abelian group A acts on Y by act(a, y).  The fibres, the section
    through their first points, the action as a table (shifts[y][a] =
    act(a, y)) and D_k(A) are computed at construction, the section's
    cocycle on first read; dataclasses.replace builds its own of each."""

    Y: Cubespace
    X: Cubespace
    pi: List[int]  # Y point -> X point
    A: FiniteAbelianGroup
    k: int
    act: Callable[[int, int], int]  # (a, y) -> y shifted by a
    fibres: List[List[int]] = field(init=False)  # fibres[x]: pi^-1(x), increasing
    section: List[int] = field(init=False)  # section[x]: fibres[x][0]
    shifts: List[List[int]] = field(init=False)  # shifts[y][a]: act(a, y)
    fibre_space: Cubespace = field(init=False)  # D_k(A)

    def __post_init__(self):
        self.fibres = [[] for _ in range(self.X.size)]
        for y, x in enumerate(self.pi):
            self.fibres[x].append(y)
        self.section = [ys[0] for ys in self.fibres]
        elements = range(self.A.order)
        self.shifts = [[self.act(a, y) for a in elements] for y in range(self.Y.size)]
        self.fibre_space = abelian_Dk(self.A, self.k)

    @cached_property
    def cocycle(self):
        """cohomology.cross_section_cocycle of the section, computed once."""
        from .cohomology import cross_section_cocycle

        return cross_section_cocycle(self, self.section)

    def lift(self, n: int, q: Sequence[int]) -> Optional[tuple]:
        """The first n-cube of Y over the base cube q, in Y's scan order
        with each fibre tried in increasing order; None when there is
        none."""
        return next(self.Y._scan_maps(n, False, [self.fibres[x] for x in q]), None)

    def model_cubes(self, n: int) -> Tuple[List[tuple], Optional[tuple]]:
        """The model of Y's n-cubes: the lift of each base n-cube moved
        by each n-cube of D_k(A), and the first base n-cube in sorted
        order that has no lift (None when every one has)."""
        cubes, missing = [], None
        for q in self.X.cubes(n):
            lift = self.lift(n, q)
            if lift is not None:
                rows = [self.shifts[y] for y in lift]
                cubes.extend(tuple(map(getitem, rows, c)) for c in self.fibre_space.cubes(n))
            elif missing is None or q < missing:
                missing = q
        return cubes, missing


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


def structure_group(X: Cubespace, k: int) -> ExtensionData:
    """The top level X -> factor(X, k - 1) of a k-step ergodic
    cubespace (k >= 1), with its structure group A.

    Elements are the points of the fibre through the smallest point b.
    The element y moves x to the unique completion of the one-flip
    corner that is b on the lower face except y at its top vertex and x
    on the upper face; addition y1 + y2 is y2 moving y1.  Addition is
    recomputed by a second route (a corner that is b everywhere except
    y1 and y2 at two weight-k vertices, whose unique completion is the
    sum) and the two must agree.  A is in invariant-factor form and the
    action is indexed by it: act(a, b) is the fibre point of a.
    """
    base = factor(X, k - 1)
    b = 0
    fibre = base.fibres[base.image[b]]
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
    moves = [action[j] for j in sorted(range(len(fibre)), key=coords.__getitem__)]
    return ExtensionData(X, base, base.image, A, k, lambda a, x: moves[a][x])


# ---------------------------------------------------------------------------
# degree-k bundle verification


@dataclass
class BundleLevel:
    k: int
    group_invariants: Tuple[int, ...]
    fibre_size: int
    verified_dims: Tuple[int, ...]


@dataclass
class Decomposition:
    step: int
    factors: List[ImageCubespace]  # factors[i]: X_i, an image of X_{i+1} (X_k of X)
    levels: List[BundleLevel]
    extensions: List[ExtensionData]  # extensions[i-1]: X_i -> X_{i-1}


def verify_degree_k_bundle(ext: ExtensionData, n_max: int):
    """None, or a witness that ext is not a degree-k bundle up to
    dimension n_max.  A acts freely and preserves the fibres of pi
    (else ("action", y)); per dimension n, the cubes of Y are the model
    cubes, the lift of each base cube moved by the cubes of D_k(A).
    Only on a mismatch are Y's cubes projected, to name the failure: a
    cube over a map that is no base cube ("projection-not-cube", n, q),
    the least base cube with no cube over it ("projection-not-onto", n,
    base cube), or the least base cube whose cubes are not the degree-k
    perturbations of its lift ("fibre-correspondence", n, base cube).
    The last condition makes every difference of two cubes over one
    base cube a degree-k cube."""
    Y, X, A = ext.Y, ext.X, ext.A
    for y, row in enumerate(ext.shifts):
        seen = set(row)
        if len(seen) != A.order or any(ext.pi[p] != ext.pi[y] for p in seen):
            return ("action", y)
    for n in range(1, n_max + 1):
        ycubes = Y.cubes(n)
        model, missing = ext.model_cubes(n)
        if missing is None and ycubes == set(model):
            continue
        xcubes, project = X.cubes(n), ext.pi.__getitem__
        stray = next((q for q in ycubes if tuple(map(project, q)) not in xcubes), None)
        if stray is not None:
            return ("projection-not-cube", n, stray)
        if missing is not None:
            return ("projection-not-onto", n, missing)
        differ = ycubes.symmetric_difference(model)  # over base cubes whose cubes are not modelled
        return ("fibre-correspondence", n, min(tuple(map(project, q)) for q in differ))
    return None


def decompose(X: Cubespace, n_max: int = 3) -> Decomposition:
    """The tower X_k -> ... -> X_0: each level is structure_group(X_i, i),
    built top-down from X_k = factor(X, k), and checked as a degree-i
    bundle up to dimension n_max, bottom-up.  X must be its own k-factor,
    k its step (else a ValueError naming x ~_k y), so the points of X_k
    are those of X, and ergodic: X_0 is one point."""
    if X.step is None:
        raise ValueError("decompose needs a step bound")
    k = X.step
    top = factor(X, k)
    if top.size < X.size:
        x, y = next(cls for cls in top.fibres if len(cls) > 1)[:2]
        raise ValueError("X is not its own %d-factor: %d ~_%d %d" % (k, x, k, y))
    extensions: List[ExtensionData] = []
    factors = [top]
    for i in range(k, 0, -1):
        extensions.insert(0, structure_group(factors[0], i))
        factors.insert(0, extensions[0].X)
    if factors[0].size > 1:
        y = 1  # a point of X_0 other than X_0's point 0, read back in X
        for F in factors:
            y = F.fibres[y][0]
        raise ValueError("X is not ergodic: (0, %d) is not a 1-cube" % y)
    levels = []
    for ext in extensions:
        bad = verify_degree_k_bundle(ext, n_max)
        if bad is not None:
            raise ValueError("level %d is not a degree-%d bundle: %r" % (ext.k, ext.k, bad))
        levels.append(BundleLevel(ext.k, ext.A.invariants, ext.A.order, tuple(range(1, n_max + 1))))
    return Decomposition(k, factors, levels, extensions)
