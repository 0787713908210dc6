"""Canonical factors and abelian-bundle structure of finite ergodic
nilspaces: the one-flip relations, factor cubespaces, local translations
on fibres, structure groups with two independent addition constructions,
the degree-k bundle check (the one check for decomposition levels, model
extensions and translation bundles), and cube-morphism checks.  A factor
is a `cubespace.ImageCubespace`, whose `lift` finds a cube upstairs over
a factor cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .cubegroups import enumerate_cubes
from .groups import FiniteGroup, TableGroup, abelian_invariants, maximal_degree_k_filtration
from .cubespace import Cubespace, ImageCubespace, partition


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


class FactorCubespace(ImageCubespace):
    """The canonical k-step factor: points are level-k classes, cubes the
    projections of the cubes upstairs."""

    provenance = "factor"

    def __init__(self, X: Cubespace, k: int):
        self.k = k
        self.classes = sim_classes(X, k)
        class_of = {x: i for i, cls in enumerate(self.classes) for x in cls}
        super().__init__(X, class_of.__getitem__, len(self.classes), step=k)


def factor(X: Cubespace, k: int) -> FactorCubespace:
    return FactorCubespace(X, k)


# ---------------------------------------------------------------------------
# local translations and the structure group


def _one_flip_corner(k: int, x0: int, x1: int, y0: int):
    """Corner on {0,1}^{k+1}: x0 on the lower face except y0 at its top
    vertex, x1 on the upper face, the final vertex open."""
    half = 1 << k
    vals = [x0] * half + [x1] * (half - 1)
    vals[half - 1] = y0
    return vals


def local_translation(X: Cubespace, k: int, x0: int, x1: int):
    """The fibre translation sending x0 to x1 on a k-step space: y0 in
    the level-(k-1) class of x0 maps to the unique completion of the
    one-flip corner.  Returns a dict."""
    out = {}
    for y0 in range(X.size):
        if not related_k(X, k - 1, x0, y0):
            continue
        sols = X.completions(k + 1, _one_flip_corner(k, x0, x1, y0))
        if len(sols) != 1:
            raise ValueError(
                "completion not unique (%d found): the space is not %d-step" % (len(sols), k)
            )
        out[y0] = sols[0]
    return out


@dataclass
class StructureGroup:
    """The abelian group acting on the level-(k-1) fibres of a k-step
    ergodic cubespace."""

    k: int
    base_point: int
    fibre: List[int]  # points of the base fibre, group elements in order
    group: TableGroup  # addition table on the fibre (identity = base point)
    invariants: Tuple[int, ...]
    action: List[List[int]]  # action[a][x] moves x by the a-th element

    def act(self, a: int, x: int) -> int:
        return self.action[a][x]


def _unique_completion(X: Cubespace, n: int, corner) -> int:
    sols = X.completions(n, corner)
    if len(sols) != 1:
        raise ValueError("expected a unique completion, found %d" % len(sols))
    return sols[0]


def structure_group(X: Cubespace, k: int) -> StructureGroup:
    """Structure group of a k-step ergodic cubespace at its top level.

    Elements are the points of the fibre through the smallest point b.
    Addition y1 + y2 is the local translation taking b to y1, applied to
    y2.  Addition is recomputed by a second route (a corner that is b
    everywhere except y1 and y2 at two weight-k vertices, whose unique
    completion is the sum) and the two must agree.  The action on a
    general point x places the group element and x at the two ends of an
    arrowed one-flip cube.
    """
    b = 0
    fibre = sorted(y for y in range(X.size) if related_k(X, k - 1, b, y))
    index_in_fibre = {y: i for i, y in enumerate(fibre)}
    m = len(fibre)

    trans = {y1: local_translation(X, k, b, y1) for y1 in fibre}
    table = [[0] * m for _ in range(m)]
    for i, y1 in enumerate(fibre):
        for j, y2 in enumerate(fibre):
            s = trans[y1][y2]
            if s not in index_in_fibre:
                raise ValueError("fibre translation left the fibre")
            table[i][j] = index_in_fibre[s]

    if k >= 1:
        total = 1 << (k + 1)
        v1 = (1 << k) - 1  # a weight-k vertex below the top
        v2 = ((1 << k) - 1) ^ 1 | (1 << k)  # another weight-k vertex
        assert v1 != v2 and bin(v1).count("1") == bin(v2).count("1") == k
        for i, y1 in enumerate(fibre):
            for j, y2 in enumerate(fibre):
                corner = [b] * (total - 1)
                corner[v1] = y1
                corner[v2] = y2
                if index_in_fibre.get(_unique_completion(X, k + 1, corner)) != table[i][j]:
                    raise ValueError("the two addition constructions disagree")

    group = TableGroup(table)
    if not group.is_abelian():
        raise ValueError("structure candidate is not abelian")
    invariants = tuple(abelian_invariants(group))

    # action tables: place the group element at the open slot opposite x
    half = 1 << k
    action = [[0] * X.size for _ in range(m)]
    for i, ya in enumerate(fibre):
        for x in range(X.size):
            # f(v,0) = b except ya at 0^k; f(v,1) = x except the unknown at 0^k
            z_candidates = []
            for z in range(X.size):
                vals = [b] * half + [x] * half
                vals[0] = ya
                vals[half] = z
                if X.membership(k + 1, vals):
                    z_candidates.append(z)
            if len(z_candidates) != 1:
                raise ValueError(
                    "action not well defined at (%d, %d): %d candidates" % (ya, x, len(z_candidates))
                )
            action[i][x] = z_candidates[0]
    return StructureGroup(k, b, fibre, group, invariants, action)


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
    abelian group A acts on Y by act(a, y)."""

    Y: Cubespace
    X: Cubespace
    pi: List[int]  # Y point -> X point
    A: FiniteGroup  # abelian
    k: int
    act: Callable[[int, int], int]  # (a, y) -> y shifted by a


@dataclass
class Decomposition:
    step: int
    factors: List[FactorCubespace]
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
    Y, X, A, k = ext.Y, ext.X, ext.A, ext.k
    afilt = maximal_degree_k_filtration(A, k)
    for y in range(Y.size):
        seen = {ext.act(a, y) for a in range(A.order)}
        if len(seen) != A.order or any(ext.pi[p] != ext.pi[y] for p in seen):
            return ("action", y)
    for n in range(1, n_max + 1):
        ycubes = Y.cubes(n)
        xcubes = X.cubes(n)
        by_proj: Dict[tuple, set] = {}
        for q in ycubes:
            pq = tuple(ext.pi[p] for p in q)
            if pq not in xcubes:
                return ("projection-not-cube", n, q)
            by_proj.setdefault(pq, set()).add(q)
        if set(by_proj) != xcubes:
            missing = sorted(xcubes - set(by_proj))[0]
            return ("projection-not-onto", n, missing)
        acubes = list(enumerate_cubes(afilt, n))
        for pq, qs in by_proj.items():
            ref = next(iter(qs))
            pert = {tuple(ext.act(a, y) for a, y in zip(av, ref)) for av in acubes}
            if pert != qs:
                return ("fibre-correspondence", n, pq)
    return None


def decompose(X: Cubespace, n_max: int = 3) -> Decomposition:
    """Full tower: canonical factors X_1, ..., X_k, structure groups,
    and per-level degree-i bundle verification up to dimension n_max."""
    if X.step is None:
        raise ValueError("decompose needs a step bound")
    k = X.step
    factors = [factor(X, i) for i in range(0, k + 1)]
    groups: List[StructureGroup] = []
    levels: List[BundleLevel] = []
    extensions: List[ExtensionData] = []
    for i in range(1, k + 1):
        Xi = factors[i]
        Xprev = factors[i - 1]
        sg = structure_group(Xi, i)
        # the factor map X_i -> X_{i-1} factors through the points of X
        to_prev = [0] * Xi.size
        for x in range(X.size):
            to_prev[Xi.project(x)] = Xprev.project(x)
        ext = ExtensionData(Xi, Xprev, to_prev, sg.group, i, sg.act)
        bad = verify_degree_k_bundle(ext, n_max)
        if bad is not None:
            raise ValueError("level %d is not a degree-%d bundle: %r" % (i, i, bad))
        groups.append(sg)
        levels.append(BundleLevel(i, sg.invariants, len(sg.fibre), tuple(range(1, n_max + 1))))
        extensions.append(ext)
    return Decomposition(k, factors, groups, levels, extensions)


# ---------------------------------------------------------------------------
# morphisms


def analyze_morphism(f: Sequence[int], X: Cubespace, Y: Cubespace, n_max: int):
    """Check that f maps every cube of X to a cube of Y up to dimension
    n_max; returns (True, None) or (False, witness_cube)."""
    for n in range(n_max + 1):
        for q in X.cubes(n):
            img = tuple(f[x] for x in q)
            if not Y.membership(n, img):
                return (False, q)
    return (True, None)
