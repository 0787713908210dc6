"""Abstract cubespaces: a finite point set plus a per-dimension cube
membership oracle, with the nilspace / parallelepiped axiom checkers and
the generic constructions (products, image spaces and coset spaces, arrow
spaces, the slice at a point, simplicial completion, tricube
composition).

Cubes of dimension n are tuples of 2^n point indices in colex vertex
order.  A built cube set (`Cubespace.cubes`) is the one membership cache.
Past it one rule needs only the step: a map into a space of step k is a
cube exactly when its (k+1)-faces are (the face criterion), which answers
from dimension step + 2 on; below it each space's own oracle answers.
`depth_first` is the one depth-first search: `Cubespace._scan_maps` runs
it with the face layout to list cubes and corners and to lift base cubes
through extensions (`structure.ExtensionData.lift`) by scanning only the
fibres, and `translations.translation_group` runs it over partial
bijections.

Every loop that asks "is this restriction a cube?" (the face criterion,
the scan's pruning, corner completion) takes its restrictions with
`operator.itemgetter`s (`cubes.face_getters`, `cubes.index_getter`) and
answers them with `Cubespace._cube_test(dim)`: a lookup in the cube set
once `cubes(dim)` is built, `membership` before.  The composition axiom
is closure of the cube sets under generators (`composition_violation`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence

from . import cubes as cb
from . import cubegroups as cg
from .groups import CosetSpace, FiniteGroup, Filtration


class Cubespace:
    """Base class.  Subclasses implement _membership(n, values), the
    oracle asked for 1 <= n < step + 2 (every n >= 1 when no step bound
    is known), which raises ValueError on a dimension it cannot answer;
    from step + 2 on membership is the face criterion."""

    def __init__(self, size: int, step: Optional[int] = None):
        if size <= 0:
            raise ValueError("empty cubespaces are rejected")
        self.size = size
        self.step = step  # known step, or a safe upper bound
        self._cube_sets: Dict[int, frozenset] = {}

    # -- membership -------------------------------------------------------

    def _membership(self, n: int, values: tuple) -> bool:
        raise NotImplementedError

    def membership(self, n: int, values) -> bool:
        """Whether values is an n-cube: a lookup once cubes(n) is built,
        else the face criterion from dimension step + 2 on, the space's
        own oracle below.  A point outside 0..size-1 is a ValueError; a
        map in the cube set holds valid points only, so is not checked."""
        values = tuple(values)
        if len(values) != 1 << n:
            raise ValueError("cube of dimension %d needs %d values" % (n, 1 << n))
        known = self._cube_sets.get(n)
        if known is not None and values in known:
            return True
        self._require_points(values)
        if known is not None:
            return False
        if n == 0:
            return True
        if self.step is not None and n >= self.step + 2:
            return self._face_criterion(n, values)
        return self._membership(n, values)

    def _cube_test(self, dim: int):
        """A predicate for "this map of valid points is a dim-cube", with
        the answer membership gives: once cubes(dim) is built it is the
        set's own membership test, before that it is membership itself
        (which then consults a cube set built later)."""
        known = self._cube_sets.get(dim)
        if known is not None:
            return known.__contains__
        return partial(self.membership, dim)

    def _require_points(self, values: tuple):
        for x in values:
            if not 0 <= x < self.size:
                raise ValueError("point %r is outside 0..%d" % (x, self.size - 1))

    def _face_criterion(self, n: int, values: tuple) -> bool:
        """For spaces of step at most k, an n-cube (n >= k+2) is exactly a
        map whose (k+1)-face restrictions are all cubes."""
        k1 = self.step + 1
        test = self._cube_test(k1)
        for face in cb.face_getters(k1, n):
            if not test(face(values)):
                return False
        return True

    # -- enumeration ------------------------------------------------------

    def cubes(self, n: int) -> frozenset:
        """The full cube set of dimension n (cached)."""
        if n not in self._cube_sets:
            self._cube_sets[n] = frozenset(
                self._enumerate_cubes(n) if n else ((x,) for x in range(self.size)))
        return self._cube_sets[n]

    def _enumerate_cubes(self, n: int):
        return self._scan_maps(n, corner=False)

    def count_cubes(self, n: int, cap: int) -> int:
        """|Cu^n| when building cubes(n) reads at most cap maps, else some
        number above cap.  The face-pruned scan reads a map per point it
        tries at a vertex; a finished scan is kept as the cube set."""
        if n not in self._cube_sets:
            points = _ReadCounter(self.size, cap)
            found = frozenset(self._scan_maps(n, False, points))
            if points.reads > cap:
                return points.reads
            self._cube_sets[n] = found
        return len(self._cube_sets[n])

    def deepest_dimension(self, n: int) -> int:
        """The largest dimension of the cubes that deciding n-cubes here
        asks for: n itself, unless the space asks another one about
        larger cubes (an arrow or a slice space, or a space built on
        one)."""
        return n

    def known_translations(self, i: int) -> frozenset:
        """Bijections, as tuples of images, that are height-i translations
        by construction, so that translations.translation_group accepts
        them without a certificate: none here; group and coset spaces
        know their left multiplications."""
        return frozenset()

    def _scan_maps(self, n: int, corner: bool, candidates=None):
        """depth_first over vertex assignments in colex order with face
        pruning: an iterator of the maps found, in the search's order.
        candidates[i] lists the points tried at vertex i (default: every
        point).  With corner=True, the top vertex is omitted and only
        faces inside the corner domain are checked, yielding exactly the
        corners; otherwise the top vertex also tests the whole map,
        yielding exactly the cubes among the candidates."""
        total = 1 << n
        domain = total - 1 if corner else total
        tests = [self._cube_test(dim) for dim in range(n + 1)]
        layout = _pruning_layout(n, n - 1 if self.step is None else min(n - 1, self.step + 1))
        checks = [[(face, tests[dim]) for dim, face in faces] for faces in layout[:domain]]
        if not corner:
            checks[-1].append((tuple, tests[n]))
        return depth_first([range(self.size)] * domain if candidates is None else candidates,
                           checks)

    def corners(self, n: int):
        """All corners: maps on {0,1}^n minus the top vertex whose
        restrictions to the (n-1)-faces through 0^n are cubes.  (Faces
        inside the corner domain are exactly the faces with a coordinate
        fixed to 0, and those sit inside premise faces.)"""
        if n < 1:
            raise ValueError("corners need dimension at least 1")
        return list(self._scan_maps(n, corner=True))

    def completions(self, n: int, corner_values: Sequence[int]):
        """Points closing a corner to a full cube."""
        corner_values = tuple(corner_values)
        if len(corner_values) != (1 << n) - 1:
            raise ValueError("corner of dimension %d needs %d values" % (n, (1 << n) - 1))
        self._require_points(corner_values)
        test = self._cube_test(n)
        return [x for x in range(self.size) if test(corner_values + (x,))]


@lru_cache(maxsize=None)
def _pruning_layout(n: int, maxdim: int):
    """Per vertex i of {0,1}^n, the pairs (dim, getter) of the faces of
    dimension 1..maxdim whose colex-largest vertex is i, memoized: a
    depth-first scan checks a face once its last vertex is assigned.  The
    faces through the top vertex sit under 2^n - 1, which a corner scan
    never reaches."""
    layout = [[] for _ in range(1 << n)]
    for dim in range(1, maxdim + 1):
        for tbl, face in zip(cb.face_index_tables(dim, n), cb.face_getters(dim, n)):
            layout[max(tbl)].append((dim, face))
    return tuple(map(tuple, layout))


def depth_first(candidates, checks):
    """Depth-first search over assignments values[0..m-1], m = len(checks):
    a candidate from candidates[i] stays at position i only when
    test(get(values)) holds for every (get, test) in checks[i], where get
    reads positions up to i.  Yields the full assignments as tuples, in
    the order of the candidates.  candidates[i] is read once each time
    the search reaches position i."""
    m = len(checks)
    values = [0] * m
    pending = [iter(candidates[0])]  # untried candidates per assigned position
    while pending:
        i = len(pending) - 1
        for values[i] in pending[i]:
            for get, test in checks[i]:
                if not test(get(values)):
                    break
            else:
                break  # every check at i passes: descend
        else:
            pending.pop()
            continue
        if i + 1 < m:
            pending.append(iter(candidates[i + 1]))
        else:
            yield tuple(values)


class _ReadCounter:
    """Scan candidates: every point at each vertex until cap are read."""

    def __init__(self, size: int, cap: int):
        self.points, self.cap, self.reads = range(size), cap, 0

    def __getitem__(self, vertex: int):
        self.reads += len(self.points)
        return self.points if self.reads <= self.cap else ()


# ---------------------------------------------------------------------------
# concrete spaces


class GroupCubespace(Cubespace):
    """The nilspace of a filtered group: cubes are the Host--Kra cubes,
    factorized up to dimension deg + 1 (past it the face criterion reads
    the built cube sets instead of refactorizing large tuples)."""

    def __init__(self, filt: Filtration):
        self.filt = filt
        super().__init__(filt.group.order, step=max(filt.degree, 0))

    def _membership(self, n, values):
        return cg.is_cube(values, self.filt)

    def _enumerate_cubes(self, n):
        return cg.enumerate_cubes(self.filt, n)

    def count_cubes(self, n, cap):
        return cg.count_cubes(self.filt, n)

    def known_translations(self, i):
        """Left multiplication by g in G_i: the arrow <q, g q>_i is the
        product of the cube g^[F], F the face 1^i of the arrow coordinates
        (of codimension i), with q extended along them, and Host--Kra
        cubes form a group."""
        op = self.filt.group.op
        return frozenset(tuple(op(g, x) for x in range(self.size))
                         for g in self.filt.subgroup(i))


def abelian_Dk(A: FiniteGroup, k: int) -> Cubespace:
    """The degree-k structure on an abelian group."""
    from .groups import maximal_degree_k_filtration

    if not A.is_abelian():
        raise ValueError("degree-k structures need an abelian group")
    return GroupCubespace(maximal_degree_k_filtration(A, k))


class ImageCubespace(Cubespace):
    """The image of a cubespace X under a surjection proj onto
    0..size-1: cubes are the images of the cubes of X.  image[x] is the
    point under x and fibres[b] the points over b, increasing.  Below
    dimension step + 2 membership looks the map up among the projected
    cubes."""

    def __init__(self, X: Cubespace, proj, size: int, step: Optional[int]):
        self.X = X
        self.image = [proj(x) for x in range(X.size)]
        self._identity = self.image == list(range(X.size))
        self.fibres: List[List[int]] = [[] for _ in range(size)]
        for x, b in enumerate(self.image):
            self.fibres[b].append(x)
        super().__init__(size, step=step)

    def _membership(self, n, values):
        return values in self.cubes(n)

    def _enumerate_cubes(self, n):
        if self._identity:  # the cubes of X, shared rather than copied
            return self.X.cubes(n)
        if self.size == 1:  # every cube of X projects to the one constant map
            return [(0,) * (1 << n)] if self.X.cubes(n) else []
        project = self.image.__getitem__
        return {tuple(map(project, q)) for q in self.X.cubes(n)}

    def deepest_dimension(self, n):
        return self.X.deepest_dimension(n)

    def count_cubes(self, n, cap):
        upstairs = self.X.count_cubes(n, cap)
        return upstairs if upstairs > cap else len(self.cubes(n))


class CosetCubespace(ImageCubespace):
    """Left coset space of a subgroup (not necessarily normal), the image
    of the group space, of step at most the degree of the filtration."""

    def __init__(self, filt: Filtration, Gamma):
        self.filt = filt
        self.cosets = CosetSpace(filt.group, Gamma)
        super().__init__(GroupCubespace(filt), self.cosets.project, self.cosets.size,
                         step=max(filt.degree, 0))

    def known_translations(self, i):
        """The left action of g in G_i: it projects the arrows of the
        group's left multiplication by g, which are cubes upstairs."""
        act = self.cosets.act
        return frozenset(tuple(act(g, c) for c in range(self.size))
                         for g in self.filt.subgroup(i))


class ProductCubespace(Cubespace):
    def __init__(self, X: Cubespace, Y: Cubespace):
        self.X, self.Y = X, Y
        step = None
        if X.step is not None and Y.step is not None:
            step = max(X.step, Y.step)
        super().__init__(X.size * Y.size, step=step)

    def encode(self, x: int, y: int) -> int:
        return x * self.Y.size + y

    def _membership(self, n, values):
        xs = tuple(p // self.Y.size for p in values)
        ys = tuple(p % self.Y.size for p in values)
        return self.X.membership(n, xs) and self.Y.membership(n, ys)

    def _enumerate_cubes(self, n):
        return [tuple(map(self.encode, qx, qy))
                for qx in self.X.cubes(n) for qy in self.Y.cubes(n)]

    def deepest_dimension(self, n):
        return max(self.X.deepest_dimension(n), self.Y.deepest_dimension(n))

    def count_cubes(self, n, cap):
        cx = self.X.count_cubes(n, cap)
        return cx if cx > cap else cx * self.Y.count_cubes(n, cap // max(cx, 1))


class ArrowCubespace(Cubespace):
    """X |><|_k X: pairs whose k-arrow is a cube of X.  k-step (for X of
    step <= k it can be non-ergodic)."""

    def __init__(self, X: Cubespace, k: int):
        if k < 1:
            raise ValueError("arrow order must be positive")
        self.X, self.k = X, k
        # the arrow space never has larger step than X
        super().__init__(X.size * X.size, step=X.step)

    def encode(self, x0: int, x1: int) -> int:
        return x0 * self.X.size + x1

    def _membership(self, n, values):
        q0 = tuple(p // self.X.size for p in values)
        q1 = tuple(p % self.X.size for p in values)
        return self.X.membership(n + self.k, cg.arrow(q0, q1, n, self.k))

    def _enumerate_cubes(self, n):
        pairs = (tuple(map(self.encode, q0, q1)) for q0 in self.X.cubes(n) for q1 in self.X.cubes(n))
        return [pair for pair in pairs if self._membership(n, pair)]

    def deepest_dimension(self, n):
        """An n-cube here is decided as an (n + k)-cube of X."""
        return self.X.deepest_dimension(n + self.k)

    def count_cubes(self, n, cap):
        """Past cap, the pairs of X's n-cubes to test, each weighed by the
        faces X's face criterion reads to decide it as an (n + k)-cube."""
        d, step = n + self.k, self.X.step
        faces = 1 if step is None or d < step + 2 else math.comb(d, step + 1)
        tests = self.X.count_cubes(n, math.isqrt(cap // faces)) ** 2 * faces
        return tests if tests > cap else len(self.cubes(n))


class SliceCubespace(Cubespace):
    """The cubespace structure on X seen from a base point x: q is a cube
    iff the 1-arrow <x, q> is one.  Drops the step by one."""

    def __init__(self, X: Cubespace, x: int):
        if not 0 <= x < X.size:
            raise ValueError("base point out of range")
        self.X, self.x = X, x
        step = None if X.step is None else max(X.step - 1, 0)
        super().__init__(X.size, step=step)

    def _membership(self, n, values):
        const = (self.x,) * (1 << n)
        return self.X.membership(n + 1, cg.arrow(const, tuple(values), n, 1))

    def deepest_dimension(self, n):
        return self.X.deepest_dimension(n + 1)


class ExplicitCubespace(Cubespace):
    """Cube sets given as explicit tables (imported, doctored, or built
    by hand).  Each table is the built cube set of its dimension; a
    dimension below step + 2 without a table cannot be answered."""

    def __init__(self, size: int, tables: Dict[int, Iterable[tuple]], step: Optional[int] = None):
        dims = sorted(tables)
        if not dims:
            raise ValueError("need at least one cube table")
        if dims[0] < 0:
            raise ValueError("cube table of negative dimension %d" % dims[0])
        super().__init__(size, step=step)
        for n in dims:
            table = frozenset(tuple(q) for q in tables[n])
            for q in table:
                want = cb.value_count_mismatch(len(q), n)
                if want is not None:
                    raise ValueError("cube %r of dimension %d needs %s values" % (q, n, want))
                if not all(0 <= x < size for x in q):
                    raise ValueError("cube %r of dimension %d holds a point outside 0..%d"
                                     % (q, n, size - 1))
            if n == 0 and len(table) != size:
                raise ValueError("the cube table of dimension 0 holds %d of the %d points"
                                 % (len(table), size))
            self._cube_sets[n] = table

    def _membership(self, n, values):
        raise ValueError("no cube table for dimension %d" % n)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class CompletionLevel:
    corners: int
    complete: bool
    unique: bool
    witness: Optional[tuple] = None


@dataclass
class AxiomReport:
    n_max: int
    composition_ok: bool
    composition_witness: Optional[tuple]
    composition_checks: int
    ergodic_ok: bool
    ergodic_witness: Optional[tuple]
    completion: Dict[int, CompletionLevel]
    step: Optional[int]

    @property
    def is_nilspace(self) -> bool:
        return (
            self.composition_ok
            and self.ergodic_ok
            and all(lvl.complete for lvl in self.completion.values())
        )


def _closure_violation(source, act, target) -> Optional[tuple]:
    """The least q in source with act(q) outside target, or None."""
    if all(map(target.__contains__, map(act, source))):
        return None
    return min(q for q in source if act(q) not in target)


def _symmetry_violation(C: frozenset, a: int) -> Optional[tuple]:
    """None when the a-cube set C is closed under Aut({0,1}^a), else
    (q, theta): the first generator theta moving a cube out, the least q."""
    for theta, tbl, _r in cb.automorphism_generator_tables(a):
        q = _closure_violation(C, cb.index_getter(tbl), C)
        if q is not None:
            return q, theta
    return None


def composition_violation(cube_sets: Sequence[frozenset]):
    """(witness, checks): witness is None exactly when the cube sets
    C_0..C_N (C_0 the points) satisfy the composition axiom: q o phi is
    in C_m for every q in C_n and morphism phi: {0,1}^m -> {0,1}^n,
    m, n <= N.  The generators checked: C_a is closed under the
    automorphism generators; for a < N, each q in C_{a+1} has its facet
    q[:2^a] (x_a = 0) and, if a >= 1, q o delta in C_a, where
    delta(v) = (v, v_{a-1}); each q in C_a has q + q (q after the
    projection dropping x_a) in C_{a+1}.

    Proof.  The generators are morphisms, so the checks are necessary.
    Every phi is iota o sigma o pi: pi drops the inputs phi does not use,
    sigma gives each output phi does not fix a literal (v_i or 1 - v_i)
    of a used input, and iota inserts the fixed outputs.  Up to
    automorphisms, iota is a chain of facet inclusions (dimensions n down
    to the outputs not fixed), sigma a chain of duplications (down to the
    inputs used) and pi a chain of projections (up to m): no dimension
    passes max(m, n) <= N.  A finite set closed under the generators of
    Aut({0,1}^a) is closed under the group.

    The witness is ("automorphism", a, q, theta), ("facet", a + 1, q),
    ("duplication", a + 1, q) or ("degeneracy", a, q), q the least
    failing cube.  checks counts the (generator, cube) pairs of the
    stages run; the failing stage ends the check and counts in full.
    """
    checks = 0
    for a, C in enumerate(cube_sets):
        checks += len(C) * len(cb.automorphism_generator_tables(a))
        bad = _symmetry_violation(C, a)
        if bad is not None:
            return ("automorphism", a) + bad, checks
        if a + 1 == len(cube_sets):
            break
        up = cube_sets[a + 1]
        stages = [("facet", a + 1, up, itemgetter(slice(0, 1 << a)), C)]
        if a >= 1:
            delta = [j | ((j >> (a - 1)) & 1) << a for j in range(1 << a)]
            stages.append(("duplication", a + 1, up, cb.index_getter(delta), C))
        stages.append(("degeneracy", a, C, lambda q: q + q, up))
        for name, dim, source, act, target in stages:
            checks += len(source)
            q = _closure_violation(source, act, target)
            if q is not None:
                return (name, dim, q), checks
    return None, checks


def check_axioms(X: Cubespace, n_max: int, composition_budget: int = 2_000_000, seed: int = 0):
    """Full nilspace axiom scan up to dimension n_max, exact: composition
    by composition_violation on Cu^0..Cu^n_max, never sampled.  Corners
    come from the pruned scan, their completions from the n-cubes built
    for composition; the inferred step is the smallest k with unique
    closing at dimension k+1.  composition_budget and seed are accepted
    and ignored, until perfbench/analysis.py stops passing them (ROADMAP
    item 1).
    """
    comp_wit, checks = composition_violation([X.cubes(a) for a in range(n_max + 1)])
    pairs = X.cubes(1)
    erg_wit = next(((x, y) for x in range(X.size) for y in range(X.size)
                    if (x, y) not in pairs), None)
    completion: Dict[int, CompletionLevel] = {}
    for n in range(1, n_max + 1):
        corners = X.corners(n)
        closings = Counter(q[:-1] for q in X.cubes(n))
        counts = [closings[c] for c in corners]
        witness = next((c for c, k in zip(corners, counts) if not k), None)
        completion[n] = CompletionLevel(len(corners), witness is None,
                                        all(k == 1 for k in counts), witness)
    step = next((n - 1 for n, lvl in completion.items() if lvl.complete and lvl.unique), None)
    return AxiomReport(n_max, comp_wit is None, comp_wit, checks, erg_wit is None, erg_wit,
                       completion, step)


@dataclass
class ParaReport:
    n_max: int
    full_p1: bool
    face_ok: bool
    symmetry_ok: bool
    equivalence_ok: bool
    closing_ok: bool
    witness: Optional[tuple]

    @property
    def all_ok(self) -> bool:
        return self.full_p1 and self.face_ok and self.symmetry_ok and self.equivalence_ok and self.closing_ok


def check_parallelepiped_axioms(X: Cubespace, n_max: int) -> ParaReport:
    """The four parallelepiped-structure axioms for P_m = Cu^m, m up to
    n_max: P_1 is everything, face restrictions, symmetries, the 1-arrow
    relation on P_{m-1} is an equivalence, and every corner closes."""
    full_p1 = len(X.cubes(1)) == X.size * X.size
    face_ok = symmetry_ok = equivalence_ok = closing_ok = True
    witness = None
    for m in range(2, n_max + 1):
        Pm = X.cubes(m)
        Pm1set = X.cubes(m - 1)
        Pm1 = sorted(Pm1set)
        for face in cb.face_getters(m - 1, m):
            p = _closure_violation(Pm, face, Pm1set)
            if p is not None:
                face_ok, witness = False, ("face", m, p)
                break
        bad = _symmetry_violation(Pm, m)
        if bad is not None:
            symmetry_ok, witness = False, ("symmetry", m) + bad
        # the relation p ~ p' iff <p, p'>_1 in P_m
        bad = equivalence_violation(Pm1, lambda p, p2: p + p2 in Pm)
        if bad is not None:
            equivalence_ok, witness = False, (bad[0], m) + bad[1:]
        for c in X.corners(m):
            if not X.completions(m, c):
                closing_ok, witness = False, ("closing", m, c)
                break
        if witness is not None:
            break
    return ParaReport(n_max, full_p1, face_ok, symmetry_ok, equivalence_ok, closing_ok, witness)


# ---------------------------------------------------------------------------
# constructions


def partition(size: int, pairs: Iterable[tuple]) -> List[List[int]]:
    """Classes of the equivalence relation on 0..size-1 generated by the
    pairs (union-find), each sorted, ordered by least element.  The
    pairs are consumed once, in order."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    classes: Dict[int, List[int]] = {}
    for x in range(size):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def equivalence_violation(elements: Sequence, related) -> Optional[tuple]:
    """None when related(p, p2) is an equivalence relation on elements,
    else the first witness found: ("reflexive", p), ("symmetric", p, p2)
    with p ~ p2 but not p2 ~ p, or ("transitive", p, p2, p3) with
    p ~ p2 ~ p3 but not p ~ p3."""
    for p in elements:
        if not related(p, p):
            return ("reflexive", p)
    rel = {p: {p2 for p2 in elements if related(p, p2)} for p in elements}
    for p in elements:
        for p2 in rel[p]:
            if p not in rel[p2]:
                return ("symmetric", p, p2)
            for p3 in rel[p2]:
                if p3 not in rel[p]:
                    return ("transitive", p, p2, p3)
    return None


def simplicial_extend(X: Cubespace, S: int, pattern: Iterable[tuple], f: Dict[tuple, int]):
    """Extend a morphism from a support-closed pattern inside {0,1}^S to
    a full S-cube, one minimal missing support at a time, each step a
    corner completion (smallest completion, for determinism).

    `pattern` lists the vertices of the pattern; `f` assigns points to
    exactly those vertices.  The result restricted to the pattern is f.
    Vertices are held by colex index, whose set bits are the support.
    """
    pattern = set(tuple(v) for v in pattern)
    if set(f) != pattern:
        raise ValueError("assignment domain must equal the pattern")

    def support(w):
        return [i for i in range(S) if w >> i & 1]

    values = {cb.vertex_index(v): x for v, x in f.items()}
    if any(w & ~(1 << i) not in values for w in values for i in support(w)):
        raise ValueError("pattern is not support-closed")
    for w in sorted(range(1 << S), key=lambda w: (w.bit_count(), support(w))):
        if w in values:
            continue
        # w is minimal missing: every vertex below it has a value
        coords = support(w)
        corner = [values[sum((j >> t & 1) << c for t, c in enumerate(coords))]
                  for j in range((1 << len(coords)) - 1)]
        sols = X.completions(len(coords), corner)
        if not sols:
            raise ValueError("pattern does not extend: no completion at support %s" % coords)
        values[w] = min(sols)
    return {cb.bits_of(w, S): x for w, x in values.items()}


def is_tricube_morphism(X: Cubespace, t: Dict[tuple, int], n: int) -> bool:
    """t : T_n -> X is a tricube morphism iff each of the 2^n subcube
    readings t o psi_v is a cube."""
    for v in cb.vertices(n):
        sub = tuple(t[cb.tricube_embed(v, w)] for w in cb.vertices(n))
        if not X.membership(n, sub):
            return False
    return True


def tricube_compose(X: Cubespace, t: Dict[tuple, int], n: int):
    """The outer-point composition t o omega_n, produced by embedding the
    tricube simplicially in {0,1}^{2n}, extending, and restricting along
    the doubling morphism.  Raises if t is not a tricube morphism."""
    if not is_tricube_morphism(X, t, n):
        raise ValueError("not a tricube morphism: some subcube is not a cube")
    pattern = {}
    for pt, x in t.items():
        pattern[cb.tricube_lambda_embed(pt)] = x
    full = simplicial_extend(X, 2 * n, pattern.keys(), pattern)
    phi = cb.outer_composition_morphism(n)
    out = tuple(full[phi.apply(v)] for v in cb.vertices(n))
    assert out == tuple(t[cb.outer_point(v)] for v in cb.vertices(n))
    assert X.membership(n, out), "tricube composition failed to be a cube"
    return out
