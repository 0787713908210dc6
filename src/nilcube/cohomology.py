"""Cocycles on finite cubespaces, coboundaries, abelian extensions and
the model space M(rho), cross-section cocycles, and the tricube
alternating sum.

Cocycle counts and coboundaries are linear algebra over A (one Smith
elimination), with table enumeration as the oracle.

An extension is a `structure.ExtensionData`; M(rho) carries one as its
`extension` field, whose lifts up to dimension d + 1 are read off rho,
and its cube sets are that record's model cubes, the ones
`structure.verify_degree_k_bundle` checks each level of a nilspace
against.  The cocycle of a cross section (`cross_section_cocycle`) is
computed for the section through the first point of each fibre as
`ExtensionData.cocycle`, once per record: the CLI's extend round trip
reads it back, and the translation lift pulls the top level's back along
each base translation.

A cocycle of degree d takes values in a finite abelian group and is
stored as a table on the enumerated (d+1)-cubes (full value tuples in
colex vertex order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import cubes as cb
from .cubegroups import sigma
from .cubespace import Cubespace
from .groups import FiniteAbelianGroup, abelian_kernel_order, solve_abelian_linear_system
from .structure import ExtensionData

COCYCLE_TABLE_CAP = 1 << 20  # candidate tables enumerate_cocycles may try


@dataclass
class Cocycle:
    """Degree-d map on the (d+1)-cubes with the automorphism-sign and
    concatenation laws."""

    X: Cubespace
    k: int  # degree
    A: FiniteAbelianGroup
    table: Dict[tuple, int]

    @property
    def domain_dim(self) -> int:
        return self.k + 1


def cocycle_sub(r1: Cocycle, r2: Cocycle) -> Cocycle:
    assert r1.k == r2.k and r1.X is r2.X
    A = r1.A
    return Cocycle(r1.X, r1.k, A, {q: A.op(v, A.inv(r2.table[q])) for q, v in r1.table.items()})


def _sign_laws(dom: frozenset, n: int):
    """(theta, q, q o theta, r(theta) odd) per generator theta and q in
    dom: the law rho(q o theta) = (-1)^r(theta) rho(q), false off dom."""
    for theta, tbl, r in cb.automorphism_generator_tables(n):
        act = cb.index_getter(tbl)
        for q in dom:
            yield theta, q, act(q), r % 2 == 1


def _concatenations(dom: frozenset, n: int):
    """(q1, q2, c) for the law rho(c) = rho(q1) + rho(q2): q1's upper
    facet is q2's lower one, c their outer facets, all in dom."""
    half = 1 << (n - 1)
    by_lower = {}  # the cubes of dom by their lower facet, in the order of dom
    for q in dom:
        by_lower.setdefault(q[:half], []).append(q)
    for q1 in dom:
        for q2 in by_lower.get(q1[half:], ()):
            c = q1[:half] + q2[half:]
            if c in dom:
                yield q1, q2, c


def validate_cocycle(rho: Cocycle):
    """None, or a witness describing the first failing law.  The sign
    law is checked on the automorphism generators, which suffices."""
    X, A, n = rho.X, rho.A, rho.domain_dim
    dom = X.cubes(n)
    if set(rho.table) != dom:
        return ("domain", None)
    for theta, q, qq, odd in _sign_laws(dom, n):
        if rho.table.get(qq) != (A.inv(rho.table[q]) if odd else rho.table[q]):
            return ("automorphism", q, theta)
    for q1, q2, c in _concatenations(dom, n):
        if rho.table[c] != A.op(rho.table[q1], rho.table[q2]):
            return ("concatenation", q1, q2)
    return None


def coboundary_of(X: Cubespace, f: Sequence[int], k: int, A: FiniteAbelianGroup) -> Cocycle:
    """The degree-k coboundary q |-> sigma_{k+1}(f o q)."""
    table = {}
    for q in X.cubes(k + 1):
        table[q] = sigma([f[x] for x in q], k + 1, A)
    return Cocycle(X, k, A, table)


def _coboundary_row(size: int, q: tuple) -> list:
    """The coefficients of f in sigma(f o q)."""
    coeffs = [0] * size
    for j, x in enumerate(q):
        coeffs[x] += 1 if bin(j).count("1") % 2 == 0 else -1
    return coeffs


def is_coboundary(rho: Cocycle):
    """A function f with coboundary_of(f) = rho, or None.  Exact: the
    defining equations are integer-linear over A and solved by Smith
    normal form.  A point on no (k+1)-cube has a zero column, so f is 0
    there and only the points on some cube are unknowns."""
    X, A = rho.X, rho.A
    dom = X.cubes(rho.domain_dim)
    points = sorted({x for q in dom for x in q})
    column = {x: j for j, x in enumerate(points)}
    eqs = [(_coboundary_row(len(points), [column[x] for x in q]), rho.table[q]) for q in dom]
    solution = solve_abelian_linear_system(A, len(points), eqs)
    if solution is None:
        return None
    f = [0] * X.size
    for x, fx in zip(points, solution):
        f[x] = fx
    check = coboundary_of(X, f, rho.k, A)
    assert check.table == rho.table
    return f


def cocycles_equivalent(r1: Cocycle, r2: Cocycle) -> bool:
    return is_coboundary(cocycle_sub(r1, r2)) is not None


def enumerate_cocycles(X: Cubespace, k: int, A: FiniteAbelianGroup):
    """All valid degree-k cocycle tables by exhaustive enumeration
    (intended for tiny spaces).  Past COCYCLE_TABLE_CAP tables this
    raises before the (k+1)-cubes are built: |A| >= 2 passes it on
    more cubes than the cap has bits."""
    if A.order ** X.count_cubes(k + 1, COCYCLE_TABLE_CAP.bit_length()) > COCYCLE_TABLE_CAP:
        raise ValueError("cocycle enumeration too large")
    dom = sorted(X.cubes(k + 1))
    out = []
    for vals in itertools.product(range(A.order), repeat=len(dom)):
        rho = Cocycle(X, k, A, dict(zip(dom, vals)))
        if validate_cocycle(rho) is None:
            out.append(rho)
    return out


def _law_rows(dom: frozenset, n: int):
    """The laws of validate_cocycle as integer rows over the positions of
    dom that every cocycle annuls; None for a sign law that leaves dom."""
    pos = {q: i for i, q in enumerate(dom)}

    def row(*terms):
        out = [0] * len(dom)
        for q, c in terms:
            out[pos[q]] += c
        return out

    for _theta, q, qq, odd in _sign_laws(dom, n):
        yield row((qq, 1), (q, 1 if odd else -1)) if qq in pos else None
    for q1, q2, c in _concatenations(dom, n):
        yield row((c, 1), (q1, -1), (q2, -1))


def count_cocycle_classes(X: Cubespace, k: int, A: FiniteAbelianGroup, cap=None):
    """(|Z^k|, |Z^k / B^k|) for the degree-k cocycles on X in A: Z^k is
    the kernel of the law rows, B^k the image of f -> sigma(f o q), of
    order |A|^|X| / |ker|; (0, 0) when no table obeys the sign law.  A
    ValueError once the rows as generated times the (k+1)-cubes pass cap
    entries."""
    dom = X.cubes(k + 1)
    rows = []
    for row in _law_rows(dom, k + 1):
        if row is None:
            return 0, 0
        rows.append(row)
        if cap is not None and len(rows) * len(dom) > cap:
            raise ValueError("the cocycle law system has more than %d entries" % cap)
    # a law and its negative, or a repeated law, cut out the same kernel
    unique = dict.fromkeys(tuple(r if next((c for c in r if c), 0) >= 0 else [-c for c in r])
                           for r in rows if any(r))
    z = abelian_kernel_order(A, len(dom), list(unique))
    ker = abelian_kernel_order(A, X.size, [_coboundary_row(X.size, q) for q in dom])
    return z, z * ker // A.order ** X.size


def cohomology_classes(cocycles: Sequence[Cocycle]):
    """Group a list of cocycles into equivalence classes (difference a
    coboundary); returns the list of classes (lists of cocycles)."""
    classes: List[List[Cocycle]] = []
    for rho in cocycles:
        for cls in classes:
            if cocycles_equivalent(rho, cls[0]):
                cls.append(rho)
                break
        else:
            classes.append([rho])
    return classes


# ---------------------------------------------------------------------------
# extensions


class ExtensionSpace(Cubespace):
    """The model extension M(rho) of a cocycle rho of degree d on X:
    points are pairs (x, z) in X x A.  A map f is a cube iff its base
    part is a cube of X and, on dimension d+1 (and on every (d+1)-face
    in higher dimensions), rho of the base equals minus the alternating
    sum of the fibre part.  The cubes over a base cube are therefore
    empty or a coset of the cubes of D_d(A), added pointwise in A.  The
    point (x, z) is x |A| + z, so extension.fibres[x][z] is (x, z)."""

    def __init__(self, rho: Cocycle):
        self.rho = rho
        self.base = rho.X
        self.A = rho.A
        self.d = rho.k  # extension degree; special dimension is d+1
        if self.base.step is None:
            raise ValueError("the base needs a step bound")
        m, op = self.A.order, self.A.op
        super().__init__(self.base.size * m, step=max(self.base.step + 1, self.d))
        self.extension = _ModelExtension(self, self.base, [p // m for p in range(self.size)],
                                         self.A, self.d, lambda a, y: y - y % m + op(y % m, a))

    def _special_ok(self, xs: tuple, zs: tuple) -> bool:
        return self.rho.table[xs] == self.A.inv(sigma(zs, self.d + 1, self.A))

    def _membership(self, n, values):
        xs = tuple(p // self.A.order for p in values)
        zs = tuple(p % self.A.order for p in values)
        if not self.base.membership(n, xs):
            return False
        d1 = self.d + 1
        if n < d1:
            return True
        if n == d1:
            return self._special_ok(xs, zs)
        for face in cb.face_getters(d1, n):
            if not self._special_ok(face(xs), face(zs)):
                return False
        return True

    def _enumerate_cubes(self, n):
        """The model cubes of extension: per base cube, its lift moved
        by each n-cube of D_d(A)."""
        return self.extension.model_cubes(n)[0]

    def deepest_dimension(self, n):
        return self.base.deepest_dimension(n)

    def count_cubes(self, n, cap):
        bound = self.base.count_cubes(n, cap) * self.extension.fibre_space.count_cubes(n, cap)
        return bound if bound > cap else len(self.cubes(n))


class _ModelExtension(ExtensionData):
    """The extension record of M(rho), Y the ExtensionSpace, whose lifts
    up to dimension d + 1 are read off rho: exactly the scan's first
    lift, every fibre tried in increasing order.  Below dimension d + 1
    a map over a base cube is a cube of M(rho) whatever its fibre values,
    so each vertex below the top takes the fibre's first point, (x, 0).
    At dimension d + 1 the fibre values are then 0 but for z at the top
    vertex, so sigma of them is (-1)^(d+1) z, and rho(q) = -sigma fixes
    z: -rho(q) for even d + 1, rho(q) for odd.  The scan finds a lift
    exactly when q and its faces pass the base's cube test, which is
    asked first.  Higher dimensions are left to the scan."""

    def lift(self, n: int, q: Sequence[int]) -> Optional[tuple]:
        M = self.Y
        if n > M.d + 1:
            return super().lift(n, q)
        for dim in range(1, n + 1):
            test = M.base._cube_test(dim)
            for face in cb.face_getters(dim, n):
                if not test(face(q)):
                    return None
        lift = [self.section[x] for x in q]
        if n == M.d + 1:
            r = M.rho.table[tuple(q)]
            lift[-1] = self.fibres[q[-1]][r if n % 2 else M.A.inv(r)]
        return tuple(lift)


def build_extension(rho: Cocycle) -> ExtensionSpace:
    bad = validate_cocycle(rho)
    if bad is not None:
        raise ValueError("not a cocycle: %r" % (bad,))
    return ExtensionSpace(rho)


def cross_section_cocycle(ext: ExtensionData, s: Sequence[int]) -> Cocycle:
    """The cocycle generated by a cross section s of a degree-k
    extension: rho_s(q) = sigma_{k+1}(f o q') for any cube lift q' of q,
    with f(y) = s(pi(y)) - y, so f(a moving s(x)) = -a.  An action that
    does not reach each point of a fibre from s(x) exactly once is a
    ValueError.  Independence of the lift is spot-checked against the
    lift found with every fibre searched in reverse."""
    Y, X, A, k = ext.Y, ext.X, ext.A, ext.k
    if any(ext.pi[s[x]] != x for x in range(X.size)):
        raise ValueError("not a section")
    f = {}
    for x, ys in enumerate(ext.fibres):
        diff = {y: A.inv(a) for a, y in enumerate(ext.shifts[s[x]])}
        if len(diff) != A.order or sorted(diff) != ys:
            raise ValueError("points are not in one fibre")
        f.update(diff)
    table = {}
    for q in X.cubes(k + 1):
        lift = ext.lift(k + 1, q)
        if lift is None:
            raise ValueError("base cube does not lift")
        val = sigma([f[y] for y in lift], k + 1, A)
        lift2 = next(Y._scan_maps(k + 1, False, [ext.fibres[x][::-1] for x in q]))
        val2 = sigma([f[y] for y in lift2], k + 1, A)
        assert val == val2, "cross-section value depends on the lift"
        table[q] = val
    rho = Cocycle(X, k, A, table)
    bad = validate_cocycle(rho)
    assert bad is None, bad
    return rho


# ---------------------------------------------------------------------------
# tricube sums


def tricube_sum(t: Dict[tuple, int], xi: Dict[tuple, int], k: int, A: FiniteAbelianGroup) -> int:
    """beta(t, xi) = sum over v of (-1)^|v| xi(t o psi_v) for a tricube
    map t and a table xi on the k-cubes."""
    vs = cb.vertices(k)
    return sigma([xi[tuple(t[cb.tricube_embed(v, w)] for w in vs)] for v in vs], k, A)


def tricube_outer(t: Dict[tuple, int], k: int) -> tuple:
    """The outer-point reading t o omega_k."""
    return tuple(t[cb.outer_point(v)] for v in cb.vertices(k))
