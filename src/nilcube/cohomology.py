"""Cocycles on finite cubespaces, coboundaries, abelian extensions and
the model space M(rho), cross-section cocycles, and the tricube
alternating sum.

An extension is a `structure.ExtensionData`; whether it is a degree-k
bundle is decided by `structure.verify_degree_k_bundle`, the check that
`structure.decompose` runs on every level of a nilspace.

A cocycle of degree d takes values in a finite abelian group and is
stored as a table on the enumerated (d+1)-cubes (full value tuples in
colex vertex order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence

from . import cubes as cb
from .cubegroups import sigma
from .cubespace import Cubespace
from .groups import FiniteAbelianGroup, solve_abelian_linear_system
from .structure import ExtensionData

_TABLE_CAP = 1_000_000
COCYCLE_TABLE_CAP = 1 << 20  # candidate tables enumerate_cocycles may try


@dataclass
class Cocycle:
    """Degree-d map on the (d+1)-cubes with the automorphism-sign and
    concatenation laws."""

    X: Cubespace
    k: int  # degree
    A: FiniteAbelianGroup
    table: Dict[tuple, int]

    def __call__(self, q) -> int:
        return self.table[tuple(q)]

    @property
    def domain_dim(self) -> int:
        return self.k + 1


def _check_table_size(X: Cubespace, n: int):
    if X.size ** (1 << n) > _TABLE_CAP and len(X.cubes(n)) > _TABLE_CAP:
        raise ValueError("cocycle table too large")


def cocycle_sub(r1: Cocycle, r2: Cocycle) -> Cocycle:
    assert r1.k == r2.k and r1.X is r2.X
    A = r1.A
    return Cocycle(r1.X, r1.k, A, {q: A.op(v, A.inv(r2.table[q])) for q, v in r1.table.items()})


def validate_cocycle(rho: Cocycle):
    """None, or a witness describing the first failing law.  The sign
    law is checked on the automorphism generators, which suffices."""
    X, A, n = rho.X, rho.A, rho.domain_dim
    dom = X.cubes(n)
    if set(rho.table) != dom:
        return ("domain", None)
    for theta, tbl, r in cb.automorphism_generator_tables(n):
        act = cb.index_getter(tbl)
        for q in dom:
            qq = act(q)
            want = rho.table[q] if r % 2 == 0 else A.inv(rho.table[q])
            if rho.table.get(qq) != want:
                return ("automorphism", q, theta)
    half = 1 << (n - 1)
    for q1 in dom:
        hi = q1[half:]
        for q2 in dom:
            if q2[:half] != hi:
                continue
            c = q1[:half] + q2[half:]
            if c not in dom:
                continue
            if rho.table[c] != A.op(rho.table[q1], rho.table[q2]):
                return ("concatenation", q1, q2)
    return None


def coboundary_of(X: Cubespace, f: Sequence[int], k: int, A: FiniteAbelianGroup) -> Cocycle:
    """The degree-k coboundary q |-> sigma_{k+1}(f o q)."""
    _check_table_size(X, k + 1)
    table = {}
    for q in X.cubes(k + 1):
        table[q] = sigma([f[x] for x in q], k + 1, A)
    return Cocycle(X, k, A, table)


def is_coboundary(rho: Cocycle):
    """A function f with coboundary_of(f) = rho, or None.  Exact: the
    defining equations are integer-linear over A and solved by Smith
    normal form."""
    X, A = rho.X, rho.A
    eqs = []
    for q in X.cubes(rho.domain_dim):
        coeffs = [0] * X.size
        for j, x in enumerate(q):
            coeffs[x] += 1 if bin(j).count("1") % 2 == 0 else -1
        eqs.append((coeffs, rho.table[q]))
    f = solve_abelian_linear_system(A, X.size, eqs)
    if f is None:
        return None
    check = coboundary_of(X, f, rho.k, A)
    assert check.table == rho.table
    return f


def cocycles_equivalent(r1: Cocycle, r2: Cocycle) -> bool:
    return is_coboundary(cocycle_sub(r1, r2)) is not None


def enumerate_cocycles(X: Cubespace, k: int, A: FiniteAbelianGroup):
    """All valid degree-k cocycle tables by exhaustive enumeration
    (intended for tiny spaces).  Past COCYCLE_TABLE_CAP tables this
    raises as soon as the (k+1)-cubes listed so far pass it."""
    for count, _ in enumerate(X._cube_sets.get(k + 1) or X._enumerate_cubes(k + 1), 1):
        if A.order ** count > COCYCLE_TABLE_CAP:
            raise ValueError("cocycle enumeration too large")
    dom = sorted(X.cubes(k + 1))
    out = []
    for vals in itertools.product(range(A.order), repeat=len(dom)):
        rho = Cocycle(X, k, A, dict(zip(dom, vals)))
        if validate_cocycle(rho) is None:
            out.append(rho)
    return out


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
    sum of the fibre part."""

    provenance = "extension"

    def __init__(self, rho: Cocycle):
        self.rho = rho
        self.base = rho.X
        self.A = rho.A
        self.d = rho.k  # extension degree; special dimension is d+1
        if self.base.step is None:
            raise ValueError("the base needs a step bound")
        super().__init__(self.base.size * self.A.order, step=max(self.base.step + 1, self.d))

    def encode(self, x: int, z: int) -> int:
        return x * self.A.order + z

    def decode(self, p: int):
        return divmod(p, self.A.order)

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

    def as_extension_data(self) -> ExtensionData:
        pi = [p // self.A.order for p in range(self.size)]
        return ExtensionData(
            self, self.base, pi, self.A, self.d,
            lambda a, y: (y // self.A.order) * self.A.order + self.A.op(y % self.A.order, a),
        )

    def obvious_section(self) -> List[int]:
        return [self.encode(x, 0) for x in range(self.base.size)]


def build_extension(rho: Cocycle) -> ExtensionSpace:
    bad = validate_cocycle(rho)
    if bad is not None:
        raise ValueError("not a cocycle: %r" % (bad,))
    return ExtensionSpace(rho)


def _fibre_difference(ext: ExtensionData, y1: int, y2: int) -> int:
    """The unique a with act(a, y1) = y2."""
    for a in range(ext.A.order):
        if ext.act(a, y1) == y2:
            return a
    raise ValueError("points are not in one fibre")


def cross_section_cocycle(ext: ExtensionData, s: Sequence[int]) -> Cocycle:
    """The cocycle generated by a cross section s of a degree-k
    extension: rho_s(q) = sigma_{k+1}(f o q') for any cube lift q' of q,
    with f(y) = s(pi(y)) - y.  Independence of the lift is spot-checked
    against the lift found with every fibre searched in reverse."""
    Y, X, A, k = ext.Y, ext.X, ext.A, ext.k
    if any(ext.pi[s[x]] != x for x in range(X.size)):
        raise ValueError("not a section")
    f = [_fibre_difference(ext, y, s[ext.pi[y]]) for y in range(Y.size)]
    fibres: Dict[int, List[int]] = {}
    for y in range(Y.size):
        fibres.setdefault(ext.pi[y], []).append(y)
    rev = {x: list(reversed(ys)) for x, ys in fibres.items()}
    table = {}
    for q in X.cubes(k + 1):
        lift = next(Y._scan_maps(k + 1, False, [fibres[x] for x in q]), None)
        if lift is None:
            raise ValueError("base cube does not lift")
        val = sigma([f[y] for y in lift], k + 1, A)
        lift2 = next(Y._scan_maps(k + 1, False, [rev[x] for x in q]))
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
