"""Combinatorics of discrete cubes {0,1}^n.

Vertices are little-endian bit tuples; the integer index of a vertex has
bit i equal to v[i], so numeric order on indices is colex order on
vertices.  Morphisms between cubes are kept in per-output-coordinate
normal form: every coordinate of the image is constant 0, constant 1,
v[i] or 1-v[i] for some input coordinate i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Sequence

Vertex = tuple  # tuple of 0/1 ints


def Id(i: int):
    return ("id", i)


def Refl(i: int):
    return ("refl", i)


def vertices(n: int):
    """All vertices of {0,1}^n in colex (= numeric index) order."""
    return [bits_of(j, n) for j in range(1 << n)]


def bits_of(j: int, n: int) -> Vertex:
    return tuple((j >> i) & 1 for i in range(n))


def value_count_mismatch(count: int, n: int, missing: int = 0):
    """None when count is 2^n - missing (the values of an n-cube, or of a
    corner with missing = 1), else that number as text, 2^n past 64 bits;
    2^n is formed only for an n whose bit length count matches."""
    full = count + missing
    if full.bit_length() == n + 1 and full == 1 << n:
        return None
    return "%d" % ((1 << n) - missing) if n < 64 else "2^%d%s" % (n, " - 1" * missing)


def vertex_index(v: Vertex) -> int:
    return sum(b << i for i, b in enumerate(v))


@dataclass(frozen=True)
class CubeMorphism:
    """A morphism {0,1}^m -> {0,1}^n in normal form.

    coords[j] describes output coordinate j as one of ('c', 0), ('c', 1),
    ('id', i), ('refl', i) with i a 0-based input coordinate.
    """

    m: int
    n: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.n:
            raise ValueError("coords length must equal target dimension")
        for entry in self.coords:
            kind = entry[0]
            if kind == "c":
                if entry[1] not in (0, 1):
                    raise ValueError("bad constant entry %r" % (entry,))
            elif kind in ("id", "refl"):
                if not 0 <= entry[1] < self.m:
                    raise ValueError("input coordinate out of range in %r" % (entry,))
            else:
                raise ValueError("bad entry %r" % (entry,))

    def apply(self, v: Vertex) -> Vertex:
        if len(v) != self.m:
            raise ValueError("dimension mismatch: got %d, expected %d" % (len(v), self.m))
        out = []
        for entry in self.coords:
            kind, arg = entry
            if kind == "c":
                out.append(arg)
            elif kind == "id":
                out.append(v[arg])
            else:
                out.append(1 - v[arg])
        return tuple(out)

    def vertex_table(self):
        """List of image vertices indexed by source vertex index."""
        return [self.apply(bits_of(j, self.m)) for j in range(1 << self.m)]

    def index_table(self):
        return [vertex_index(w) for w in self.vertex_table()]


@dataclass(frozen=True)
class Face:
    """A face of {0,1}^n: the set of vertices with coordinates in `fixed`
    (a mapping coord -> bit) pinned."""

    n: int
    fixed: tuple  # sorted tuple of (coord, bit)

    @staticmethod
    def make(n: int, fixed: dict) -> "Face":
        return Face(n, tuple(sorted(fixed.items())))

    @property
    def dim(self) -> int:
        return self.n - len(self.fixed)

    def face_map(self) -> CubeMorphism:
        """The canonical face map onto this face: free coordinates carry
        the inputs in increasing order."""
        fixed = dict(self.fixed)
        coords = []
        nxt = 0
        for j in range(self.n):
            if j in fixed:
                coords.append(("c", fixed[j]))
            else:
                coords.append(Id(nxt))
                nxt += 1
        return CubeMorphism(self.dim, self.n, tuple(coords))


def enumerate_faces(n: int, dim: int):
    """All faces of {0,1}^n of the given dimension."""
    out = []
    for pinned in itertools.combinations(range(n), n - dim):
        for bitsv in itertools.product((0, 1), repeat=n - dim):
            out.append(Face.make(n, dict(zip(pinned, bitsv))))
    return out


def enumerate_face_maps(m: int, n: int):
    """Canonical m-face maps into {0,1}^n; count C(n, n-m) * 2^(n-m)."""
    if m > n:
        raise ValueError("m must be at most n")
    maps = [f.face_map() for f in enumerate_faces(n, m)]
    assert len(maps) == comb(n, n - m) * (1 << (n - m))
    return maps


@lru_cache(maxsize=None)
def face_index_tables(m: int, n: int):
    """Index tables of the canonical m-face maps into {0,1}^n, memoized
    (hot path of the face-criterion membership test)."""
    return tuple(tuple(phi.index_table()) for phi in enumerate_face_maps(m, n))


def index_getter(tbl: Sequence[int]):
    """The map q -> (q[t] for t in tbl) as a tuple, by operator.itemgetter;
    a table of one index (a restriction of dimension 0) gives a 1-tuple."""
    if len(tbl) == 1:
        t = tbl[0]
        return lambda q: (q[t],)
    return itemgetter(*tbl)


@lru_cache(maxsize=None)
def face_getters(m: int, n: int):
    """index_getter of each table of face_index_tables(m, n), in the same
    order, memoized: the face restrictions of an n-cube."""
    return tuple(index_getter(tbl) for tbl in face_index_tables(m, n))


@dataclass(frozen=True)
class CubeAutomorphism:
    """theta(v)[j] = v[perm[j]] xor flips[j]; the group is S_n x| (Z/2)^n."""

    perm: tuple
    flips: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply(self, v: Vertex) -> Vertex:
        return tuple(v[p] ^ f for p, f in zip(self.perm, self.flips))

    def r(self) -> int:
        """Number of reflections, i.e. ones in theta(0^n)."""
        return sum(self.flips)

    def to_morphism(self) -> CubeMorphism:
        coords = tuple(
            Refl(p) if f else Id(p) for p, f in zip(self.perm, self.flips)
        )
        return CubeMorphism(self.n, self.n, coords)


def automorphism_group(n: int):
    """All n! * 2^n automorphisms of {0,1}^n."""
    out = []
    for perm in itertools.permutations(range(n)):
        for flips in itertools.product((0, 1), repeat=n):
            out.append(CubeAutomorphism(perm, flips))
    return out


@lru_cache(maxsize=None)
def automorphism_generator_tables(n: int):
    """(theta, index table, r(theta)) for the n generators of Aut({0,1}^n),
    memoized: the reflection of coordinate 0 and the transpositions of
    coordinates i, i+1.  They generate S_n x| (Z/2)^n, since conjugating
    the reflection by transpositions gives every reflection.  A finite set
    closed under q -> q o s for each generator s (a bijection of the set)
    is closed under the group.  r(theta) mod 2 is a homomorphism, so a
    sign law rho(q o theta) = (-1)^r(theta) rho(q) that holds for the
    generators on such a set holds for every theta."""
    gens = [CubeAutomorphism(tuple(range(n)), (1,) + (0,) * (n - 1))] if n else []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        gens.append(CubeAutomorphism(tuple(perm), (0,) * n))
    return tuple((theta, tuple(theta.to_morphism().index_table()), theta.r()) for theta in gens)


def gray_index(j: int) -> int:
    return j ^ (j >> 1)


# ---------------------------------------------------------------------------
# tricubes

TRICUBE_VALUES = (-1, 0, 1)


def tricube_points(n: int):
    return list(itertools.product(TRICUBE_VALUES, repeat=n))


def tricube_embed(v: Vertex, w: Vertex):
    """psi_v(w)[j] = (2 v[j] - 1) * (1 - w[j]); maps {0,1}^n onto the
    subcube of T_n between the outer point 2v-1 and the centre."""
    if len(v) != len(w):
        raise ValueError("dimension mismatch")
    return tuple((2 * a - 1) * (1 - b) for a, b in zip(v, w))


def outer_point(v: Vertex):
    """omega_n(v) = psi_v(0^n) = 2v - 1 coordinatewise."""
    return tuple(2 * a - 1 for a in v)


def _lam(x: int):
    # lambda(1) = (1,0), lambda(0) = (0,0), lambda(-1) = (0,1)
    if x == 1:
        return (1, 0)
    if x == 0:
        return (0, 0)
    if x == -1:
        return (0, 1)
    raise ValueError("tricube coordinate must be in {-1,0,1}")


def tricube_lambda_embed(t):
    """The injective embedding lambda^n : T_n -> {0,1}^{2n}; its image is
    support-closed (simplicial)."""
    out = []
    for x in t:
        out.extend(_lam(x))
    return tuple(out)


def outer_composition_morphism(n: int) -> CubeMorphism:
    """The cube morphism v |-> lambda^n(omega_n(v)) from {0,1}^n into
    {0,1}^{2n}: coordinates (v1, 1-v1, v2, 1-v2, ...)."""
    coords = []
    for i in range(n):
        coords.append(Id(i))
        coords.append(Refl(i))
    return CubeMorphism(n, 2 * n, tuple(coords))
