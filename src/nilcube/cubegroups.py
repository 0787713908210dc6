"""Cube groups of a finite filtered group.

A cube of dimension n over G is stored as a tuple of 2^n group element
indices, position j holding the value at the vertex with index j (colex
order).  Everything here is exact: membership is decided by the unique
upper-face factorization or by the alternating-product equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import cubes
from .groups import FiniteGroup, Filtration, element_range_violation


def sigma(values: Sequence[int], n: int, G: FiniteGroup) -> int:
    """Gray alternating product: product over j = 2^n-1 down to 0 of
    g(gray(j)) with exponent (-1)^j.  Consecutive Gray vertices differ in
    one bit, so gray(j) has the parity of j: over an abelian group this
    is the alternating sum of g(v) with sign (-1)^|v|."""
    out = 0
    for j in range((1 << n) - 1, -1, -1):
        g = values[cubes.gray_index(j)]
        out = G.op(out, g if j % 2 == 0 else G.inv(g))
    return out


def _thresholds(n: int):
    """Required filtration level for the coefficient at F(v), per vertex:
    vertex v needs level |v|, the weight of v."""
    return [v.bit_count() for v in range(1 << n)]


@dataclass
class Reject:
    """Factorization failure: the first coefficient outside its subgroup."""

    index: int
    coefficient: int
    required_level: int

    def __bool__(self):
        return False


def _cube_dimension(values: Sequence[int]) -> int:
    """n for a map of 2^n values; any other length is a ValueError."""
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise ValueError("a cube needs 2^n values, not %d" % len(values))
    return n


def _multiply_up(c: list, op) -> list:
    """multiply_out's recursion, in place."""
    for j in range(len(c).bit_length() - 1):
        h = 1 << j
        for w in range(h, len(c)):
            if w & h and c[w - h]:  # skip a product with the identity
                c[w] = op(c[w - h], c[w])
    return c


def _divide_down(c: list, op, inv) -> list:
    """factorize's recursion, in place: _multiply_up undone."""
    for j in reversed(range(len(c).bit_length() - 1)):
        h = 1 << j
        for w in range(h, len(c)):
            if w & h and c[w - h]:
                c[w] = op(inv(c[w - h]), c[w])
    return c


def factorize(values: Sequence[int], filt: Filtration):
    """Unique factorization of a map {0,1}^n -> G into upper-face
    coefficients, or a Reject naming the first coefficient, in vertex
    order, outside its level: the coefficient at F(v) must lie in
    G_|v| (_thresholds).  A value that is not an element index of G is
    a ValueError.

    multiply_out's steps are undone from j = n-1 down to 0: each w
    holding bit j is set to q(w - 2^j)^-1 q(w).  Step j leaves w - 2^j
    alone, so it is undone exactly, products in their order; n 2^(n-1)
    steps, nothing cached.  The coefficients are unique, so the first
    failing one does not depend on the order they are found in."""
    n = _cube_dimension(values)
    G = filt.group
    _require_elements(G, values, "vertex")
    thresholds = _thresholds(n)
    coeffs = _divide_down(list(values), G.op, G.inv)
    for i, g in enumerate(coeffs):
        if g not in filt.subgroup(thresholds[i]):
            return Reject(i, g, thresholds[i])
    return coeffs


def multiply_out(coeffs: Sequence[int], n: int, G: FiniteGroup):
    """Pointwise product q(w) = prod over v <= w (colex increasing) of
    the coefficient at F(v).  The coefficients must number 2^n; any other
    count is a ValueError.

    For j = 0..n-1, each w holding bit j is set to q(w - 2^j) q(w): n
    2^(n-1) steps, nothing cached, a product with the identity skipped.
    Before step j, q(w) is the product over the v <= w that agree with w
    from bit j up; those with bit j clear come first in colex order and
    multiply to q(w - 2^j), so the order is kept."""
    size = 1 << n
    if len(coeffs) != size:
        raise ValueError("%d coefficients for a cube of dimension %d: it needs 2^%d = %d"
                         % (len(coeffs), n, n, size))
    return tuple(_multiply_up(list(coeffs), G.op))


def is_cube(values: Sequence[int], filt: Filtration) -> bool:
    return not isinstance(factorize(values, filt), Reject)


def is_cube_by_equations(values: Sequence[int], filt: Filtration) -> bool:
    """Membership via sigma_m(q o phi) in G_m for every canonical m-face
    map phi, m = 0..n."""
    n = _cube_dimension(values)
    G = filt.group
    full = frozenset(G.elements())
    for m in range(n + 1):
        Gm = filt.subgroup(m)
        if Gm == full:
            continue  # sigma always lands in the whole group
        for tbl in cubes.face_index_tables(m, n):
            sub = [values[t] for t in tbl]
            if sigma(sub, m, G) not in Gm:
                return False
    return True


def enumerate_cubes(filt: Filtration, n: int):
    """All cubes of dimension n, by the recursion on the top coordinate
    Cu^d(G_{+s}) = {(q, q r) : q in Cu^{d-1}(G_{+s}), r in Cu^{d-1}(G_{+s+1})},
    G_{+s} the filtration shifted by s (its d-th term G_{d+s}), and
    Cu^0(G_{+s}) the points of G_s.  The levels d < n are built
    bottom-up, each Cu^d(G_{+s}) with s + d <= n once, straight from the
    subgroups of filt; the n-cubes are yielded lazily, 2^(n-1) group
    operations each, so the first costs the levels below and 2^(n-1).

    The order is that of the coefficient tuples in itertools.product,
    each multiplied out: the coefficients on the lower half vary in the
    outer loop (they determine q), those on the upper half in the inner
    one (they determine r)."""
    level = [[(g,) for g in sorted(filt.subgroup(s))] for s in range(n + 1)]
    if n == 0:
        yield from level[0]
        return
    op = filt.group.op
    for d in range(1, n):  # level[s] holds Cu^d(G_{+s}), s = 0..n-d
        level = [[q + tuple(map(op, q, r)) for q in lower for r in upper]
                 for lower, upper in zip(level, level[1:])]
    lower, upper = level
    for q in lower:
        for r in upper:
            yield q + tuple(map(op, q, r))


def count_cubes(filt: Filtration, n: int) -> int:
    total = 1
    for t in _thresholds(n):
        total *= len(filt.subgroup(t))
    return total


def _require_elements(G: FiniteGroup, values, what: str):
    bad = element_range_violation(G, values)
    if bad is not None:
        raise ValueError("%s %d holds %r, which is not an element index 0..%d"
                         % (what, bad[0], bad[1], G.order - 1))


class CornerError(ValueError):
    pass


def _require_corner_keys(corner: dict, n: int):
    """A corner holds exactly the vertices 0..2^n-2: otherwise a
    ValueError naming the first missing vertex, or else the first key (in
    the corner's order) that is not such a vertex."""
    top = (1 << n) - 1
    for j in range(top):
        if j not in corner:
            raise ValueError("corner has no value at vertex %d" % j)
    for j in corner:
        if j not in range(top):
            raise ValueError("corner key %r is not a vertex 0..%d" % (j, top - 1))


def complete_corner(corner: dict, n: int, filt: Filtration):
    """Complete a corner (values on all vertices except 1^n) to a cube.

    The coefficient of a cube at a vertex v depends only on its values at
    the vertices below v, so factorize's recursion on the corner with the
    identity at 1^n gives the coefficients at 0..2^n-2 of every
    completion, and at 1^n the inverse c of the product of the others.
    The canonical completion puts the identity coefficient at 1^n: its
    top value is inv(c), and its other values are the corner's own.

    A face {x_i = 0} has the same coefficients as the whole cube at its
    own vertices, so it is a cube exactly when no vertex with x_i = 0 has
    a coefficient outside its level.  A coefficient outside its level
    therefore marks the faces named by the zero bits of its vertex, and
    the lowest marked i is the face reported.

    A corner whose keys are not exactly 0..2^n-2, or that holds a value
    that is not an element index of the group, is a ValueError; a corner
    whose faces through 0^n are not all cubes is a CornerError naming the
    first failing face.  Every other corner has a completion.
    """
    if n < 1:
        raise CornerError("corners of dimension 0 are disallowed")
    G = filt.group
    _require_corner_keys(corner, n)
    _require_elements(G, corner, "corner vertex")
    top = (1 << n) - 1
    values = [corner[i] for i in range(top)]
    coeffs = _divide_down(values + [0], G.op, G.inv)
    failing = 0  # bit i set: the face {x_i = 0} is not a cube
    for i in range(top):
        if coeffs[i] not in filt.subgroup(i.bit_count()):
            failing |= top & ~i
            if failing & 1:
                break  # no lower face to find
    if failing:
        raise CornerError("corner premise fails on the face with coordinate %d = 0"
                          % ((failing & -failing).bit_length() - 1))
    values.append(G.inv(coeffs[top]))
    return tuple(values)


def arrow(q0: Sequence[int], q1: Sequence[int], n: int, k: int):
    """The k-arrow <q0, q1>_k on {0,1}^{n+k}: q1 on the w = 1^k face,
    q0 elsewhere."""
    out = []
    top = (1 << k) - 1
    for w in range(1 << k):
        src = q1 if w == top else q0
        out.extend(src)
    return tuple(out)
