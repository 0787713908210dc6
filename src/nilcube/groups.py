"""Finite groups, filtrations, quotients, coset spaces, and exact linear
algebra over finite abelian groups.

Group elements are integer indices 0..order-1 with 0 the identity.
Structured groups (cyclic products, Heisenberg mod m) compute the law on
the fly, and declare what their type settles: their generators (the unit
vectors, the two elementary matrices), their lower central series (G, G
for a cyclic product; G, G, Z(G), 1 for Heisenberg mod m) and, for
cyclic products, commutativity.  Table and quotient groups materialize
or derive the law, find greedy generators, close commutators for the
lower central series and test commutativity pair by pair.
Invariant factors, abelian coordinates, linear systems over a finite
abelian group and their kernel orders read the diagonal of one Smith
normal form, a single pivot-and-clear loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Iterator, Sequence


class FiniteGroup:
    """Base interface: order, op, inv, identity 0."""

    order: int

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self):
        return range(self.order)

    def commutator(self, a: int, b: int) -> int:
        return self.op(self.op(self.inv(a), self.inv(b)), self.op(a, b))

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(a), -e)
        out = 0
        while e:
            if e & 1:
                out = self.op(out, a)
            a = self.op(a, a)
            e >>= 1
        return out

    def generators(self) -> list:
        """A list of elements that generates the whole group: the greedy
        generating_set by default; structured groups declare theirs."""
        return generating_set(self, frozenset(self.elements()))

    def lower_central_chain(self) -> tuple:
        """The lower central series G = G_0 = G_1 >= G_2 = [G, G_1] >= ...
        down to the trivial group, by commutator closure by default;
        structured groups declare theirs.  X = G.generators() serves
        every level, and the generators commutator_subgroup finds for
        G_j are the Y of [G, G_j]: no level derives a generating set
        again."""
        full = frozenset(self.elements())
        X = self.generators()
        chain, Y = [full, full], X
        while chain[-1] != frozenset({0}):
            nxt, Y = commutator_subgroup(self, X, Y)
            if nxt == chain[-1]:
                raise ValueError("lower central series does not reach the trivial subgroup")
            chain.append(nxt)
        return tuple(chain)

    def is_abelian(self) -> bool:
        return all(
            self.op(a, b) == self.op(b, a)
            for a in self.elements()
            for b in self.elements()
        )

    def validate(self):
        """Exhaustive associativity / identity / inverse check."""
        n = self.order
        for a in range(n):
            if self.op(a, 0) != a or self.op(0, a) != a:
                raise ValueError("identity axiom fails at %d" % a)
            ia = self.inv(a)
            if self.op(a, ia) != 0 or self.op(ia, a) != 0:
                raise ValueError("inverse axiom fails at %d" % a)
        for a in range(n):
            for b in range(n):
                ab = self.op(a, b)
                for c in range(n):
                    if self.op(ab, c) != self.op(a, self.op(b, c)):
                        raise ValueError("associativity fails at (%d,%d,%d)" % (a, b, c))


class TableGroup(FiniteGroup):
    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = [tuple(row) for row in table]
        self.order = n = len(self.table)
        if n == 0 or any(len(row) != n for row in self.table):
            raise ValueError("a group table must be a nonempty square")
        if any(not 0 <= x < n for row in self.table for x in row):
            raise ValueError("table entries must be element indices 0..%d" % (n - 1))
        self._inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == 0:
                    self._inv[a] = b
        if None in self._inv:
            raise ValueError("element %d has no inverse" % self._inv.index(None))
        self.validate()

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]


class CyclicProduct(FiniteGroup):
    """Direct product of cyclic groups Z/m1 x ... x Z/mr (abelian)."""

    def __init__(self, moduli: Sequence[int]):
        if not moduli or any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        self.moduli = tuple(moduli)
        self.order = prod(self.moduli)

    def generators(self):
        """The unit vectors of the factors other than Z/1."""
        gens, place = [], 1
        for m in self.moduli:
            if m > 1:
                gens.append(place)
            place *= m
        return gens

    def lower_central_chain(self):
        """G, G: an abelian group is its own G_1, and [G, G] is trivial."""
        full = frozenset(self.elements())
        return (full, full)

    def is_abelian(self):
        return True

    def tuple_of(self, a: int):
        out = []
        for m in self.moduli:
            out.append(a % m)
            a //= m
        return tuple(out)

    def index_of(self, t) -> int:
        a, mult = 0, 1
        for x, m in zip(t, self.moduli):
            a += (x % m) * mult
            mult *= m
        return a

    # op and inv add and negate the mixed-radix digits arithmetically,
    # without building digit tuples; one modulus (or none) is Z/order
    def op(self, a, b):
        moduli = self.moduli
        if len(moduli) <= 1:
            return (a + b) % self.order
        out, place = 0, 1
        for m in moduli:
            a, x = divmod(a, m)
            b, y = divmod(b, m)
            out += (x + y) % m * place
            place *= m
        return out

    def inv(self, a):
        moduli = self.moduli
        if len(moduli) <= 1:
            return -a % self.order
        out, place = 0, 1
        for m in moduli:
            a, x = divmod(a, m)
            out += -x % m * place
            place *= m
        return out


class Heisenberg(FiniteGroup):
    """Upper unitriangular 3x3 matrices over Z/m; (a,b,c) has a, b on the
    superdiagonal and c in the corner; (a,b,c)(a',b',c') =
    (a+a', b+b', c+c'+a*b')."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.m = m
        self.order = m ** 3

    def generators(self):
        """The elementary matrices (1,0,0) and (0,1,0)."""
        return [1, self.m]

    def lower_central_chain(self):
        """G, G, Z(G), 1: the commutator of the elementary matrices is
        (0,0,1), which generates the centre {(0,0,c)} = {c m^2}, and
        [G, Z(G)] is trivial."""
        full = frozenset(self.elements())
        m2 = self.m * self.m
        return (full, full, frozenset(range(0, self.order, m2)), frozenset({0}))

    def tuple_of(self, x: int):
        m = self.m
        return (x % m, (x // m) % m, x // (m * m))

    def index_of(self, t) -> int:
        m = self.m
        a, b, c = (v % m for v in t)
        return a + m * b + m * m * c

    def op(self, x, y):
        a, b, c = self.tuple_of(x)
        d, e, f = self.tuple_of(y)
        return self.index_of((a + d, b + e, c + f + a * e))

    def inv(self, x):
        a, b, c = self.tuple_of(x)
        return self.index_of((-a, -b, -c + a * b))


def element_range_violation(G: FiniteGroup, values):
    """(position, value) of the first entry of `values` (a sequence, or a
    dict from positions to values) that is not an element index
    0..order-1 of G; None if every entry is one."""
    items = values.items() if isinstance(values, dict) else enumerate(values)
    for pos, v in items:
        if not 0 <= v < G.order:
            return pos, v
    return None


def closure(start: Iterable, moves) -> Iterator:
    """Each element of start, then each element that moves(x) lists for
    an element x already yielded, each once: the least set that holds
    start and is closed under moves, element by element."""
    seen, frontier = set(), []
    reached = iter(start)
    while True:
        for y in reached:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                yield y
        if not frontier:
            return
        reached = moves(frontier.pop())


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> frozenset:
    """The subgroup generated: the closure of the identity under right
    multiplication by the generators.  In a finite group the inverse of
    g is a power of g, so inverses need not be adjoined."""
    gens = list(generators)
    return frozenset(closure((0,), lambda x: [G.op(x, g) for g in gens]))


def generating_set(G: FiniteGroup, H: frozenset) -> list:
    """A greedy generating set of the subgroup H: the least element not
    yet in the span, added until the span is H.  Each element at least
    doubles the span, so there are at most log2 |H| of them."""
    gens, span = [], frozenset({0})
    for h in sorted(H):
        if h not in span:
            gens.append(h)
            span = subgroup_closure(G, gens)
            if len(span) == len(H):
                break
    return gens


def commutator_subgroup(G: FiniteGroup, X: list, Y: list):
    """([H, K], generators of it) for H = <X> and K = <Y> subgroups of
    G, the subgroup generated by all [h, k].

    [H, K] is the normal closure of <[x, y] : x in X, y in Y> in <H, K>
    (Robinson, A Course in the Theory of Groups, section 5.1), so the
    commutators of generators are closed under conjugation by X and Y.
    A subgroup is closed under conjugation by x once the conjugates of
    its generators are in it.  A commutator or conjugate becomes a
    generator only when it is not yet in the span, so each generator at
    least doubles it: the cost is O(|G| |X| |Y|) group operations instead
    of |H| |K| commutators, and the generators found number at most
    log2 |[H, K]|.  lower_central_chain reuses them as the Y of its next
    level instead of deriving a generating set again.
    """
    gens, N = [], frozenset({0})

    def add(t):
        nonlocal N
        if t not in N:
            gens.append(t)
            N = subgroup_closure(G, gens)

    for x in X:
        for y in Y:
            add(G.commutator(x, y))
    conjugators = X + Y
    i = 0
    while i < len(gens):
        for c in conjugators:
            add(G.op(G.op(G.inv(c), gens[i]), c))
        i += 1
    return N, gens


def is_normal(G: FiniteGroup, N: frozenset) -> bool:
    return all(G.op(G.op(g, n), G.inv(g)) in N for g in G.elements() for n in N)


@dataclass
class Filtration:
    """A chain G_0 >= G_1 >= ... of subgroups of `group`, eventually
    trivial, with [G_i, G_j] <= G_{i+j}.  chain[d] is G_d; indices past
    the stored chain are the trivial subgroup."""

    group: FiniteGroup
    chain: tuple

    def __post_init__(self):
        self.chain = tuple(frozenset(s) for s in self.chain)
        if not self.chain:
            raise ValueError("empty chain")
        # normalize: ensure the chain ends at the trivial subgroup
        if self.chain[-1] != frozenset({0}):
            self.chain = self.chain + (frozenset({0}),)

    def subgroup(self, d: int) -> frozenset:
        if d < 0:
            raise ValueError("negative filtration index")
        if d < len(self.chain):
            return self.chain[d]
        return frozenset({0})

    @property
    def degree(self) -> int:
        """Smallest k with G_{k+1} trivial."""
        d = len(self.chain) - 1
        while d > 0 and self.chain[d] == frozenset({0}):
            d -= 1
        if self.chain[d] == frozenset({0}):
            return -1 if self.chain[0] == frozenset({0}) else 0
        return d


def validate_filtration(filt: Filtration):
    """None if valid; otherwise a violation witness.

    Checks nesting, subgroup closure, and every pairwise commutator
    inclusion [G_i, G_j] <= G_{i+j} by exhaustive enumeration.
    """
    G = filt.group
    chain = filt.chain
    for d, S in enumerate(chain):
        if 0 not in S:
            return ("not-subgroup", d, None, None)
        for a in S:
            if G.inv(a) not in S:
                return ("not-subgroup", d, a, None)
            for b in S:
                if G.op(a, b) not in S:
                    return ("not-subgroup", d, a, b)
    for d in range(1, len(chain)):
        if not chain[d] <= chain[d - 1]:
            return ("not-nested", d, None, None)
    deg = len(chain)
    for i in range(deg):
        for j in range(deg):
            target = filt.subgroup(i + j)
            for g in chain[i]:
                for h in chain[j]:
                    if G.commutator(g, h) not in target:
                        return ("commutator", (i, j), g, h)
    return None


def lower_central_series(G: FiniteGroup) -> Filtration:
    """G = G_0 = G_1 >= G_2 = [G, G_1] >= ... down to the trivial group,
    as G.lower_central_chain() gives it."""
    return Filtration(G, G.lower_central_chain())


def make_heisenberg(m: int):
    """Heisenberg group mod m with its lower central series."""
    G = Heisenberg(m)
    filt = lower_central_series(G)
    return G, filt


def maximal_degree_k_filtration(A: FiniteGroup, k: int) -> Filtration:
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if not A.is_abelian():
        raise ValueError("the maximal degree-k filtration needs an abelian group")
    full = frozenset(A.elements())
    return Filtration(A, tuple([full] * (k + 1) + [frozenset({0})]))


def left_cosets(G: FiniteGroup, S: frozenset):
    """Left cosets gS of a subgroup, numbered by their least elements in
    increasing order (S itself, holding 0, is coset 0).  Returns
    (reps, index): reps[i] is the least element of coset i and index[g]
    the coset of g.  An element not yet placed is the least of its coset,
    because every smaller element was placed before it."""
    reps, index = [], {}
    for g in G.elements():
        if g not in index:
            for s in S:
                index[G.op(g, s)] = len(reps)
            reps.append(g)
    return reps, index


class CosetSpace:
    """Left cosets g*Gamma of a subgroup with the left G-action; points
    indexed by sorted minimal representatives, identity coset first."""

    def __init__(self, G: FiniteGroup, Gamma: frozenset):
        self.group = G
        self.Gamma = frozenset(Gamma)
        self.reps, self._index = left_cosets(G, self.Gamma)
        self.size = len(self.reps)

    def project(self, g: int) -> int:
        return self._index[g]

    def act(self, g: int, coset_idx: int) -> int:
        return self._index[self.group.op(g, self.reps[coset_idx])]


class QuotientGroup(CosetSpace, FiniteGroup):
    """G/N for a normal subgroup N: the coset space of N with the induced
    law aN * bN = (ab)N, a acting on the coset bN.  N without 0 or not
    closed under the law is refused before normality is checked."""

    def __init__(self, G: FiniteGroup, N: frozenset):
        if 0 not in N or any(G.op(a, b) not in N for a in N for b in N):
            raise ValueError("the normal set is not a subgroup")
        if not is_normal(G, N):
            raise ValueError("subgroup is not normal")
        super().__init__(G, N)
        self.order = self.size

    def op(self, a, b):
        return self.act(self.reps[a], b)

    def inv(self, a):
        return self.project(self.group.inv(self.reps[a]))


# ---------------------------------------------------------------------------
# finite abelian groups in invariant-factor form, and exact linear algebra


class FiniteAbelianGroup(CyclicProduct):
    """Z/d1 x ... x Z/dr with d1 | d2 | ... | dr: the invariant-factor
    form of CyclicProduct.  Factors 1 are dropped, so () and (1,) give
    the trivial group."""

    def __init__(self, invariants: Sequence[int]):
        invs = tuple(int(d) for d in invariants if int(d) > 1)
        for a, b in zip(invs, invs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide in sequence")
        self.moduli = self.invariants = invs
        self.order = prod(invs)


def abelian_coordinates(G: FiniteGroup):
    """(A, coords): the invariant-factor form A of a finite abelian group
    and the isomorphism G -> A as the list coords, coords[g] the index
    in A of g.  A is the Smith diagonal, without its 1s, of the
    relations among the generators g_1, ..., g_r of G.  The row of g_j
    is e_j x_j - sum_i c_i x_i = 0, with e_j the least e > 0 that puts
    e g_j in the span of the earlier generators, where it is
    sum_i c_i g_i.  These rows generate every relation: the last
    nonzero coefficient of a relation, at x_j, is a multiple of e_j, so
    subtracting a multiple of row j shortens it.  With U M V = D the
    element sum_i c_i g_i has coordinates (c V)_i mod d_i, since V
    carries the relation rows onto the rows of D."""
    if not G.is_abelian():
        raise ValueError("group is not abelian")
    gens = G.generators()
    r = len(gens)
    span = {0: (0,) * r}  # each element of the span -> its coefficients
    rows = []
    for j, g in enumerate(gens):
        x, e = g, 1
        while x not in span:
            x, e = G.op(x, g), e + 1
        rows.append([-c for c in span[x][:j]] + [e] + [0] * (r - j - 1))
        layer = dict(span)
        for y, cs in span.items():
            for t in range(1, e):
                y = G.op(y, g)
                layer[y] = cs[:j] + (t,) + cs[j + 1:]
        span = layer
    _, D, V = smith_normal_form(rows, [()] * r)
    kept = [i for i in range(r) if D[i][i] != 1]
    A = FiniteAbelianGroup([D[i][i] for i in kept])
    coords = [0] * G.order
    for g, cs in span.items():
        coords[g] = A.index_of([sum(c * row[i] for c, row in zip(cs, V)) for i in kept])
    return A, coords


def abelian_invariants(G: FiniteGroup):
    """Invariant factors of a finite abelian group (abelian_coordinates)."""
    return abelian_coordinates(G)[0].invariants


def smith_normal_form(M, companion):
    """Integer Smith normal form with transforms: returns (U*C, D, V)
    with U*M*V = D, U and V unimodular, D diagonal and nonnegative with
    d1 | d2 | ..., the zeros last.

    The row operations act on the companion C, one row per row of M, so
    the first entry is U*C: a solver passes its constants, a kernel
    count empty rows, and the identity gives U itself.
    One pivot-and-clear loop: the least entry of the block from (t, t)
    on clears row and column t, a nonzero remainder becoming the pivot.
    Where the finished diagonal has d_i not dividing d_{i+1}, column i+1
    is added into column i and the loop re-enters at i.
    """
    D = [list(row) for row in M]
    r = len(D)
    c = len(D[0]) if r else 0
    U = [list(row) for row in companion]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_op(i, j, k):  # row_i += k * row_j
        D[i] = [a + k * b for a, b in zip(D[i], D[j])]
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, k):  # col_i += k * col_j
        for row in D:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def move_pivot(t):
        """Move the least nonzero |D[i][j]|, i, j >= t, the first in
        row-major order on a tie, to (t, t); False if there is none."""
        piv = min(((abs(D[i][j]), i, j) for i in range(t, r) for j in range(t, c) if D[i][j]),
                  default=None)
        if piv is None:
            return False
        swap_rows(t, piv[1])
        swap_cols(t, piv[2])
        return True

    t = 0
    while True:
        if t == min(r, c) or not move_pivot(t):
            # D is diagonal, its t nonzero entries first.  Re-entered at i,
            # the pivot search finds an entry below |d_i|, or d_i first,
            # whose remainder of d_{i+1} then takes its place: d_i falls
            # and d_1..d_{i-1} stay, so the loop ends.
            i = next((i for i in range(t - 1) if D[i + 1][i + 1] % D[i][i]), None)
            if i is None:
                break
            col_op(i, i + 1, 1)
            t = i
            continue
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, r):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, c):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty:
                break
        t += 1
    for i in range(min(r, c)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


def _solve_mod(e: int, b: int, d: int):
    """A solution x of e*x = b (mod d), or None."""
    g = gcd(e % d, d)
    if b % g != 0:
        return None
    if g == d:
        return 0  # e = 0 mod d, b = 0 mod d: anything works
    ee, bb, dd = (e % d) // g, (b // g) % (d // g), d // g
    return (bb * pow(ee, -1, dd)) % dd


def solve_abelian_linear_system(A: FiniteAbelianGroup, num_unknowns: int, equations):
    """Solve integer-coefficient linear equations over A.

    `equations` is a list of (coeffs, const) with coeffs a length-r list
    of ints and const an element index of A.  Returns a list of element
    indices, or None if unsolvable.  Decided exactly via Smith normal
    form per invariant factor.
    """
    r = num_unknowns
    if not equations:
        return [0] * r
    M = [list(eq[0]) for eq in equations]
    # U*c for the constants c, one column per invariant factor
    UC, D, V = smith_normal_form(M, [A.tuple_of(eq[1]) for eq in equations])
    ncomp = len(A.invariants)
    # solve per invariant factor: row i of D reads d_i y_i = (U c)_i
    sol_components = []  # per component: list of length r residues
    for t, d in enumerate(A.invariants):
        uc = [row[t] % d for row in UC]
        if any(uc[r:]):
            return None  # a row past the unknowns reads 0 = const
        y = [_solve_mod(D[i][i], b, d) for i, b in enumerate(uc[:r])]
        if None in y:
            return None
        y += [0] * (r - len(y))
        sol_components.append([sum(V[i][j] * y[j] for j in range(r)) % d for i in range(r)])
    out = []
    for i in range(r):
        out.append(A.index_of(tuple(sol_components[t][i] for t in range(ncomp))))
    # final exact check
    for coeffs, const in equations:
        acc = 0
        for cf, x in zip(coeffs, out):
            acc = A.op(acc, A.power(x, cf))
        if acc != const:
            raise AssertionError("solver produced a non-solution")
    return out


def abelian_kernel_order(A: FiniteAbelianGroup, num_unknowns: int, rows) -> int:
    """|{x in A^num_unknowns : sum_j row[j] x_j = 0 for every row}| for
    integer rows of that length: the product of gcd(e, d) over the
    invariant factors d of A and the Smith diagonal entries e, a zero or
    missing e counting as d.  A matrix and its transpose have the same
    diagonal: the one with fewer columns is reduced, for a smaller V."""
    M = list(zip(*rows)) if len(rows) < num_unknowns else rows
    _, D, _ = smith_normal_form(M, [()] * len(M))
    diag = [D[i][i] for i in range(min(len(rows), num_unknowns))]
    return prod(gcd(e, d) for e in diag for d in A.invariants) * A.order ** (num_unknowns - len(diag))
