"""Polynomial maps between filtered groups, difference derivatives, the
hom = poly cross-validation pair, and binomial extensions of cubes.

Maps are stored as tables over a finite group domain (index -> index).
Z^n never gets materialized: the binomial form is evaluated lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import cubegroups
from .groups import FiniteGroup, Filtration


def derivative(g: Sequence[int], H: FiniteGroup, G: FiniteGroup, h: int):
    """The difference derivative (d_h g)(x) = g(x)^{-1} g(xh)."""
    return tuple(G.op(G.inv(g[x]), g[H.op(x, h)]) for x in H.elements())


def pointwise_product(g1: Sequence[int], g2: Sequence[int], G: FiniteGroup):
    return tuple(G.op(a, b) for a, b in zip(g1, g2))


def pointwise_inverse(g: Sequence[int], G: FiniteGroup):
    return tuple(G.inv(a) for a in g)


class ClosureBlowup(RuntimeError):
    pass


# largest derivative closure is_polynomial builds at one weight level;
# only a domain filtration with H_0 != H_1 builds one
CLOSURE_CAP = 200_000


def is_polynomial(g: Sequence[int], hfilt: Filtration, gfilt: Filtration) -> bool:
    """Check that every iterated derivative with directions h_j in
    H_{i_j} lands in G_{i_1 + ... + i_n}.

    The check steps up one weight level at a time with positive-weight
    directions and stops at total weight deg(G.)+1, where the target
    subgroup is trivial and further derivatives stay trivial (a
    direction whose weight would pass it lies in the H_i that reaches it
    exactly).  Weight-0 directions (h in H_0) are allowed by the
    definition.  When H_0 = H_1, as for every lower central series and
    maximal degree-k filtration, a weight-0 direction is also a weight-1
    direction, whose condition G_{w+1} <= G_w is stronger: the derivative
    it gives is checked one level up, so nothing more is needed.
    Otherwise each weight level is first closed under weight-0
    derivatives, at most CLOSURE_CAP maps a level (ClosureBlowup).
    """
    H, G = hfilt.group, gfilt.group
    top = gfilt.degree + 1
    level_sets = {0: {tuple(g)}}
    hdeg = hfilt.degree
    h0 = sorted(hfilt.subgroup(0)) if hfilt.subgroup(0) != hfilt.subgroup(1) else ()
    for w in range(top + 1):
        # close level w under weight-0 derivatives
        current = level_sets.get(w, set())
        frontier = list(current) if h0 else []
        while frontier:
            f = frontier.pop()
            for h in h0:
                df = derivative(f, H, G, h)
                if df not in current:
                    current.add(df)
                    frontier.append(df)
                    if len(current) > CLOSURE_CAP:
                        raise ClosureBlowup("derivative closure exceeded cap")
        level_sets[w] = current
        Gw = gfilt.subgroup(w)
        for f in current:
            if any(val not in Gw for val in f):
                return False
        if w == top:
            break
        # step up with positive-weight directions
        for i in range(1, min(hdeg, top - w) + 1):
            Hi = hfilt.subgroup(i)
            if Hi == frozenset({0}):
                continue
            directions = sorted(Hi)
            tgt = level_sets.setdefault(w + i, set())
            for f in current:
                for h in directions:
                    tgt.add(derivative(f, H, G, h))
    return True


def is_cube_morphism(g: Sequence[int], hfilt: Filtration, gfilt: Filtration):
    """Check g o q is a cube of G. for every cube q of H., dimension up
    to deg(G.)+1.  Returns (True, None), or (False, a witness cube)."""
    for n in range(gfilt.degree + 2):
        for q in cubegroups.enumerate_cubes(hfilt, n):
            image = tuple(g[x] for x in q)
            if not cubegroups.is_cube(image, gfilt):
                return (False, q)
    return (True, None)


@dataclass(frozen=True)
class BinomialForm:
    """Coefficients indexed by upper faces (vertex index order); the map
    t |-> prod g_v ^ binom(t, v) restricted to {0,1}^n is the cube with
    these factorization coefficients."""

    n: int
    coefficients: tuple

    def validate(self, filt: Filtration):
        th = cubegroups._thresholds(self.n, None)
        for v, g in enumerate(self.coefficients):
            if g not in filt.subgroup(th[v]):
                return cubegroups.Reject(v, g, th[v])
        return None


def binomial_coefficient_weight(t: Sequence[int], v_idx: int) -> int:
    """binom(t, v) = product over j in supp(v) of t_j (binomials with
    0/1 entries of v collapse to 1 or t_j)."""
    out = 1
    for j, tj in enumerate(t):
        if (v_idx >> j) & 1:
            out *= tj
    return out


def binomial_extension(form: BinomialForm, t: Sequence[int], G: FiniteGroup) -> int:
    """Evaluate the product formula at an integer point t of Z^n."""
    if len(t) != form.n:
        raise ValueError("dimension mismatch")
    acc = 0
    for v in range(1 << form.n):
        e = binomial_coefficient_weight(t, v)
        if e:
            acc = G.op(acc, G.power(form.coefficients[v], e))
    return acc


def cube_to_binomial(values: Sequence[int], filt: Filtration):
    """Membership by polynomial extension: the unique coefficient tuple
    of the map, packaged as a binomial form iff the subgroup conditions
    hold (None otherwise).  Restriction of the form to {0,1}^n is the
    original map."""
    n = (len(values) - 1).bit_length()
    coeffs = cubegroups.factorize(values, filt)
    if isinstance(coeffs, cubegroups.Reject):
        return None
    form = BinomialForm(n, tuple(coeffs))
    assert cubegroups.multiply_out(coeffs, n, filt.group) == tuple(values)
    return form
