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


def is_polynomial(g: Sequence[int], hfilt: Filtration, gfilt: Filtration) -> bool:
    """Check that every iterated derivative with directions h_j in
    H_{i_j} lands in G_{i_1 + ... + i_n}.

    The check steps up one weight level at a time with positive-weight
    directions and stops at total weight deg(G.)+1, where the target
    subgroup is trivial and further derivatives stay trivial (a
    direction whose weight would pass it lies in the H_i that reaches it
    exactly).

    Lemma: weight-0 directions (h in H_0) add no condition.  Let P_w be
    the maps f whose derivatives along positive-weight directions of
    total weight i (none for i = 0) land in G_{w+i}, and R_h(x) = xh.
    (a) f in P_w gives f o R_h in P_w for h in H_0: d_u(f o R_h) =
        (d_{h^-1 u h} f) o R_h, and h^-1 u h lies in H_i with u since
        [H_i, H_0] <= H_i, so each derivative of f o R_h is one of f of
        the same weights, moved by R_h.
    (b) P_w is a group under pointwise products: a positive-weight
        derivative at x reads f only on the coset x H_1, so f is in P_w iff
        each u -> f(xu) is polynomial from H_1 >= H_1 >= H_2 >= ..., where
        a weight-0 direction is one of weight 1, into the filtration
        G_w >= G_{w+1} >= ..., and those maps form a group
        (Lazard-Leibman; Leibman, Polynomial mappings of groups).
    So d_h f = f^-1 (f o R_h) lies in P_w with f.  Induct on the number m
    of weight-0 directions of a derivative of some F in P_w: m = 0 is the
    definition; otherwise the directions before the first weight-0 one h,
    of total weight a, take F into P_{w+a}, d_h keeps it there, and the
    rest, with m - 1 weight-0 directions, take it into G_{w+i} (i the
    total weight).  The maps that pass the steps below are P_0, so they
    are the polynomial maps.
    """
    H, G = hfilt.group, gfilt.group
    top = gfilt.degree + 1
    level_sets = {0: {tuple(g)}}
    for w in range(top + 1):
        current = level_sets.get(w, set())
        Gw = gfilt.subgroup(w)
        if any(val not in Gw for f in current for val in f):
            return False
        # step up with positive-weight directions
        for i in range(1, min(hfilt.degree, top - w) + 1):
            directions = hfilt.subgroup(i)
            level_sets.setdefault(w + i, set()).update(
                derivative(f, H, G, h) for f in current for h in directions)
    return True


def is_cube_morphism(g: Sequence[int], hfilt: Filtration, gfilt: Filtration):
    """Check g o q is a cube of G. for every (k+1)-cube q of H., k =
    deg(G.), which decides every dimension: above k + 1 by the face
    criterion, and below it an n-cube q is a face of the (k+1)-cube q o
    pi, pi dropping the last k + 1 - n coordinates, so g o q is a face of
    the cube g o q o pi.  Returns (True, None), or (False, a witness
    (k+1)-cube)."""
    for q in cubegroups.enumerate_cubes(hfilt, gfilt.degree + 1):
        if not cubegroups.is_cube(tuple(g[x] for x in q), gfilt):
            return (False, q)
    return (True, None)


@dataclass(frozen=True)
class BinomialForm:
    """Coefficients indexed by upper faces (vertex index order); the map
    t |-> prod g_v ^ binom(t, v) restricted to {0,1}^n is the cube with
    these factorization coefficients."""

    n: int
    coefficients: tuple


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
    return BinomialForm(n, tuple(coeffs))
