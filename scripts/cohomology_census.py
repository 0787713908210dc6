#!/usr/bin/env python3
"""Census of cocycles, coboundaries, and cohomology classes on small
degree-1 abelian structures, plus the model extensions they generate.
The counts come from linear algebra (cohomology.count_cocycle_classes);
where the cocycle tables can be enumerated the enumeration must agree,
and each M(rho) is checked against the nilspace axioms.

Usage: python3 scripts/cohomology_census.py [--moduli 2 3] [--degrees 1 2]
"""

import argparse

from nilcube import cohomology as coh
from nilcube.cubespace import abelian_Dk, check_axioms
from nilcube.groups import CyclicProduct, FiniteAbelianGroup


def census(m, a, k):
    X = abelian_Dk(CyclicProduct((m,)), 1)
    A = FiniteAbelianGroup((a,))
    z, h = coh.count_cocycle_classes(X, k, A)
    counts = (z, z // h, h)
    line = ("  D_1(Z/%d), A=Z/%d, k=%d: %d cocycles, %d coboundaries, %d classes"
            % ((m, a, k) + counts))
    try:
        cocycles = coh.enumerate_cocycles(X, k, A)
    except ValueError as e:
        print("%s (by linear algebra; %s)" % (line, e))
        return
    cobs = sum(coh.is_coboundary(r) is not None for r in cocycles)
    classes = coh.cohomology_classes(cocycles)
    assert (len(cocycles), cobs, len(classes)) == counts, "enumeration disagrees"
    print(line)
    for rho in cocycles:
        M = coh.build_extension(rho)
        rep = check_axioms(M, 3, composition_budget=100_000)
        tag = "zero" if not any(rho.table.values()) else "nonzero"
        print("    %s cocycle -> M(rho): %d points, nilspace=%s, step=%s"
              % (tag, M.size, rep.is_nilspace, rep.step))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--moduli", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--coefficients", type=int, nargs="+", default=[2])
    ap.add_argument("--degrees", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    for m in args.moduli:
        for a in args.coefficients:
            for k in args.degrees:
                census(m, a, k)


if __name__ == "__main__":
    main()
