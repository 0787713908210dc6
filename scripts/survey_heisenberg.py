#!/usr/bin/env python3
"""Survey a Heisenberg nilspace: cube counts, canonical factors,
structure groups, and the translation tower.

Usage: python3 scripts/survey_heisenberg.py [--modulus 2] [--n-max 3]
"""

import argparse
import time

from nilcube.cubespace import GroupCubespace, check_axioms
from nilcube.groups import QuotientGroup, abelian_invariants, make_heisenberg
from nilcube.structure import decompose
from nilcube.translations import (
    BRUTE_FORCE_CAP,
    translation_action_transitive,
    translation_tower,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--modulus", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=3)
    args = ap.parse_args()

    G, filt = make_heisenberg(args.modulus)
    X = GroupCubespace(filt)
    print("Heisenberg mod %d: order %d, step bound %d" % (args.modulus, G.order, X.step))
    for n in range(1, args.n_max + 1):
        t0 = time.perf_counter()
        cn = len(X.cubes(n))
        print("  |Cu^%d| = %d  (%.2fs)" % (n, cn, time.perf_counter() - t0))

    rep = check_axioms(X, args.n_max)
    print("axioms: nilspace=%s inferred step=%s (composition checks %d, exact)"
          % (rep.is_nilspace, rep.step, rep.composition_checks))

    dec = decompose(X, n_max=min(args.n_max, 3))
    print("factors:", [f.size for f in dec.factors])
    for lvl in dec.levels:
        print("  level %d: structure group %s, fibre size %d" %
              (lvl.k, lvl.group_invariants or "(trivial)", lvl.fibre_size))
    Q = QuotientGroup(G, filt.subgroup(2))
    print("cross-check: invariants of G/G_2 =", abelian_invariants(Q))

    if G.order <= BRUTE_FORCE_CAP:
        t0 = time.perf_counter()
        tower = translation_tower(X)
        print("translation tower sizes %s, transitive=%s (%.1fs)" %
              ([len(h) for h in tower.heights],
               translation_action_transitive(tower), time.perf_counter() - t0))
    else:
        print("translation tower skipped: order above brute-force cap %d" % BRUTE_FORCE_CAP)


if __name__ == "__main__":
    main()
