#!/usr/bin/env python3
"""Benchmark the three cube-membership routes (factorization, sigma
equations, binomial extension) on random maps and confirm they agree;
then time, on the same maps, the round trip multiply_out(factorize(q))
and the completion of each map's corner.

Half the maps are genuine cubes (random level coefficients multiplied
out) and half are uniform random maps, so the routes are compared on
acceptances as well as on rejections.

Usage: python3 scripts/membership_bench.py [--trials 20000] [--n 3]
"""

import argparse
import random
import time

from nilcube import cubegroups as cg
from nilcube import poly
from nilcube.groups import CyclicProduct, make_heisenberg, maximal_degree_k_filtration


def random_maps(filt, trials, n, rng):
    """`trials` maps {0,1}^n -> G: the even-numbered ones multiplied out of
    random upper-face coefficients in their levels, the others uniform."""
    G = filt.group
    levels = [sorted(filt.subgroup(bin(v).count("1"))) for v in range(1 << n)]
    maps = []
    for t in range(trials):
        if t % 2 == 0:
            maps.append(cg.multiply_out([rng.choice(level) for level in levels], n, G))
        else:
            maps.append(tuple(rng.randrange(G.order) for _ in range(1 << n)))
    return maps


def _timed(label, fn, maps, what):
    """fn on every map, timed; print the time and how many results are
    truthy, and return the results."""
    t0 = time.perf_counter()
    res = [fn(v) for v in maps]
    dt = time.perf_counter() - t0
    print("  %-10s %.3fs  (%d %s / %d maps)" % (label, dt, sum(map(bool, res)), what, len(maps)))
    return res


def _round_trip(v, filt, n):
    coeffs = cg.factorize(v, filt)
    return None if isinstance(coeffs, cg.Reject) else cg.multiply_out(coeffs, n, filt.group)


def _complete(v, filt, n):
    try:
        return cg.complete_corner(dict(enumerate(v[:-1])), n, filt)
    except cg.CornerError:
        return None


def bench(name, filt, trials, n, seed):
    """Time each route on the same maps, check that they agree and that
    some maps are cubes; time the round trip and corner completion on the
    same maps and check their results.  Return the number of cubes."""
    rng = random.Random(seed)
    maps = random_maps(filt, trials, n, rng)
    methods = [
        ("factorize", lambda v: cg.is_cube(v, filt)),
        ("equations", lambda v: cg.is_cube_by_equations(v, filt)),
        ("binomial", lambda v: poly.cube_to_binomial(v, filt) is not None),
    ]
    print(name)
    verdicts = [_timed(label, fn, maps, "cubes") for label, fn in methods]
    assert verdicts[0] == verdicts[1] == verdicts[2], "methods disagree"
    cubes = sum(verdicts[0])
    assert cubes > 0, "no cube among the maps: acceptance went untested"
    trips = _timed("round trip", lambda v: _round_trip(v, filt, n), maps, "cubes")
    assert trips == [v if ok else None for v, ok in zip(maps, verdicts[0])], \
        "multiply_out(factorize(q)) is not q"
    completions = _timed("complete", lambda v: _complete(v, filt, n), maps, "completed")
    for v, ok, full in zip(maps, verdicts[0], completions):
        # a cube's corner completes; a completion extends its corner
        assert full is not None or not ok, "the corner of a cube was refused"
        assert full is None or (full[:-1] == v[:-1] and cg.is_cube_by_equations(full, filt)), \
            "a completion that is not a cube through the corner"
    return cubes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.n < 1:
        ap.error("--n must be at least 1: a corner of dimension 0 has nothing to complete")
    bench("D_1(Z/4)", maximal_degree_k_filtration(CyclicProduct((4,)), 1),
          args.trials, args.n, args.seed)
    bench("Heisenberg mod 2", make_heisenberg(2)[1], args.trials, args.n, args.seed)
    bench("Heisenberg mod 3", make_heisenberg(3)[1], args.trials, args.n, args.seed)
    bench("Heisenberg mod 5", make_heisenberg(5)[1], args.trials, args.n, args.seed)


if __name__ == "__main__":
    main()
