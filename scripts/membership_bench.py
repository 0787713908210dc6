#!/usr/bin/env python3
"""Benchmark the three cube-membership routes (factorization, sigma
equations, binomial extension) on random maps and confirm they agree;
then time, on the same maps, the round trip multiply_out(factorize(q))
and the completion of each map's corner.  Each line gives a route's
time and, from one more untimed pass, its group-law calls (op, inv):
the calls repeat exactly for a seed, the times do not.

Half the maps are genuine cubes (random level coefficients multiplied
out) and half are uniform random maps, so the routes are compared on
acceptances as well as on rejections.

Usage: python3 scripts/membership_bench.py [--trials 20000] [--n 3]
"""

import argparse
import copy
import random
import time

from nilcube import cubegroups as cg
from nilcube import poly
from nilcube.groups import CyclicProduct, Filtration, make_heisenberg, maximal_degree_k_filtration


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


def counted(filt):
    """filt over a copy of its group whose op and inv calls are counted:
    the filtration and the dict of counts."""
    G = copy.copy(filt.group)
    calls = {"op": 0, "inv": 0}
    op, inv = G.op, G.inv

    def counted_op(x, y):
        calls["op"] += 1
        return op(x, y)

    def counted_inv(x):
        calls["inv"] += 1
        return inv(x)

    G.op, G.inv = counted_op, counted_inv
    return Filtration(G, filt.chain), calls


def _round_trip(v, filt, n):
    coeffs = cg.factorize(v, filt)
    return None if isinstance(coeffs, cg.Reject) else cg.multiply_out(coeffs, n, filt.group)


def _complete(v, filt, n):
    try:
        return cg.complete_corner(dict(enumerate(v[:-1])), n, filt)
    except cg.CornerError:
        return None


def _routes(filt, n):
    """(label, question, what a truthy answer is) for each question asked
    of every map: the three membership routes, the round trip and the
    completion of the map's corner."""
    return [
        ("factorize", lambda v: cg.is_cube(v, filt), "cubes"),
        ("equations", lambda v: cg.is_cube_by_equations(v, filt), "cubes"),
        ("binomial", lambda v: poly.cube_to_binomial(v, filt) is not None, "cubes"),
        ("round trip", lambda v: _round_trip(v, filt, n), "cubes"),
        ("complete", lambda v: _complete(v, filt, n), "completed"),
    ]


def bench(name, filt, trials, n, seed):
    """Ask every route of the same maps, timed; then once more, untimed,
    through counted(filt), and print each route's time, truthy answers
    and op and inv calls.  Check that the membership routes agree, that
    some maps are cubes, and the round trip and completions.  Return the
    number of cubes."""
    rng = random.Random(seed)
    maps = random_maps(filt, trials, n, rng)
    counting, calls = counted(filt)
    print(name)
    res = {}
    for (label, fn, what), (_, counted_fn, _) in zip(_routes(filt, n), _routes(counting, n)):
        t0 = time.perf_counter()
        res[label] = [fn(v) for v in maps]
        dt = time.perf_counter() - t0
        calls.update(op=0, inv=0)
        for v in maps:
            counted_fn(v)
        print("  %-10s %.3fs  (%d %s / %d maps)  op %d, inv %d"
              % (label, dt, sum(map(bool, res[label])), what, len(maps),
                 calls["op"], calls["inv"]))
    verdicts = res["factorize"]
    assert verdicts == res["equations"] == res["binomial"], "methods disagree"
    cubes = sum(verdicts)
    assert cubes > 0, "no cube among the maps: acceptance went untested"
    assert res["round trip"] == [v if ok else None for v, ok in zip(maps, verdicts)], \
        "multiply_out(factorize(q)) is not q"
    for v, ok, full in zip(maps, verdicts, res["complete"]):
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
