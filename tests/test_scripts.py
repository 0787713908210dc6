"""Smoke runs of the scripts under scripts/."""

import importlib.util
import re
import time
from pathlib import Path

from nilcube import groups as gr

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bench_line(label, what, trials, out):
    """The route's line: (truthy answers, op calls, inv calls)."""
    m = re.search(r"^  %s +\d+\.\d{3}s  \((\d+) %s / %d maps\)  op (\d+), inv (\d+)$"
                  % (label, what, trials), out, re.M)
    assert m, label
    return tuple(map(int, m.groups()))


def test_membership_bench_agrees_on_cubes_and_non_cubes(capsys):
    bench = _load("membership_bench").bench
    trials, n = 300, 3
    for q in (2, 5):
        cubes = bench("Heisenberg mod %d" % q, gr.make_heisenberg(q)[1], trials, n, 0)
        # the genuine half are all cubes; a uniform map of H_q at n = 3 almost never is
        assert trials // 2 <= cubes < trials
        out = capsys.readouterr().out
        lines = {label: _bench_line(label, "cubes", trials, out)
                 for label in ("factorize", "equations", "binomial", "round trip")}
        assert all(line[0] == cubes for line in lines.values())
        # one divide-down transform per map: at most n 2^(n-1) products and inverses
        assert 0 < sum(lines["factorize"][1:]) <= trials * n * 2 ** n
        # every cube's corner completes, and so may a non-cube's
        completed = _bench_line("complete", "completed", trials, out)[0]
        assert cubes <= completed <= trials
        # the counts come from the seed alone
        bench("Heisenberg mod %d" % q, gr.make_heisenberg(q)[1], trials, n, 0)
        again = capsys.readouterr().out
        assert all(_bench_line(label, "cubes", trials, again) == line
                   for label, line in lines.items())


def test_cohomology_census_on_d1_z2(capsys):
    census = _load("cohomology_census").census
    start = time.perf_counter()
    census(2, 2, 1)
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "D_1(Z/2), A=Z/2, k=1: 2 cocycles, 1 coboundaries, 2 classes" in out
    assert out.count("nilspace=True") == 2


def test_cohomology_census_past_the_table_cap(capsys):
    # 3^27 tables on the 2-cubes of D_1(Z/3): counted, not enumerated
    census = _load("cohomology_census").census
    start = time.perf_counter()
    census(3, 3, 1)
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "D_1(Z/3), A=Z/3, k=1: 9 cocycles, 3 coboundaries, 3 classes" in out
    assert "nilspace" not in out
