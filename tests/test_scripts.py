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


def test_membership_bench_agrees_on_cubes_and_non_cubes(capsys):
    bench = _load("membership_bench").bench
    trials = 300
    for q in (2, 5):
        cubes = bench("Heisenberg mod %d" % q, gr.make_heisenberg(q)[1], trials, 3, 0)
        # the genuine half are all cubes; a uniform map of H_q at n = 3 almost never is
        assert trials // 2 <= cubes < trials
        out = capsys.readouterr().out
        for label in ("factorize", "equations", "binomial", "round trip"):
            assert re.search(r"^  %s +\d+\.\d{3}s  \(%d cubes / %d maps\)$"
                             % (label, cubes, trials), out, re.M), label
        # every cube's corner completes, and so may a non-cube's
        completed = int(re.search(r"^  complete +\d+\.\d{3}s  \((\d+) completed / %d maps\)$"
                                  % trials, out, re.M).group(1))
        assert cubes <= completed <= trials


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
