"""Smoke runs of the scripts under scripts/."""

import importlib.util
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
    cubes = bench("Heisenberg mod 2", gr.make_heisenberg(2)[1], trials, 3, 0)
    # the genuine half are all cubes; a uniform map of H_2 at n = 3 almost never is
    assert trials // 2 <= cubes < trials
    assert "(%d cubes / %d maps)" % (cubes, trials) in capsys.readouterr().out


def test_cohomology_census_on_d1_z2(capsys):
    census = _load("cohomology_census").census
    start = time.perf_counter()
    census(2, 2, 1)
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "D_1(Z/2), A=Z/2, k=1: 2 cocycles, 1 coboundaries, 2 classes" in out
    assert out.count("nilspace=True") == 2
