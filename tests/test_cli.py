"""The batch CLI: spec parsing, handlers, exit codes, round trips."""

import copy
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcube import cli


HEIS = {"type": "heisenberg", "modulus": 2}
Z2D1 = {
    "source": "group",
    "group": {"type": "cyclic_product", "moduli": [2]},
    "filtration": {"type": "maximal_degree_k", "k": 1},
}
Z2D2 = {
    "source": "group",
    "group": {"type": "cyclic_product", "moduli": [2]},
    "filtration": {"type": "maximal_degree_k", "k": 2},
}
Z2 = {"type": "cyclic_product", "moduli": [2]}
D1 = {"type": "maximal_degree_k", "k": 1}
# H2 / <(0,0,1)>, the Klein four-group: cosets numbered by least elements
H2_MOD_CENTRE = {"type": "quotient", "group": HEIS, "normal": [0, 4]}


def run_main(tmp_path, spec, *args):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return cli.main(["--input", str(p), *args])


def assert_spec_error(tmp_path, capsys, spec, pointer):
    """The spec exits 2 with the pointer on stderr, no traceback and no
    report."""
    assert run_main(tmp_path, spec) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("spec error: %s:" % pointer)
    assert "Traceback" not in captured.err and captured.out == ""


def test_check_heisenberg(tmp_path, capsys):
    spec = {"kind": "check",
            "cubespace": {"source": "group", "group": HEIS, "filtration": {"type": "lcs"}}}
    assert run_main(tmp_path, spec) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["axioms"]["is_nilspace"] and out["axioms"]["step"] == 2
    assert out["size"] == 8


def test_factorize_constant_cube():
    spec = {"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [4]},
            "filtration": {"type": "maximal_degree_k", "k": 1},
            "cube": {"n": 2, "values": [3, 3, 3, 3]}}
    out = cli.run(spec)
    assert out["is_cube"] and out["coefficients"] == [3, 0, 0, 0]


def test_factorize_reject_exit_code(tmp_path, capsys):
    spec = {"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [4]},
            "filtration": {"type": "maximal_degree_k", "k": 1},
            "cube": {"n": 2, "values": [0, 1, 0, 2]}}
    assert run_main(tmp_path, spec) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["is_cube"]
    assert out["reject"]["vertex"] == 3


def test_unknown_kind_is_a_spec_error(tmp_path, capsys):
    assert run_main(tmp_path, {"kind": "nope"}) == 2


def test_successive_main_calls_give_independent_reports(tmp_path, capsys):
    # the parser is built once per process; its options must not carry over
    spec = {"kind": "export", "cubespace": Z2D1}
    assert run_main(tmp_path, spec, "--format", "text", "--n-max", "1") == 0
    text = capsys.readouterr().out
    assert "n_max: 1" in text and not text.startswith("{")
    assert run_main(tmp_path, spec, "--n-max", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_max"] == 2 and sorted(out["tables"]) == ["1", "2"]
    assert run_main(tmp_path, spec) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 3


def test_malformed_json_is_a_spec_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["--input", str(p)]) == 2


def test_complete_corner():
    spec = {"kind": "complete", "group": HEIS, "filtration": {"type": "lcs"},
            "corner": {"n": 2, "values": [0, 1, 2]}}
    out = cli.run(spec)
    assert out["completed"]
    assert len(out["cube"]) == 4


def test_complete_names_the_failing_face(tmp_path, capsys):
    # D1(Z/2): a 2-face is a cube iff q(00) + q(11) = q(01) + q(10); only the
    # face {x1 = 0} (vertices 0, 1, 4, 5) has values 0, 0, 0, 1
    spec = {"kind": "complete", "group": {"type": "cyclic_product", "moduli": [2]},
            "filtration": {"type": "maximal_degree_k", "k": 1},
            "corner": {"n": 3, "values": [0, 0, 0, 0, 0, 1, 0]}}
    assert run_main(tmp_path, spec) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["completed"]
    assert out["reason"] == "corner premise fails on the face with coordinate 1 = 0"


def test_poly_verdicts_agree():
    spec = {"kind": "poly",
            "domain_group": {"type": "cyclic_product", "moduli": [3]},
            "domain_filtration": {"type": "lcs"},
            "target_group": {"type": "cyclic_product", "moduli": [3]},
            "target_filtration": {"type": "maximal_degree_k", "k": 2},
            "map": [0, 1, 1]}
    out = cli.run(spec)
    assert out["agreement"]
    assert out["is_polynomial"] == out["is_cube_morphism"]


@pytest.mark.parametrize("target,target_filtration,g,witness", [
    # D2(Z/9) holds every map of dimension at most 2, so the first
    # failing cube of x -> x^3 is a 3-cube in any order of dimension
    ({"type": "cyclic_product", "moduli": [9]}, {"type": "maximal_degree_k", "k": 2},
     [x ** 3 % 9 for x in range(9)], [0, 1, 1, 2, 1, 2, 2, 3]),
    # the lcs of H2 rejects the 2-cube (0, 1, 1, 2) already; the witness
    # is the 3-cube that repeats it along its first coordinate
    ({"type": "heisenberg", "modulus": 2}, {"type": "lcs"},
     [3, 4, 1, 6], [0, 0, 1, 1, 1, 1, 2, 2]),
], ids=["cubic-Z9-to-D2", "Z4-to-H2"])
def test_poly_witness_is_a_cube_of_dimension_degree_plus_one(target, target_filtration, g, witness):
    m = len(g)
    spec = {"kind": "poly",
            "domain_group": {"type": "cyclic_product", "moduli": [m]},
            "domain_filtration": {"type": "lcs"},
            "target_group": target, "target_filtration": target_filtration, "map": g}
    out = cli.run(spec)
    assert out["is_polynomial"] is False and out["is_cube_morphism"] is False
    assert out["witness"] == witness


def test_decompose_heisenberg():
    spec = {"kind": "decompose",
            "cubespace": {"source": "group", "group": HEIS, "filtration": {"type": "lcs"}}}
    out = cli.run(spec)
    assert out["step"] == 2
    assert [lvl["invariants"] for lvl in out["levels"]] == [[2, 2], [2]]


def test_translations_of_d2z2():
    spec = {"kind": "translations", "cubespace": Z2D2}
    out = cli.run(spec)
    assert out["sizes"] == [2, 2]
    assert out["transitive"]


@pytest.mark.parametrize("moduli,k,sizes", [((3,), 2, [3, 3]), ((2, 2), 1, [4]), ((2,), 3, [2, 2, 2])],
                         ids=["D2(Z/3)", "D1(Z/2xZ/2)", "D3(Z/2)"])
def test_translations_of_abelian_spaces(tmp_path, capsys, moduli, k, sizes):
    # D3(Z/2) certifies its candidates on arrows of dimension 5 to 7
    space = {"source": "group", "group": {"type": "cyclic_product", "moduli": list(moduli)},
             "filtration": {"type": "maximal_degree_k", "k": k}}
    start = time.perf_counter()
    assert run_main(tmp_path, {"kind": "translations", "cubespace": space}) == 0
    assert time.perf_counter() - start < 6.0
    out = json.loads(capsys.readouterr().out)
    assert out["sizes"] == sizes and out["transitive"]


H3_SPACE = {"source": "group", "group": {"type": "heisenberg", "modulus": 3},
            "filtration": {"type": "lcs"}}


def test_translations_above_the_brute_force_cap_exit_2(tmp_path, capsys):
    # H_3 has 27 points; the search is capped at translations.BRUTE_FORCE_CAP
    assert_spec_error(tmp_path, capsys, {"kind": "translations", "cubespace": H3_SPACE},
                      "/cubespace")


def _dk(m, k):
    return {"source": "group", "group": {"type": "cyclic_product", "moduli": [m]},
            "filtration": {"type": "maximal_degree_k", "k": k}}


@pytest.mark.parametrize("m,k,code", [(2, 4, 2), (2, 5, 2), (3, 3, 2), (2, 2, 0)],
                         ids=["D4(Z/2)", "D5(Z/2)", "D3(Z/3)", "D2(Z/2)"])
def test_translations_beyond_the_cube_cap_exit_2_at_once(tmp_path, capsys, m, k, code):
    # D4(Z/2) has 2^31 cubes of dimension 5: the certificate scan never ended
    start = time.perf_counter()
    assert run_main(tmp_path, {"kind": "translations", "cubespace": _dk(m, k)}) == code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("spec error: /cubespace:") and "translation cap" in err


@pytest.mark.parametrize("spec,n_max,code", [
    (_dk(2, 4), 3, 2),
    ({"source": "group", "group": HEIS, "filtration": {"type": "lcs"}}, 3, 0),
    (_dk(4, 1), 2, 0),
    (_dk(2, 2), 2, 0),
    ({"source": "product", "factors": [_dk(2, 1), _dk(2, 2)]}, 8, 2),
], ids=["D4(Z/2)", "H2", "D1(Z/4)", "D2(Z/2)", "D1(Z/2)xD2(Z/2)-n_max-8"])
def test_decompose_beyond_the_cube_cap_exit_2_at_once(tmp_path, capsys, spec, n_max, code):
    # D4(Z/2) needs its 2^31 cubes of dimension 5 to build the top factor;
    # the product has 2^46 cubes of dimension 8
    start = time.perf_counter()
    assert run_main(tmp_path, {"kind": "decompose", "cubespace": spec, "n_max": n_max}) == code
    err = capsys.readouterr().err
    if code == 2:
        assert time.perf_counter() - start < 1.0
        assert err.startswith("spec error: /cubespace:") and "decomposition cap" in err


def test_check_beyond_the_cube_cap_exit_2_at_once(tmp_path, capsys):
    # H3 has 14,348,907 cubes of dimension 3 (the default n_max)
    start = time.perf_counter()
    assert run_main(tmp_path, {"kind": "check", "cubespace": H3_SPACE}) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("spec error: /cubespace:") and "check cap" in err


H2_SPACE = {"source": "group", "group": HEIS, "filtration": {"type": "lcs"}}
# a degree-2 cocycle on H3 is a table on its 14,348,907 3-cubes
H3_K2_COCYCLE = {"k": 2, "entries": [[[0] * 8, 0]]}


@pytest.mark.parametrize("spec,code,pointer,kind", [
    ({"kind": "check", "n_max": 2, "cubespace": {"source": "arrow", "base": H2_SPACE, "k": 1}},
     2, "/cubespace", "check"),
    ({"kind": "check", "n_max": 3, "cubespace": {"source": "arrow", "base": H2_SPACE, "k": 1}},
     2, "/cubespace", "check"),
    ({"kind": "cohomology", "op": "is_coboundary", "A": [2], "cubespace": H3_SPACE,
      "cocycle": H3_K2_COCYCLE}, 2, "/cocycle/k", "cocycle"),
    ({"kind": "check", "cubespace": {"source": "extension", "base": H3_SPACE, "A": [2],
                                     "cocycle": H3_K2_COCYCLE}},
     2, "/cubespace/cocycle/k", "cocycle"),
    ({"kind": "check", "cubespace": {"source": "partial", "base": H2_SPACE, "point": 3}},
     1, None, None),
], ids=["arrow-H2-n_max-2", "arrow-H2-n_max-3", "is-coboundary-H3-k-2", "extension-H3-k-2",
        "partial-H2"])
def test_derived_space_or_cocycle_beyond_the_cube_cap_exit_2_at_once(tmp_path, capsys, spec,
                                                                     code, pointer, kind):
    # the arrow space of H2 pairs its 1,024 2-cubes: 1,048,576 pairs to test
    start = time.perf_counter()
    assert run_main(tmp_path, spec) == code
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("spec error: %s:" % pointer) and "%s cap" % kind in err


def _poly_spec(m, k):
    return {"kind": "poly",
            "domain_group": {"type": "cyclic_product", "moduli": [m]},
            "domain_filtration": {"type": "lcs"},
            "target_group": {"type": "cyclic_product", "moduli": [m]},
            "target_filtration": {"type": "maximal_degree_k", "k": k},
            "map": list(range(m))}


def test_poly_beyond_the_cube_cap_exit_2_at_once(tmp_path, capsys):
    # the morphism check needs the 5,764,801 7-cubes of Z/7
    start = time.perf_counter()
    assert run_main(tmp_path, _poly_spec(7, 6)) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("spec error: /domain_filtration:") and "poly cap" in err


def test_poly_with_h0_above_h1_decides_by_positive_weights(tmp_path, capsys):
    # Z/16 > 8Z/16 into D_1(Z/16): the weight-0 derivatives of this map
    # close to more than 200,000 maps, which no verdict needs
    spec = _poly_spec(16, 1)
    spec["domain_filtration"] = {"type": "explicit", "chain": [list(range(16)), [0, 8]]}
    spec["map"] = [8, 5, 12, 5, 2, 4, 14, 4, 4, 0, 0, 6, 6, 5, 5, 9]
    start = time.perf_counter()
    assert run_main(tmp_path, spec) == 0
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["is_polynomial"] is False and out["is_cube_morphism"] is False
    assert out["agreement"]


def test_explicit_chain_below_the_whole_group_is_a_spec_error(tmp_path, capsys):
    # with G_0 = 2Z/8 the cube test saw only cubes based in G_0 and the
    # derivative test every point: the verdicts split, with no witness
    spec = {"kind": "poly", "domain_group": {"type": "cyclic_product", "moduli": [8]},
            "domain_filtration": {"type": "explicit", "chain": [[0, 2, 4, 6], [0, 4]]},
            "target_group": {"type": "cyclic_product", "moduli": [4]},
            "target_filtration": {"type": "maximal_degree_k", "k": 1},
            "map": [0, 0, 0, 0, 0, 1, 0, 0]}
    assert run_main(tmp_path, spec) == 2
    captured = capsys.readouterr()
    assert captured.err == ("spec error: /domain_filtration/chain/0: G_0 holds 4 of the "
                            "group's 8 elements, not all of them\n")
    assert captured.out == ""


def test_poly_on_a_random_map_decides_without_the_weight_0_closure(tmp_path, capsys):
    # Z/16 (lcs) into D_1(Z/16); the test above takes Z/16 > 8Z/16
    spec = _poly_spec(16, 1)
    rng = random.Random(16)
    spec["map"] = [rng.randrange(16) for _ in range(16)]
    start = time.perf_counter()
    assert run_main(tmp_path, spec) == 0
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["is_polynomial"] is False and out["is_cube_morphism"] is False
    assert out["agreement"]


def test_poly_below_the_cube_cap_exits_0():
    # the 15,625 5-cubes of Z/5
    out = cli.run(_poly_spec(5, 4))
    assert out["is_polynomial"] and out["is_cube_morphism"]


def test_product_of_factors_of_different_step(tmp_path, capsys):
    # the product has step 2 and decides its 3-cubes factor-wise
    space = {"source": "product", "factors": [Z2D1, Z2D2]}
    assert run_main(tmp_path, {"kind": "decompose", "cubespace": space}) == 0
    assert json.loads(capsys.readouterr().out)["factor_sizes"] == [1, 2, 4]
    assert run_main(tmp_path, {"kind": "translations", "cubespace": space}) == 0
    assert json.loads(capsys.readouterr().out)["transitive"]


def test_translations_of_heights_that_do_not_nest_report_the_reason(tmp_path, capsys):
    # D2(Z/2) without the 1-cube (0, 1) has a height-2 translation that is
    # not of height 1, so the heights are no filtration of Tran_1
    from nilcube.cubespace import abelian_Dk
    from nilcube.groups import CyclicProduct

    d2 = abelian_Dk(CyclicProduct((2,)), 2)
    tables = _export_tables({n: d2.cubes(n) for n in (1, 2, 3)})
    tables["1"].remove([0, 1])
    spec = {"kind": "translations",
            "cubespace": {"source": "explicit", "size": 2, "step": 2, "tables": tables}}
    assert run_main(tmp_path, spec) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["reason"] == (
        "a height-2 translation is not a height-1 translation")


@pytest.mark.parametrize("kind", ["decompose", "translations"])
@pytest.mark.parametrize("step", [None, 3], ids=["no-step", "step-beyond-tables"])
def test_space_without_step_is_a_spec_error(tmp_path, capsys, kind, step):
    # decompose and translations need cubes up to dimension step + 1
    spec = {"kind": kind, "cubespace": {"source": "explicit", "size": 2, "step": step,
                                        "tables": {"1": [[0, 0], [0, 1], [1, 0], [1, 1]]}}}
    assert_spec_error(tmp_path, capsys, spec, "/cubespace")


def test_decompose_of_a_non_nilspace_reports_the_reason(tmp_path, capsys):
    # only the constant squares: the one-flip corners have no completion
    spec = {"kind": "decompose",
            "cubespace": {"source": "explicit", "size": 2, "step": 1,
                          "tables": {"1": [[0, 0], [0, 1], [1, 0], [1, 1]],
                                     "2": [[0, 0, 0, 0], [1, 1, 1, 1]]}}}
    assert run_main(tmp_path, spec) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    out = json.loads(captured.out)
    assert out["kind"] == "decompose" and not out["decomposed"]
    assert "action not well defined" in out["reason"]


def test_decompose_refuses_a_space_that_is_not_its_own_step_factor(tmp_path, capsys):
    # every map on two points is a cube, so 0 ~_1 1: the 1-factor has one
    # point, and no decomposition of it covers X
    spec = {"kind": "decompose",
            "cubespace": {"source": "explicit", "size": 2, "step": 1,
                          "tables": {str(n): [list(q) for q in itertools.product((0, 1),
                                                                                 repeat=1 << n)]
                                     for n in (1, 2)}}}
    assert run_main(tmp_path, spec) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out) == {"kind": "decompose", "decomposed": False,
                                        "reason": "X is not its own 1-factor: 0 ~_1 1"}


@pytest.mark.parametrize("space,reason", [
    ({"source": "group", "group": Z2, "filtration": {"type": "maximal_degree_k", "k": 0}},
     "X is not ergodic: (0, 1) is not a 1-cube"),
    ({"source": "explicit", "size": 2, "step": 0, "tables": {"1": [[0, 0], [1, 1]]}},
     "X is not ergodic: (0, 1) is not a 1-cube"),
    ({"source": "explicit", "size": 2, "step": 1,
      "tables": {"1": [[0, 0], [1, 1]], "2": [[0, 0, 0, 0], [1, 1, 1, 1]]}},
     "action not well defined at (0, 1): 0 completions"),
], ids=["D0(Z/2)", "explicit-step-0", "explicit-step-1"])
def test_decompose_refuses_a_space_that_is_not_ergodic(tmp_path, capsys, space, reason):
    # a 0-step ergodic space is one point: two points that span no 1-cube
    # are refused at X_0; from step 1 on the top action fails first
    assert run_main(tmp_path, {"kind": "decompose", "cubespace": space}) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out) == {"kind": "decompose", "decomposed": False,
                                        "reason": reason}


def test_cohomology_class_count():
    spec = {"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "count_classes", "k": 1}
    out = cli.run(spec)
    assert out["cocycles"] == 2 and out["classes"] == 2


@pytest.mark.parametrize("space,A,k,counts", [
    (Z2D1, [2], 3, (2, 2)),
    (dict(Z2D1, group={"type": "cyclic_product", "moduli": [3]}), [3], 1, (9, 3)),
    (dict(Z2D1, group={"type": "cyclic_product", "moduli": [3]}), [3], 2, (9, 9)),
    (dict(Z2D1, group={"type": "cyclic_product", "moduli": [4]}), [4], 1, (64, 4)),
], ids=["d1z2-k3", "d1z3-k1", "d1z3-k2", "d1z4-z4"])
def test_cohomology_class_count_past_the_table_cap(space, A, k, counts):
    # |A|^|Cu^(k+1)| tables are past cohomology.COCYCLE_TABLE_CAP, the
    # law systems within cli.CUBE_CAP entries
    spec = {"kind": "cohomology", "cubespace": space, "A": A, "op": "count_classes", "k": k}
    out = cli.run(spec)
    assert (out["cocycles"], out["classes"]) == counts


def test_cohomology_is_coboundary():
    entries = [[[0, 0, 0, 0], 0], [[0, 0, 1, 1], 0], [[0, 1, 0, 1], 0], [[0, 1, 1, 0], 0],
               [[1, 0, 0, 1], 0], [[1, 0, 1, 0], 0], [[1, 1, 0, 0], 0], [[1, 1, 1, 1], 0]]
    spec = {"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "is_coboundary",
            "cocycle": {"k": 1, "entries": entries}}
    out = cli.run(spec)
    assert out["is_coboundary"]


# the nonzero degree-1 cocycle on the degree-1 structure of Z/2
EXTEND_ENTRIES = [[[0, 0, 0, 0], 0], [[0, 0, 1, 1], 0], [[0, 1, 0, 1], 0], [[0, 1, 1, 0], 1],
                  [[1, 0, 0, 1], 1], [[1, 0, 1, 0], 0], [[1, 1, 0, 0], 0], [[1, 1, 1, 1], 0]]


ZERO_COCYCLE = {"k": 1, "entries": [[q, 0] for q, _ in EXTEND_ENTRIES]}

# the model extension M(rho) of D_1(Z/2) by Z/2 for that cocycle: four
# points, with structure group Z/4 at level 1
EXTENSION_SPACE = {"source": "extension", "base": Z2D1, "A": [2],
                   "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}}


def _run_cli_limited(spec):
    """The CLI on spec in a process of its own with a 2 GB address-space
    limit, for specs whose builds would run out of memory; the finished
    process and its wall time."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

    src = Path(cli.__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nilcube.cli"], input=json.dumps(spec),
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit_memory)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("spec,pointer", [
    ({"kind": "factorize", "group": {"type": "heisenberg", "modulus": 400},
      "filtration": {"type": "lcs"}, "cube": {"n": 0, "values": [0]}}, "/group"),
    ({"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [10 ** 8]},
      "filtration": {"type": "lcs"}, "cube": {"n": 0, "values": [0]}}, "/group"),
    ({"kind": "extend", "cubespace": Z2D1, "A": [10 ** 8], "cocycle": ZERO_COCYCLE}, "/A"),
    ({"kind": "check", "cubespace": {"source": "extension", "base": Z2D1, "A": [10 ** 8],
                                     "cocycle": ZERO_COCYCLE}}, "/cubespace/A"),
], ids=["H400", "Z/10^8", "extend-A-10^8", "extension-A-10^8"])
def test_points_past_the_cube_cap_exit_2_at_once(spec, pointer):
    # a filtration holds the whole group, and D_1(A) every element of A:
    # building one for these orders (64,000,000 and 10^8) runs out of
    # memory
    proc, seconds = _run_cli_limited(spec)
    assert proc.returncode == 2
    assert seconds < 1.0
    assert proc.stderr.startswith("spec error: %s:" % pointer)
    assert "cube cap" in proc.stderr and proc.stdout == ""


def _deep_explicit(step):
    return {"source": "explicit", "size": 2, "step": step,
            "tables": {"1": [[0, 0], [0, 1], [1, 0], [1, 1]]}}


@pytest.mark.parametrize("spec,pointer", [
    # 2^n was formed before the count was compared, and written out in
    # the message
    ({"kind": "factorize", "group": Z2, "filtration": D1, "cube": {"n": 10 ** 6, "values": [0, 1]}},
     "/cube/values"),
    ({"kind": "factorize", "group": Z2, "filtration": D1,
      "cube": {"n": 10 ** 11, "values": [0, 1]}}, "/cube/values"),
    ({"kind": "complete", "group": Z2, "filtration": D1,
      "corner": {"n": 10 ** 11, "values": [0, 1, 1]}}, "/corner/values"),
    # a cocycle degree k asks for (k + 1)-cubes
    ({"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "count_classes", "k": 10 ** 6},
     "/k"),
    ({"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "is_coboundary",
      "cocycle": {"k": 10 ** 11, "entries": EXTEND_ENTRIES}}, "/cocycle/k"),
    # maximal_degree_k stores k + 1 levels, and its step k asks for
    # (k + 1)-cubes in translations and decompose
    ({"kind": "factorize", "group": Z2, "filtration": {"type": "maximal_degree_k", "k": 10 ** 11},
      "cube": {"n": 1, "values": [0, 1]}}, "/filtration/k"),
    ({"kind": "translations", "cubespace": dict(Z2D1, filtration={"type": "maximal_degree_k",
                                                                   "k": 10 ** 6})},
     "/cubespace/filtration/k"),
    ({"kind": "translations", "cubespace": dict(Z2D1, filtration={"type": "maximal_degree_k",
                                                                   "k": cli.CUBE_CAP - 1})},
     "/cubespace"),
    # an explicit space's points were not held to the cube cap
    ({"kind": "check", "cubespace": {"source": "explicit", "size": 200000, "step": 1,
                                     "tables": {"1": [[0, 0]]}}}, "/cubespace/size"),
    ({"kind": "translations", "cubespace": _deep_explicit(10 ** 6)}, "/cubespace"),
    ({"kind": "decompose", "n_max": 2, "cubespace": _deep_explicit(10 ** 11)}, "/cubespace"),
    # an arrow space of order k asks its base about (n + k)-cubes
    ({"kind": "check", "n_max": 2, "cubespace": {"source": "arrow", "base": Z2D1, "k": 10 ** 6}},
     "/cubespace"),
    ({"kind": "check", "n_max": 3, "cubespace": {"source": "partial", "point": 0, "base": {
        "source": "arrow", "base": Z2D1, "k": cli.N_MAX_CAP - 3}}}, "/cubespace"),
], ids=["factorize-n-10^6", "factorize-n-10^11", "complete-n-10^11", "count-classes-k-10^6",
        "cocycle-k-10^11", "filtration-k-10^11", "translations-filtration-k-10^6",
        "translations-step-above-n-max-cap", "explicit-size-200000",
        "translations-explicit-step-10^6", "decompose-explicit-step-10^11", "arrow-k-10^6",
        "partial-of-arrow-past-n-max-cap"])
def test_huge_size_step_degree_or_dimension_exits_2_at_once(spec, pointer):
    proc, seconds = _run_cli_limited(spec)
    assert proc.returncode == 2, proc.stderr
    assert seconds < 1.0
    assert proc.stderr.startswith("spec error: %s:" % pointer), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("spec,code", [
    # the largest n_max and arrow order whose cubes stay within N_MAX_CAP
    ({"kind": "check", "n_max": 1, "cubespace": {"source": "arrow", "base": Z2D1,
                                                 "k": cli.N_MAX_CAP - 1}}, 1),
    ({"kind": "factorize", "group": Z2, "filtration": {"type": "maximal_degree_k",
                                                       "k": cli.CUBE_CAP - 1},
      "cube": {"n": 1, "values": [0, 1]}}, 0),
], ids=["arrow-at-the-cap", "filtration-levels-at-the-cap"])
def test_dimension_and_levels_at_their_caps_are_answered(tmp_path, capsys, spec, code):
    assert run_main(tmp_path, spec) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [64, 10 ** 6])
def test_a_value_count_is_checked_without_writing_out_2_to_the_n(tmp_path, capsys, n):
    spec = {"kind": "complete", "group": Z2, "filtration": D1,
            "corner": {"n": n, "values": [0, 1, 1]}}
    assert_spec_error(tmp_path, capsys, spec, "/corner/values")
    assert run_main(tmp_path, spec) == 2
    assert capsys.readouterr().err.rstrip().endswith("expected 2^%d - 1 values" % n)
    spec["corner"]["n"] = 3
    assert run_main(tmp_path, spec) == 2
    assert capsys.readouterr().err.rstrip().endswith("expected 7 values")


def test_extend_round_trip():
    spec = {"kind": "extend", "cubespace": Z2D1, "A": [2],
            "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}}
    out = cli.run(spec)
    assert out["obvious_section_round_trip"]
    assert out["axioms"]["is_nilspace"]
    assert out["size"] == 4


def test_extension_source_validates_its_cocycle_once(monkeypatch):
    from nilcube import cohomology as coh

    calls = []
    validate = coh.validate_cocycle

    def counted(rho):
        calls.append(rho)
        return validate(rho)

    monkeypatch.setattr(coh, "validate_cocycle", counted)
    reports = {}
    for kind in ("check", "decompose", "export"):
        code, out, err = _call_main(json.dumps({"kind": kind, "n_max": 2,
                                                "cubespace": EXTENSION_SPACE}))
        assert (code, err) == (0, "")
        reports[kind] = json.loads(out)
    assert len(calls) == 3
    assert reports["check"] == {
        "axioms": {"completion": {"1": {"complete": True, "corners": 4, "unique": False,
                                        "witness": None},
                                  "2": {"complete": True, "corners": 64, "unique": True,
                                        "witness": None}},
                   "composition_checks": 308, "composition_ok": True,
                   "composition_witness": None, "ergodic_ok": True, "ergodic_witness": None,
                   "is_nilspace": True, "n_max": 2, "step": 1},
        "kind": "check", "n_max": 2, "size": 4}
    assert reports["decompose"] == {
        "factor_sizes": [1, 4, 4], "kind": "decompose",
        "levels": [{"fibre_size": 4, "invariants": [4], "k": 1, "verified_dims": [1, 2]},
                   {"fibre_size": 1, "invariants": [], "k": 2, "verified_dims": [1, 2]}],
        "n_max": 2, "step": 2}
    export = reports["export"]
    assert (export["size"], export["step"]) == (4, 2)
    assert {n: len(qs) for n, qs in export["tables"].items()} == {"1": 16, "2": 64}


def test_check_names_a_corner_with_no_completion():
    # every pair is a 1-cube, but the only squares are (a, b, a, b) and
    # (a, a, b, b): the corner (0, 1, 1) closes to neither
    squares = sorted({(a, b, a, b) for a in range(3) for b in range(3)}
                     | {(a, a, b, b) for a in range(3) for b in range(3)})
    spec = {"kind": "check", "n_max": 2,
            "cubespace": {"source": "explicit", "size": 3,
                          "tables": {"1": [[a, b] for a in range(3) for b in range(3)],
                                     "2": [list(q) for q in squares]}}}
    code, out, err = _call_main(json.dumps(spec))
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "axioms": {"completion": {"1": {"complete": True, "corners": 3, "unique": False,
                                        "witness": None},
                                  "2": {"complete": False, "corners": 27, "unique": False,
                                        "witness": [0, 1, 1]}},
                   "composition_checks": 90, "composition_ok": True,
                   "composition_witness": None, "ergodic_ok": True, "ergodic_witness": None,
                   "is_nilspace": False, "n_max": 2, "step": None},
        "kind": "check", "size": 3}


def test_export_reimport_round_trip():
    exported = cli.run({"kind": "export", "cubespace": Z2D1, "n_max": 3})
    spec = {"kind": "check",
            "cubespace": {"source": "explicit", "size": exported["size"],
                          "step": exported["step"], "tables": exported["tables"]}}
    out = cli.run(spec)
    assert out["axioms"]["is_nilspace"] and out["axioms"]["step"] == 1
    assert len(exported["tables"]["2"]) == 8


def test_coset_source():
    spec = {"kind": "check",
            "cubespace": {"source": "coset", "group": HEIS,
                          "filtration": {"type": "lcs"}, "gamma": [1]}}
    out = cli.run(spec, n_max=2)
    assert out["axioms"]["is_nilspace"]


def test_quotient_source():
    # 0 + 3 = 1 + 2 in (Z/2)^2: the square is a parallelogram
    spec = next(s for s in FUZZ_BASES if s.get("group") == H2_MOD_CENTRE)
    assert cli.run(spec) == {"kind": "factorize", "n_max": 3, "is_cube": True,
                             "coefficients": [0, 1, 2, 0]}


def test_arrow_source_fails_ergodicity(tmp_path, capsys):
    spec = {"kind": "check", "cubespace": {"source": "arrow", "base": Z2D1, "k": 1},
            "n_max": 2}
    assert run_main(tmp_path, spec) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["axioms"]["ergodic_ok"]


def test_invalid_cocycle_is_a_spec_error():
    entries = [[[0, 0, 0, 0], 1], [[0, 0, 1, 1], 0], [[0, 1, 0, 1], 0], [[0, 1, 1, 0], 0],
               [[1, 0, 0, 1], 0], [[1, 0, 1, 0], 0], [[1, 1, 0, 0], 0], [[1, 1, 1, 1], 0]]
    spec = {"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "is_coboundary",
            "cocycle": {"k": 1, "entries": entries}}
    with pytest.raises(cli.SpecError):
        cli.run(spec)


# the cube set of dimension 2 is not closed under the cube symmetries
ASYMMETRIC = {"source": "explicit", "size": 2, "step": None,
              "tables": {"1": [[0, 0], [0, 1], [1, 0], [1, 1]], "2": [[0, 0, 0, 1]]}}


def test_cocycle_on_a_space_without_symmetric_cubes_is_a_spec_error(tmp_path, capsys):
    spec = {"kind": "cohomology", "op": "is_coboundary", "A": [2], "cubespace": ASYMMETRIC,
            "cocycle": {"k": 1, "entries": [[[0, 0, 0, 1], 0]]}}
    assert_spec_error(tmp_path, capsys, spec, "/cocycle")
    spec = {"kind": "cohomology", "op": "count_classes", "A": [2], "cubespace": ASYMMETRIC,
            "k": 1}
    assert run_main(tmp_path, spec) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cocycles"] == 0 and out["classes"] == 0


N_MAX_SPECS = {
    "check": {"kind": "check", "cubespace": Z2D1},
    "decompose": {"kind": "decompose", "cubespace": Z2D1},
    "export": {"kind": "export", "cubespace": Z2D1},
    "extend": {"kind": "extend", "cubespace": Z2D1, "A": [2],
               "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}},
}


@pytest.mark.parametrize("kind", sorted(N_MAX_SPECS))
@pytest.mark.parametrize("n_max", [0, -1, -2])
def test_n_max_below_1_is_a_spec_error(tmp_path, capsys, kind, n_max):
    assert_spec_error(tmp_path, capsys, dict(N_MAX_SPECS[kind], n_max=n_max), "/n_max")
    assert run_main(tmp_path, N_MAX_SPECS[kind], "--n-max", str(n_max)) == 2
    assert capsys.readouterr().err.startswith("spec error: /n_max:")
    assert run_main(tmp_path, dict(N_MAX_SPECS[kind], n_max=1)) == 0


@pytest.mark.parametrize("kind", sorted(N_MAX_SPECS))
@pytest.mark.parametrize("n_max", [11, 40, 100000])
def test_n_max_above_the_cap_exits_2_at_once(tmp_path, capsys, kind, n_max):
    start = time.perf_counter()
    assert_spec_error(tmp_path, capsys, dict(N_MAX_SPECS[kind], n_max=n_max), "/n_max")
    assert run_main(tmp_path, N_MAX_SPECS[kind], "--n-max", str(n_max)) == 2
    assert capsys.readouterr().err.startswith("spec error: /n_max:")
    assert time.perf_counter() - start < 1.0
    assert n_max > cli.N_MAX_CAP


def test_extend_over_a_base_cube_that_does_not_lift_reports_the_reason(tmp_path, capsys):
    tables = {"1": [[0, 0], [1, 0], [1, 1]],
              "2": [entry[0] for entry in EXTEND_ENTRIES]}
    spec = dict(N_MAX_SPECS["extend"], n_max=2,
                cubespace={"source": "explicit", "size": 2, "step": 1, "tables": tables})
    assert run_main(tmp_path, spec) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["obvious_section_round_trip"] is False
    assert out["reason"] == "base cube does not lift"


def test_text_format(tmp_path, capsys):
    spec = {"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [2]},
            "filtration": {"type": "maximal_degree_k", "k": 1},
            "cube": {"n": 1, "values": [0, 1]}}
    assert run_main(tmp_path, spec, "--format", "text") == 0
    out = capsys.readouterr().out
    assert "is_cube: True" in out


# one spec of each kind, answered (exit 0) or failed with a witness (exit 1)
ONE_SPEC_PER_KIND = {
    "check": {"kind": "check", "cubespace": {"source": "arrow", "base": Z2D1, "k": 1},
              "n_max": 2},
    "factorize": {"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [4]},
                  "filtration": {"type": "maximal_degree_k", "k": 1},
                  "cube": {"n": 2, "values": [0, 1, 0, 2]}},
    "complete": {"kind": "complete", "group": HEIS, "filtration": {"type": "lcs"},
                 "corner": {"n": 2, "values": [0, 1, 2]}},
    "poly": {"kind": "poly", "domain_group": {"type": "cyclic_product", "moduli": [3]},
             "domain_filtration": {"type": "lcs"},
             "target_group": {"type": "cyclic_product", "moduli": [3]},
             "target_filtration": {"type": "maximal_degree_k", "k": 2}, "map": [0, 1, 1]},
    "decompose": {"kind": "decompose", "cubespace": Z2D2, "n_max": 2},
    "translations": {"kind": "translations", "cubespace": Z2D2},
    "cohomology": {"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "count_classes",
                   "k": 1},
    "extend": {"kind": "extend", "cubespace": Z2D1, "A": [2], "n_max": 2,
               "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}},
    "export": {"kind": "export", "cubespace": Z2D1, "n_max": 2},
}


def _sorted_object(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@pytest.mark.parametrize("kind", sorted(ONE_SPEC_PER_KIND))
def test_json_report_is_one_line_with_sorted_keys(tmp_path, capsys, kind):
    spec = ONE_SPEC_PER_KIND[kind]
    try:
        code, want = 0, cli.run(spec)
    except cli.MathFailure as e:
        code, want = 1, e.report
    assert run_main(tmp_path, spec) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    # JSON has no tuples: a witness tuple reads back as a list
    assert json.loads(out, object_pairs_hook=_sorted_object) == json.loads(json.dumps(want))


@pytest.mark.parametrize("spec,pointer", [
    ({"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [2]},
      "filtration": {"type": "maximal_degree_k", "k": 1},
      "cube": {"n": 1, "values": [0, 5]}}, "/cube/values/1"),
    ({"kind": "factorize", "group": {"type": "cyclic_product", "moduli": [2]},
      "filtration": {"type": "maximal_degree_k", "k": 1},
      "cube": {"n": 1, "values": [0, -1]}}, "/cube/values/1"),
    ({"kind": "complete", "group": HEIS, "filtration": {"type": "lcs"},
      "corner": {"n": 2, "values": [0, 9, 1]}}, "/corner/values/1"),
], ids=["factorize-above", "factorize-negative", "complete-above"])
def test_out_of_range_element_is_a_spec_error(tmp_path, capsys, spec, pointer):
    assert_spec_error(tmp_path, capsys, spec, pointer)


@pytest.mark.parametrize("group,filtration,pointer", [
    ({"type": "heisenberg", "modulus": 1}, {"type": "lcs"}, "/group/modulus"),
    ({"type": "table", "table": [[0, 1], [1, 1]]}, {"type": "lcs"}, "/group/table"),
    (HEIS, {"type": "maximal_degree_k", "k": 1}, "/filtration"),
    (dict(H2_MOD_CENTRE, normal=[1]), {"type": "lcs"}, "/group/normal"),
    (dict(H2_MOD_CENTRE, normal=[0, 1]), {"type": "lcs"}, "/group/normal"),
    (dict(H2_MOD_CENTRE, normal=[4, 4]), {"type": "lcs"}, "/group/normal"),
    ({"type": "quotient", "group": {"type": "cyclic_product", "moduli": [4]}, "normal": [0, 1]},
     {"type": "lcs"}, "/group/normal"),
], ids=["heisenberg-modulus-1", "table-not-a-group", "maximal-degree-k-non-abelian",
        "quotient-by-a-set-without-0", "quotient-by-a-subgroup-not-normal",
        "quotient-by-a-repeated-element-not-0", "quotient-by-a-set-not-closed"])
def test_unbuildable_group_or_filtration_is_a_spec_error(tmp_path, capsys, group, filtration,
                                                         pointer):
    spec = {"kind": "factorize", "group": group, "filtration": filtration,
            "cube": {"n": 1, "values": [0, 0]}}
    assert_spec_error(tmp_path, capsys, spec, pointer)


def _explicit(size, tables):
    return {"source": "explicit", "size": size, "tables": tables}


@pytest.mark.parametrize("spec,pointer", [
    ({"kind": "check", "cubespace": _explicit(0, {"1": [[0, 0]]})}, "/cubespace/size"),
    ({"kind": "check", "cubespace": {"source": "arrow", "base": Z2D1, "k": 0}}, "/cubespace/k"),
    ({"kind": "check", "cubespace": {"source": "partial", "base": Z2D1, "point": 7}},
     "/cubespace/point"),
    ({"kind": "factorize", "group": HEIS, "filtration": {"type": "lcs"},
      "cube": {"n": -1, "values": [0]}}, "/cube/n"),
    ({"kind": "complete", "group": HEIS, "filtration": {"type": "lcs"},
      "corner": {"n": -1, "values": []}}, "/corner/n"),
    ({"kind": "cohomology", "cubespace": Z2D1, "A": [2, 3], "op": "count_classes", "k": 1},
     "/A"),
    ({"kind": "check", "cubespace": {"source": "extension", "base": Z2D1, "A": [2, 3],
                                     "cocycle": {"k": 1, "entries": []}}}, "/cubespace/A"),
    ({"kind": "check", "cubespace": _explicit(2, {"1": [[0, 5]]})}, "/cubespace/tables"),
    ({"kind": "check", "cubespace": _explicit(2, {"1": [[0]]})}, "/cubespace/tables"),
    ({"kind": "check", "cubespace": _explicit(2, {"0": [[0]]})}, "/cubespace/tables"),
    ({"kind": "check", "cubespace": _explicit(2, {"0": []})}, "/cubespace/tables"),
    ({"kind": "check", "cubespace": dict(Z2D1, source="coset", gamma=[99])},
     "/cubespace/gamma/0"),
], ids=["explicit-size-0", "arrow-k-0", "partial-point-out-of-range", "factorize-negative-n",
        "complete-negative-n", "A-not-dividing", "extension-A-not-dividing",
        "explicit-point-out-of-range", "explicit-wrong-length", "explicit-0-table-missing-a-point",
        "explicit-0-table-empty", "coset-gamma-out-of-range"])
def test_unbuildable_cubespace_or_dimension_is_a_spec_error(tmp_path, capsys, spec, pointer):
    assert_spec_error(tmp_path, capsys, spec, pointer)


@pytest.mark.parametrize("spec,pointer", [
    ({"kind": "check", "cubespace": {"source": "arrow", "base": Z2D1, "k": "x"}},
     "/cubespace/k"),
    ({"kind": "check", "cubespace": Z2D1, "n_max": "x"}, "/n_max"),
    ({"kind": "factorize", "group": Z2, "filtration": D1, "cube": {"n": 1, "values": [0, "a"]}},
     "/cube/values/1"),
    ({"kind": "factorize", "group": {"type": "cyclic_product", "moduli": ["2"]},
      "filtration": D1, "cube": {"n": 1, "values": [0, 1]}}, "/group/moduli/0"),
    ({"kind": "factorize", "group": Z2, "filtration": D1, "cube": {"n": 1, "values": [0, 1.5]}},
     "/cube/values/1"),
    ({"kind": "factorize", "group": Z2, "filtration": D1, "cube": {"n": True, "values": [0, 1]}},
     "/cube/n"),
    ({"kind": "check", "cubespace": _explicit(2, {"x": [[0, 0]]})}, "/cubespace/tables/x"),
    ({"kind": "check", "cubespace": _explicit(2, {"1": [[0, 0], [0, 1], [1, 0], [1, 1]]})},
     "/cubespace"),
    ({"kind": "cohomology", "cubespace": Z2D1, "A": [2], "op": "count_classes", "k": -1}, "/k"),
    # 1,408 law rows on the 128 3-cubes of D_2(Z/2): 180,224 entries
    ({"kind": "cohomology", "cubespace": Z2D2, "A": [2], "op": "count_classes", "k": 2}, "/k"),
    # counting the 9-cubes of a step-1 space prunes the scan by 2-faces,
    # and this explicit space has no table of 2-cubes to test them on
    ({"kind": "cohomology", "A": [2], "op": "count_classes", "k": 8,
      "cubespace": {"source": "explicit", "size": 2, "step": 1,
                    "tables": {"1": [[0, 0], [0, 1], [1, 0], [1, 1]]}}}, "/k"),
    ({"kind": "extend", "cubespace": Z2D1, "A": [2],
      "cocycle": {"k": 8, "entries": EXTEND_ENTRIES}}, "/cocycle/entries/0/0"),
    # n_max 6 means 12,838,447 morphisms {0,1}^m -> {0,1}^n to try
    (dict(N_MAX_SPECS["check"], n_max=6), "/cubespace"),
    (dict(N_MAX_SPECS["extend"], n_max=6), "/cubespace"),
    # poly names its two groups and filtrations by their own fields
    (dict(_poly_spec(3, 2), domain_group={"type": "cyclic_product", "moduli": [0]}),
     "/domain_group/moduli"),
    (dict(_poly_spec(3, 2), domain_filtration={"type": "upper"}), "/domain_filtration"),
    (dict(_poly_spec(3, 2), target_group={"type": "cyclic_product", "moduli": [0]}),
     "/target_group/moduli"),
    (dict(_poly_spec(3, 2), target_filtration={"type": "upper"}), "/target_filtration"),
], ids=["arrow-k-string", "n-max-string", "cube-value-string", "moduli-string",
        "cube-value-float", "cube-n-bool", "explicit-table-key", "explicit-no-step-above-tables",
        "count-classes-negative-k", "count-classes-beyond-cap",
        "count-classes-beyond-cap-explicit", "cocycle-entry-dimension",
        "check-n-max-beyond-budget", "extend-n-max-beyond-budget", "poly-domain-group",
        "poly-domain-filtration", "poly-target-group", "poly-target-filtration"])
def test_non_integer_or_unanswerable_field_is_a_spec_error(tmp_path, capsys, spec, pointer):
    assert_spec_error(tmp_path, capsys, spec, pointer)


def _late_non_integers(row):
    """row with a string at index 29, and a float and a bool after it."""
    return row[:29] + ["x", 1.5, True] + row[32:]


@pytest.mark.parametrize("spec,pointer", [
    ({"kind": "factorize", "group": {"type": "table", "table": [
        _late_non_integers([(a + b) % 32 for b in range(32)]) if a == 9
        else [(a + b) % 32 for b in range(32)] for a in range(32)]},
      "filtration": {"type": "lcs"}, "cube": {"n": 1, "values": [0, 0]}}, "/group/table/9/29"),
    ({"kind": "check", "cubespace": _explicit(2, {"5": [[0] * 32, _late_non_integers([1] * 32)]})},
     "/cubespace/tables/5/1/29"),
], ids=["group-table-row", "explicit-cube"])
def test_a_late_string_in_a_long_row_is_named_alone(tmp_path, capsys, spec, pointer):
    """Only the first entry that is not an integer is reported, with
    its pointer and value."""
    assert run_main(tmp_path, spec) == 2
    captured = capsys.readouterr()
    assert captured.err == 'spec error: %s: "x" is not an integer\n' % pointer
    assert captured.out == ""


# -- fuzz: one leaf of a small valid spec replaced by a value of another type

def _export_tables(cubes):
    return {str(n): [list(q) for q in sorted(qs)] for n, qs in cubes.items()}


def _fuzz_bases():
    from nilcube.cubespace import abelian_Dk
    from nilcube.groups import CyclicProduct

    Z4 = {"type": "cyclic_product", "moduli": [4]}
    d1 = abelian_Dk(CyclicProduct((2,)), 1)
    tables = {n: d1.cubes(n) for n in (1, 2)}
    doctored = {1: tables[1], 2: sorted(tables[2])[1:]}
    d2 = abelian_Dk(CyclicProduct((2,)), 2)
    # explicit D1(Z/2) x explicit D2(Z/2): a composite space of step 2
    product = {"source": "product", "factors": [
        {"source": "explicit", "size": 2, "step": 1, "tables": _export_tables(tables)},
        {"source": "explicit", "size": 2, "step": 2,
         "tables": _export_tables({n: d2.cubes(n) for n in (1, 2, 3)})}]}
    return [
        {"kind": "factorize", "group": Z2, "filtration": D1, "cube": {"n": 1, "values": [0, 1]}},
        {"kind": "factorize", "group": Z4, "filtration": D1,
         "cube": {"n": 2, "values": [0, 1, 2, 3]}},
        {"kind": "factorize", "group": HEIS, "filtration": {"type": "lcs"},
         "cube": {"n": 2, "values": [0, 1, 2, 7]}},
        {"kind": "complete", "group": Z2, "filtration": D1,
         "corner": {"n": 2, "values": [0, 1, 1]}},
        {"kind": "complete", "group": Z4, "filtration": D1,
         "corner": {"n": 2, "values": [0, 1, 3]}},
        {"kind": "complete", "group": HEIS, "filtration": {"type": "lcs"},
         "corner": {"n": 2, "values": [0, 1, 2]}},
        {"kind": "check", "cubespace": {"source": "explicit", "size": 2, "step": 1,
                                        "tables": _export_tables(tables)}},
        {"kind": "check", "cubespace": {"source": "explicit", "size": 2, "step": 1,
                                        "tables": _export_tables(doctored)}},
        {"kind": "decompose", "n_max": 2,
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(tables)}},
        {"kind": "decompose", "n_max": 2,
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(doctored)}},
        {"kind": "translations",
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(tables)}},
        {"kind": "translations",
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(doctored)}},
        {"kind": "decompose", "n_max": 2, "cubespace": product},
        {"kind": "translations", "cubespace": product},
        {"kind": "cohomology", "op": "is_coboundary", "A": [2],
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(tables)},
         "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}},
        {"kind": "cohomology", "op": "count_classes", "A": [2], "k": 1,
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(tables)}},
        {"kind": "extend", "A": [2], "n_max": 2,
         "cubespace": {"source": "explicit", "size": 2, "step": 1,
                       "tables": _export_tables(tables)},
         "cocycle": {"k": 1, "entries": EXTEND_ENTRIES}},
        {"kind": "check", "n_max": 2, "cubespace": {"source": "arrow", "base": Z2D1, "k": 1}},
    ] + [{"kind": kind, "n_max": 2, "cubespace": space}
         for space in (H2_SPACE, Z2D2, dict(H2_SPACE, source="coset", gamma=[1]))
         for kind in ("check", "decompose", "translations", "export")
    ] + [{"kind": kind, "n_max": 2, "cubespace": EXTENSION_SPACE}
         for kind in ("check", "decompose", "export")
    ] + [{"kind": "factorize", "group": H2_MOD_CENTRE, "filtration": {"type": "lcs"},
          "cube": {"n": 2, "values": [0, 1, 2, 3]}}]


FUZZ_BASES = _fuzz_bases()
def test_count_classes_just_under_the_point_cap_is_answered_at_once():
    # the coboundary matrix has a column per point: its Smith diagonal is
    # taken from the transpose, whose column transform is rows x rows
    spec = copy.deepcopy(next(s for s in FUZZ_BASES if s.get("op") == "count_classes"))
    spec["cubespace"]["size"] = 99999
    proc, seconds = _run_cli_limited(spec)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 1.0
    out = json.loads(proc.stdout)
    assert (out["cocycles"], out["classes"]) == (2, 2)


def test_is_coboundary_just_under_the_point_cap_is_answered_at_once():
    # only the points on some 2-cube are unknowns: f is 0 on the others
    spec = copy.deepcopy(next(s for s in FUZZ_BASES if s.get("op") == "is_coboundary"))
    spec["cubespace"]["size"] = 99999
    proc, seconds = _run_cli_limited(spec)
    assert proc.returncode == 0, proc.stderr
    assert seconds < 1.0
    out = json.loads(proc.stdout)
    # the cocycle of EXTEND_ENTRIES is the nontrivial class on D_1(Z/2)
    assert (out["is_coboundary"], out["function"]) == (False, None)


def _decompose_of_padded_d1z2(size):
    """The decompose fuzz base on D_1(Z/2)'s tables, with size points."""
    spec = copy.deepcopy(next(s for s in FUZZ_BASES if s["kind"] == "decompose"))
    spec["cubespace"]["size"] = size
    return spec


@pytest.mark.parametrize("size", [2000, 99999])
def test_decompose_with_too_many_point_pairs_exits_2_at_once(size):
    # the level relations of X_0 and X_1 read a one-flip map per pair of
    # points: 2 C(2000, 2) = 3,998,000 are more than the cube cap
    proc, seconds = _run_cli_limited(_decompose_of_padded_d1z2(size))
    assert proc.returncode == 2, proc.stderr
    assert seconds < 1.0
    assert proc.stderr.startswith("spec error: /cubespace: the level relations read "
                                  "%d one-flip maps" % (size * (size - 1)))
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_decompose_with_few_point_pairs_reports_the_reason():
    # 2 C(300, 2) = 89,700 one-flip maps are under the cap: point 2 lies on
    # no square with 0, so no corner through both completes
    proc, _ = _run_cli_limited(_decompose_of_padded_d1z2(300))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    out = json.loads(proc.stdout)
    assert not out["decomposed"]
    assert out["reason"] == "action not well defined at (0, 2): 0 completions"


# Point-cap sweep specs left out because they still take seconds, each
# with the open ROADMAP item that mends it: (kind, n_max, reason).
POINT_CAP_SLOW = ()


def _sizes_just_under_the_point_cap(obj):
    """A copy of obj with every "size" leaf set to 99,999."""
    if isinstance(obj, dict):
        return {key: 99999 if key == "size" else _sizes_just_under_the_point_cap(value)
                for key, value in obj.items()}
    if isinstance(obj, list):
        return [_sizes_just_under_the_point_cap(value) for value in obj]
    return obj


# each fuzz base with a size, by index, at its own n_max, at n_max 2, the
# first with a corner scan past its first two vertices, and at n_max 1,
# where the cube counts refuse least
POINT_CAP_SWEEP = [
    (i, n_max) for i, spec in enumerate(FUZZ_BASES) if '"size"' in json.dumps(spec)
    for n_max in dict.fromkeys((spec.get("n_max", 3), 2, 1))
    if (spec["kind"], n_max) not in {(kind, n) for kind, n, _ in POINT_CAP_SLOW}]


@pytest.mark.parametrize("base,n_max", POINT_CAP_SWEEP, ids=[
    "%s-%d-n_max-%d" % (FUZZ_BASES[i]["kind"], i, n_max) for i, n_max in POINT_CAP_SWEEP])
def test_every_space_just_under_the_point_cap_exits_at_once(base, n_max):
    spec = dict(_sizes_just_under_the_point_cap(FUZZ_BASES[base]), n_max=n_max)
    proc, seconds = _run_cli_limited(spec)
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr
    assert seconds < 1.0


def _check_of_padded_d1z2(size):
    """The check fuzz base on D_1(Z/2)'s tables, with size points, at n_max 2."""
    spec = copy.deepcopy(next(s for s in FUZZ_BASES if s["kind"] == "check"))
    spec["cubespace"]["size"] = size
    return dict(spec, n_max=2)


@pytest.mark.parametrize("size", [317, 99999])
def test_check_past_the_corner_scan_cap_exits_2_at_once(size):
    # the 2-corner scan tries every point after every point at its second
    # vertex, which no cube set counts: the tables hold only 2 points
    proc, seconds = _run_cli_limited(_check_of_padded_d1z2(size))
    assert proc.returncode == 2, proc.stderr
    assert seconds < 1.0
    assert proc.stderr.startswith("spec error: /cubespace: the 2-corner scan reads %d maps "
                                  "at its second vertex, above the check cap" % size ** 2)


def test_check_under_the_corner_scan_cap_answers():
    # 316^2 = 99,856 maps: the padded points lie on no 1-cube
    proc, _ = _run_cli_limited(_check_of_padded_d1z2(316))
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert out["size"] == 316 and out["axioms"]["ergodic_ok"] is False


FUZZ_VALUES = ["x", "", 1.5, -0.0, True, False, None, [], [0], -2, -1, 0, 2, 3, 4, 8,
               10 ** 6, 10 ** 11]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _call_main(text):
    """cli.main on text as stdin, in-process; (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        return cli.main([]), sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@given(st.data())
@settings(max_examples=300, deadline=timedelta(seconds=20))
def test_fuzzed_spec_exits_0_1_or_2_without_traceback(data):
    spec = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    path = data.draw(st.sampled_from(list(_leaf_paths(spec))))
    holder = spec
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
    code, out, err = _call_main(json.dumps(spec))
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("spec error: /")
    else:
        json.loads(out)


# -- relabelling fuzz: explicit spaces with their points renumbered

# report fields that name points, elements or maps, so change with the labels
LABELLED_FIELDS = {"composition_witness", "ergodic_witness", "elements", "heights",
                   "function", "reason", "witness"}


def _relabel_space(space, rng):
    """(space with the points of each explicit table, or the elements of a
    group table other than the identity 0, renumbered by a seeded
    permutation, that permutation if space itself is explicit or a group,
    else None)."""
    if space.get("source") == "explicit":
        perm = rng.sample(range(space["size"]), space["size"])
        return dict(space, tables={n: [[perm[x] for x in q] for q in qs]
                                   for n, qs in space["tables"].items()}), perm
    if space.get("source") == "group" and space["group"]["type"] == "table":
        rows = space["group"]["table"]
        perm = [0] + rng.sample(range(1, len(rows)), len(rows) - 1)
        table = [[None] * len(rows) for _ in rows]
        for a, row in enumerate(rows):
            for b, c in enumerate(row):
                table[perm[a]][perm[b]] = perm[c]
        return dict(space, group={"type": "table", "table": table}), perm
    if space.get("source") == "product":
        return dict(space, factors=[_relabel_space(f, rng)[0] for f in space["factors"]]), None
    return space, None


def _relabelled(spec, rng):
    """spec with its cubespace relabelled, and a cocycle on it alike."""
    space, perm = _relabel_space(spec["cubespace"], rng)
    out = dict(spec, cubespace=space)
    if "cocycle" in spec:
        out["cocycle"] = dict(spec["cocycle"], entries=[[[perm[x] for x in q], a]
                                                        for q, a in spec["cocycle"]["entries"]])
    return out


def _invariant_part(code, out, err):
    """The exit code with the report less its labelled fields, or the
    pointer of a spec error."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in LABELLED_FIELDS}
        return obj
    return code, (err.split(":")[1] if code == 2 else strip(json.loads(out)))


def _relabelling_bases():
    """The FUZZ_BASES specs on explicit tables; check, decompose,
    translations and count_classes on the explicit tables of D_1(Z/4),
    D_2(Z/2) and D_2(Z/3); and check, decompose and translations on the
    Cayley tables of Z/4 and H_2 with their lower central series."""
    from nilcube.cubespace import abelian_Dk
    from nilcube.groups import CyclicProduct, Heisenberg

    bases = [s for s in FUZZ_BASES if '"explicit"' in json.dumps(s)]
    for m, k in ((4, 1), (2, 2), (3, 2)):
        X = abelian_Dk(CyclicProduct((m,)), k)
        space = {"source": "explicit", "size": m, "step": k,
                 "tables": _export_tables({n: X.cubes(n) for n in range(1, k + 2)})}
        bases += [{"kind": "check", "n_max": 2, "cubespace": space},
                  {"kind": "decompose", "n_max": 2, "cubespace": space},
                  {"kind": "translations", "cubespace": space},
                  {"kind": "cohomology", "op": "count_classes", "A": [2], "k": 1,
                   "cubespace": space}]
    for G in (CyclicProduct((4,)), Heisenberg(2)):
        table = [[G.op(a, b) for b in G.elements()] for a in G.elements()]
        space = {"source": "group", "group": {"type": "table", "table": table},
                 "filtration": {"type": "lcs"}}
        bases += [{"kind": "check", "n_max": 2, "cubespace": space},
                  {"kind": "decompose", "n_max": 2, "cubespace": space},
                  {"kind": "translations", "cubespace": space}]
    return bases


RELABELLING_BASES = _relabelling_bases()


@pytest.mark.parametrize("spec", RELABELLING_BASES, ids=[
    "%d-%s" % (i, s.get("op", s["kind"])) for i, s in enumerate(RELABELLING_BASES)])
def test_relabelled_explicit_spaces_give_the_same_invariant_answers(spec):
    want = _invariant_part(*_call_main(json.dumps(spec)))
    rng = random.Random(json.dumps(spec, sort_keys=True))
    for _ in range(5):
        assert _invariant_part(*_call_main(json.dumps(_relabelled(spec, rng)))) == want
