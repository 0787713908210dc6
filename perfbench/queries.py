"""queries: a warm stream of independent library questions on prebuilt
filtrations.

Why: the group law and the factorization kernels do almost all the work
and cubespace does none.  Group order (8, 27, 125, and 4 with a degree-2
filtration), cube dimension (2 to 4) and genuine versus perturbed inputs
vary the reject depth and the cost of each question.  No work is shared
between questions: the library keeps no cache on this path.

One pass holds four genuine and four perturbed questions for
every (group, dimension, kind) cell, in a seeded order.  The timed phase
answers whole passes until the run time is used up, so the mix is the
same in every run.
"""

import random

from common import Failures, corner_premise, perturb, random_cube

GROUPS = ("H2", "H3", "H5", "D2(Z/4)")
DIMS = (2, 3, 4)
KINDS = ("membership", "binomial", "complete")
# Genuine questions per (group, dimension, kind) cell and pass, per size;
# "smoke" is a seconds-long stand-in used by the benchmark's own tests.
PER_CELL = {"full": 4, "smoke": 1}


def build(mods, size="full"):
    """The prebuilt filtrations (part of set-up)."""
    g = mods["groups"]
    return {
        "H2": g.make_heisenberg(2)[1],
        "H3": g.make_heisenberg(3)[1],
        "H5": g.make_heisenberg(5)[1],
        "D2(Z/4)": g.maximal_degree_k_filtration(g.CyclicProduct((4,)), 2),
    }


def generate(mods, filts, seed, size="full"):
    """One pass of questions with their expected answers, decided by the
    sigma-equation route (not by factorization)."""
    cg = mods["cubegroups"]
    rng = random.Random(seed)
    questions = []
    for gname in GROUPS:
        filt = filts[gname]
        for n in DIMS:
            top = (1 << n) - 1
            for kind in KINDS:
                for _ in range(PER_CELL[size]):
                    cube = random_cube(rng, filt, n, cg)
                    vertices = range(top) if kind == "complete" else range(top + 1)
                    bad = perturb(rng, cube, filt.group.order, list(vertices))
                    for values, genuine in ((cube, True), (bad, False)):
                        if kind == "complete":
                            expect = corner_premise(cg, filt, values)
                            arg = dict(enumerate(values[:top]))
                        else:
                            expect = cg.is_cube_by_equations(values, filt)
                            arg = values
                        questions.append({"kind": kind, "group": gname, "n": n,
                                          "genuine": genuine, "values": values,
                                          "arg": arg, "expect": expect})
    rng.shuffle(questions)
    return questions


def operations(mods, filts, questions):
    """The library call each question makes: (name, function, arguments).
    Functions are looked up here, so a traced pass calls the wrappers."""
    cg, poly = mods["cubegroups"], mods["poly"]
    ops = []
    for q in questions:
        filt = filts[q["group"]]
        if q["kind"] == "membership":
            ops.append((q["kind"], cg.factorize, (q["arg"], filt)))
        elif q["kind"] == "binomial":
            ops.append((q["kind"], poly.cube_to_binomial, (q["arg"], filt)))
        else:
            ops.append((q["kind"], _complete, (cg, q["arg"], q["n"], filt)))
    return ops


def _complete(cg, corner, n, filt):
    try:
        return cg.complete_corner(corner, n, filt)
    except cg.CornerError as e:
        return e


def check(mods, filts, questions, answers):
    """Count wrong answers against the independent routes."""
    cg, poly = mods["cubegroups"], mods["poly"]
    failures = Failures()
    for i, res, times in answers:
        q = questions[i]
        ok, why = _verdict(cg, poly, filts[q["group"]], q, res)
        if not ok:
            failures.add({"question": _describe(q), "answer": repr(res)[:200], "why": why},
                         times=times)
    return failures


def _verdict(cg, poly, filt, q, res):
    G = filt.group
    n, values, expect = q["n"], q["values"], q["expect"]
    if isinstance(res, Exception) and not isinstance(res, cg.CornerError):
        return False, "exception"
    if q["kind"] == "membership":
        if isinstance(res, cg.Reject):
            return (not expect), "rejected a cube"
        if not expect:
            return False, "accepted a non-cube"
        in_levels = all(c in filt.subgroup(bin(v).count("1")) for v, c in enumerate(res))
        return in_levels and cg.multiply_out(res, n, G) == values, "wrong coefficients"
    if q["kind"] == "binomial":
        if res is None:
            return (not expect), "no binomial form for a cube"
        if not expect:
            return False, "binomial form for a non-cube"
        ext = [poly.binomial_extension(res, [(w >> j) & 1 for j in range(n)], G)
               for w in range(1 << n)]
        return tuple(ext) == values, "binomial form does not restrict to the cube"
    if isinstance(res, cg.CornerError):
        return (not expect), "refused a completable corner"
    if not expect:
        return False, "completed a corner whose faces are not cubes"
    top = (1 << n) - 1
    agrees = tuple(res[:top]) == values[:top]
    return agrees and cg.is_cube_by_equations(res, filt), "completion is not a cube on the corner"


def _describe(q):
    return {k: q[k] for k in ("kind", "group", "n", "genuine", "values", "expect")}


def instances(filts, questions):
    return {
        "group_orders": {g: filts[g].group.order for g in GROUPS},
        "dims": list(DIMS),
        "kinds": list(KINDS),
        "questions_per_pass": len(questions),
    }
