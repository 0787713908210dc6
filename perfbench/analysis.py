"""analysis: whole-space analyses on cold spaces, each task timed on its own.

Why: cubespace, structure, translations and cohomology do the work here
and share it within a task through memo caches and cube sets, so cache
and memory changes show.  The tasks carry the answers the project
records (|Cu^3(H_2)| = 32768, structure invariants [[2, 2], [2]],
translation tower sizes [32, 2], two cocycles and two classes on
D_1(Z/2) at k = 1 and 2) and the targets of the cohomology and
translation-tower work.  H_2 cohomology at k = 2 is left out: validating
its cocycles does not fit in memory.

Every task builds its own spaces, so no task reuses another's caches.
The seed chooses the sampled cubes of the axiom check and the functions
whose coboundaries are tested.
"""

import random

from common import Failures, alternating_sum

COBOUNDARY_FUNCTIONS = 4

# Instances per size, with the answers each task must give.  "smoke" is a
# seconds-long stand-in used by the benchmark's own tests.
SIZES = {
    "full": {"group": ("heisenberg", 2), "census_degrees": (1, 2),
             "expect": {"check": {"is_nilspace": True, "step": 2, "cubes3": 32768},
                        "decompose": {"invariants": [[2, 2], [2]]},
                        "tower": {"sizes": [32, 2], "transitive": True}}},
    "smoke": {"group": ("degree2", 2), "census_degrees": (1,),
              "expect": {"check": {"is_nilspace": True, "step": 2, "cubes3": 128},
                         "decompose": {"invariants": [[], [2]]},
                         "tower": {"sizes": [2, 2], "transitive": True}}},
}
# Cocycle census on D_1(Z/2) with A = Z/2, per degree k: cocycles,
# classes, and the point count of every model extension M(rho).
CENSUS = {"cocycles": 2, "classes": 2, "model_sizes": [4, 4], "all_nilspaces": True}
TASKS = ("check", "decompose", "tower", "census", "coboundary")


def build(mods, size="full"):
    """The filtered group every H_2 task starts from (part of set-up)."""
    g = mods["groups"]
    kind, m = SIZES[size]["group"]
    if kind == "heisenberg":
        return g.make_heisenberg(m)[1]
    return g.maximal_degree_k_filtration(g.CyclicProduct((m,)), 2)


def generate(mods, filt, seed, size="full"):
    """Task inputs: the seed for the axiom check's sampling and, for the
    coboundary task, cocycle tables of seeded functions at k = 1."""
    cg = mods["cubegroups"]
    rng = random.Random(seed)
    squares = list(cg.enumerate_cubes(filt, 2))
    functions = [[rng.randrange(2) for _ in range(filt.group.order)]
                 for _ in range(COBOUNDARY_FUNCTIONS)]
    tables = [{q: alternating_sum(q, f, 2) for q in squares} for f in functions]
    return {"seed": seed, "size": size, "tables": tables}


def operations(mods, filt, inputs):
    cs, st, tr, coh, g = (mods[m] for m in
                          ("cubespace", "structure", "translations", "cohomology", "groups"))
    degrees = SIZES[inputs["size"]]["census_degrees"]

    def check():
        X = cs.GroupCubespace(filt)
        rep = cs.check_axioms(X, 3, seed=inputs["seed"])
        return {"is_nilspace": rep.is_nilspace, "step": rep.step, "cubes3": len(X.cubes(3))}

    def decompose():
        dec = st.decompose(cs.GroupCubespace(filt))
        return {"invariants": [list(lv.group_invariants) for lv in dec.levels]}

    def tower():
        tw = tr.translation_tower(cs.GroupCubespace(filt))
        return {"sizes": [len(h) for h in tw.heights],
                "transitive": tr.translation_action_transitive(tw)}

    def census():
        out = {}
        for k in degrees:
            X = cs.abelian_Dk(g.CyclicProduct((2,)), 1)
            A = g.FiniteAbelianGroup((2,))
            cocycles = coh.enumerate_cocycles(X, k, A)
            classes = coh.cohomology_classes(cocycles)
            models = []
            for rho in cocycles:
                M = coh.build_extension(rho)
                rep = cs.check_axioms(M, 3, composition_budget=100_000)
                models.append((M.size, rep.is_nilspace))
            out[k] = {"cocycles": len(cocycles), "classes": len(classes),
                      "model_sizes": [s for s, _ in models],
                      "all_nilspaces": all(ok for _, ok in models)}
        return out

    def coboundary():
        X = cs.GroupCubespace(filt)
        A = g.FiniteAbelianGroup((2,))
        return [coh.is_coboundary(coh.Cocycle(X, 1, A, dict(t))) for t in inputs["tables"]]

    tasks = {"check": check, "decompose": decompose, "tower": tower,
             "census": census, "coboundary": coboundary}
    return [(name, tasks[name], ()) for name in TASKS]


def check(mods, filt, inputs, answers):
    """Compare each task's answer with the recorded one."""
    size = inputs["size"]
    expect = dict(SIZES[size]["expect"],
                  census={k: CENSUS for k in SIZES[size]["census_degrees"]})
    failures = Failures()
    for i, res, times in answers:
        name = TASKS[i]
        if isinstance(res, Exception):
            failures.add({"task": name, "why": "exception %s: %s" % (type(res).__name__, res)},
                         times=times)
        elif name == "coboundary":
            bad = [j for j, (f, t) in enumerate(zip(res, inputs["tables"]))
                   if f is None or any(alternating_sum(q, f, 2) != v for q, v in t.items())]
            if bad:
                failures.add({"task": name, "why": "tables %r not solved" % bad}, times=times)
        elif res != expect[name]:
            failures.add({"task": name, "answer": res, "expected": expect[name]}, times=times)
    return failures


def instances(filt, inputs):
    return {
        "group_order": filt.group.order,
        "tasks": list(TASKS),
        "census_degrees": list(SIZES[inputs["size"]]["census_degrees"]),
        "coboundary_functions": len(inputs["tables"]),
        "coboundary_squares": len(inputs["tables"][0]),
    }
