"""Batch command-line front end: JSON problem descriptions in, JSON or
text reports out.  A JSON report is one line with sorted keys (pipe it
through `python -m json.tool` to indent it); --format text prints one
"key: value" line per key.

Exit codes: 0 success, 1 mathematical failure (witness in the report),
2 malformed problem specification.

n_max (the spec field, else --n-max, default 3) lies in 1..N_MAX_CAP;
check and extend report the exact axiom scan of cubespace.check_axioms,
whose completion counts are read from the cube sets it builds.
One size rule refuses a group, explicit space or model extension M(rho)
of more than CUBE_CAP points (its 0-cubes), a maximal_degree_k
filtration of more than CUBE_CAP stored levels (k + 1), a question whose
cube sets (or, for decompose, level relations; for check and extend at
n_max >= 2, also the |X|^2 maps the 2-corner scan reads at its second
vertex) read more than CUBE_CAP maps to build, or whose cocycle laws
have more than CUBE_CAP entries.
The other limits bound what no cube count does: N_MAX_CAP the dimension
of every cube a question builds, BRUTE_FORCE_CAP the bijections
searched, and check_axioms's composition_budget (see CUBE_CAP).

The dimensions held to N_MAX_CAP are n_max, step + 1 (decompose,
translations), k + 1 (a cocycle or count_classes of degree k) and
deg(G.) + 1 (poly), each raised by what the space asks its base: an
arrow space of order k decides its n-cubes as (n + k)-cubes of its base,
a partial space as (n + 1)-cubes.  These are checked before any count.
A given cube's or corner's n is checked against its value count only:
2^n is never formed for an n the count cannot match.

Object schemas (all cube values in colex vertex order):
  group:      {"type": "cyclic_product", "moduli": [..]}
              {"type": "heisenberg", "modulus": m}
              {"type": "table", "table": [[..]]}
              {"type": "quotient", "group": {..}, "normal": [elements]}
              ("normal" not a normal subgroup: exit 2 at /group/normal)
  filtration: {"type": "lcs"} | {"type": "maximal_degree_k", "k": k}
              | {"type": "explicit", "chain": [[elements], ..]}
              (chain[0], G_0, holds every element: else exit 2 at chain/0)
  cubespace:  {"source": "group", "group": {..}, "filtration": {..}}
              {"source": "coset", "group": {..}, "filtration": {..}, "gamma": [..]}
              {"source": "product", "factors": [{..}, {..}]}
              {"source": "arrow", "base": {..}, "k": i}
              {"source": "partial", "base": {..}, "point": x}
              {"source": "extension", "base": {..}, "A": [invariants],
               "cocycle": {"k": d, "entries": [[[values], a], ..]}}
              {"source": "explicit", "size": N, "step": s|null,
               "tables": {"n": [[values], ..], ..}}
  cube / corner: {"n": n, "values": [..]}   (corner omits the top vertex)
  cocycle:    {"k": degree, "entries": [[[values], a], ..]}

Every integer field (a dimension, degree, size, modulus, point or element
index, invariant factor, table entry) must be a JSON integer: a string,
float, bool or null there is a malformed spec, reported at its pointer.
The keys of an explicit "tables" object are decimal integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Any, Dict

from . import cubegroups as cg
from . import cubespace as cs
from . import poly
from .groups import (
    CyclicProduct,
    FiniteAbelianGroup,
    Filtration,
    Heisenberg,
    QuotientGroup,
    TableGroup,
    element_range_violation,
    lower_central_series,
    maximal_degree_k_filtration,
    subgroup_closure,
    validate_filtration,
)

# the dimension of every cube a question builds (n_max, step + 1, k + 1,
# deg(G.) + 1, with what arrow and partial spaces add; see above), so at
# most 2^N_MAX_CAP values each: decompose on D1(Z/2) takes about 1.4 s at
# n_max 10
N_MAX_CAP = 10

# the maps the cube sets of a question may read to build (count_cubes):
# check, export and extend's M(rho) 1..n_max (|Cu^n(X)| |Cu^n(D_d(A))|),
# decompose 1..max(step+1, n_max) and (step+1) C(|X|, 2) one-flip maps
# for its level relations, translations step+1, poly the domain's
# deg(G.)+1, a cocycle its domain k+1; also, for check and extend at
# n_max >= 2, the |X|^2 maps the 2-corner scan reads at its second vertex
# (every point after every point), count_classes's law rows
# times (k+1)-cubes (24,576 on D1(Z/4) at k = 1), the points of every
# group, explicit space and M(rho) a spec names (its 0-cubes, which a
# filtration or the fibre D_d(A) holds all of), and the levels a
# maximal_degree_k filtration stores.  H2 and D3(Z/2) have 32,768 3- and
# 4-cubes.
# No count bounds N_MAX_CAP (the dimension of the cubes built),
# translations.BRUTE_FORCE_CAP (the bijections searched) or check_axioms's
# budget and seed (kept only for perfbench/analysis.py, until ROADMAP
# item 1).
CUBE_CAP = 10 ** 5


class SpecError(ValueError):
    """Malformed problem description (exit code 2)."""

    def __init__(self, pointer: str, message: str):
        super().__init__("%s: %s" % (pointer, message))
        self.pointer = pointer


class MathFailure(RuntimeError):
    """A well-posed problem with a negative/failed verdict (exit 1)."""

    def __init__(self, report: Dict[str, Any]):
        super().__init__("mathematical failure")
        self.report = report


def _need(obj, key, ptr):
    if not isinstance(obj, dict) or key not in obj:
        raise SpecError(ptr, "missing field %r" % key)
    return obj[key]


def _int(value, ptr):
    """The value, after checking that it is a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(ptr, "%s is not an integer" % json.dumps(value))
    return value


def _list(value, ptr):
    """The value, after checking that it is a JSON array."""
    if not isinstance(value, list):
        raise SpecError(ptr, "%s is not an array" % json.dumps(value))
    return value


def _ints(values, ptr):
    """The JSON array values, after checking that each entry is an integer;
    only an entry that is not a plain int is passed to _int, with its
    pointer."""
    values = _list(values, ptr)
    for i, v in enumerate(values):
        if type(v) is not int:
            _int(v, "%s/%d" % (ptr, i))
    return values


def _need_int(obj, key, ptr):
    """The integer field obj[key]."""
    return _int(_need(obj, key, ptr), "%s/%s" % (ptr.rstrip("/"), key))


def _construct(ptr, make, *args, **kwargs):
    """make(*args, **kwargs) for a library call on objects the spec
    describes; the ValueError it raises when they describe no valid
    object, or one that cannot answer the question asked, becomes a
    SpecError at ptr."""
    try:
        return make(*args, **kwargs)
    except SpecError:
        raise
    except ValueError as e:
        raise SpecError(ptr, str(e)) from None


def _elements(values, G, ptr):
    """The JSON array values, after checking that each is an element
    index of G."""
    bad = element_range_violation(G, _ints(values, ptr))
    if bad is not None:
        raise SpecError("%s/%d" % (ptr, bad[0]),
                        "%r is not an element index 0..%d" % (bad[1], G.order - 1))
    return values


def _natural(obj, key, ptr):
    """The integer field obj[key] (a dimension or a degree), which must
    be nonnegative."""
    v = _need_int(obj, key, ptr)
    if v < 0:
        raise SpecError("%s/%s" % (ptr.rstrip("/"), key), "%s = %d is negative" % (key, v))
    return v


def _require_length(count, n, missing, ptr):
    """Refuse a cube (missing = 0) or corner (missing = 1) of dimension n
    that does not hold 2^n - missing values.  Bit lengths are compared
    first, so 2^n is formed only for an n that the count can match."""
    full = count + missing
    if full.bit_length() == n + 1 and full == 1 << n:
        return
    # 2^n is written out in full while it fits in 64 bits
    want = "%d" % ((1 << n) - missing) if n < 64 else "2^%d%s" % (n, " - 1" * missing)
    raise SpecError(ptr, "expected %s values" % want)


def _refuse_many_points(size, ptr):
    """Refuse, before anything is built on them, more than CUBE_CAP
    points: they are the 0-cubes, and a filtration or a D_d(A) holds
    them all."""
    if size > CUBE_CAP:
        raise SpecError(ptr, "%d points, the 0-cubes, are more than the cube cap %d"
                        % (size, CUBE_CAP))


def build_group(spec, ptr="/group"):
    """The group spec describes, refused when its order passes CUBE_CAP."""
    G = _group(spec, ptr)
    _refuse_many_points(G.order, ptr)
    return G


def _group(spec, ptr):
    t = _need(spec, "type", ptr)
    if t == "cyclic_product":
        moduli = _ints(_need(spec, "moduli", ptr), ptr + "/moduli")
        return _construct(ptr + "/moduli", CyclicProduct, tuple(moduli))
    if t == "heisenberg":
        return _construct(ptr + "/modulus", Heisenberg, _need_int(spec, "modulus", ptr))
    if t == "table":
        rows = _list(_need(spec, "table", ptr), ptr + "/table")
        table = [_ints(row, "%s/table/%d" % (ptr, i)) for i, row in enumerate(rows)]
        return _construct(ptr + "/table", TableGroup, table)
    if t == "quotient":
        G = build_group(_need(spec, "group", ptr), ptr + "/group")
        N = frozenset(_elements(_need(spec, "normal", ptr), G, ptr + "/normal"))
        return _construct(ptr + "/normal", QuotientGroup, G, N)
    raise SpecError(ptr, "unknown group type %r" % t)


def build_filtration(spec, G, ptr="/filtration"):
    t = _need(spec, "type", ptr)
    if t == "lcs":
        return _construct(ptr, lower_central_series, G)
    if t == "maximal_degree_k":
        k = _need_int(spec, "k", ptr)
        if k >= CUBE_CAP:
            raise SpecError(ptr + "/k", "k = %d stores %d filtration levels, more than the "
                            "cube cap %d" % (k, k + 1, CUBE_CAP))
        return _construct(ptr, maximal_degree_k_filtration, G, k)
    if t == "explicit":
        levels = _list(_need(spec, "chain", ptr), ptr + "/chain")
        chain = [frozenset(_elements(level, G, "%s/chain/%d" % (ptr, d)))
                 for d, level in enumerate(levels)]
        # G_0 = G: cubes are based in G_0, while poly differentiates at
        # every point of the group
        if chain and len(chain[0]) != G.order:
            raise SpecError(ptr + "/chain/0", "G_0 holds %d of the group's %d elements, "
                            "not all of them" % (len(chain[0]), G.order))
        filt = _construct(ptr + "/chain", Filtration, G, tuple(chain))
        bad = validate_filtration(filt)
        if bad is not None:
            raise SpecError(ptr, "not a filtration: %r" % (bad,))
        return filt
    raise SpecError(ptr, "unknown filtration type %r" % t)


def build_abelian(invariants, ptr="/A"):
    """The finite abelian group with the given invariant factors."""
    return _construct(ptr, FiniteAbelianGroup, tuple(_ints(invariants, ptr)))


def build_cocycle(spec, X, A, ptr="/cocycle"):
    from .cohomology import Cocycle, validate_cocycle

    k = _natural(spec, "k", ptr)
    _refuse_deep_cubes(X, [k + 1], ptr + "/k")
    table = {}
    for i, entry in enumerate(_list(_need(spec, "entries", ptr), ptr + "/entries")):
        p = "%s/entries/%d" % (ptr, i)
        if len(_list(entry, p)) != 2:
            raise SpecError(p, "an entry is a pair [cube, value]")
        if len(_list(entry[0], p + "/0")) != 2 << k:
            raise SpecError(p + "/0", "a degree-%d cocycle takes %d-cubes" % (k, k + 1))
        # a value outside A breaks the automorphism-sign law below
        table[tuple(_ints(entry[0], p + "/0"))] = _int(entry[1], p + "/1")
    _refuse_many_cubes(X, [k + 1], "cocycle", ptr + "/k")
    rho = Cocycle(X, k, A, table)
    bad = validate_cocycle(rho)
    if bad is not None:
        raise SpecError(ptr, "invalid cocycle: %r" % (bad[0],))
    return rho


def build_cubespace(spec, ptr="/cubespace"):
    src = _need(spec, "source", ptr)
    if src == "group":
        G = build_group(_need(spec, "group", ptr), ptr + "/group")
        filt = build_filtration(_need(spec, "filtration", ptr), G, ptr + "/filtration")
        return cs.GroupCubespace(filt)
    if src == "coset":
        G = build_group(_need(spec, "group", ptr), ptr + "/group")
        filt = build_filtration(_need(spec, "filtration", ptr), G, ptr + "/filtration")
        gamma = subgroup_closure(G, _elements(_need(spec, "gamma", ptr), G, ptr + "/gamma"))
        return cs.CosetCubespace(filt, gamma)
    if src == "product":
        facs = _list(_need(spec, "factors", ptr), ptr + "/factors")
        if len(facs) != 2:
            raise SpecError(ptr + "/factors", "exactly two factors")
        return cs.ProductCubespace(
            build_cubespace(facs[0], ptr + "/factors/0"),
            build_cubespace(facs[1], ptr + "/factors/1"),
        )
    if src == "arrow":
        base = build_cubespace(_need(spec, "base", ptr), ptr + "/base")
        return _construct(ptr + "/k", cs.ArrowCubespace, base, _need_int(spec, "k", ptr))
    if src == "partial":
        base = build_cubespace(_need(spec, "base", ptr), ptr + "/base")
        return _construct(ptr + "/point", cs.SliceCubespace, base, _need_int(spec, "point", ptr))
    if src == "extension":
        from .cohomology import ExtensionSpace

        base = build_cubespace(_need(spec, "base", ptr), ptr + "/base")
        A = build_abelian(_need(spec, "A", ptr), ptr + "/A")
        rho = build_cocycle(_need(spec, "cocycle", ptr), base, A, ptr + "/cocycle")
        _refuse_many_points(base.size * A.order, ptr + "/A")
        return _construct(ptr, ExtensionSpace, rho)  # build_cocycle validated rho
    if src == "explicit":
        raw = _need(spec, "tables", ptr)
        if not isinstance(raw, dict):
            raise SpecError(ptr + "/tables", "tables must be an object")
        tables = {}
        for key, qs in raw.items():
            p = "%s/tables/%s" % (ptr, key)
            try:
                n = int(key)
            except ValueError:
                raise SpecError(p, "table key %r is not an integer" % key) from None
            tables[n] = [tuple(_ints(q, "%s/%d" % (p, i))) for i, q in enumerate(_list(qs, p))]
        size = _need_int(spec, "size", ptr)
        if size < 1:
            raise SpecError(ptr + "/size", "a cubespace needs at least one point")
        _refuse_many_points(size, ptr + "/size")
        step = spec.get("step")
        if step is not None and _int(step, ptr + "/step") < 0:
            raise SpecError(ptr + "/step", "step %d is negative" % step)
        return _construct(ptr + "/tables", cs.ExplicitCubespace, size, tables, step)
    raise SpecError(ptr, "unknown cubespace source %r" % src)


def _axiom_report_json(rep: cs.AxiomReport):
    return {
        "n_max": rep.n_max,
        "composition_ok": rep.composition_ok,
        "composition_checks": rep.composition_checks,
        "composition_witness": rep.composition_witness and list(map(repr, rep.composition_witness)),
        "ergodic_ok": rep.ergodic_ok,
        "ergodic_witness": rep.ergodic_witness,
        "completion": {
            str(n): {"corners": l.corners, "complete": l.complete, "unique": l.unique,
                     "witness": l.witness}
            for n, l in rep.completion.items()
        },
        "is_nilspace": rep.is_nilspace,
        "step": rep.step,
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns a JSON-able report or raises


def run_check(spec, opts):
    X = build_cubespace(_need(spec, "cubespace", "/"))
    _refuse_axiom_scan(X, opts["n_max"], "check")
    rep = _construct("/cubespace", cs.check_axioms, X, opts["n_max"])
    out = {"kind": "check", "size": X.size, "axioms": _axiom_report_json(rep)}
    if not rep.is_nilspace:
        raise MathFailure(out)
    return out


def run_factorize(spec, opts):
    G = build_group(_need(spec, "group", "/"))
    filt = build_filtration(_need(spec, "filtration", "/"), G)
    cube = _need(spec, "cube", "/")
    values = _elements(_need(cube, "values", "/cube"), G, "/cube/values")
    _require_length(len(values), _natural(cube, "n", "/cube"), 0, "/cube/values")
    res = cg.factorize(values, filt)
    if isinstance(res, cg.Reject):
        raise MathFailure({
            "kind": "factorize", "is_cube": False,
            "reject": {"vertex": res.index, "coefficient": res.coefficient,
                       "required_level": res.required_level},
        })
    return {"kind": "factorize", "is_cube": True, "coefficients": list(res)}


def run_complete(spec, opts):
    G = build_group(_need(spec, "group", "/"))
    filt = build_filtration(_need(spec, "filtration", "/"), G)
    corner = _need(spec, "corner", "/")
    n = _natural(corner, "n", "/corner")
    values = _elements(_need(corner, "values", "/corner"), G, "/corner/values")
    _require_length(len(values), n, 1, "/corner/values")
    try:
        full = cg.complete_corner(dict(enumerate(values)), n, filt)
    except cg.CornerError as e:
        raise MathFailure({"kind": "complete", "completed": False, "reason": str(e)})
    return {"kind": "complete", "completed": True, "cube": list(full),
            "completions": len(filt.subgroup(n))}


def run_poly(spec, opts):
    H = build_group(_need(spec, "domain_group", "/"), "/domain_group")
    hfilt = build_filtration(_need(spec, "domain_filtration", "/"), H, "/domain_filtration")
    G = build_group(_need(spec, "target_group", "/"), "/target_group")
    gfilt = build_filtration(_need(spec, "target_filtration", "/"), G, "/target_filtration")
    g = _elements(_need(spec, "map", "/"), G, "/map")
    if len(g) != H.order:
        raise SpecError("/map", "expected %d values" % H.order)
    _refuse_many_cubes(cs.GroupCubespace(hfilt), [gfilt.degree + 1], "poly", "/domain_filtration")
    is_poly = poly.is_polynomial(g, hfilt, gfilt)
    is_morph, witness = poly.is_cube_morphism(g, hfilt, gfilt)
    out = {"kind": "poly", "is_polynomial": is_poly, "is_cube_morphism": is_morph,
           "witness": witness and list(witness)}
    if is_poly != is_morph:
        out["agreement"] = False
        raise MathFailure(out)
    out["agreement"] = True
    return out


def _need_step(X, kind):
    """Decomposition and translation towers need a step bound."""
    if X.step is None:
        raise SpecError("/cubespace", "%s needs a cubespace with a step bound" % kind)


def _refuse_deep_cubes(X, dims, ptr):
    """Refuse, before anything is counted or built, a question about
    X's cubes of the dimensions dims (a list or range, in increasing
    order) that asks for cubes of dimension above N_MAX_CAP."""
    deepest = X.deepest_dimension(dims[-1])
    if deepest > N_MAX_CAP:
        raise SpecError(ptr, "the cubes of dimensions up to %d ask for cubes of dimension %d, "
                        "above the cap %d" % (dims[-1], deepest, N_MAX_CAP))


def _refuse_many_cubes(X, dims, kind, ptr="/cubespace", corner_reads=0):
    """Refuse, before any is built, cube sets of the dimensions dims
    that ask for cubes of dimension above N_MAX_CAP, or whose builds read,
    with corner_reads, more than CUBE_CAP maps in all."""
    _refuse_deep_cubes(X, dims, ptr)
    if corner_reads > CUBE_CAP:
        raise SpecError(ptr, "the 2-corner scan reads %d maps at its second vertex, above the "
                        "%s cap %d" % (corner_reads, kind, CUBE_CAP))
    total = corner_reads
    for n in dims:
        total += _construct(ptr, X.count_cubes, n, CUBE_CAP - total)
        if total > CUBE_CAP:
            raise SpecError(ptr, "the cubes of dimensions %s read more than %d maps to build, "
                            "above the %s cap" % (list(dims), CUBE_CAP, kind))


def _refuse_axiom_scan(X, n_max, kind):
    """Refuse check_axioms up to n_max by its cube sets 1..n_max and, from
    n_max 2 on, the |X|^2 maps its 2-corner scan reads at the second vertex."""
    _refuse_many_cubes(X, range(1, n_max + 1), kind, corner_reads=X.size ** 2 * (n_max >= 2))


def run_decompose(spec, opts):
    from .structure import decompose

    X = build_cubespace(_need(spec, "cubespace", "/"))
    _need_step(X, "decompose")
    _refuse_many_cubes(X, range(1, max(X.step + 1, opts["n_max"]) + 1), "decomposition")
    # the level relations of X_0..X_step read a one-flip map per pair of points
    flips = (X.step + 1) * (X.size * (X.size - 1) // 2)
    if flips > CUBE_CAP:
        raise SpecError("/cubespace", "the level relations read %d one-flip maps, above the "
                        "decomposition cap %d" % (flips, CUBE_CAP))
    try:
        dec = decompose(X, n_max=opts["n_max"])
    except ValueError as e:
        raise MathFailure({"kind": "decompose", "decomposed": False, "reason": str(e)})
    return {
        "kind": "decompose",
        "step": dec.step,
        "factor_sizes": [f.size for f in dec.factors],
        "levels": [
            {"k": l.k, "invariants": list(l.group_invariants),
             "fibre_size": l.fibre_size, "verified_dims": list(l.verified_dims)}
            for l in dec.levels
        ],
    }


def run_translations(spec, opts):
    from .translations import BRUTE_FORCE_CAP, translation_action_transitive, translation_tower

    X = build_cubespace(_need(spec, "cubespace", "/"))
    _need_step(X, "translations")
    if X.size > BRUTE_FORCE_CAP:
        raise SpecError("/cubespace", "size %d above the brute-force cap %d"
                        % (X.size, BRUTE_FORCE_CAP))
    _refuse_many_cubes(X, [X.step + 1], "translation")
    try:
        tw = translation_tower(X)
    except ValueError as e:
        raise MathFailure({"kind": "translations", "computed": False, "reason": str(e)})
    return {
        "kind": "translations",
        "sizes": [len(h) for h in tw.heights],
        "transitive": translation_action_transitive(tw),
        "elements": [list(b) for b in tw.bijections],
        "heights": [list(h) for h in tw.heights],
    }


def run_cohomology(spec, opts):
    from . import cohomology as coh

    X = build_cubespace(_need(spec, "cubespace", "/"))
    A = build_abelian(_need(spec, "A", "/"))
    op = _need(spec, "op", "/")
    if op == "count_classes":
        k = _natural(spec, "k", "/")
        _refuse_many_cubes(X, [k + 1], "cocycle", "/k")
        cocycles, classes = _construct("/k", coh.count_cocycle_classes, X, k, A, CUBE_CAP)
        return {"kind": "cohomology", "op": op, "k": k, "cocycles": cocycles, "classes": classes}
    if op == "is_coboundary":
        rho = build_cocycle(_need(spec, "cocycle", "/"), X, A)
        f = coh.is_coboundary(rho)
        out = {"kind": "cohomology", "op": op, "is_coboundary": f is not None,
               "function": f and list(f)}
        return out
    raise SpecError("/op", "unknown cohomology op %r" % op)


def run_extend(spec, opts):
    from . import cohomology as coh

    X = build_cubespace(_need(spec, "cubespace", "/"))
    A = build_abelian(_need(spec, "A", "/"))
    rho = build_cocycle(_need(spec, "cocycle", "/"), X, A)  # validated there
    _refuse_many_points(X.size * A.order, "/A")
    M = _construct("/cubespace", coh.ExtensionSpace, rho)
    _refuse_axiom_scan(M, opts["n_max"], "extension")
    rep = _construct("/cubespace", cs.check_axioms, M, opts["n_max"])
    out = {"kind": "extend", "size": M.size, "step_bound": M.step,
           "axioms": _axiom_report_json(rep)}
    try:
        back = coh.cross_section_cocycle(M.extension, [ys[0] for ys in M.extension.fibres])
        out["obvious_section_round_trip"] = back.table == rho.table
    except ValueError as e:  # a base cube that does not lift to M
        out.update(obvious_section_round_trip=False, reason=str(e))
    if not (rep.is_nilspace and out["obvious_section_round_trip"]):
        raise MathFailure(out)
    return out


def run_export(spec, opts):
    X = build_cubespace(_need(spec, "cubespace", "/"))
    n_max = opts["n_max"]
    _refuse_many_cubes(X, range(1, n_max + 1), "export")
    tables = {str(n): sorted(list(q) for q in _construct("/cubespace", X.cubes, n))
              for n in range(1, n_max + 1)}
    return {"kind": "export", "size": X.size, "step": X.step, "tables": tables}


HANDLERS = {
    "check": run_check,
    "factorize": run_factorize,
    "complete": run_complete,
    "poly": run_poly,
    "decompose": run_decompose,
    "translations": run_translations,
    "cohomology": run_cohomology,
    "extend": run_extend,
    "export": run_export,
}


def run(spec: Dict[str, Any], n_max: int = 3):
    """Dispatch a problem spec; returns the report dict.  Raises
    SpecError or MathFailure."""
    kind = _need(spec, "kind", "/")
    if not isinstance(kind, str) or kind not in HANDLERS:
        raise SpecError("/kind", "unknown kind %r" % kind)
    opts = {"n_max": _int(spec.get("n_max", n_max), "/n_max")}
    if not 1 <= opts["n_max"] <= N_MAX_CAP:
        raise SpecError("/n_max", "n_max = %d is outside 1..%d" % (opts["n_max"], N_MAX_CAP))
    out = HANDLERS[kind](spec, opts)
    out["n_max"] = opts["n_max"]
    return out


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key in sorted(report):
            print("%s: %r" % (key, report[key]))


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and building it costs more than many specs
    take to answer."""
    ap = argparse.ArgumentParser(
        prog="nilcube",
        description="Exact computations on finite cubespaces and filtered groups.",
    )
    ap.add_argument("--input", help="problem spec JSON file (default: stdin)")
    ap.add_argument("--n-max", type=int, default=3)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.input:
            with open(args.input) as fh:
                spec = json.load(fh)
        else:
            spec = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as e:
        print("spec error: %s" % e, file=sys.stderr)
        return 2
    try:
        report = run(spec, n_max=args.n_max)
    except SpecError as e:
        print("spec error: %s" % e, file=sys.stderr)
        return 2
    except MathFailure as e:
        _emit(e.report, args.format)
        return 1
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
