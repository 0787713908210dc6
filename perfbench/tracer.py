"""Per-layer tracing from outside the package.

Wrappers are installed on the public functions at the boundaries of the
nine modules and removed again afterwards; nothing under src/ changes.
A function bound elsewhere with ``from ... import`` (or stored in a
module-level table such as ``cli.HANDLERS``) is patched there too.

Hot boundaries keep aggregated counts and inclusive / self time; cold
ones (CLI requests, whole-space analyses) also record one span per call.
Self time is a call's duration minus the time of the wrapped calls it
made.  Everything stays in memory until ``write``.
"""

import functools
import inspect
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path

COUNT, TIME, SPAN = "count", "time", "span"

# (bucket, module, attribute, mode).  "*.op" / "*.inv" expand to every
# FiniteGroup subclass that defines the method itself.
TARGETS = (
    ("groups.op", "groups", "*.op", COUNT),
    ("groups.inv", "groups", "*.inv", COUNT),
    ("groups.construct", "groups", "make_heisenberg", TIME),
    ("groups.construct", "groups", "lower_central_series", TIME),
    ("groups.construct", "groups", "maximal_degree_k_filtration", TIME),
    ("groups.construct", "groups", "validate_filtration", TIME),
    ("groups.construct", "groups", "TableGroup.__init__", TIME),
    ("groups.construct", "groups", "QuotientGroup.__init__", TIME),
    ("groups.construct", "groups", "CosetSpace.__init__", TIME),
    ("groups.linalg", "groups", "smith_normal_form", TIME),
    ("groups.linalg", "groups", "solve_abelian_linear_system", TIME),
    ("groups.linalg", "groups", "abelian_invariants", TIME),
    ("cubes", "cubes", "automorphism_group", TIME),
    ("cubes", "cubes", "vertices", TIME),
    ("cubes", "cubes", "enumerate_faces", TIME),
    ("cubes", "cubes", "enumerate_face_maps", TIME),
    ("cubes", "cubes", "face_index_tables", TIME),
    ("cubes", "cubes", "CubeMorphism.__post_init__", TIME),
    ("cubes", "cubes", "CubeMorphism.index_table", TIME),
    ("cubes", "cubes", "CubeAutomorphism.to_morphism", TIME),
    ("cubes", "cubes", "Face.face_map", TIME),
    ("cubegroups.factorize", "cubegroups", "factorize", TIME),
    ("cubegroups.complete_corner", "cubegroups", "complete_corner", TIME),
    ("cubegroups.enumerate_cubes", "cubegroups", "enumerate_cubes", TIME),
    ("poly.cube_to_binomial", "poly", "cube_to_binomial", TIME),
    ("poly.is_polynomial", "poly", "is_polynomial", TIME),
    ("poly.is_cube_morphism", "poly", "is_cube_morphism", TIME),
    ("cubespace.membership", "cubespace", "Cubespace.membership", TIME),
    ("cubespace.cubes", "cubespace", "Cubespace.cubes", TIME),
    ("cubespace.corners", "cubespace", "Cubespace.corners", TIME),
    ("cubespace.completions", "cubespace", "Cubespace.completions", TIME),
    ("cubespace.check_axioms", "cubespace", "check_axioms", SPAN),
    ("structure.related_k", "structure", "related_k", COUNT),
    ("structure.sim_classes", "structure", "sim_classes", TIME),
    ("structure.structure_group", "structure", "structure_group", TIME),
    ("structure.verify_bundle", "structure", "verify_degree_k_bundle", TIME),
    ("structure.decompose", "structure", "decompose", SPAN),
    ("translations.translation_group", "translations", "translation_group", TIME),
    ("translations.is_translation", "translations", "is_translation", TIME),
    ("translations.translation_tower", "translations", "translation_tower", SPAN),
    ("cohomology.validate_cocycle", "cohomology", "validate_cocycle", TIME),
    ("cohomology.enumerate_cocycles", "cohomology", "enumerate_cocycles", SPAN),
    ("cohomology.cohomology_classes", "cohomology", "cohomology_classes", SPAN),
    ("cohomology.is_coboundary", "cohomology", "is_coboundary", TIME),
    ("cohomology.build_extension", "cohomology", "build_extension", TIME),
    ("cli.main", "cli", "main", SPAN),
    ("cli.build", "cli", "build_group", SPAN),
    ("cli.build", "cli", "build_filtration", SPAN),
    ("cli.build", "cli", "build_cocycle", SPAN),
    ("cli.build", "cli", "build_cubespace", SPAN),
) + tuple(
    ("cli.handler", "cli", "run_" + kind, SPAN)
    for kind in ("check", "factorize", "complete", "poly", "decompose",
                 "translations", "cohomology", "extend", "export")
)


class Stat:
    """Calls, inclusive seconds and self seconds of one wrapped function."""

    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, value from a finished Tracer).
METRICS = (
    ("groups.op.calls", "count", lambda t: t.calls("groups.op")),
    ("groups.inv.calls", "count", lambda t: t.calls("groups.inv")),
    ("groups.construct.self_s", "s", lambda t: t.self_s("groups.construct")),
    ("groups.quotient.builds", "count", lambda t: t.stats["groups.QuotientGroup.__init__"].calls),
    ("groups.linalg.calls", "count", lambda t: t.calls("groups.linalg")),
    ("groups.linalg.self_s", "s", lambda t: t.self_s("groups.linalg")),
    ("cubes.automorphism_group.calls", "count", lambda t: t.stats["cubes.automorphism_group"].calls),
    ("cubes.self_s", "s", lambda t: t.self_s("cubes")),
    ("cubegroups.factorize.calls", "count", lambda t: t.calls("cubegroups.factorize")),
    ("cubegroups.factorize.self_s", "s", lambda t: t.self_s("cubegroups.factorize")),
    ("cubegroups.complete_corner.calls", "count", lambda t: t.calls("cubegroups.complete_corner")),
    ("cubegroups.complete_corner.self_s", "s", lambda t: t.self_s("cubegroups.complete_corner")),
    ("cubegroups.enumerate_cubes.self_s", "s", lambda t: t.self_s("cubegroups.enumerate_cubes")),
    ("poly.cube_to_binomial.calls", "count", lambda t: t.calls("poly.cube_to_binomial")),
    ("poly.cube_to_binomial.self_s", "s", lambda t: t.self_s("poly.cube_to_binomial")),
    ("poly.is_polynomial.self_s", "s", lambda t: t.self_s("poly.is_polynomial")),
    ("poly.is_cube_morphism.self_s", "s", lambda t: t.self_s("poly.is_cube_morphism")),
    ("cubespace.membership.calls", "count", lambda t: t.calls("cubespace.membership")),
    ("cubespace.membership.self_s", "s", lambda t: t.self_s("cubespace.membership")),
    ("cubespace.cubes.self_s", "s", lambda t: t.self_s("cubespace.cubes")),
    ("cubespace.corners.self_s", "s", lambda t: t.self_s("cubespace.corners")),
    ("cubespace.check_axioms.self_s", "s", lambda t: t.self_s("cubespace.check_axioms")),
    ("cubespace.completion_yield", "ratio",
     lambda t: _ratio(t.extra["completions_found"], t.extra["completion_candidates"])),
    ("cubespace.cube_sets.entries", "count", lambda t: t.extra["cube_set_entries"]),
    ("structure.related_k.calls", "count", lambda t: t.calls("structure.related_k")),
    ("structure.sim_classes.self_s", "s", lambda t: t.self_s("structure.sim_classes")),
    ("structure.structure_group.self_s", "s", lambda t: t.self_s("structure.structure_group")),
    ("structure.verify_bundle.self_s", "s", lambda t: t.self_s("structure.verify_bundle")),
    ("translations.translation_group.self_s", "s",
     lambda t: t.self_s("translations.translation_group")),
    ("translations.is_translation.calls", "count", lambda t: t.calls("translations.is_translation")),
    ("translations.is_translation.self_s", "s", lambda t: t.self_s("translations.is_translation")),
    ("translations.certified_ratio", "ratio",
     lambda t: _ratio(t.extra["translations_found"], t.calls("translations.is_translation"))),
    ("cohomology.validate_cocycle.calls", "count", lambda t: t.calls("cohomology.validate_cocycle")),
    ("cohomology.validate_cocycle.self_s", "s", lambda t: t.self_s("cohomology.validate_cocycle")),
    ("cohomology.cocycle_yield", "ratio",
     lambda t: _ratio(t.extra["cocycles"], t.extra["cocycle_candidates"])),
    ("cohomology.is_coboundary.calls", "count", lambda t: t.calls("cohomology.is_coboundary")),
    ("cohomology.is_coboundary.self_s", "s", lambda t: t.self_s("cohomology.is_coboundary")),
    ("cohomology.build_extension.self_s", "s", lambda t: t.self_s("cohomology.build_extension")),
    ("cli.main.self_s", "s", lambda t: t.self_s("cli.main")),
    ("cli.build.self_s", "s", lambda t: t.self_s("cli.build")),
    ("cli.handler.self_s", "s", lambda t: t.self_s("cli.handler")),
)

OVERHEAD = ("trace.overhead", "ratio")

COUNT_METRICS = tuple(name for name, unit, _ in METRICS if unit == "count")


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.stats = defaultdict(Stat)   # function key -> Stat
        self.buckets = defaultdict(list)  # bucket -> function keys
        self.extra = defaultdict(int)
        self.spans = []                  # (name, start, end, parent, request)
        self.request = None
        self._stack = [[0.0, None]]      # per open call: [child seconds, span id]
        self._patches = []               # (kind, owner, name, original, had_own)
        self._first_cubes = weakref.WeakKeyDictionary()

    # -- aggregation -------------------------------------------------------

    def calls(self, bucket):
        return sum(self.stats[k].calls for k in self.buckets[bucket])

    def self_s(self, bucket):
        return sum(self.stats[k].self_s for k in self.buckets[bucket])

    def metrics(self):
        return {name: (fn(self), unit) for name, unit, fn in METRICS}

    # -- spans for the benchmark's own operations ---------------------------

    def op(self, name, request, fn, *args):
        """Run one benchmark operation as a root span with its request id."""
        self.request = request
        return self._wrap(name, fn, SPAN, None)(*args)

    # -- installation --------------------------------------------------------

    def install(self):
        hooks = {
            "cubespace.Cubespace.cubes": self._after_cubes,
            "cubespace.Cubespace.completions": self._after_completions,
            "translations.is_translation": self._after_is_translation,
            "cohomology.enumerate_cocycles": self._after_enumerate_cocycles,
        }
        for bucket, modname, attr, mode in TARGETS:
            mod = self.mods[modname]
            if attr.startswith("*."):
                meth = attr[2:]
                for cls in _subclasses(mod.FiniteGroup):
                    if meth in vars(cls):
                        key = "%s.%s.%s" % (modname, cls.__name__, meth)
                        self._patch_class(cls, meth, self._wrap(key, vars(cls)[meth], mode, None))
                        self.buckets[bucket].append(key)
                continue
            key = "%s.%s" % (modname, attr)
            self.buckets[bucket].append(key)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = getattr(cls, meth)
                self._patch_class(cls, meth, self._wrap(key, orig, mode, hooks.get(key)))
            else:
                orig = getattr(mod, attr)
                self._patch_everywhere(orig, self._wrap(key, orig, mode, hooks.get(key)))
        return self

    def uninstall(self):
        while self._patches:
            kind, owner, name, orig, had_own = self._patches.pop()
            if kind == "dict":
                owner[name] = orig
            elif had_own:
                setattr(owner, name, orig)
            else:
                delattr(owner, name)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch_class(self, cls, name, wrapper):
        had_own = name in vars(cls)
        self._patches.append(("attr", cls, name, vars(cls).get(name), had_own))
        setattr(cls, name, wrapper)

    def _patch_everywhere(self, orig, wrapper):
        """Replace orig in every module namespace and module-level dict."""
        for mod in self.mods.values():
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if value is orig:
                    self._patches.append(("attr", mod, name, orig, True))
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patches.append(("dict", value, k, orig, True))
                            value[k] = wrapper

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key, orig, mode, after):
        stat = self.stats[key]
        if mode == COUNT:
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                stat.calls += 1
                return orig(*args, **kwargs)
            return counted

        stack, spans, clock = self._stack, self.spans, time.perf_counter
        span = mode == SPAN

        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def timed_gen(*args, **kwargs):
                stat.calls += 1
                it = orig(*args, **kwargs)
                while True:
                    frame = [0.0, stack[-1][1]]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        stack.pop()
                        stat.incl += dur
                        stat.self_s += dur - frame[0]
                        stack[-1][0] += dur
                    yield item
            return timed_gen

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, parent]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.incl += dur
                stat.self_s += dur - frame[0]
                stack[-1][0] += dur
                if span:
                    spans[frame[1]] = (key, t0, t1, parent, self.request)
            if after is not None:
                after(args, kwargs, result)
            return result
        return timed

    # -- ratio hooks ---------------------------------------------------------

    def _after_cubes(self, args, kwargs, result):
        space, n = args
        seen = self._first_cubes.setdefault(space, set())
        if n not in seen:
            seen.add(n)
            self.extra["cube_set_entries"] += len(result)

    def _after_completions(self, args, kwargs, result):
        self.extra["completion_candidates"] += args[0].size
        self.extra["completions_found"] += len(result)

    def _after_is_translation(self, args, kwargs, result):
        self.extra["translations_found"] += bool(result)

    def _after_enumerate_cocycles(self, args, kwargs, result):
        X, k, A = args[:3]
        domain = len(self._original(self.mods["cubespace"].Cubespace, "cubes")(X, k + 1))
        self.extra["cocycle_candidates"] += A.order ** domain
        self.extra["cocycles"] += len(result)

    def _original(self, owner, name):
        for kind, o, n, orig, _ in self._patches:
            if o is owner and n == name:
                return orig
        return getattr(owner, name)

    # -- output --------------------------------------------------------------

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "spans": [dict(zip(("name", "start", "end", "parent", "request"), s))
                      for s in self.spans],
            "functions": {k: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self_s}
                          for k, s in sorted(self.stats.items())},
            "extra": dict(self.extra),
        }
        path.write_text(json.dumps(data))


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out
