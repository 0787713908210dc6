"""Shared pieces of the benchmark: locating and importing the package from
the checkout, set-up timing, the closed loop, latency statistics, run
metadata, answer bookkeeping and the input generators the workloads share.

Every workload runs as one closed loop (one client, one process, one
thread): the next operation starts only after the previous one returned.
"""

import importlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every module of the package, in dependency order, so that set-up pays
# the import of the whole library (the CLI imports the last four lazily).
MODULES = (
    "nilcube.cubes",
    "nilcube.groups",
    "nilcube.cubegroups",
    "nilcube.poly",
    "nilcube.cubespace",
    "nilcube.structure",
    "nilcube.translations",
    "nilcube.cohomology",
    "nilcube.cli",
)

# Set-up is measured this many times before the timed phase and, to
# sample another stretch of machine speed, this many times after it.
SETUP_BEFORE, SETUP_AFTER = 8, 7


class MissingSource(RuntimeError):
    """The checkout does not hold the package sources."""


def use_checkout_sources():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "nilcube" / "__init__.py").is_file():
        raise MissingSource("no package sources at %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import():
    """Import every module of the package from scratch and return them by
    short name.  Earlier imports are dropped from sys.modules first, so
    each call pays the full import."""
    for name in [m for m in sys.modules if m == "nilcube" or m.startswith("nilcube.")]:
        del sys.modules[name]
    mods = {name.split(".")[1]: importlib.import_module(name) for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "nilcube":
        raise MissingSource("imported the package from %s" % mods["cli"].__file__)
    return mods


def timed_setup(build, repeats):
    """Run import plus build(mods) `repeats` times; return the wall time
    of each and the modules and structures of the last repeat."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mods = fresh_import()
        built = build(mods)
        times.append(time.perf_counter() - t0)
    return times, mods, built


def peak_rss_mb():
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """The highest percentile that leaves at least ten samples above it:
    (value, percentile, sample count).  With fewer than eleven samples no
    such percentile exists and the maximum is reported (percentile 100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def op_metrics(best, samples):
    """End-to-end metrics of a closed loop of operations: the gated ones
    from `best`, each operation's fastest time over the passes, and for
    the report the latency percentiles over every sample, with the tail's
    percentile and sample count.  On a shared machine interference only
    slows an operation down, so its fastest repeat is the steadiest
    estimate of what it costs."""
    value, pct, n = tail(samples)
    return {
        "wall_s": (sum(best), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
    }, {"op_p50_ms": 1000.0 * statistics.median(samples), "op_tail_ms": 1000.0 * value,
        "op_tail_percentile": round(pct, 3), "op_samples": n}


def source_lines():
    return sum(
        sum(1 for _ in open(p, encoding="utf-8"))
        for p in sorted((SRC / "nilcube").glob("*.py"))
    )


def commit():
    """The commit of the checkout, read from .git without running git;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    return {
        "seed": seed,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
    }


def run_pass(ops, tracer=None):
    """Run each (name, function, arguments) once, in order, timing each
    call; an exception becomes the answer.  Returns (latencies, answers)."""
    clock = time.perf_counter
    latencies, answers = [], []
    for name, fn, args in ops:
        t0 = clock()
        try:
            if tracer is None:
                res = fn(*args)
            else:
                res = tracer.op("op." + name, len(latencies), fn, *args)
        except Exception as e:  # noqa: BLE001 - any exception is a failed operation
            res = e
        latencies.append(clock() - t0)
        answers.append(res)
    return latencies, answers


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and a.args == b.args
    return a == b


class Answers:
    """Every operation's distinct answers with their multiplicity, so that
    memory does not grow with the number of passes."""

    def __init__(self):
        self.by_op = {}
        self.total = 0

    def add_pass(self, answers):
        for i, res in enumerate(answers):
            entries = self.by_op.setdefault(i, [])
            for entry in entries:
                if _same(entry[0], res):
                    entry[1] += 1
                    break
            else:
                entries.append([res, 1])
        self.total += len(answers)

    def __iter__(self):
        """(operation index, answer, times given)."""
        for i, entries in self.by_op.items():
            for res, count in entries:
                yield i, res, count


class Failures:
    """Operations with a wrong answer, a wrong exit code or an exception,
    with the first few distinct witnesses kept for the report.  A failure on an
    input listed as a known defect still counts; `unexpected` counts the
    others."""

    KEEP = 5

    def __init__(self):
        self.count = 0
        self.unexpected = 0
        self.witnesses = []

    def add(self, what, known=False, times=1):
        self.count += times
        self.unexpected += 0 if known else times
        what = dict(what, known_defect=known)
        if len(self.witnesses) < self.KEEP and what not in self.witnesses:
            self.witnesses.append(what)


def random_cube(rng, filt, n, cg):
    """Multiply out random upper-face coefficients, each in its level."""
    levels = [sorted(filt.subgroup(bin(v).count("1"))) for v in range(1 << n)]
    return cg.multiply_out([rng.choice(level) for level in levels], n, filt.group)


def perturb(rng, values, order, vertices):
    """The values with one of the given vertices set to another element."""
    out = list(values)
    j = rng.choice(vertices)
    out[j] = rng.choice([x for x in range(order) if x != out[j]])
    return tuple(out)


def corner_premise(cg, filt, values):
    """Whether the (n-1)-faces through 0^n of a cube or corner are cubes,
    decided by the sigma equations."""
    n = (len(values) - 1).bit_length()
    return all(cg.is_cube_by_equations([values[v] for v in range(1 << n) if not (v >> i) & 1], filt)
               for i in range(n))


def alternating_sum(values, f, mod):
    """Sum of (-1)^|v| f(q(v)) over the vertices v of a cube q, mod `mod`."""
    return sum((-1) ** bin(j).count("1") * f[x] for j, x in enumerate(values)) % mod
