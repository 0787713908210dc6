"""The library surface: every top-level definition in src/nilcube is
reached from outside its own unit tests, every method, class-level
assignment and annotated field of a class there is used, and every
defaulted parameter of a function there is set by some caller.

The roots are the names that the console script, scripts/, perfbench/
(whose tracer resolves its targets with getattr, so its strings count)
and the acceptance criteria use, plus API.  A definition in src is
reached when it is a root or when the code of a reached definition
names it.  A parameter with a default is set when a call in src or in
the root files passes it, by position or keyword, other than a call
that only passes on a parameter of the caller that is itself never
set.  Names are matched by identifier, so a name defined in two modules
is reached, and its parameters are set, in both.  A class member is
used when code in src outside its own body, or in a root file, reads it
as an attribute (obj.name), or when a string in a root file names it.
"""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilcube"

# Names kept for a reader, each with the document that names it: the
# README (API) or an open ROADMAP item that needs it.  An entry here must
# name a reason of one of these kinds, not just keep code nothing calls.
API = (
    ("make_heisenberg", "README"),
    ("abelian_Dk", "README"),
)

# Defaulted parameters kept although no caller sets them, each with the
# open ROADMAP item that needs it: (function, parameter, reason).
PARAMETERS = ()

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _used_names(tree, with_strings):
    """Identifiers that code in tree uses: names and attributes, and
    with_strings also the identifiers inside string constants."""
    out = _string_names(tree) if with_strings else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _string_names(tree):
    """The identifiers inside the string constants of tree."""
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in IDENTIFIER.findall(node.value)}


def _definitions():
    """{(module, name): names its code uses} for every top-level def,
    class and assignment in src/nilcube."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defs[(path.stem, name)] = _used_names(node, False) - {name}
    return defs


def _root_files():
    files = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _roots():
    roots = {name for name, _reason in API}
    for path in _root_files():
        roots |= _used_names(ast.parse(path.read_text()), True)
    # console scripts, "nilcube.cli:main"
    roots.update(re.findall(r"nilcube\.\w+:(\w+)", (ROOT / "pyproject.toml").read_text()))
    return roots


def test_every_definition_in_src_is_reached():
    defs = _definitions()
    roots = _roots()
    reached = {key for key in defs if key[1] in roots}
    frontier = list(reached)
    while frontier:
        uses = defs[frontier.pop()]
        for key in defs:
            if key not in reached and key[1] in uses:
                reached.add(key)
                frontier.append(key)
    unreached = sorted("%s.%s" % key for key in defs
                       if key not in reached and not key[1].startswith("__"))
    assert not unreached, "reached by no root: " + ", ".join(unreached)


def _attribute_reads(tree):
    """How often code in tree reads each identifier as an attribute
    (obj.name); assignments to it are not reads."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _class_members():
    """(module.class.name, name, attribute reads of name in its own body) for every
    method, class-level assignment and annotated field of a class in
    src/nilcube."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    continue
                for name in names:
                    out.append(("%s.%s.%s" % (path.stem, cls.name, name), name,
                                _attribute_reads(node)[name]))
    return out


def test_every_class_member_in_src_is_used():
    reads, named = Counter(), set()
    for path in sorted(SRC.glob("*.py")) + _root_files():
        tree = ast.parse(path.read_text())
        reads += _attribute_reads(tree)
        if path.parent != SRC:
            named |= _string_names(tree)
    unused = sorted(member for member, name, own in _class_members()
                    if not name.startswith("__") and name not in named and reads[name] == own)
    assert not unused, "used by no code: " + ", ".join(unused)


def test_api_names_are_defined_and_named_by_their_document():
    names = {name for _module, name in _definitions()}
    for name, reason in API:
        assert name in names
        document = reason.split()[0] + ".md"
        assert name in (ROOT / document).read_text(), (name, document)


def _tracer_targets():
    """TARGETS of perfbench/tracer.py, loaded by path: the tracer imports
    only the standard library."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    # the tracer hooks (module, attribute) with getattr, so a deleted or
    # renamed target would fail only a traced run; "*.op" needs some
    # FiniteGroup subclass there that defines op itself
    from nilcube.groups import FiniteGroup

    targets = _tracer_targets()
    assert targets
    missing = []
    for _bucket, module, attribute, _mode in targets:
        owner = importlib.import_module("nilcube." + module)
        if attribute.startswith("*."):
            found = any(isinstance(c, type) and issubclass(c, FiniteGroup)
                        and attribute[2:] in vars(c) for c in vars(owner).values())
        else:
            for name in attribute.split("."):
                owner = getattr(owner, name, None)
            found = callable(owner)
        if not found:
            missing.append("%s.%s" % (module, attribute))
    assert not missing, "unresolved tracer targets: " + ", ".join(missing)


def _callee(func):
    """The identifier a call names: f(...), obj.f(...)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _signatures():
    """{name a call uses: [(function, positional parameters, defaulted
    parameters)]} for every function and method in src/nilcube.  A
    method's positionals leave out self or cls.  A class's __init__ is
    the function named after the class, and calls of the class and calls
    of __init__ (super().__init__(...)) both reach it."""
    sigs = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
            if id(node) in methods and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            function = node.name
            if node.name == "__init__" and id(node) in methods:
                function = methods[id(node)]
                sigs.setdefault(function, []).append((function, positional, defaulted))
            sigs.setdefault(node.name, []).append((function, positional, defaulted))
    return sigs


def _call_sites():
    """(caller, its parameters, callee, positional args, keyword args)
    for every call in src and the root files.  caller is the innermost
    enclosing function, named as _signatures names it (None at module
    level); a call through cli._construct(ptr, f, *args, **kwargs) is a
    call of f."""
    sites = []

    def visit(node, caller, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                init = child.name == "__init__" and isinstance(node, ast.ClassDef)
                visit(child, node.name if init else child.name,
                      {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs})
                continue
            if isinstance(child, ast.Call):
                func, args = child.func, child.args
                if _callee(func) == "_construct" and len(args) >= 2:
                    func, args = args[1], args[2:]
                sites.append((caller, params, _callee(func), args, child.keywords))
            visit(child, caller, params)

    for path in sorted(SRC.glob("*.py")) + _root_files():
        visit(ast.parse(path.read_text()), None, set())
    return sites


def _unset_parameters():
    """{(function, parameter)} of the defaulted parameters that no call
    sets.  An argument that is a parameter of the caller, or a subscript
    of one, passes it on: it sets the parameter only once the caller's
    is set, so the set ones are found by iterating to a fixed point.  A
    recursive call that passes something else, such as a longer JSON
    pointer, sets it."""
    sigs = _signatures()
    defaulted = {(f, p) for entries in sigs.values() for f, _pos, dflt in entries for p in dflt}
    passes = []  # (function, parameter) set by a call, and the caller's it passes on or None
    for caller, params, name, args, keywords in _call_sites():
        if name not in sigs:
            continue

        def passed_on(value):
            if isinstance(value, ast.Subscript):
                value = value.value
            if isinstance(value, ast.Name) and value.id in params:
                return (caller, value.id)
            return None

        for function, positional, dflt in sigs[name]:
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):  # f(*xs) may set every later positional
                    passes += [((function, p), None) for p in positional[i:]]
                    break
                if i < len(positional):
                    passes.append(((function, positional[i]), passed_on(arg)))
            for k in keywords:
                if k.arg is None:  # f(**kw) may set every keyword
                    passes += [((function, p), None) for p in dflt]
                else:
                    passes.append(((function, k.arg), passed_on(k.value)))
    set_ = set()
    changed = True
    while changed:
        changed = False
        for key, source in passes:
            if key not in set_ and (source is None or source not in defaulted or source in set_):
                set_.add(key)
                changed = True
    return defaulted - set_


def test_every_defaulted_parameter_in_src_is_set_by_a_caller():
    allowed = {(name, p) for name, p, _reason in PARAMETERS}
    unset = sorted("%s(%s=)" % key for key in _unset_parameters() - allowed)
    assert not unset, "set by no caller: " + ", ".join(unset)


def test_parameter_entries_name_an_unset_parameter_and_their_document():
    unset = _unset_parameters()
    for name, parameter, reason in PARAMETERS:
        assert (name, parameter) in unset, (name, parameter)
        document = reason.split()[0] + ".md"
        assert name in (ROOT / document).read_text(), (name, document)
