"""The library surface: every top-level definition in src/nilcube is
reached from outside its own unit tests.

The roots are the names that the console script, scripts/, perfbench/
(whose tracer resolves its targets with getattr, so its strings count)
and the acceptance criteria use, plus API.  A definition in src is
reached when it is a root or when the code of a reached definition
names it.  Names are matched by identifier, so a name defined in two
modules is reached in both.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nilcube"

# Names kept for a reader, each with the document that names it: the
# README (API) or an open ROADMAP item that needs it.  An entry here must
# name a reason of one of these kinds, not just keep code nothing calls.
API = (
    ("make_heisenberg", "README"),
    ("abelian_Dk", "README"),
    ("generated_translation_group", "ROADMAP item 5"),
    ("arrow_membership", "ROADMAP item 5"),
)

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _used_names(tree, with_strings):
    """Identifiers that code in tree uses: names and attributes, and
    with_strings also the identifiers inside string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(IDENTIFIER.findall(node.value))
    return out


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


def _roots():
    files = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    roots = {name for name, _reason in API}
    for path in files:
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


def test_api_names_are_defined_and_named_by_their_document():
    names = {name for _module, name in _definitions()}
    for name, reason in API:
        assert name in names
        document = reason.split()[0] + ".md"
        assert name in (ROOT / document).read_text(), (name, document)
