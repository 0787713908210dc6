"""The README's examples run and print what it says they print."""

import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

from nilcube import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading, lang):
    """The first fenced block of the language lang after the heading."""
    section = README[README.index(heading):]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_quick_start_prints_what_its_comments_say():
    code = _block("## Quick start", "python")
    # each print(...) line ends in a comment with the line it prints
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want == ["True", "[(2, 2), (2,)]"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_cli_example_exits_0_with_a_one_line_report():
    text = re.fullmatch(r"echo '(.*)' \| nilcube\n", _block("### CLI", "sh"), re.S).group(1)
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code, out = cli.main([]), sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out)
    assert report["kind"] == "check" and report["axioms"]["is_nilspace"]
    # the README quotes the composition checks of this spec
    assert report["axioms"]["composition_checks"] == 169_160


def test_every_cap_is_named_in_the_readme():
    # a limit the README does not name is one a user cannot find
    caps = set()
    for path in (ROOT / "src" / "nilcube").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                caps.update("%s.%s" % (path.stem, t.id) for t in node.targets
                            if isinstance(t, ast.Name) and t.id.endswith("_CAP"))
    named = set(re.findall(r"\b[a-z_]+\.[A-Z][A-Z0-9_]*_CAP\b", README))
    assert caps == named
