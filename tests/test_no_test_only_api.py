"""qgdd carries no API that only its own tests use.

Every function, method and class defined in src/qgdd (dunders aside) must
be named somewhere else in src/qgdd, scripts/ or perfbench/.  perfbench
names its trace points in strings ("FieldTower.unflatten_packed"), so
identifiers inside perfbench string literals count as uses too.  The check
is by name: a definition whose name is a common word used elsewhere passes.
"""

import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgdd"
IDENT = re.compile(r"[A-Za-z_]\w*")


def _tokens(source: str):
    return [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
                              tokenize.INDENT, tokenize.DEDENT)]


def defined_names(source: str) -> set[str]:
    """Names after def or class, dunders excluded."""
    toks = _tokens(source)
    return {b.string for a, b in zip(toks, toks[1:])
            if a.type == tokenize.NAME and a.string in ("def", "class")
            and not (b.string.startswith("__") and b.string.endswith("__"))}


def used_names(source: str, strings_count: bool = False) -> set[str]:
    """Name tokens that are not the name of a def or class statement."""
    toks = _tokens(source)
    used = set()
    for prev, tok in zip([None] + toks, toks):
        if tok.type == tokenize.NAME:
            if prev is None or prev.string not in ("def", "class"):
                used.add(tok.string)
        elif tok.type == tokenize.STRING and strings_count:
            used.update(IDENT.findall(tok.string))
    return used


def test_unused_definitions_are_found():
    source = ("class Kept:\n"
              "    def used(self):\n        return 1\n"
              "    def only_tested(self):\n        return 1\n"
              "    def __repr__(self):\n        return 'Kept'\n"
              "def helper():\n    return Kept().used()\n"
              "helper()\n")
    assert defined_names(source) - used_names(source) == {"only_tested"}
    assert "only_tested" in used_names("POINTS = ('mod', 'Kept.only_tested')\n",
                                       strings_count=True)
    assert "only_tested" not in used_names("POINTS = ('mod', 'Kept.only_tested')\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_used_outside_the_tests(path):
    used = set()
    for source in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        used |= used_names(source.read_text())
    for source in sorted((ROOT / "perfbench").glob("*.py")):
        used |= used_names(source.read_text(), strings_count=True)
    assert sorted(defined_names(path.read_text()) - used) == []
