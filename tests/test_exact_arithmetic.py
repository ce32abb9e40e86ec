"""qgdd computes with exact integers only.

Every count, orbit size and field element is an int; a float anywhere in
src/qgdd could round a large count silently.  This test reads the token
stream of each module and rejects true division, the name float, float
literals and every math attribute but gcd.
"""

import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgdd"


def _is_float_literal(text: str) -> bool:
    t = text.lower().replace("_", "")
    if t.startswith(("0x", "0o", "0b")):
        return False
    return "." in t or "e" in t or t.endswith("j")


def inexact_tokens(source: str) -> list[str]:
    """Descriptions of the inexact-arithmetic tokens in a module's source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    found = []
    for i, tok in enumerate(tokens):
        where = f"line {tok.start[0]}: {tok.string!r}"
        if tok.type == tokenize.OP and tok.string in ("/", "/="):
            found.append(where)
        elif tok.type == tokenize.NAME and tok.string == "float":
            found.append(where)
        elif tok.type == tokenize.NUMBER and _is_float_literal(tok.string):
            found.append(where)
        elif tok.type == tokenize.NAME and tok.string == "math":
            attr = [t.string for t in tokens[i + 1:i + 3]]
            if attr[:1] == ["."] and attr != [".", "gcd"]:
                found.append(f"line {tok.start[0]}: math{''.join(attr)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_exact_arithmetic(path):
    assert inexact_tokens(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "x = a / b\n",
    "x /= 2\n",
    "x = float(n)\n",
    "x = 0.5\n",
    "x = 1e9\n",
    "x = 2j\n",
    "import math\nx = math.log(n)\n",
    "import math\nx = math.pi\n",
])
def test_inexact_tokens_are_found(source):
    assert inexact_tokens(source)


def test_exact_tokens_pass():
    source = ('"""a / b and 0.5 in a docstring"""\n'
              "import math\n"
              "x = a // b  # a / b in a comment\n"
              "x //= 0x1e\n"
              "g = math.gcd(a, b)\n")
    assert inexact_tokens(source) == []
