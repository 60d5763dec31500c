"""Tiny blade-sum grammar for the command line: "c*eI^eJ^eK + ...".

Coefficients are rationals ("3", "-1/2"); blades are wedge-joined frame
labels ("e1^e3^e5"); a bare coefficient is a scalar term.  Whitespace is
free.  Errors carry the offending position: among them a zero denominator
and a sign or '*' with no term after it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import FormParseError
from .forms import Form, _locate

_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<rat>\d+(?:/\d+)?)|(?P<blade>e\d+(?:\s*\^\s*e\d+)*)|(?P<star>\*))")


def parse_form(text: str, n: int) -> list:
    """Parse into homogeneous Forms (one per degree present, ascending)."""
    pos = 0
    terms = []  # (coeff, [indices])
    sign = 1
    coeff = None
    blade = None
    pending = None  # ("sign" or "'*'", position) of an operator still waiting for its term

    def flush():
        nonlocal sign, coeff, blade
        c = Fraction(coeff) if coeff is not None else Fraction(1)
        terms.append((sign * c, blade or []))
        sign, coeff, blade = 1, None, None

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise FormParseError("unrecognized token", pos)
            break
        if m.group("sign"):
            if pending and pending[0] == "'*'":
                raise FormParseError("dangling '*'", pending[1])
            if coeff is not None or blade is not None:
                flush()
            if m.group("sign") == "-":
                sign = -sign
            pending = ("sign", m.start("sign"))
        elif m.group("rat"):
            if coeff is not None or blade is not None:
                raise FormParseError("unexpected number", pos)
            if not int(m.group("rat").partition("/")[2] or 1):
                raise FormParseError("zero denominator", m.start("rat"))
            coeff = m.group("rat")
            pending = None
        elif m.group("star"):
            if coeff is None or blade is not None:
                raise FormParseError("misplaced '*'", pos)
            pending = ("'*'", m.start("star"))
        else:
            if blade is not None:
                raise FormParseError("unexpected blade", pos)
            indices = [int(t[1:]) for t in re.split(r"\s*\^\s*", m.group("blade"))]
            for k in indices:
                if not 1 <= k <= n:
                    raise FormParseError(f"index e{k} outside 1..{n}", pos)
            blade = indices
            pending = None
        pos = m.end()
    if pending:
        raise FormParseError(f"dangling {pending[0]}", pending[1])
    if coeff is not None or blade is not None:
        flush()
    elif not terms:
        raise FormParseError("empty expression", 0)

    # one coefficient vector per degree
    vectors = {}
    for c, indices in terms:
        vector = vectors.setdefault(len(indices), [0] * comb(n, len(indices)))
        sign, pos = _locate(n, tuple(indices))
        if sign:
            vector[pos] += sign * c
    parts = [Form.of_rationals(n, d, vectors[d]) for d in sorted(vectors)]
    return [f for f in parts if not f.is_zero()] or [Form.zero(n, 0)]


def parse_homogeneous(text: str, n: int) -> Form:
    parts = parse_form(text, n)
    if len(parts) != 1:
        raise FormParseError("expected a homogeneous form", 0)
    return parts[0]


def render_form(f: Form) -> str:
    if f.is_zero():
        return "0"
    bits = []
    for blade, c in f.terms.items():
        mono = "^".join(f"e{k}" for k in blade)
        if not mono:
            bits.append(str(c))
            continue
        if c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    out = " + ".join(bits)
    return out.replace("+ -", "- ")
