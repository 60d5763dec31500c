"""Tiny blade-sum grammar for the command line: "c*eI^eJ^eK + ...".

Coefficients are rationals ("3", "-1/2"); blades are wedge-joined frame
labels ("e1^e3^e5"); a bare coefficient is a scalar term.  Whitespace is
free.  Errors carry the offending position: among them a zero denominator,
a sign or '*' with no term after it, and a number or index of more digits
than int() converts.

`parse_form` reads the text in one pass of `_TOKEN` matches, each told
apart by the group it matched, and keeps each coefficient as the integers
p and q: the terms of one degree are summed as numerators over the lcm of
their denominators, straight into the form's exact array.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .errors import FormParseError
from .forms import Form, _locate

_RATIONAL = r"\d+(?:/\d+)?"
_TOKEN = re.compile(rf"\s*(?:(?P<sign>[+-])|(?P<rat>{_RATIONAL})|(?P<blade>e\d+(?:\s*\^\s*e\d+)*)|(?P<star>\*))")
_SIGN, _RAT, _STAR = 1, 2, 4   # groups of _TOKEN (3 is the blade), read by `lastindex`
_DIGITS = re.compile(r"\d+")
_SIGNED_RATIONAL = re.compile(rf"[+-]?{_RATIONAL}")


@lru_cache(maxsize=256)
def parse_rational(text: str) -> Fraction:
    """The Fraction of a "p" or "p/q" literal, signed or not: the one rational grammar
    of CLI expressions and model files.  Other text (an exponent, a decimal point,
    whitespace) and more digits than int() converts are a ValueError, q = 0 a
    ZeroDivisionError.  A Fraction is immutable, so the last 256 literals parsed
    are remembered: a model file repeats a handful of them."""
    if not _SIGNED_RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer or a \"p/q\" rational")
    top, _, bottom = text.partition("/")
    return Fraction(int(top), int(bottom or 1))


def parse_form(text: str, n: int) -> list:
    """Parse into homogeneous Forms, one per degree present, ascending: the nonzero
    ones, or each degree's zero form when every part cancels."""
    pos = 0
    terms = []  # (signed numerator, denominator, indices)
    sign = 1
    coeff = None  # (numerator, denominator)
    blade = None
    pending = None  # ("sign" or "'*'", position) of an operator still waiting for its term

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormParseError("unrecognized token", pos)
            break
        kind = m.lastindex
        if kind == _SIGN:
            if pending and pending[0] == "'*'":
                raise FormParseError("dangling '*'", pending[1])
            if coeff is not None or blade is not None:
                p, q = coeff or (1, 1)
                terms.append((sign * p, q, blade or ()))
                sign, coeff, blade = 1, None, None
            if m.group(kind) == "-":
                sign = -sign
            pending = ("sign", m.start(kind))
        elif kind == _RAT:
            if coeff is not None or blade is not None:
                raise FormParseError("unexpected number", pos)
            top, _, bottom = m.group(kind).partition("/")
            try:
                coeff = int(top), int(bottom or 1)
            except ValueError:  # more digits than Python converts to an int
                raise FormParseError("number too long", m.start(kind)) from None
            if not coeff[1]:
                raise FormParseError("zero denominator", m.start(kind))
            pending = None
        elif kind == _STAR:
            if coeff is None or blade is not None:
                raise FormParseError("misplaced '*'", pos)
            pending = ("'*'", m.start(kind))
        else:  # a blade
            if blade is not None:
                raise FormParseError("unexpected blade", pos)
            try:
                blade = tuple(map(int, _DIGITS.findall(m.group(kind))))
            except ValueError:
                raise FormParseError("number too long", pos) from None
            for k in blade:
                if not 1 <= k <= n:
                    raise FormParseError(f"index e{k} outside 1..{n}", pos)
            pending = None
        pos = m.end()
    if pending:
        raise FormParseError(f"dangling {pending[0]}", pending[1])
    if coeff is not None or blade is not None:
        p, q = coeff or (1, 1)
        terms.append((sign * p, q, blade or ()))
    elif not terms:
        raise FormParseError("empty expression", 0)

    # one numerator vector per degree, over the lcm of its terms' denominators
    degrees = {}
    for term in terms:
        degrees.setdefault(len(term[2]), []).append(term)
    parts = []
    for degree in sorted(degrees):
        group = degrees[degree]
        den = lcm(*(q for _, q, _ in group))
        num = [0] * comb(n, degree)
        for p, q, indices in group:
            s, at = _locate(n, indices)
            if s:
                num[at] += s * p * (den // q)
        parts.append(Form.of_numerators(n, degree, num, den))
    return [f for f in parts if not f.is_zero()] or parts


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
