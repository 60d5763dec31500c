"""Exactness checks on what the program printed, by the mathematics.

Every parser here is the benchmark's own; the characteristic polynomial of a
spinor action is computed from an independent construction of the Clifford
module and sympy's exact `DomainMatrix.charpoly` over Q(i).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

import gen

_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*)?(e\d+(?:\^e\d+)*)\s*")
_GAUSS = re.compile(r"\((-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)i\)")


def parse_terms(text):
    """Blade sum as printed by the program ("2*e1^e2 - e3^e4", or "0")."""
    text = text.strip()
    if text == "0":
        return {}
    out, pos = {}, 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse form at {pos}: {text!r}")
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        blade = tuple(int(x[1:]) for x in m.group(3).split("^"))
        if blade in out or list(blade) != sorted(set(blade)):
            raise ValueError(f"repeated or unsorted blade in {text!r}")
        out[blade] = c
        pos = m.end()
    return out


def parse_scalar(text):
    """A Fraction, or a Gaussian rational printed as "(a+bi)", as (re, im)."""
    text = text.strip()
    m = _GAUSS.fullmatch(text)
    if m:
        return Fraction(m.group(1)), Fraction(m.group(2))
    return Fraction(text), Fraction(0)


def _lines(text):
    return [line for line in text.splitlines() if line.strip()]


def _field(line, prefix):
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix):]


# ---------------------------------------------------------------------------
# model-sessions
# ---------------------------------------------------------------------------

def parse_torsion(text):
    (line,) = _lines(text)
    return parse_terms(_field(line, "T = "))


def parse_ricci(text):
    lines = _lines(text)
    _field(lines[0], "Ric (characteristic connection):")
    rows = [[Fraction(x) for x in line.strip()[1:-1].split(",")] for line in lines[1:-1]]
    return rows, Fraction(_field(lines[-1], "Scal = "))


def parse_decompose(text):
    parts = {}
    for line in _lines(text):
        label, _, body = line.partition("=")
        parts[label.strip()] = parse_terms(body)
    return parts


def base_answers(docs, run):
    """What the program answers on each base model; `run(argv)` -> (code, out)."""
    out = {}
    for name, doc in docs.items():
        code_t, text_t = run(["torsion", name])
        code_r, text_r = run(["ricci", name])
        ans = {"torsion_code": code_t, "ricci_code": code_r}
        if code_t not in (0, 1) or code_r != code_t:
            raise ValueError(f"torsion and ricci of base model {name} exited {code_t}, {code_r}")
        if code_t == 0:
            t = parse_torsion(text_t)
            ans["torsion"] = t
            ans["ricci"] = parse_ricci(text_r)
            if doc["dim"] == 7:
                code_d, text_d = run(["decompose", name, "--", gen.render(t)])
                if code_d != 0:
                    raise ValueError(f"decompose failed on base model {name}")
                ans["decompose"] = parse_decompose(text_d)
        out[name] = ans
    return out


def session_argvs(model, base_answer):
    """Commands of one analysis session on a generated model, with what each expects.

    Returns [(argv, kind, expected exit code)].  The torsion expression of
    the spin-eig and decompose steps is the expected one, rendered as the
    program would print it, so a session does not depend on earlier answers.
    """
    base, g, lam, doc = model
    name, n = doc["name"], doc["dim"]
    cmds = [(["models", "show", name], "show", 0),
            (["torsion", name], "torsion", base_answer["torsion_code"]),
            (["ricci", name], "ricci", base_answer["ricci_code"])]
    if base_answer["torsion_code"] == 0:
        t = gen.render(gen.push_form(base_answer["torsion"], g, lam))
        cmds.append((["spin-eig", str(n), "--", t], "spin", 0))
        if n == 7:
            cmds.append((["decompose", name, "--", t], "decompose", 0))
    return cmds


def check_session_step(kind, model, base_answer, argv, out):
    """True when one answer equals the transformed base answer."""
    base, g, lam, doc = model
    if kind == "show":
        printed = json.loads(out)
        return printed["name"] == doc["name"] and gen.doc_key(printed) == gen.doc_key(doc)
    if kind == "torsion":
        if base_answer["torsion_code"] != 0:
            return out == ""
        return parse_torsion(out) == gen.push_form(base_answer["torsion"], g, lam)
    if kind == "ricci":
        if base_answer["ricci_code"] != 0:
            return out == ""
        rows, scal = parse_ricci(out)
        base_rows, base_scal = base_answer["ricci"]
        return (rows == gen.push_matrix(base_rows, g, lam * lam)
                and scal == base_scal * lam * lam)
    if kind == "spin":
        return check_spectrum(doc["dim"], parse_terms(argv[-1]), out)
    if kind == "decompose":
        parts = parse_decompose(out)
        want = {k: gen.push_form(v, g, lam) for k, v in base_answer["decompose"].items()}
        total = {}
        for v in parts.values():
            for b, c in v.items():
                total[b] = total.get(b, 0) + c
        t = parse_terms(argv[-1])
        return parts == want and {b: c for b, c in total.items() if c} == t
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# spinor spectra
# ---------------------------------------------------------------------------

# signed monomial matrices: row r has the single entry i**ph[r] in column p[r]
def _mono(perm, phases):
    return tuple(perm), tuple(p % 4 for p in phases)


def _mono_mul(a, b):
    pa, ha = a
    pb, hb = b
    return _mono([pb[pa[r]] for r in range(len(pa))],
                 [ha[r] + hb[pa[r]] for r in range(len(pa))])


def _mono_kron(a, b):
    pa, ha = a
    pb, hb = b
    nb = len(pb)
    return _mono([pa[r // nb] * nb + pb[r % nb] for r in range(len(pa) * nb)],
                 [ha[r // nb] + hb[r % nb] for r in range(len(pa) * nb)])


def _mono_scale(a, k):
    return _mono(a[0], [h + k for h in a[1]])


_ID2 = _mono([0, 1], [0, 0])
_SX = _mono([1, 0], [0, 0])            # [[0, 1], [1, 0]]
_SY = _mono([1, 0], [3, 1])            # [[0, -i], [i, 0]]
_SZ = _mono([0, 1], [0, 2])            # [[1, 0], [0, -1]]


def gammas(n):
    """Generators of Cl(n), gamma_k^2 = -1, on C^(2^floor(n/2)).

    For odd n the last generator is fixed by the pinned volume normalization:
    gamma_1 ... gamma_n acts as +1 when n = 3 (mod 4) and as -i when n = 1
    (mod 4).  Any other choice of generators gives conjugate actions.
    """
    m = n // 2
    out = []
    for k in range(m):
        for pauli in (_SX, _SY):
            factors = [_SZ] * k + [_mono_scale(pauli, 1)] + [_ID2] * (m - k - 1)
            g = factors[0]
            for f in factors[1:]:
                g = _mono_kron(g, f)
            out.append(g)
    if n % 2:
        vol = out[0]
        for g in out[1:]:
            vol = _mono_mul(vol, g)
        size = len(vol[0])
        minus_one = _mono(range(size), [2] * size)
        target = 0 if n % 4 == 3 else 3
        for k in range(4):
            last = _mono_scale(vol, k)
            full = _mono_mul(vol, last)
            if (_mono_mul(last, last) == minus_one
                    and full == _mono(range(size), [target] * size)):
                out.append(last)
                break
        else:
            raise AssertionError("no volume normalization found")
    return out


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def spin_matrix(n, terms):
    """Dense action of a form on spinors, entries (re, im) as Fractions."""
    gs = gammas(n)
    size = len(gs[0][0])
    mat = [[[Fraction(0), Fraction(0)] for _ in range(size)] for _ in range(size)]
    for blade, c in terms.items():
        prod = _mono(range(size), [0] * size)
        for i in blade:
            prod = _mono_mul(prod, gs[i - 1])
        for r in range(size):
            re, im = _UNITS[prod[1][r]]
            entry = mat[r][prod[0][r]]
            entry[0] += c * re
            entry[1] += c * im
    return mat


def charpoly_q_i(mat):
    size = len(mat)
    dm = DomainMatrix([[QQ_I(*e) for e in row] for row in mat], (size, size), QQ_I)
    return dm.charpoly()


def _poly_mul(a, b):
    out = [QQ_I(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_spectrum(n, terms, out):
    """The printed eigenvalues and residual multiply back to the characteristic polynomial."""
    lines = _lines(out)
    values = _field(lines[0], "eigenvalues: ")
    poly = [QQ_I(1, 0)]
    for item in filter(None, (v.strip() for v in values.split(","))):
        value, _, mult = item.rpartition(" x")
        for _ in range(int(mult)):
            poly = _poly_mul(poly, [QQ_I(1, 0), -QQ_I(Fraction(value), 0)])
    rest = lines[1:]
    if rest and rest[0].startswith("residual factor"):
        body = _field(rest[0], "residual factor (highest first): ")
        coeffs = [QQ_I(*parse_scalar(x)) for x in re.findall(r"\([^)]*\)|[^,\[\]\s]+", body)]
        poly = _poly_mul(poly, coeffs)
        rest = rest[1:]
    mat = spin_matrix(n, terms)
    hermitian = all(mat[r][c][0] == mat[c][r][0] and mat[r][c][1] == -mat[c][r][1]
                    for r in range(len(mat)) for c in range(len(mat)))
    return (len(rest) == 1 and rest[0] == f"hermitian: {hermitian}"
            and poly == charpoly_q_i(mat))


# ---------------------------------------------------------------------------
# verify all
# ---------------------------------------------------------------------------

def report_failures(checks, expected):
    """Checks whose status differs from the recorded one, plus recorded checks
    that are missing; a check added since the recording may not FAIL."""
    bad = sum(1 for c in checks
              if c["status"] != expected.get(c["id"], c["status"]) or c["status"] == "FAIL")
    return bad + len(set(expected) - {c["id"] for c in checks})
