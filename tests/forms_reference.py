"""Reference exterior algebra on sparse dicts {ascending blade: Fraction}.

These are the per-term algorithms (merge signs, complement signs, one
Fraction per term) that the dense signed tables of `skewtor.forms` replaced
in the program, kept here to compare the tables against term for term.
Indices are 1-based, as in the program.

`nabla_form` and `so_action` are the per-form derivations on program Forms
that `skewtor.linalg.slot_sum` replaced: one `skewtor.forms.derivation`
with 1-form images for each covariant derivative or so(n) element.
`d_squared` is the per-form check of d^2 = 0 that the Jacobi tensor of
`skewtor.liegeom.LieModel` replaced.
"""

from fractions import Fraction as Q
from itertools import combinations

from skewtor import forms


def merge_sign(left, right):
    """Merge two ascending index tuples; return (sign, merged) or (0, None) on clash."""
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining len(left)-i entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def wedge_table(n, p, q):
    """`skewtor.forms._wedge_table` from all C(n, p) C(n, q) pairs of blades: per
    p-blade a, the (q-blade, (p+q)-blade, sign bit) of every a ^ b != 0, by index."""
    index = {b: k for k, b in enumerate(combinations(range(1, n + 1), p + q))}
    return tuple(tuple((ib, index[merged], sign < 0)
                       for ib, b in enumerate(combinations(range(1, n + 1), q))
                       for sign, merged in [merge_sign(a, b)] if sign)
                 for a in combinations(range(1, n + 1), p))


def _add(terms, blade, c):
    s = terms.get(blade, Q(0)) + c
    if s:
        terms[blade] = s
    else:
        terms.pop(blade, None)


def wedge(a, b):
    out = {}
    for bl_a, ca in a.items():
        for bl_b, cb in b.items():
            sign, merged = merge_sign(bl_a, bl_b)
            if sign:
                _add(out, merged, sign * ca * cb)
    return out


def interior(x, a):
    """X -| a for a 1-form X given as {(i,): coefficient}."""
    out = {}
    for (i,), cx in x.items():
        for blade, ca in a.items():
            if i in blade:
                pos = blade.index(i)
                _add(out, blade[:pos] + blade[pos + 1:], (-1 if pos % 2 else 1) * cx * ca)
    return out


def complement_sign(blade, n):
    comp = tuple(k for k in range(1, n + 1) if k not in blade)
    # parity of the permutation (blade, comp) of (1..n): count inversions
    inv = sum(1 for b in blade for c in comp if c < b)
    return (-1 if inv % 2 else 1), comp


def hodge(a, n):
    out = {}
    for blade, c in a.items():
        sign, comp = complement_sign(blade, n)
        out[comp] = sign * c
    return out


def inner(a, b):
    return sum((c * b[blade] for blade, c in a.items() if blade in b), Q(0))


def derivation(a, image):
    """sum over blades and positions of (-1)^pos image(m) ^ rest."""
    out = {}
    for blade, coeff in a.items():
        for pos, m in enumerate(blade):
            rest = {blade[:pos] + blade[pos + 1:]: -coeff if pos % 2 else coeff}
            for merged, c in wedge(image(m), rest).items():
                _add(out, merged, c)
    return out


def sigma_t(t, n):
    out = {}
    for i in range(1, n + 1):
        ct = interior({(i,): Q(1)}, t)
        for blade, c in wedge(ct, ct).items():
            _add(out, blade, c / 2)
    return out


def render(terms):
    """`formexpr.render_form` of the form with these terms."""
    if not terms:
        return "0"
    bits = []
    for blade, c in sorted(terms.items()):
        mono = "^".join(f"e{k}" for k in blade)
        if not mono:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")


def nabla_form(conn, i, a):
    """nabla_{e_i} of an invariant Form, the derivation e^j -> sum_k omega[i, j, k] e^k."""
    n, omega = conn.model.n, conn.omega
    return forms.derivation(
        a, 1, lambda j: forms.Form.of_numerators(n, 1, omega.num[i - 1, j - 1], omega.den))


def so_action(alpha, a):
    """The derivation action of a 2-form alpha (an so(n) element): e^m -> e_m -| alpha."""
    return forms.derivation(a, 1, lambda m: forms.contract(alpha, m))


def d_squared(d_coframe):
    """d(de_k) for each structure 2-form de_k, d the derivation e^i -> de_i."""
    return [forms.derivation(d, 2, lambda i: d_coframe[i - 1]) for d in d_coframe]
