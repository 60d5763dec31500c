"""Exact exterior algebra over an orthonormal coframe of R^n (2 <= n <= 8).

A Form is a degree-homogeneous element with rational coefficients, stored
sparsely on ascending-index blades.  Indices are 1-based throughout, matching
the frame labels e_1 .. e_n.  The metric is the identity on the coframe and
the volume blade e_1 ^ ... ^ e_n is the positive orientation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import DegreeError, DimensionMismatch

Q = Fraction


def _merge_sign(left: tuple, right: tuple):
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


def _sort_sign(indices):
    """Sign of sorting `indices` ascending; (0, None) if an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, None
    return sign, tuple(idx)


class Form:
    """Homogeneous exterior form with exact rational coefficients."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms=None):
        # degree > n is allowed but forces the zero form (Lambda^p = 0 there)
        if degree < 0 or (degree > n and terms):
            raise DegreeError(f"degree {degree} out of range for dimension {n}")
        self.n = n
        self.degree = degree
        tidy = {}
        for blade, coeff in (terms or {}).items():
            c = Q(coeff)
            if not c:
                continue
            if len(blade) != degree:
                raise DegreeError(f"blade {blade} does not have degree {degree}")
            if blade and not (all(1 <= k <= n for k in blade) and all(
                    blade[i] < blade[i + 1] for i in range(len(blade) - 1))):
                raise ValueError(f"blade {blade} not ascending in 1..{n}")
            tidy[tuple(blade)] = c
        self.terms = tidy

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        return Form(n, degree)

    @staticmethod
    def scalar(n: int, value) -> "Form":
        return Form(n, 0, {(): Q(value)})

    @staticmethod
    def blade(n: int, *indices, coeff=1) -> "Form":
        sign, blade_ix = _sort_sign(indices)
        if sign == 0:
            return Form(n, len(indices))
        return Form(n, len(indices), {blade_ix: sign * Q(coeff)})

    @staticmethod
    def basis_vector(n: int, i: int) -> "Form":
        return Form.blade(n, i)

    @staticmethod
    def from_vector(n: int, coeffs) -> "Form":
        return Form(n, 1, {(i + 1,): Q(c) for i, c in enumerate(coeffs) if c})

    # -- bookkeeping -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, *indices) -> Fraction:
        sign, blade_ix = _sort_sign(indices)
        if sign == 0:
            return Q(0)
        return sign * self.terms.get(blade_ix, Q(0))

    def vector_components(self):
        if self.degree != 1:
            raise DegreeError("vector components only defined for 1-forms")
        return [self.terms.get((i,), Q(0)) for i in range(1, self.n + 1)]

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            return False
        if not self.terms and not other.terms:
            return True  # the zero form is degree-agnostic
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        if not self.terms:
            return hash((self.n, "zero"))
        return hash((self.n, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return f"Form({self.n}d, deg {self.degree}, 0)"
        bits = []
        for blade, c in sorted(self.terms.items()):
            mono = "^".join(f"e{k}" for k in blade) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    # -- linear structure ----------------------------------------------------

    def _check_same_space(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_same_space(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        terms = dict(self.terms)
        for blade, c in other.terms.items():
            s = terms.get(blade, Q(0)) + c
            if s:
                terms[blade] = s
            else:
                terms.pop(blade, None)
        return Form(self.n, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.n, self.degree, {b: -c for b, c in self.terms.items()})

    def scale(self, factor) -> "Form":
        f = Q(factor)
        if not f:
            return Form(self.n, self.degree)
        return Form(self.n, self.degree, {b: f * c for b, c in self.terms.items()})

    def __rmul__(self, factor):
        return self.scale(factor)

    # -- evaluation ----------------------------------------------------------

    def eval(self, *indices) -> Fraction:
        """Value on the coframe vectors e_{i1}, .., e_{ip} (repeats give 0)."""
        if len(indices) != self.degree:
            raise DegreeError("wrong number of arguments")
        return self.coeff(*indices)


def wedge(a: Form, b: Form) -> Form:
    a._check_same_space(b)
    if a.degree + b.degree > a.n:
        return Form(a.n, a.degree + b.degree)
    terms = {}
    for bl_a, ca in a.terms.items():
        for bl_b, cb in b.terms.items():
            sign, merged = _merge_sign(bl_a, bl_b)
            if sign == 0:
                continue
            c = terms.get(merged, Q(0)) + sign * ca * cb
            if c:
                terms[merged] = c
            else:
                terms.pop(merged, None)
    return Form(a.n, a.degree + b.degree, terms)


def interior(x: Form, a: Form) -> Form:
    """Interior product X -| a for a coframe-coefficient vector X (a 1-form)."""
    x._check_same_space(a)
    if x.degree != 1:
        raise DegreeError("contraction direction must be a vector (1-form)")
    if a.degree == 0:
        return Form(a.n, 0)
    terms = {}
    for (i,), cx in x.terms.items():
        for blade, ca in a.terms.items():
            if i not in blade:
                continue
            pos = blade.index(i)
            sign = -1 if pos % 2 else 1
            rest = blade[:pos] + blade[pos + 1:]
            c = terms.get(rest, Q(0)) + sign * cx * ca
            if c:
                terms[rest] = c
            else:
                terms.pop(rest, None)
    return Form(a.n, a.degree - 1, terms)


def contract(a: Form, i: int) -> Form:
    """Shorthand for e_i -| a."""
    return interior(Form.basis_vector(a.n, i), a)


def _complement_sign(blade, n):
    comp = tuple(k for k in range(1, n + 1) if k not in blade)
    # parity of the permutation (blade, comp) of (1..n): count inversions
    inv = 0
    for b in blade:
        inv += sum(1 for c in comp if c < b)
    return (-1 if inv % 2 else 1), comp


def hodge(a: Form) -> Form:
    terms = {}
    for blade, c in a.terms.items():
        sign, comp = _complement_sign(blade, a.n)
        terms[comp] = sign * c
    return Form(a.n, a.n - a.degree, terms)


def inner(a: Form, b: Form, strict: bool = False) -> Fraction:
    """Blade-orthonormal pairing of equal-degree forms; degree mismatch gives 0."""
    a._check_same_space(b)
    if a.degree != b.degree:
        if strict:
            raise DegreeError("inner product of forms of different degree")
        return Q(0)
    total = Q(0)
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for blade, c in small.items():
        other = big.get(blade)
        if other:
            total += c * other
    return total


def volume_form(n: int) -> Form:
    return Form(n, n, {tuple(range(1, n + 1)): Q(1)})


def sigma_t(t: Form) -> Form:
    """Torsion 4-form (1/2) sum_i (e_i -| T) ^ (e_i -| T) of a 3-form T."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    total = Form(t.n, 4)
    for i in range(1, t.n + 1):
        ct = contract(t, i)
        total = total + wedge(ct, ct)
    return total.scale(Q(1, 2))


def sigma_t_quadratic(t: Form) -> Form:
    """sigma^T from its quadratic definition g(T(X,Y),T(Z,V)) + cyclic in X,Y,Z."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    n = t.n

    def tvec(i, j):
        return [t.eval(i, j, k) for k in range(1, n + 1)]

    def pair(i, j, k, l):
        u, v = tvec(i, j), tvec(k, l)
        return sum(u[m] * v[m] for m in range(n))

    terms = {}
    for blade in combinations(range(1, n + 1), 4):
        x, y, z, v = blade
        val = pair(x, y, z, v) + pair(y, z, x, v) + pair(z, x, y, v)
        if val:
            terms[blade] = val
    return Form(n, 4, terms)


def derivation(a: Form, image_degree: int, image) -> Form:
    """Extend a map e^m -> image(m) on the coframe to `a` as a graded derivation.

    Sums (-1)^pos image(m) ^ rest over the blades of `a`, where m sits at
    position pos and rest is the blade without it.  The sign is right both for
    1-form images (a derivation) and for 2-form images (an antiderivation such
    as d), because an even image commutes with every factor it passes.
    """
    out = Form(a.n, a.degree + image_degree - 1)
    for blade, coeff in a.terms.items():
        for pos, m in enumerate(blade):
            rest = Form(a.n, a.degree - 1, {blade[:pos] + blade[pos + 1:]:
                                            -coeff if pos % 2 else coeff})
            out = out + wedge(image(m), rest)
    return out


def so_action(alpha: Form, a: Form) -> Form:
    """Derivation action of a 2-form (an so(n) element) on a form.

    On the coframe, e^m maps to e_m -| alpha = sum_k alpha(e_m, e_k) e^k; the
    sign is pinned so that the canonical dimension-7 identity
    rho(Z -| w3)(w3) = -3 (Z -| *w3) holds (enforced by the test suite).
    """
    alpha._check_same_space(a)
    if alpha.degree != 2:
        raise DegreeError("so(n) elements are 2-forms")
    return derivation(a, 1, lambda m: contract(alpha, m))


def all_blades(n: int, degree: int):
    return combinations(range(1, n + 1), degree)


def random_form(n: int, degree: int, rng, span=6) -> Form:
    """Random rational form with numerators/denominators bounded by `span`."""
    terms = {}
    for blade in all_blades(n, degree):
        num = rng.randint(-span, span)
        den = rng.randint(1, 3)
        if num:
            terms[blade] = Q(num, den)
    return Form(n, degree, terms)
