"""Exact exterior algebra over an orthonormal coframe of R^n (2 <= n <= 8).

A Form is a degree-homogeneous element with rational coefficients, stored
densely: one Python-int numerator per blade of its degree over one positive
denominator, reduced as `linalg.Tensor` is.  The blades of degree p are the
ascending index tuples in `combinations(range(1, n + 1), p)` order, which is
also sorted-blade order.  Indices are 1-based throughout, matching the frame
labels e_1 .. e_n.  The metric is the identity on the coframe and the volume
blade e_1 ^ ... ^ e_n is the positive orientation.

Every operation is an integer gather/scatter over a signed table, cached per
(n, p) or (n, p, q) and built on first use.  A Fraction appears only where a
coefficient leaves the algebra: `coeff`, `eval`, `terms`,
`vector_components` and `inner`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import mul

import numpy as np

from .errors import DegreeError, DimensionMismatch

Q = Fraction
_ZERO = Q(0)


# ---------------------------------------------------------------------------
# the blade layout and the signed tables, each built on first use
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _blades(n, degree):
    return tuple(combinations(range(1, n + 1), degree))


@lru_cache(maxsize=None)
def _index(n, degree):
    return {b: c for c, b in enumerate(_blades(n, degree))}


def _sign_position(n, indices):
    """(sign, position) of the blade of an index tuple; (0, None) on a repeated
    index or one outside 1..n."""
    pos = _index(n, len(indices)).get(tuple(sorted(indices)))
    if pos is None:
        return 0, None
    return (-1) ** sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:]), pos


@lru_cache(maxsize=None)
def _locate(n, indices):
    """`_sign_position`, remembered for the index tuples that forms are read at."""
    return _sign_position(n, indices)


@lru_cache(maxsize=None)
def _wedge_table(n, p, q):
    """Per p-blade a: the (q-blade b, (p+q)-blade, sign bit) of every a ^ b != 0."""
    return tuple(tuple((ib, pos, sign < 0) for ib, b in enumerate(_blades(n, q))
                       for sign, pos in [_sign_position(n, a + b)] if sign)
                 for a in _blades(n, p))


@lru_cache(maxsize=None)
def _interior_table(n, p):
    """Per k in 1..n: the (p-blade, (p-1)-blade, sign bit) of every e_k -| blade != 0."""
    table = [[] for _ in range(n)]
    for c, blade in enumerate(_blades(n, p)):
        for pos, k in enumerate(blade):
            rest = _index(n, p - 1)[blade[:pos] + blade[pos + 1:]]
            table[k - 1].append((c, rest, pos % 2 == 1))
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def _hodge_table(n, p):
    """Per p-blade: its complement's position and the sign bit of (blade, complement)."""
    out = []
    for blade in _blades(n, p):
        rest = tuple(k for k in range(1, n + 1) if k not in blade)
        out.append((_index(n, n - p)[rest], _sign_position(n, blade + rest)[0] < 0))
    return tuple(out)


@lru_cache(maxsize=None)
def _blade_layout(n, degree):
    """Where the unit blades of a degree sit in a flattened dense tensor.

    Returns (signed, ascending): the gather index of the flat tensor, which
    is c where blade c has sign +1, C + c where it has sign -1 and 2 C where
    no blade is (C blades in all); and the flat position of each blade's
    ascending index, in blade order.
    """
    count = comb(n, degree)
    signed = np.array([pos if sign > 0 else count + pos if sign else 2 * count
                       for sign, pos in (_sign_position(n, ix) for ix in
                                         product(range(1, n + 1), repeat=degree))])
    ascending = np.array([sum((i - 1) * n ** (degree - 1 - k) for k, i in enumerate(b))
                          for b in _blades(n, degree)], dtype=np.intp)
    signed.flags.writeable = ascending.flags.writeable = False
    return signed, ascending


def blade_tensors(n, degree):
    """Stacked dense int64 tensors of the unit blades: sign(perm) at each permuted index."""
    eye = np.eye(comb(n, degree), dtype=np.int64)
    rows = np.vstack([eye, -eye, np.zeros((1, len(eye)), dtype=np.int64)])
    return rows[_blade_layout(n, degree)[0]].T.reshape((len(eye),) + (n,) * degree)


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else Q(x)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class Form:
    """Homogeneous exterior form: integer numerators on the blades over one denominator.

    The pair is kept reduced (denominator positive and coprime to the
    numerators as a whole), so equal forms have equal numerators and
    denominators.  A Form is never changed after it is built.
    """

    __slots__ = ("n", "degree", "num", "den")

    def __init__(self, n: int, degree: int, terms=None):
        """The form of a dict blade -> rational, each blade ascending in 1..n.

        This constructor validates input from outside the program; results
        built inside it use `of_numerators` or `of_rationals`.
        """
        # degree > n is allowed but forces the zero form (Lambda^p = 0 there)
        if degree < 0 or (degree > n and terms):
            raise DegreeError(f"degree {degree} out of range for dimension {n}")
        index = _index(n, degree)
        values = [0] * len(index)
        for blade, coeff in (terms or {}).items():
            c = _rational(coeff)
            if not c:
                continue
            if len(blade) != degree:
                raise DegreeError(f"blade {blade} does not have degree {degree}")
            if tuple(blade) not in index:
                raise ValueError(f"blade {blade} not ascending in 1..{n}")
            values[index[tuple(blade)]] = c
        f = Form.of_rationals(n, degree, values)
        self.n, self.degree, self.num, self.den = n, degree, f.num, f.den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_numerators(n: int, degree: int, num, den: int = 1) -> "Form":
        """The form num / den, num in blade order and den positive; reduced, not validated."""
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        f = object.__new__(Form)
        f.n, f.degree, f.num, f.den = n, degree, tuple(num), den
        return f

    @staticmethod
    def of_rationals(n: int, degree: int, values) -> "Form":
        """The form with the rationals `values` on the blades, in blade order; not validated."""
        values = [_rational(c) for c in values]
        den = lcm(1, *(c.denominator for c in values))
        return Form.of_numerators(n, degree, [c.numerator * (den // c.denominator)
                                              for c in values], den)

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        if degree < 0:
            raise DegreeError(f"degree {degree} out of range for dimension {n}")
        return Form.of_numerators(n, degree, (0,) * comb(n, degree))

    @staticmethod
    def scalar(n: int, value) -> "Form":
        return Form.of_rationals(n, 0, [value])

    @staticmethod
    def blade(n: int, *indices, coeff=1) -> "Form":
        sign, pos = _locate(n, indices)
        if not sign and len(set(indices)) == len(indices):
            raise ValueError(f"blade {indices} not in 1..{n}")
        c = _rational(coeff)
        num = [0] * comb(n, len(indices))
        if sign:
            num[pos] = sign * c.numerator
        return Form.of_numerators(n, len(indices), num, c.denominator)

    @staticmethod
    def basis_vector(n: int, i: int) -> "Form":
        return Form.blade(n, i)

    @staticmethod
    def from_vector(n: int, coeffs) -> "Form":
        values = list(coeffs)
        if len(values) != n:
            raise ValueError(f"{len(values)} components for dimension {n}")
        return Form.of_rationals(n, 1, values)

    # -- bookkeeping -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def terms(self) -> dict:
        """A new dict from each blade with a nonzero coefficient to that coefficient."""
        den = self.den
        return {b: Q(x, den) for b, x in zip(_blades(self.n, self.degree), self.num) if x}

    def coeff(self, *indices) -> Fraction:
        sign, pos = _locate(self.n, indices)
        return Q(sign * self.num[pos], self.den) if sign else _ZERO

    def vector_components(self):
        if self.degree != 1:
            raise DegreeError("vector components only defined for 1-forms")
        return [Q(x, self.den) for x in self.num]

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()  # the zero form is degree-agnostic
        return (self.degree, self.den, self.num) == (other.degree, other.den, other.num)

    def __hash__(self):
        if self.is_zero():
            return hash((self.n, "zero"))
        return hash((self.n, self.degree, self.den, self.num))

    def __repr__(self):
        if self.is_zero():
            return f"Form({self.n}d, deg {self.degree}, 0)"
        return " + ".join(f"{c}*{'^'.join(f'e{k}' for k in blade) or '1'}"
                          for blade, c in self.terms.items())

    # -- linear structure ----------------------------------------------------

    def _check_same_space(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension {self.n} vs {other.n}")

    def _combine(self, other, sign):
        """self + sign * other, where a zero summand is degree-agnostic."""
        self._check_same_space(other)
        if self.is_zero():
            return other.scale(sign)
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den * sign
        return Form.of_numerators(self.n, self.degree,
                                  [x * a + y * b for x, y in zip(self.num, other.num)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor) -> "Form":
        f = _rational(factor)
        return Form.of_numerators(self.n, self.degree, [x * f.numerator for x in self.num],
                                  self.den * f.denominator)

    def __rmul__(self, factor):
        return self.scale(factor)

    # -- evaluation ----------------------------------------------------------

    def eval(self, *indices) -> Fraction:
        """Value on the coframe vectors e_{i1}, .., e_{ip} (repeats give 0)."""
        if len(indices) != self.degree:
            raise DegreeError("wrong number of arguments")
        return self.coeff(*indices)


def _wedge_into(out, a, b, table):
    """out += a ^ b on numerators, by the wedge table of their degrees."""
    for x, row in zip(a, table):
        if x:
            signed = (x, -x)
            for ib, ic, neg in row:
                if b[ib]:
                    out[ic] += signed[neg] * b[ib]


def _contract(num, n, p, i):
    """Numerators of e_i -| a for the numerators of a p-form a."""
    out = [0] * comb(n, p - 1)
    for src, dst, neg in _interior_table(n, p)[i - 1]:
        out[dst] = -num[src] if neg else num[src]
    return out


def wedge(a: Form, b: Form) -> Form:
    a._check_same_space(b)
    n, degree = a.n, a.degree + b.degree
    out = [0] * comb(n, degree)
    if degree <= n:
        _wedge_into(out, a.num, b.num, _wedge_table(n, a.degree, b.degree))
    return Form.of_numerators(n, degree, out, a.den * b.den)


def interior(x: Form, a: Form) -> Form:
    """Interior product X -| a for a coframe-coefficient vector X (a 1-form)."""
    x._check_same_space(a)
    if x.degree != 1:
        raise DegreeError("contraction direction must be a vector (1-form)")
    n, p = a.n, a.degree
    if p == 0:
        return Form.zero(n, 0)
    out = [0] * comb(n, p - 1)
    for k, xk in enumerate(x.num, 1):
        if xk:
            for dst, y in enumerate(_contract(a.num, n, p, k)):
                out[dst] += xk * y
    return Form.of_numerators(n, p - 1, out, x.den * a.den)


def contract(a: Form, i: int) -> Form:
    """Shorthand for e_i -| a."""
    if not 1 <= i <= a.n:
        raise ValueError(f"contraction index {i} outside 1..{a.n}")
    if a.degree == 0:
        return Form.zero(a.n, 0)
    return Form.of_numerators(a.n, a.degree - 1, _contract(a.num, a.n, a.degree, i), a.den)


def hodge(a: Form) -> Form:
    n, p = a.n, a.degree
    if p > n:
        raise DegreeError(f"degree {p} out of range for dimension {n}")
    out = [0] * len(a.num)
    for x, (dst, neg) in zip(a.num, _hodge_table(n, p)):
        out[dst] = -x if neg else x
    return Form.of_numerators(n, n - p, out, a.den)


def inner(a: Form, b: Form) -> Fraction:
    """Blade-orthonormal pairing of equal-degree forms; degree mismatch gives 0."""
    a._check_same_space(b)
    if a.degree != b.degree:
        return _ZERO
    return Q(sum(map(mul, a.num, b.num)), a.den * b.den)


def volume_form(n: int) -> Form:
    return Form.of_numerators(n, n, (1,))


def sigma_t(t: Form) -> Form:
    """Torsion 4-form (1/2) sum_i (e_i -| T) ^ (e_i -| T) of a 3-form T."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    n = t.n
    out = [0] * comb(n, 4)
    for i in range(1, n + 1):
        ct = _contract(t.num, n, 3, i)
        _wedge_into(out, ct, ct, _wedge_table(n, 2, 2))
    return Form.of_numerators(n, 4, out, 2 * t.den * t.den)


def sigma_t_quadratic(t: Form) -> Form:
    """sigma^T from its quadratic definition g(T(X,Y),T(Z,V)) + cyclic in X,Y,Z."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    n = t.n

    def pair(i, j, k, l):
        return sum(t.eval(i, j, m) * t.eval(k, l, m) for m in range(1, n + 1))

    return Form.of_rationals(n, 4, [pair(x, y, z, v) + pair(y, z, x, v) + pair(z, x, y, v)
                                    for x, y, z, v in _blades(n, 4)])


def derivation(a: Form, image_degree: int, image) -> Form:
    """Extend a map e^m -> image(m) on the coframe to `a` as a graded derivation.

    The extension is sum_m image(m) ^ (e_m -| a): on a blade, e_m -| blade is
    (-1)^pos rest, where m sits at position pos and rest is the blade without
    it.  The sign is right both for 1-form images (a derivation) and for
    2-form images (an antiderivation such as d), because an even image
    commutes with every factor it passes.
    """
    n, p, degree = a.n, a.degree, a.degree + image_degree - 1
    out = [0] * comb(n, degree)
    if degree > n or p == 0 or a.is_zero():
        return Form.of_numerators(n, degree, out)
    images = [image(m) for m in range(1, n + 1)]
    for img in images:
        a._check_same_space(img)
        if img.degree != image_degree and not img.is_zero():
            raise DegreeError(f"image of degree {img.degree}, expected {image_degree}")
    den = lcm(*(img.den for img in images))
    table = _wedge_table(n, image_degree, p - 1)
    for m, img in enumerate(images, 1):
        if not img.is_zero():
            _wedge_into(out, [y * (den // img.den) for y in img.num],
                        _contract(a.num, n, p, m), table)
    return Form.of_numerators(n, degree, out, a.den * den)


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
    values = []
    for _ in _blades(n, degree):
        num = rng.randint(-span, span)
        values.append(Q(num, rng.randint(1, 3)))
    return Form.of_rationals(n, degree, values)
