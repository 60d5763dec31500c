"""Exact exterior algebra over an orthonormal coframe of R^n (2 <= n <= 8).

The module holds the exact base of every exact array in the program: an
object array of Python-int numerators over one reduced positive denominator,
with +, -, rational scaling by `*`, == and `is_zero`.  `numerators_of` is
the one place where rationals become numerators, and `common_denominator`
brings a list of exact arrays over one denominator.  `linalg.Tensor` and
`linalg.GaussTensor` are kinds of this base, and so is a Form.

A Form is a degree-homogeneous element with rational coefficients, stored
densely: one numerator per blade of its degree.  The blades of degree p are
the ascending index tuples in `combinations(range(1, n + 1), p)` order, which
is also sorted-blade order.  Indices are 1-based throughout, matching the frame
labels e_1 .. e_n.  The metric is the identity on the coframe and the volume
blade e_1 ^ ... ^ e_n is the positive orientation.

The module alone knows how blades are ordered and signed.  Every operation
is an integer gather/scatter over the one signed wedge table, cached per
(n, p, q) and built on first use, and reads the numerators once, as a list:
e_k -| blade and the Hodge star are rows of it.  `dense` is the one gather
between blade coefficients and dense tensors, and `Form.of_dense` the one
read back.  A Fraction appears only where a coefficient leaves the algebra:
`eval`, `terms`, `vector_components` and `inner`.
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
# the blade layout and the signed table, each built on first use
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


def _mask(blade):
    return sum(1 << i for i in blade)


@lru_cache(maxsize=None)
def _wedge_table(n, p, q):
    """Per p-blade a: the (q-blade b, (p+q)-blade, sign bit) of every a ^ b != 0,
    that is of every b whose bitmask is disjoint from a's."""
    right = [(ib, b, _mask(b)) for ib, b in enumerate(_blades(n, q))]
    return tuple(tuple((ib, pos, sign < 0) for ib, b, mb in right if not ma & mb
                       for sign, pos in [_sign_position(n, a + b)])
                 for a, ma in zip(_blades(n, p), map(_mask, _blades(n, p))))


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


def dense(coefficients, n: int, degree: int):
    """The dense tensors of forms: blade coefficients on the last axis become
    `degree` axes of length n, with sign(perm) at each permuted index.

    Leading axes are kept, and so is the dtype (int64 or object).
    """
    c = np.asarray(coefficients)
    zero = np.zeros(c.shape[:-1] + (1,), dtype=c.dtype)
    signed = np.concatenate([c, -c, zero], axis=-1)[..., _blade_layout(n, degree)[0]]
    return signed.reshape(c.shape[:-1] + (n,) * degree)


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else Q(x)


# ---------------------------------------------------------------------------
# exact arrays: integer numerators over one reduced denominator
# ---------------------------------------------------------------------------

def numerators_of(values):
    """The integer numerators of rationals over their least common denominator: (list, den)."""
    values = [_rational(c) for c in values]
    den = lcm(1, *(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def common_denominator(arrays):
    """The numerators of a list of exact arrays over their least common denominator: (list, den)."""
    den = lcm(*(a.den for a in arrays))
    return [a.num if a.den == den else a.num * (den // a.den) for a in arrays], den


class _Exact:
    """Exact array: an object array of Python-int numerators over one denominator.

    The pair is kept reduced (denominator positive and coprime to the
    numerators as a whole), so equal arrays have equal numerators and
    denominators.  An array is never changed after it is built.  `Form` and
    `linalg`'s `Tensor` and `GaussTensor` are its kinds: they share +, -,
    rational scaling, == and `is_zero`, and each result is built by `_like`,
    so it keeps its kind (and a form its n and degree).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = np.asarray(num, dtype=object)
        if den != 1:
            g = gcd(den, *num.flat)
            if g != 1:
                num, den = np.asarray(num // g, dtype=object), den // g
        self.num, self.den = num, den

    def _like(self, num, den):
        return type(self)(num, den)

    def __add__(self, other):
        den = lcm(self.den, other.den)
        return self._like(self.num * (den // self.den) + other.num * (den // other.den), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like(-self.num, self.den)

    def __mul__(self, factor):
        """Scaling by a rational number."""
        f = _rational(factor)
        return self._like(self.num * f.numerator, self.den * f.denominator)

    def __eq__(self, other):
        """Exact equality within one kind; another kind, or a list, raises TypeError."""
        if not isinstance(other, (_Exact, list, tuple)):
            return NotImplemented
        if type(other) is not type(self):
            raise TypeError(f"a {type(self).__name__} is compared with a {type(other).__name__}")
        return (self.den == other.den and self.num.shape == other.num.shape
                and bool((self.num == other.num).all()))

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.num.flat)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class Form(_Exact):
    """Homogeneous exterior form: the exact array of its coefficients in blade order.

    A form carries its dimension n and degree; the zero form equals the zero
    form of every degree.
    """

    __slots__ = ("n", "degree")

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
        self.n, self.degree = n, degree
        super().__init__(*numerators_of(values))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_numerators(n: int, degree: int, num, den: int = 1) -> "Form":
        """The form num / den, num in blade order and den positive; reduced, not validated."""
        f = object.__new__(Form)
        f.n, f.degree = n, degree
        _Exact.__init__(f, num, den)
        return f

    @staticmethod
    def of_dense(num, den: int = 1) -> "Form":
        """The form with the entries of a dense skew array num / den on its ascending indices."""
        n, degree = len(num), num.ndim
        return Form.of_numerators(n, degree, num.reshape(-1)[_blade_layout(n, degree)[1]], den)

    @staticmethod
    def of_rationals(n: int, degree: int, values) -> "Form":
        """The form with the rationals `values` on the blades, in blade order; not validated."""
        return Form.of_numerators(n, degree, *numerators_of(values))

    def _like(self, num, den):
        return Form.of_numerators(self.n, self.degree, num, den)

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        if degree < 0:
            raise DegreeError(f"degree {degree} out of range for dimension {n}")
        return Form.of_numerators(n, degree, [0] * comb(n, degree))

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
    def from_vector(n: int, coeffs) -> "Form":
        values = list(coeffs)
        if len(values) != n:
            raise ValueError(f"{len(values)} components for dimension {n}")
        return Form.of_rationals(n, 1, values)

    # -- bookkeeping -------------------------------------------------------

    @property
    def terms(self) -> dict:
        """A new dict from each blade with a nonzero coefficient to that coefficient."""
        den = self.den
        return {b: Q(x, den) for b, x in zip(_blades(self.n, self.degree), self.num.tolist()) if x}

    def vector_components(self):
        if self.degree != 1:
            raise DegreeError("vector components only defined for 1-forms")
        return [Q(x, self.den) for x in self.num.tolist()]

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.degree != other.degree:
            return self.is_zero() and other.is_zero()  # the zero form is degree-agnostic
        return super().__eq__(other)

    def __hash__(self):
        if self.is_zero():
            return hash((self.n, "zero"))
        return hash((self.n, self.degree, self.den, tuple(self.num.tolist())))

    def __repr__(self):
        if self.is_zero():
            return f"Form({self.n}d, deg {self.degree}, 0)"
        return " + ".join(f"{c}*{'^'.join(f'e{k}' for k in blade) or '1'}"
                          for blade, c in self.terms.items())

    # -- linear structure ----------------------------------------------------

    def _check_same_space(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension {self.n} vs {other.n}")

    def __add__(self, other):
        """The sum of forms on one R^n, where a zero summand is degree-agnostic."""
        self._check_same_space(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("cannot add forms of different degree")
        return super().__add__(other)

    # -- evaluation ----------------------------------------------------------

    def eval(self, *indices) -> Fraction:
        """Value on the coframe vectors e_{i1}, .., e_{ip} (repeats give 0)."""
        if len(indices) != self.degree:
            raise DegreeError("wrong number of arguments")
        sign, pos = _locate(self.n, indices)
        return Q(sign * self.num[pos], self.den) if sign else _ZERO


def _wedge_into(out, a, b, table):
    """out += a ^ b on numerators, by the wedge table of their degrees."""
    for x, row in zip(a, table):
        if x:
            signed = (x, -x)
            for ib, ic, neg in row:
                if b[ib]:
                    out[ic] += signed[neg] * b[ib]


def _contract(num, n, p, i):
    """Numerators of e_i -| a for the numerators of a p-form a.

    e_i ^ rest = +-blade exactly when e_i -| blade = +-rest, with the same
    sign, so row i of the wedge table of degrees (1, p - 1) is the read.
    """
    out = [0] * comb(n, p - 1)
    for rest, src, neg in _wedge_table(n, 1, p - 1)[i - 1]:
        out[rest] = -num[src] if neg else num[src]
    return out


def wedge(a: Form, b: Form) -> Form:
    a._check_same_space(b)
    n, degree = a.n, a.degree + b.degree
    out = [0] * comb(n, degree)
    if degree <= n:
        _wedge_into(out, a.num.tolist(), b.num.tolist(), _wedge_table(n, a.degree, b.degree))
    return Form.of_numerators(n, degree, out, a.den * b.den)


def interior(x: Form, a: Form) -> Form:
    """Interior product X -| a of a vector X (a 1-form): the derivation e^m -> x_m."""
    x._check_same_space(a)
    if x.degree != 1:
        raise DegreeError("contraction direction must be a vector (1-form)")
    if a.degree == 0:
        return Form.zero(a.n, 0)
    return derivation(a, 0, lambda m: Form.of_numerators(a.n, 0, x.num[m - 1:m], x.den))


def contract(a: Form, i: int) -> Form:
    """Shorthand for e_i -| a."""
    if not 1 <= i <= a.n:
        raise ValueError(f"contraction index {i} outside 1..{a.n}")
    if a.degree == 0:
        return Form.zero(a.n, 0)
    return Form.of_numerators(a.n, a.degree - 1, _contract(a.num.tolist(), a.n, a.degree, i),
                              a.den)


def hodge(a: Form) -> Form:
    n, p = a.n, a.degree
    if p > n:
        raise DegreeError(f"degree {p} out of range for dimension {n}")
    # the one entry of each row: the complement, and the sign of (blade, complement)
    out = [0] * len(a.num)
    for x, ((dst, _, neg),) in zip(a.num.tolist(), _wedge_table(n, p, n - p)):
        out[dst] = -x if neg else x
    return Form.of_numerators(n, n - p, out, a.den)


def inner(a: Form, b: Form) -> Fraction:
    """Blade-orthonormal pairing of equal-degree forms; degree mismatch gives 0."""
    a._check_same_space(b)
    if a.degree != b.degree:
        return _ZERO
    return Q(sum(map(mul, a.num.tolist(), b.num.tolist())), a.den * b.den)


def volume_form(n: int) -> Form:
    return Form.of_numerators(n, n, [1])


def sigma_t(t: Form) -> Form:
    """Torsion 4-form (1/2) sum_m c_m ^ c_m of a 3-form T, each c_m = e_m -| T contracted once."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    n, num, out = t.n, t.num.tolist(), [0] * comb(t.n, 4)
    for c in (_contract(num, n, 3, m) for m in range(1, n + 1)):
        _wedge_into(out, c, c, _wedge_table(n, 2, 2))
    return Form.of_numerators(n, 4, out, 2 * t.den * t.den)


def sigma_t_quadratic(t: Form) -> Form:
    """sigma^T from its quadratic definition g(T(X,Y),T(Z,V)) + cyclic in X,Y,Z."""
    if t.degree != 3:
        raise DegreeError("sigma_t expects a 3-form")
    n, tensor = t.n, dense(t.num, t.n, 3)
    x, y, z, v = (np.array(_blades(n, 4), dtype=np.intp).reshape(-1, 4) - 1).T

    def pair(i, j, k, l):
        return (tensor[i, j] * tensor[k, l]).sum(axis=-1)

    return Form.of_numerators(n, 4, pair(x, y, z, v) + pair(y, z, x, v) + pair(z, x, y, v),
                              t.den * t.den)


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
    nums, den = common_denominator(images)
    table, num = _wedge_table(n, image_degree, p - 1), a.num.tolist()
    for m, img in enumerate(nums, 1):
        img = img.tolist()
        if any(img):
            _wedge_into(out, img, _contract(num, n, p, m), table)
    return Form.of_numerators(n, degree, out, a.den * den)


def all_blades(n: int, degree: int):
    """The blades of a degree, ascending index tuples in blade order."""
    return _blades(n, degree)


def random_form(n: int, degree: int, rng, span=6) -> Form:
    """Random rational form with numerators/denominators bounded by `span`."""
    values = []
    for _ in _blades(n, degree):
        num = rng.randint(-span, span)
        values.append(Q(num, rng.randint(1, 3)))
    return Form.of_rationals(n, degree, values)
