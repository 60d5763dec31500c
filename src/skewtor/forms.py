"""Exact exterior algebra over an orthonormal coframe of R^n (2 <= n <= 8).

The module holds the exact base of every exact array in the program: one
numpy array of integer numerators over one reduced positive denominator,
with +, -, rational scaling by `*`, == and `is_zero`.  The array carries a
bound on its largest absolute entry, set where the array is built and
propagated by each operation instead of read from the entries: the
numerators are int64 while the bound is below 2^62, and an object array of
Python ints past it, so no int64 step can wrap and the object dtype is the
one exact fallback.  `numerators_of` is the one place where rationals become
numerators, and `common_denominator` brings a list of exact arrays over one
denominator.  `linalg.Tensor` and `linalg.GaussTensor` are kinds of this
base, and so is a Form.

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
read back.  A Fraction, always of Python ints, appears only where a
coefficient leaves the algebra: `eval`, `terms`, `vector_components` and
`inner`.
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

# numerators are int64 below this bound; its margin below 2^63 keeps a sign
# change and the sum of two entries within int64
_WORD = 1 << 62
# an array of at most this many entries is reduced by Python's gcd, which
# costs less there than one numpy reduction
_SMALL = 64


def _abs_max(num) -> int:
    """The largest absolute entry of a list of integers or of an integer array (0 when empty)."""
    if isinstance(num, np.ndarray):
        if num.dtype != object:
            # read as uint64, the absolute value of -2^63 is 2^63
            return int(np.abs(num.astype(np.int64, copy=False)).view(np.uint64).max()) \
                if num.size else 0
        num = num.flat
    return int(max(map(abs, num), default=0))


def _exact_array(num, bound):
    """Integer numerators under `bound`: int64 below 2^62, an object array of Python ints past it.

    A list is read with the dtype given, never inferred (numpy reads
    [-1, 2^63] as float64).
    """
    return np.asarray(num, dtype=np.int64 if bound < _WORD else object)


def _widened(num, bound):
    """The numerators as Python ints when an operation's bound reaches 2^62."""
    return num if bound < _WORD else num.astype(object, copy=False)


def _gcd(den, num):
    """gcd(den, every entry of num), Python's for object and small arrays, else numpy's."""
    if num.dtype == object:
        return gcd(den, *num.flat)
    if num.size <= _SMALL:
        return gcd(den, *num.ravel().tolist())
    return gcd(den, int(np.gcd.reduce(num, axis=None)))


def numerators_of(values):
    """The integer numerators of rationals over their least common denominator: (list, den)."""
    values = [_rational(c) for c in values]
    den = lcm(1, *(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def common_denominator(arrays):
    """A list of exact arrays over their least common denominator: (numerators, den, bound).

    The bound holds for every array of numerators returned.
    """
    den = lcm(*(a.den for a in arrays))
    nums, bound = [], 0
    for a in arrays:
        f = den // a.den
        nums.append(a.num if f == 1 else _widened(a.num, max(a.bound, 1) * f) * f)
        bound = max(bound, a.bound * f)
    return nums, den, bound


class _Exact:
    """Exact array: integer numerators over one denominator, with a bound on the numerators.

    The pair is kept reduced (denominator positive and coprime to the
    numerators as a whole), so equal arrays have equal numerators and
    denominators.  `bound` is at least the largest absolute numerator; it is
    given by whoever builds the array from an operation (sums, scalings,
    slices, products) and read from the entries only when it is not, a list
    by Python's max.  The numerators are int64 while the bound is below
    2^62 and an object array of Python ints past it, and every operation
    works on Python ints when its result's bound reaches 2^62.  An array is
    never changed after it is built.  `Form` and `linalg`'s `Tensor` and
    `GaussTensor` are its kinds: they share +, -, rational scaling, == and
    `is_zero`, and each result is built by `_like`, so it keeps its kind
    (and a form its n and degree).
    """

    __slots__ = ("num", "den", "bound")

    def __init__(self, num, den=1, bound=None):
        if bound is None:
            bound = _abs_max(num)
        num = _exact_array(num, bound)
        if not bound:
            den = 1
        elif den != 1:
            g = _gcd(den, num)
            if g != 1:
                # g beyond the bound divides only zeros (and may be past int64)
                num, den, bound = (_exact_array(num // g if g <= bound else num, bound // g),
                                   den // g, bound // g)
        self.num, self.den, self.bound = num, den, bound

    def _like(self, num, den, bound):
        return type(self)(num, den, bound)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op):
        """self + other or self - other (op np.add or np.subtract) over the lcm of the dens."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        wide = max(self.bound, 1) * fa + max(other.bound, 1) * fb
        a, b = _widened(self.num, wide), _widened(other.num, wide)
        return self._like(op(a if fa == 1 else a * fa, b if fb == 1 else b * fb), den,
                          self.bound * fa + other.bound * fb)

    def __neg__(self):
        return self._like(-self.num, self.den, self.bound)

    def __mul__(self, factor):
        """Scaling by a rational number."""
        f = _rational(factor)
        p = f.numerator
        return self._like(_widened(self.num, max(self.bound, 1) * abs(p)) * p,
                          self.den * f.denominator, self.bound * abs(p))

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
        return not self.bound or not np.count_nonzero(self.num)


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
        nonzero = {}
        for blade, coeff in (terms or {}).items():
            c = _rational(coeff)
            if not c:
                continue
            if len(blade) != degree:
                raise DegreeError(f"blade {blade} does not have degree {degree}")
            if tuple(blade) not in index:
                raise ValueError(f"blade {blade} not ascending in 1..{n}")
            nonzero[index[tuple(blade)]] = c
        # only the nonzero terms are read, over one lcm, into zero numerators
        values, den = numerators_of(nonzero.values())
        bound = _abs_max(values)
        num = _widened(np.zeros(len(index), dtype=np.int64), bound)
        num[list(nonzero)] = values
        self.n, self.degree = n, degree
        super().__init__(num, den, bound)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of_numerators(n: int, degree: int, num, den: int = 1, bound=None) -> "Form":
        """The form num / den, num in blade order and den positive; reduced, not validated.

        `bound` bounds the absolute numerators; it is read from them when None.
        """
        f = object.__new__(Form)
        f.n, f.degree = n, degree
        _Exact.__init__(f, num, den, bound)
        return f

    @staticmethod
    def of_dense(num, den: int = 1, bound=None) -> "Form":
        """The form with the entries of a dense skew array num / den on its ascending indices."""
        n, degree = len(num), num.ndim
        return Form.of_numerators(n, degree, num.reshape(-1)[_blade_layout(n, degree)[1]], den,
                                  bound)

    @staticmethod
    def of_rationals(n: int, degree: int, values) -> "Form":
        """The form with the rationals `values` on the blades, in blade order; not validated."""
        return Form.of_numerators(n, degree, *numerators_of(values))

    def _like(self, num, den, bound):
        return Form.of_numerators(self.n, self.degree, num, den, bound)

    @staticmethod
    def zero(n: int, degree: int = 0) -> "Form":
        if degree < 0:
            raise DegreeError(f"degree {degree} out of range for dimension {n}")
        return Form.of_numerators(n, degree, [0] * comb(n, degree), 1, 0)

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
        return Form.of_numerators(n, len(indices), num, c.denominator,
                                  abs(c.numerator) if sign else 0)

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

    def _combine(self, other, op):
        """The sum or difference of forms on one R^n, where a zero summand is degree-agnostic."""
        self._check_same_space(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other if op is np.add else -other
            if other.is_zero():
                return self
            raise DegreeError("cannot add forms of different degree")
        return super()._combine(other, op)

    # -- evaluation ----------------------------------------------------------

    def eval(self, *indices) -> Fraction:
        """Value on the coframe vectors e_{i1}, .., e_{ip} (repeats give 0)."""
        if len(indices) != self.degree:
            raise DegreeError("wrong number of arguments")
        sign, pos = _locate(self.n, indices)
        return Q(sign * int(self.num[pos]), self.den) if sign else _ZERO


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
    """a ^ b; each coefficient sums at most C(p + q, p) products, one per split of its blade."""
    a._check_same_space(b)
    n, degree = a.n, a.degree + b.degree
    out = [0] * comb(n, degree)
    if degree <= n:
        _wedge_into(out, a.num.tolist(), b.num.tolist(), _wedge_table(n, a.degree, b.degree))
    return Form.of_numerators(n, degree, out, a.den * b.den,
                              comb(degree, a.degree) * a.bound * b.bound)


def interior(x: Form, a: Form) -> Form:
    """Interior product X -| a of a vector X (a 1-form): the derivation e^m -> x_m."""
    x._check_same_space(a)
    if x.degree != 1:
        raise DegreeError("contraction direction must be a vector (1-form)")
    if a.degree == 0:
        return Form.zero(a.n, 0)
    return derivation(a, 0, lambda m: Form.of_numerators(a.n, 0, x.num[m - 1:m], x.den, x.bound))


def contract(a: Form, i: int) -> Form:
    """Shorthand for e_i -| a."""
    if not 1 <= i <= a.n:
        raise ValueError(f"contraction index {i} outside 1..{a.n}")
    if a.degree == 0:
        return Form.zero(a.n, 0)
    return Form.of_numerators(a.n, a.degree - 1, _contract(a.num.tolist(), a.n, a.degree, i),
                              a.den, a.bound)


def hodge(a: Form) -> Form:
    n, p = a.n, a.degree
    if p > n:
        raise DegreeError(f"degree {p} out of range for dimension {n}")
    # the one entry of each row: the complement, and the sign of (blade, complement)
    out = [0] * len(a.num)
    for x, ((dst, _, neg),) in zip(a.num.tolist(), _wedge_table(n, p, n - p)):
        out[dst] = -x if neg else x
    return Form.of_numerators(n, n - p, out, a.den, a.bound)


def inner(a: Form, b: Form) -> Fraction:
    """Blade-orthonormal pairing of equal-degree forms; degree mismatch gives 0."""
    a._check_same_space(b)
    if a.degree != b.degree:
        return _ZERO
    return Q(sum(map(mul, a.num.tolist(), b.num.tolist())), a.den * b.den)


def volume_form(n: int) -> Form:
    return Form.of_numerators(n, n, [1], 1, 1)


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
    # three sums of n products of entries
    n, bound = t.n, 3 * t.n * t.bound ** 2
    tensor = dense(_widened(t.num, bound), n, 3)
    x, y, z, v = (np.array(_blades(n, 4), dtype=np.intp).reshape(-1, 4) - 1).T

    def pair(i, j, k, l):
        return (tensor[i, j] * tensor[k, l]).sum(axis=-1)

    return Form.of_numerators(n, 4, pair(x, y, z, v) + pair(y, z, x, v) + pair(z, x, y, v),
                              t.den * t.den, bound)


def derivation(a: Form, image_degree: int, image) -> Form:
    """Extend a map e^m -> image(m) on the coframe to `a` as a graded derivation.

    The extension is sum_m image(m) ^ (e_m -| a): on a blade, e_m -| blade is
    (-1)^pos rest, where m sits at position pos and rest is the blade without
    it.  The sign is right both for 1-form images (a derivation) and for
    2-form images (an antiderivation such as d), because an even image
    commutes with every factor it passes.  A coefficient of the result sums
    one product per split of its blade into an image blade and a rest, and
    per m outside the rest: at most (n - p + 1) C(degree, image_degree).
    """
    n, p, degree = a.n, a.degree, a.degree + image_degree - 1
    out = [0] * comb(n, degree)
    if degree > n or p == 0 or a.is_zero():
        return Form.of_numerators(n, degree, out, 1, 0)
    images = [image(m) for m in range(1, n + 1)]
    for img in images:
        a._check_same_space(img)
        if img.degree != image_degree and not img.is_zero():
            raise DegreeError(f"image of degree {img.degree}, expected {image_degree}")
    nums, den, bound = common_denominator(images)
    table, num = _wedge_table(n, image_degree, p - 1), a.num.tolist()
    for m, img in enumerate(nums, 1):
        img = img.tolist()
        if any(img):
            _wedge_into(out, img, _contract(num, n, p, m), table)
    return Form.of_numerators(n, degree, out, a.den * den,
                              (n - p + 1) * comb(degree, image_degree) * bound * a.bound)


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
