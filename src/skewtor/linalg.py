"""Exact linear algebra: rationals, Gaussian rationals, and certified big-matrix statements.

Invariant tensors (structure constants, connection coefficients, curvature,
the tensors of forms) are exact dense `Tensor`s, and every identity over them
is one `Tensor.einsum` contraction, run by a plan compiled once per spec and
operand shapes (the pairwise plans of opt_einsum, paired left to right): the
diagonals and lone sums of each operand are index gathers and sums, and each
pairwise contraction is one stacked integer matrix product.  `Tensor` and
`GaussTensor` are kinds of the exact base of `forms` (reduction, +, -,
rational scaling, ==), which `Form` shares, with indexing added: `forms`
alone decides whether numerators are int64 or Python ints, from the bound
each array carries, and every operation propagates the bound, contractions
and products included; lists of them are brought over one denominator by
`forms.common_denominator`.  Spinor endomorphisms, spinors and
characteristic polynomials are exact dense `GaussTensor`s, the same layout
with an imaginary part and the one Gaussian type, multiplied by integer
matrix products.  Every dense integer matrix product in the program is
`int_matmul(a, b, a_bound, b_bound)`, which reads no bound from its
operands: float64 BLAS when the a-priori bound n a_bound b_bound < 2^53
makes every partial sum an integer that a double holds exactly (the
word-size technique of FFLAS-FFPACK), Python integers otherwise, so a float
only ever carries such an integer.  Every contraction step is one, under the
bounds its operands carry, and so is every slot of `slot_sum`, the
derivation action of so(n) elements on a tensor, a Tensor from Tensors.
The two products on bare integer arrays state their bounds too: `charpoly`'s
residues lie below their primes, and the product chain of
`certified_eigenspace_dims` reads its entries once per step, as a carried
bound would grow as n^k.  Every exact rank and kernel runs one fraction-free
Gauss-Jordan elimination over Z on the integer numerators, in which a pivot
changes only the rows it hits and keeps each of them primitive, so no entry
exceeds the minor of the input that Bareiss's elimination would hold there;
a Gaussian system enters it with each entry a + bi as the real block
[[a, -b], [b, a]], and every rank claim on the representation-theoretic
matrices (up to 196 x 196) is read from it.  A stated spectrum is proven,
not searched for: one exact product chain prod_k (N - r_k I) by `int_matmul`
over the candidate values times d, for a Tensor or GaussTensor A = N / d
(`certified_spectrum`, a Gaussian N by its real form), vanishes exactly when
A is diagonalizable with eigenvalues among them, and the traces of its
partial products count them.  Only the `spin-eig` command finds an unknown
spectrum: `charpoly` computes det(yI - dA) over Z[i] (d the denominator of
A), for one matrix or for each block of a stack of square blocks of one
size, by one batched Faddeev-LeVerrier run modulo the primes p = 1 (mod 4)
of one pool (the primes below 2^21, which no other code reads), over primes
x 2 images x blocks, rebuilt by the Chinese remainder theorem under a proven
bound, and `rational_roots` finds its rational roots by a divisor search and
Horner's rule.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod

import numpy as np

from .errors import DegreeError, DimensionMismatch, SkewtorError
from .forms import (Form, _Exact, _abs_max, _exact_array, _widened, common_denominator, dense,
                    numerators_of)

Q = Fraction


# ---------------------------------------------------------------------------
# exact dense tensors
# ---------------------------------------------------------------------------

class _Array(_Exact):
    """The exact base with `len`, indexing and iteration, shared by `Tensor` and `GaussTensor`."""

    __slots__ = ()

    def __getitem__(self, index):
        """A Fraction for a full index of a real Tensor, else a tensor of this kind."""
        part = self.num[index]
        if isinstance(part, np.ndarray):
            return type(self)(part, self.den, self.bound)
        return Q(int(part), self.den)

    def __len__(self):
        return len(self.num)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return f"{type(self).__name__}(shape {self.num.shape}, denominator {self.den})"


class Tensor(_Array):
    """Exact dense tensor of rationals: the tensors of forms, their einsum contractions."""

    __slots__ = ()

    @staticmethod
    def of(values) -> "Tensor":
        """Tensor of nested lists (or an array) of rationals; a Tensor is returned as is."""
        if isinstance(values, GaussTensor):
            raise TypeError("a GaussTensor has no real entries")
        if isinstance(values, Tensor):
            return values
        arr = np.asarray(values, dtype=object)
        nums, den = numerators_of(arr.flat)
        bound = _abs_max(nums)
        return Tensor(_exact_array(nums, bound).reshape(arr.shape), den, bound)

    def __eq__(self, other):
        """Nested lists are read as a Tensor."""
        return super().__eq__(Tensor.of(other) if isinstance(other, (list, tuple)) else other)

    @staticmethod
    def identity(n: int) -> "Tensor":
        return Tensor(np.eye(n, dtype=np.int64), 1, min(n, 1))

    @staticmethod
    def of_form(form: Form) -> "Tensor":
        """The tensor a(e_i1, .., e_ip) of a form, indexed from 0."""
        stacked = Tensor.of_forms([form])
        return Tensor(stacked.num[0], stacked.den, stacked.bound)

    @staticmethod
    def of_forms(forms) -> "Tensor":
        """Tensors of forms of one degree, stacked on a leading axis: [k, i1, .., ip]."""
        n, degree = forms[0].n, forms[0].degree
        if any(f.n != n for f in forms):
            raise DimensionMismatch("forms of different dimension")
        if any(f.degree != degree for f in forms):
            raise DegreeError("forms of different degree")
        nums, den, bound = common_denominator(forms)
        return Tensor(dense(np.stack(nums), n, degree), den, bound)

    def to_form(self) -> Form:
        """The form with this tensor's entries on ascending indices (for a skew tensor)."""
        return Form.of_dense(self.num, self.den, self.bound)

    @staticmethod
    def einsum(spec: str, *operands: "Tensor") -> "Tensor":
        """Exact contraction of real tensors, written as for numpy.einsum in letters with `->`.

        The plan of (spec, operand shapes) is compiled once by `_plan` and run
        here: the diagonals and lone sums of each operand, then one stacked
        `int_matmul` per further operand, left to right, then the output order.
        The bounds are carried, not read: a lone sum multiplies its operand's
        bound by the sizes it sums over, and a product with inner size k
        multiplies the two bounds and k, so the result's bound is the product
        of the operands' bounds and of the sizes of the letters not in the
        output.  A lone sum whose bound reaches 2^62 runs on Python ints.
        """
        if any(type(t) is not Tensor for t in operands):
            raise TypeError("einsum contracts real Tensors")
        prepare, pairs, order = _plan(spec, tuple(t.num.shape for t in operands))
        arrays, bounds = [], []
        for t, (gather, summed, size) in zip(operands, prepare):
            x, bound = (t.num if gather is None else t.num[gather]), t.bound * size
            if summed:
                x = _widened(x, bound)
                x = np.asarray(x.sum(axis=summed), dtype=x.dtype)
            arrays.append(x)
            bounds.append(bound)
        out, bound = arrays[0], bounds[0]
        for x, b, (order_a, shape_a, order_b, shape_b, shape) in zip(arrays[1:], bounds[1:],
                                                                    pairs):
            product = int_matmul(out.transpose(order_a).reshape(shape_a),
                                 x.transpose(order_b).reshape(shape_b), bound, b)
            out, bound = product.reshape(shape), bound * b * shape_a[2]
        return Tensor(out.transpose(order), prod(t.den for t in operands), bound)

    def max_abs(self) -> Fraction:
        return Q(_abs_max(self.num), self.den)


# ---------------------------------------------------------------------------
# contraction plans
# ---------------------------------------------------------------------------

@cache
def _plan(spec, shapes):
    """The steps of `Tensor.einsum(spec, ...)` on operands of the given shapes, built once.

    - Per operand, (gather, summed, size): index arrays that take the
      diagonal of every repeated letter (None when no letter repeats), then
      the axes of the letters that no other operand and not the output
      reads, summed, and the product of their sizes.
    - Per further operand, left to right, one product of the result so far
      with it: the transposes and reshapes to a stacked (batch, m, k) @
      (batch, k, n) `int_matmul`, and the shape that product unfolds to.
      Batch letters are on both sides and read later, k letters on both and
      read by nothing later, m and n letters on one side only.
    - The transpose to the output order.

    Each letter has one size: a size-1 axis is not broadcast.  A spec without
    `->`, with letters that do not fit the shapes, or with an output letter
    that repeats or is not an input letter raises ValueError.
    """
    terms, out = _subscripts(spec, [len(s) for s in shapes])
    size = {}
    for term, shape in zip(terms, shapes):
        for letter, n in zip(term, shape):
            if size.setdefault(letter, n) != n:
                raise ValueError(f"{spec!r}: {letter!r} has sizes {size[letter]} and {n}")
    prepare, kept = [], []
    for i, term in enumerate(terms):
        read = set(out).union(*terms[:i], *terms[i + 1:])
        letters = tuple(dict.fromkeys(term))
        gather = None if len(letters) == len(term) else tuple(
            np.arange(size[a]).reshape([-1 if b == a else 1 for b in letters]) for a in term)
        summed = tuple(k for k, a in enumerate(letters) if a not in read)
        prepare.append((gather, summed, prod(size[letters[k]] for k in summed)))
        kept.append(tuple(a for a in letters if a in read))
    held, pairs = kept[0], []
    for i, term in enumerate(kept[1:], 2):
        later = set(out).union(*kept[i:])
        batch = tuple(a for a in held if a in term and a in later)
        inner = tuple(a for a in held if a in term and a not in later)
        left = tuple(a for a in held if a not in term)
        right = tuple(a for a in term if a not in held)
        b, m, k, n = (prod(size[a] for a in group) for group in (batch, left, inner, right))
        pairs.append((tuple(map(held.index, batch + left + inner)), (b, m, k),
                      tuple(map(term.index, batch + inner + right)), (b, k, n),
                      tuple(size[a] for a in batch + left + right)))
        held = batch + left + right
    return tuple(prepare), tuple(pairs), tuple(map(held.index, out))


def _subscripts(spec, ndims):
    """The letters of each operand and of the output of an einsum spec of letters with `->`."""
    inputs, _, output = spec.partition("->")
    terms = inputs.split(",")
    if not re.fullmatch(r"[a-zA-Z,]*->[a-zA-Z]*", spec) or len(terms) != len(ndims):
        raise ValueError(f"{spec!r} is not an einsum spec with '->' for {len(ndims)} operands")
    if any(len(t) != ndim for t, ndim in zip(terms, ndims)):
        raise ValueError(f"{spec!r} does not fit operands of {list(ndims)} axes")
    if len(set(output)) < len(output) or not set(output) <= set(inputs):
        raise ValueError(f"{spec!r}: an output letter repeats or is not an input letter")
    return terms, output


# ---------------------------------------------------------------------------
# exact dense Gaussian-rational tensors (spinor endomorphisms and spinors)
# ---------------------------------------------------------------------------

class GaussTensor(_Array):
    """Exact dense Gaussian-rational tensor: the numerators' last axis holds (re, im).

    The numerators of both parts share the one reduced denominator, so equal
    tensors are equal entry-wise; a GaussTensor has no truth value.  A full
    index gives a scalar of shape (2,), whose `str` is `a` when it is real,
    else `(a+bi)` or `(a-bi)`; a vector prints as the list of its scalars.
    Matrices and vectors multiply with `@` by three integer products (Gauss's
    trick).  It has none of Tensor's real-only parts: `of`, einsum, `max_abs`
    and the form conversions.
    """

    __slots__ = ()

    @staticmethod
    def of_parts(re, im, den=1, bound=None) -> "GaussTensor":
        """(re + i im) / den from integer arrays (or lists) of one shape, each part under `bound`.

        A list is read as Python ints; the bound is read from the parts when None.
        """
        re, im = (x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object) for x in (re, im))
        if bound is None:
            bound = max(_abs_max(re), _abs_max(im))
        return GaussTensor(np.stack([re, im], axis=-1), den, bound)

    @staticmethod
    def identity(n: int) -> "GaussTensor":
        return GaussTensor.of_parts(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64),
                                    1, min(n, 1))

    @property
    def re(self):
        return self.num[..., 0]

    @property
    def im(self):
        return self.num[..., 1]

    def __matmul__(self, other: "GaussTensor") -> "GaussTensor":
        """(R + iJ)(P + iQ) from the three integer products RP, JQ, (R + J)(P + Q).

        Both parts of the product, RP - JQ and RQ + JP, are within 2 k a b for
        the inner size k and the bounds a and b of the factors.
        """
        a, b = self.bound, other.bound
        rp, jq = int_matmul(self.re, other.re, a, b), int_matmul(self.im, other.im, a, b)
        cross = int_matmul(self.re + self.im, other.re + other.im, 2 * a, 2 * b)
        return GaussTensor.of_parts(rp - jq, cross - rp - jq, self.den * other.den,
                                    2 * self.re.shape[-1] * a * b)

    def __bool__(self):
        raise TypeError("a GaussTensor has no truth value; use is_zero()")

    def __str__(self):
        """A scalar as `a`, `(a+bi)` or `(a-bi)`; a vector as the list of its scalars."""
        if self.num.ndim > 2:
            return repr(self)
        flat = self.num.reshape(-1).tolist()
        text = [f"({Q(re, self.den)}{'+' if im >= 0 else '-'}{Q(abs(im), self.den)}i)" if im
                else str(Q(re, self.den)) for re, im in zip(flat[::2], flat[1::2])]
        return text[0] if self.num.ndim == 1 else f"[{', '.join(text)}]"


def is_hermitian(a: GaussTensor) -> bool:
    return bool((a.re == a.re.T).all() and (a.im == -a.im.T).all())


# ---------------------------------------------------------------------------
# exact elimination over Z and Z[i]
# ---------------------------------------------------------------------------

def eliminate(a, limit):
    """Fraction-free Gauss-Jordan elimination of an integer array, on primitive rows.

    Columns at or beyond `limit` are reduced but never chosen as pivots
    (augmented right-hand sides).  Returns (rows, pivot_cols, d) with d > 0:
    every pivot entry of `rows` equals d, and rows / d is the reduced row
    echelon form.  The rows below the pivots vanish on the first `limit`
    columns: on the others they span the quotient by the image of those
    columns, so a later column lies in that image exactly when they vanish
    on it.  A pivot p in column c changes only the rows with a nonzero in
    column c, each to row * p - row[c] * pivot_row divided by its content
    (the gcd of its entries; a row that vanishes stays zero), and at the end
    each pivot row is multiplied by d / p for the lcm d of the pivot entries,
    which also makes its sign that of d.  Every row stays a rational multiple
    of the row Bareiss's elimination holds at the same step, so the zero
    patterns and the pivots are the same, and as it is primitive or an
    input row, none of its entries is larger than the minor Bareiss holds
    there.  Nothing rescales the other rows, so on a sparse input the
    entries stay small: the 196 x 140 matrix of `equivar.rank_certificates`
    keeps every entry within 6 bits, where Bareiss reaches 84.  The input
    array is left as it is: the elimination runs on a copy of it as Python
    ints, so no row update can wrap.
    """
    a, pivots = np.array(a, dtype=object), []
    for c in range(limit):
        r = len(pivots)
        if r == len(a):
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        k = r + int(below[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        update = a[hit] * a[r, c] - np.outer(a[hit, c], a[r])
        content = np.gcd.reduce(update, axis=1)
        content[content == 0] = 1
        a[hit] = update // content[:, None]
        pivots.append(c)
    p = a[np.arange(len(pivots)), pivots]
    d = lcm(*p)
    a[:len(pivots)] *= (d // p)[:, None]
    return a, pivots, d


def _system(matrix):
    """An exact matrix as a Tensor (or GaussTensor), with its integer real form.

    The real form of a Tensor is its numerators.  A GaussTensor's entry a + bi
    becomes the block [[a, -b], [b, a]], with columns interleaved (re, im),
    so that the real elimination of the block matrix is the elimination over
    Q(i): its pivots come in pairs (2c, 2c + 1), and a real vector read as
    interleaved (re, im) pairs is a Gaussian one.
    """
    t = matrix if isinstance(matrix, GaussTensor) else Tensor.of(matrix)
    if not isinstance(t, GaussTensor):
        return t, t.num
    (m, n), re, im = t.re.shape, t.re, t.im
    blocks = np.empty((m, 2, n, 2), dtype=t.num.dtype)
    blocks[:, 0, :, 0], blocks[:, 0, :, 1] = re, -im
    blocks[:, 1, :, 0], blocks[:, 1, :, 1] = im, re
    return t, blocks.reshape(2 * m, 2 * n)


def rank(matrix) -> int:
    """Exact rank of a matrix: a Tensor, a GaussTensor or nested lists of rationals."""
    t, a = _system(matrix)
    pivots = eliminate(a, a.shape[1])[1]
    return len(pivots) // (2 if isinstance(t, GaussTensor) else 1)


def nullspace(matrix):
    """Exact kernel basis of a matrix, as the rows of a Tensor (GaussTensor for Gaussian input).

    The basis vector of free column f is 1 at f and 0 at the other free
    columns (the reduced-echelon normalisation); over Q(i) the free columns
    are the even free columns of the real form.
    """
    t, a = _system(matrix)
    rows, pivots, d = eliminate(a, a.shape[1])
    step = 2 if isinstance(t, GaussTensor) else 1
    free = sorted(set(range(0, a.shape[1], step)) - set(pivots))
    basis = np.zeros((len(free), a.shape[1]), dtype=object)
    for k, f in enumerate(free):
        basis[k, f] = d
        basis[k, pivots] = -rows[:len(pivots), f]
    return type(t)(basis.reshape((len(free),) + t.num.shape[1:]), d)


# ---------------------------------------------------------------------------
# characteristic polynomial & rational roots
# ---------------------------------------------------------------------------

def charpoly(matrix: GaussTensor) -> GaussTensor:
    """Coefficients of det(yI - dA) over Z[i], highest first, for A or a stack of blocks.

    `matrix` is one square matrix A, or a stack of square blocks A_j of one
    size on a leading axis, which gives one coefficient vector per block;
    d is the denominator, so A has the characteristic polynomial
    sum_k C_k x^(n-k) / d^k.  The C_k are computed modulo primes and rebuilt
    by the Chinese remainder theorem under a proven bound:

    - Bound.  With R the largest row sum of |Re| + |Im| over the numerators
      of dA (of every block), every eigenvalue has |lambda| <= R
      (Gershgorin), so |Re C_k|, |Im C_k| <= |C_k| <= C(n, k) R^k <= B, the
      largest of these.  The primes p = 1 (mod 4) of the pool are taken
      until their product M exceeds 2B, so each part is the one residue
      mod M in [-B, B].
    - Residues.  For each prime, with i_p^2 = -1 (mod p), the images
      Re + i_p Im and Re - i_p Im of each block (the two maps Z[i] -> F_p)
      are stacked, and one Faddeev-LeVerrier run over the whole stack of
      primes x 2 images x blocks gives c+ = Re C_k + i_p Im C_k and
      c- = Re C_k - i_p Im C_k mod p.  Each step is one `int_matmul` of
      matrices of entries below p and 2p, for the largest prime p, exact in
      float64 as 2n p^2 < 2^53 (for n < 1024; `int_matmul` checks these
      bounds), and the division by k < p is a product with k^-1 mod p.
    - Rebuild.  Re C_k = (c+ + c-) / 2 and Im C_k = (c+ - c-) / (2 i_p)
      mod p, and the Chinese remainder theorem takes each part to its
      residue mod M in [-B, B]: one product of the residues with weights.
    """
    num = matrix.num
    n = num.shape[-2]
    blocks = num.reshape((-1, n, n, 2))
    # a row sum of 2n entries under the bound, on Python ints where int64 could wrap
    radius = int(np.abs(_widened(blocks, 2 * n * matrix.bound)).sum(axis=(2, 3)).max())
    bound = max(comb(n, k) * radius ** k for k in range(n + 1))
    primes, modulus = _covering((p for p in _primes() if p % 4 == 1), bound)
    ps = np.array(primes, dtype=np.int64)
    roots = np.array([_sqrt_minus_one(p) for p in primes], dtype=np.int64)
    # numerators past 2^62 (an object array) are reduced as Python ints
    parts = blocks[None] % ps.astype(num.dtype)[:, None, None, None, None]
    re, i_im = parts[..., 0], parts[..., 1].astype(np.int64) * roots[:, None, None, None]
    # images under i -> i_p, then under i -> -i_p, of every block; mods[j] is
    # the prime of image j
    mods = np.repeat(np.concatenate([ps, ps]), len(blocks))
    images = (np.concatenate([re + i_im, re - i_im]).astype(np.int64).reshape((-1, n, n))
              % mods[:, None, None])
    inv = np.repeat(np.array([[pow(k, -1, p) for p in primes] * 2 for k in range(1, n + 1)],
                             dtype=np.int64), len(blocks), axis=1)
    coeffs = np.ones((n + 1, len(mods)), dtype=np.int64)
    m = images.copy()
    for k in range(1, n + 1):
        if k > 1:
            m = int_matmul(images, m, primes[0], 2 * primes[0]) % mods[:, None, None]
        coeffs[k] = -np.trace(m, axis1=1, axis2=2) % mods * inv[k - 1] % mods
        # M + C_k I, left unreduced: its entries stay below 2p
        m.reshape(len(mods), -1)[:, ::n + 1] += coeffs[k][:, None]
    # the CRT idempotents e_j (1 mod p_j, 0 mod the other primes) with the
    # rebuild folded in: Re C_k = sum_j (e_j / 2) (c+ + c-) and
    # Im C_k = sum_j (e_j i_p / 2) (c- - c+), as 1 / i_p = -i_p (mod p)
    idempotents = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    halves = [e * ((p + 1) // 2) for e, p in zip(idempotents, primes)]
    turned = [h * int(i) for h, i in zip(halves, roots)]
    weights = np.array([halves * 2, [-t for t in turned] + turned], dtype=object).T
    # per block, the (n + 1) x (2 primes) residues times the weights
    residues = coeffs.reshape((n + 1, len(mods) // len(blocks), len(blocks))).transpose(2, 0, 1)
    values = residues.astype(object) @ weights % modulus
    values[values > bound] -= modulus
    return GaussTensor(values.reshape(num.shape[:-3] + (n + 1, 2)))


def unscaled(q: GaussTensor, d) -> GaussTensor:
    """The coefficients q_k / d^k of sum_k q_k x^(n-k) / d^k, a polynomial given in y = d x."""
    n = len(q) - 1
    powers = np.array([d ** (n - k) for k in range(n + 1)], dtype=object)[:, None]
    return GaussTensor(q.num * powers, d ** n, q.bound * d ** n)


def rational_roots(q, d):
    """The rational roots with multiplicity of sum_k q_k x^(n-k) / d^k, and its residual.

    `q` is a monic integer polynomial in y = d x (highest first) and d > 0,
    so the rational roots are y / d for the integer roots y of q.  Each y
    divides q's constant term and lies within Fujiwara's bound
    2 max |q_k|^(1/k) (each k-th root rounded up to a power of two); Horner's
    rule tests each one.  Returns (sorted [(Fraction root, multiplicity)],
    residual), where the residual is the monic factor left by the roots
    found, as the GaussTensor coefficient vector of `unscaled`, or None when
    the polynomial splits.
    """
    q, roots = list(q), {}
    while len(q) > 1 and not q[-1]:
        roots[0] = roots.get(0, 0) + 1
        q.pop()
    if len(q) > 1:
        bound = max(1 << (-(-abs(c).bit_length() // k) + 1) for k, c in enumerate(q[1:], 1))
        const = abs(q[-1])
        for r in range(1, min(bound, const) + 1):
            if const % r:
                continue
            for y in (r, -r):
                quotient = _divide_root(q, y)
                while quotient is not None:
                    roots[y] = roots.get(y, 0) + 1
                    q = quotient
                    quotient = _divide_root(q, y) if len(q) > 1 else None
            if len(q) == 1:
                break
    pairs = sorted((Q(y, d), m) for y, m in roots.items())
    if len(q) == 1:
        return pairs, None
    return pairs, unscaled(GaussTensor.of_parts(q, [0] * len(q)), d)


def _divide_root(q, y):
    """Quotient of the integer polynomial q by (x - y), or None when q(y) != 0 (Horner)."""
    out = [q[0]]
    for c in q[1:]:
        out.append(out[-1] * y + c)
    return None if out.pop() else out


# ---------------------------------------------------------------------------
# integer matrices: exact products, certified spectra
# ---------------------------------------------------------------------------

_BLOCK = 1 << 12


@cache
def _prime_block(k):
    """The primes of [k 2^12, (k + 1) 2^12), highest first, sieved once per process.

    Block 0 holds every prime below sqrt(2^21), so its primes sieve the others.
    """
    divisors = range(2, 64) if k == 0 else reversed(_prime_block(0))
    return tuple(_sieve(max(2, k * _BLOCK), (k + 1) * _BLOCK, divisors))


def _primes():
    """The primes below 2^21 in descending order, read a cached block at a time.

    A block is sieved when it is first read, so nothing is computed at import;
    the iteration ends after block 0.  Its one reader, `charpoly`, takes from
    the first as many primes p = 1 (mod 4) as its bound needs.
    """
    for k in reversed(range((1 << 21) // _BLOCK)):
        yield from _prime_block(k)


def _sieve(low, high, divisors):
    """The primes in [low, high), highest first, given all primes below sqrt(high) in `divisors`."""
    keep = np.ones(high - low, dtype=bool)
    for p in divisors:
        if p * p >= high:
            break
        keep[max(p * p, -(-low // p) * p) - low::p] = False
    return (np.flatnonzero(keep)[::-1] + low).tolist()


def _covering(primes, bound):
    """The leading primes of `primes` whose product M exceeds 2 * bound, and M.

    Residues mod M tell apart all integers of [-bound, bound], so their
    residues mod these primes fix each one.
    """
    chosen, modulus = [], 1
    for p in primes:
        chosen.append(p)
        modulus *= p
        if modulus > 2 * bound:
            return chosen, modulus
    raise SkewtorError(f"a bound of {bound.bit_length()} bits is beyond the primes below 2^21")


@cache
def _sqrt_minus_one(p):
    """A square root of -1 modulo a prime p = 1 (mod 4): c^((p-1)/4) for a non-residue c."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, (p - 1) // 4, p)


def int_matmul(a, b, a_bound, b_bound):
    """Exact product of integer arrays (matrices, stacks of them, or a matrix and a vector).

    `a_bound` and `b_bound` bound max|a| and max|b|: the bounds the exact
    arrays carry, or one the caller proves.  With n the inner dimension,
    every partial sum of the product is within n a_bound b_bound.  Below
    2^53 each one is an integer that a double holds exactly, whatever order
    BLAS sums in, so the product runs in float64 and comes back as int64.
    Otherwise the product runs on Python integers and comes back as an
    object array.
    """
    if a.shape[-1] * max(1, a_bound) * max(1, b_bound) < 2 ** 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(object) @ b.astype(object)


def slot_sum(w: Tensor, t: Tensor, degree: int) -> Tensor:
    """The action of skew 2-tensors w (so(n) elements) on the last `degree` slots of t.

    out[W.., T.., a_1, .., a_p] = -sum_s sum_k w[W.., a_s, k] t[T.., .., k (slot s), ..]: the
    derivation e^m -> sum_k w(m, k) e^k, with the leading axes W of w and T of t as
    batches, over the denominator w.den t.den.  Each slot is one `int_matmul`
    under the bounds the two tensors carry, and each entry sums `degree` n of
    their products, so the result carries the bound degree n w.bound t.bound;
    degree 0 gives zeros.
    """
    wn, tn = w.num, t.num
    batch, n = wn.shape[:-2], wn.shape[-1]
    bound = degree * n * w.bound * t.bound
    # an int64 image is below 2^53, so `degree` of them sum within int64
    out = np.zeros(batch + tn.shape, dtype=np.int64)
    for s in range(tn.ndim - degree, tn.ndim):
        moved = np.moveaxis(tn, s, -1)
        image = int_matmul(moved.reshape(-1, n), np.swapaxes(wn, -1, -2), t.bound, w.bound)
        out = out - np.moveaxis(image.reshape(batch + moved.shape), -1, len(batch) + s)
    return Tensor(out, w.den * t.den, bound)


def certified_eigenspace_dims(int_matrix, roots):
    """Exact eigenspace dimensions of an integer matrix A on distinct integers r_k, or None.

    It proves every stated spectrum (through `certified_spectrum`); `charpoly`
    and `rational_roots` only find the unknown spectra of `spin-eig`.  The
    product chain P_0 = I, P_(j+1) = P_j (A - r_j I) by `int_matmul` (float64
    under its bound, Python integers past 2^53; A - r_j I is built on Python
    integers where `forms._widened` says max|A| + max|r| needs them) decides
    the claim: P_k != 0 gives None, and P_k = 0 proves A diagonalizable with
    every eigenvalue among the r_k.  P_j then acts on the eigenspace of r_l as
    prod_(i<j) (r_l - r_i), zero for l < j, so the dimensions m_l solve
    tr(P_j) = sum_(l>=j) m_l prod_(i<j) (r_l - r_i), j < k: an upper
    triangular system (the Newton basis on the r_k) with nonzero diagonal,
    read by back substitution, each division exact.  A repeated root raises
    ValueError.
    """
    a, roots = np.asarray(int_matrix), [int(r) for r in roots]
    if len(set(roots)) != len(roots):
        raise ValueError("the roots of the product chain must be distinct")
    # the entries of A - r I are within max|A| + max|r|
    shift = _abs_max(a) + max(map(abs, roots), default=0)
    a = _widened(a, shift)
    eye = np.eye(len(a), dtype=a.dtype)
    chain, traces = eye, []
    for r in roots:
        traces.append(sum(np.diagonal(chain).tolist()))
        # a carried bound of the chain would grow as n^k: its entries are read
        chain = int_matmul(chain, a - r * eye, _abs_max(chain), shift)
    if np.any(chain):
        return None
    dims = []
    for j in reversed(range(len(roots))):
        known = sum(m * prod(r - s for s in roots[:j]) for r, m in zip(roots[j + 1:], dims))
        dims.insert(0, (traces[j] - known) // prod(roots[j] - s for s in roots[:j]))
    return dims


def certified_spectrum(matrix, values):
    """Sorted (eigenvalue, multiplicity) pairs of an exact matrix on the given `values`, or None.

    `matrix` is a Tensor N / d (nested lists are read as one), or a
    GaussTensor N / d, which enters as the integer real form
    [[Re N, -Im N], [Im N, Re N]] of `_system`: similar to N (+) conj(N), it
    holds each real eigenvalue of N twice, so its counts are halved.  The
    integer matrix N has no rational eigenvalue but integers, so one
    `certified_eigenspace_dims` chain runs on it over the values v with v d
    integral, in the order given; None when it does not vanish.
    """
    t, a = _system(matrix)
    roots = [int(v) for v in (Q(v) * t.den for v in values) if v.denominator == 1]
    dims = certified_eigenspace_dims(a, roots)
    if dims is None:
        return None
    halve = 2 if isinstance(t, GaussTensor) else 1
    return sorted((Q(r, t.den), m // halve) for r, m in zip(roots, dims) if m)
