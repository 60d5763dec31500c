"""Exact linear algebra: rationals, Gaussian rationals, and certified big-matrix ranks.

Invariant tensors (structure constants, connection coefficients, curvature,
the tensors of forms) are exact dense `Tensor`s, and every identity over them
is one einsum contraction.  `Tensor` and `GaussTensor` are kinds of the exact
base of `forms` (reduction, +, -, rational scaling, ==), which `Form` shares,
with indexing added; lists of them are brought over one denominator by
`forms.common_denominator`.  Spinor endomorphisms, spinors and characteristic
polynomials are exact dense `GaussTensor`s, the same layout with an imaginary
part and the one Gaussian type, multiplied by integer matrix products.  Every
dense integer matrix product in the program is `int_matmul`: float64 BLAS when
the a-priori bound n max|a| max|b| < 2^53 makes every partial sum an integer
that a double holds exactly (the word-size technique of FFLAS-FFPACK), Python
integers otherwise, so a float only ever carries such an integer.  Every exact
rank, kernel and solve runs one fraction-free Gauss-Jordan elimination over Z
on the integer numerators; a Gaussian system enters it with each entry a + bi
as the real block [[a, -b], [b, a]].  A spectrum is read from the
characteristic polynomial of the integral d A (d the denominator of A) over
Z[i]; for a real one its rational roots are y / d for the integer roots y of
that monic integer polynomial, found by a divisor search and Horner's rule.
The large representation-theoretic matrices (up to 196 x 196) are first tried
by a mod-p elimination, whose result is promoted to an exact statement by a
separate certificate, never trusted on its own.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np

from .errors import DegreeError, DimensionMismatch
from .forms import Form, _Exact, _blade_layout, common_denominator, numerators_of

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
        return type(self)(part, self.den) if isinstance(part, np.ndarray) else Q(part, self.den)

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
        return Tensor(np.array(nums, dtype=object).reshape(arr.shape), den)

    def __eq__(self, other):
        """Nested lists are read as a Tensor."""
        return super().__eq__(Tensor.of(other) if isinstance(other, (list, tuple)) else other)

    @staticmethod
    def identity(n: int) -> "Tensor":
        return Tensor(np.eye(n, dtype=object))

    @staticmethod
    def of_form(form: Form) -> "Tensor":
        """The tensor a(e_i1, .., e_ip) of a form, indexed from 0."""
        stacked = Tensor.of_forms([form])
        return Tensor(stacked.num[0], stacked.den)

    @staticmethod
    def of_forms(forms) -> "Tensor":
        """Tensors of forms of one degree, stacked on a leading axis: [k, i1, .., ip]."""
        n, degree = forms[0].n, forms[0].degree
        if any(f.n != n for f in forms):
            raise DimensionMismatch("forms of different dimension")
        if any(f.degree != degree for f in forms):
            raise DegreeError("forms of different degree")
        nums, den = common_denominator(forms)
        rows = np.stack(nums)
        num = np.hstack([rows, -rows, np.zeros((len(rows), 1), dtype=object)])
        return Tensor(num[:, _blade_layout(n, degree)[0]].reshape((len(rows),) + (n,) * degree),
                      den)

    def to_form(self) -> Form:
        """The form with this tensor's entries on ascending indices (for a skew tensor)."""
        n, degree = len(self.num), self.num.ndim
        ascending = self.num.reshape(-1)[_blade_layout(n, degree)[1]]
        return Form.of_numerators(n, degree, ascending, self.den)

    @staticmethod
    def einsum(spec: str, *operands: "Tensor") -> "Tensor":
        """Exact contraction of real tensors, written as for numpy.einsum."""
        if any(type(t) is not Tensor for t in operands):
            raise TypeError("einsum contracts real Tensors")
        num = np.einsum(spec, *(t.num for t in operands), optimize=len(operands) > 2)
        return Tensor(num, prod(t.den for t in operands))

    def max_abs(self) -> Fraction:
        return Q(max(map(abs, self.num.flat), default=0), self.den)


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
    def of_parts(re, im, den=1) -> "GaussTensor":
        """(re + i im) / den from integer arrays of one shape."""
        return GaussTensor(np.stack([np.asarray(re, dtype=object),
                                     np.asarray(im, dtype=object)], axis=-1), den)

    @staticmethod
    def identity(n: int) -> "GaussTensor":
        return GaussTensor.of_parts(np.eye(n, dtype=int), np.zeros((n, n), dtype=int))

    @property
    def re(self):
        return self.num[..., 0]

    @property
    def im(self):
        return self.num[..., 1]

    @property
    def T(self) -> "GaussTensor":
        """The transpose of a matrix (without conjugation)."""
        return GaussTensor(self.num.transpose(1, 0, 2), self.den)

    def __matmul__(self, other: "GaussTensor") -> "GaussTensor":
        """(R + iJ)(P + iQ) from the three integer products RP, JQ, (R + J)(P + Q)."""
        rp, jq = int_matmul(self.re, other.re), int_matmul(self.im, other.im)
        cross = int_matmul(self.re + self.im, other.re + other.im)
        return GaussTensor.of_parts(rp - jq, cross - rp - jq, self.den * other.den)

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

def _eliminate(a, limit):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer object array.

    Columns at or beyond `limit` are reduced but never chosen as pivots
    (augmented right-hand sides).  Returns (rows, pivot_cols, d) with d > 0:
    every pivot entry of `rows` equals d, and rows / d is the reduced row
    echelon form.  Each step divides exactly by the previous pivot
    (Sylvester's identity), so every entry stays a minor of the input.  The
    input array is left as it is.
    """
    a, pivots, d = a.copy(), [], 1
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
        row, p = a[r].copy(), a[r, c]
        hit = np.flatnonzero(a[:, c])
        update = (a[hit] * p - np.outer(a[hit, c], row)) // d
        if p != d:
            a = a * p // d    # rows with a zero in column c only rescale
        a[hit] = update
        a[r] = row
        pivots.append(c)
        d = p
    if d < 0:
        a, d = -a, -d
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
    blocks = np.empty((m, 2, n, 2), dtype=object)
    blocks[:, 0, :, 0], blocks[:, 0, :, 1] = re, -im
    blocks[:, 1, :, 0], blocks[:, 1, :, 1] = im, re
    return t, blocks.reshape(2 * m, 2 * n)


def rank(matrix) -> int:
    """Exact rank of a matrix: a Tensor, a GaussTensor or nested lists of rationals."""
    t, a = _system(matrix)
    pivots = _eliminate(a, a.shape[1])[1]
    return len(pivots) // (2 if isinstance(t, GaussTensor) else 1)


def nullspace(matrix):
    """Exact kernel basis of a matrix, as the rows of a Tensor (GaussTensor for Gaussian input).

    The basis vector of free column f is 1 at f and 0 at the other free
    columns (the reduced-echelon normalisation); over Q(i) the free columns
    are the even free columns of the real form.
    """
    t, a = _system(matrix)
    rows, pivots, d = _eliminate(a, a.shape[1])
    step = 2 if isinstance(t, GaussTensor) else 1
    free = sorted(set(range(0, a.shape[1], step)) - set(pivots))
    basis = np.zeros((len(free), a.shape[1]), dtype=object)
    for k, f in enumerate(free):
        basis[k, f] = d
        basis[k, pivots] = -rows[:len(pivots), f]
    return type(t)(basis.reshape((len(free),) + t.num.shape[1:]), d)


def solve(matrix, rhs):
    """One solution of A x = b for each row b of `rhs`, or None where there is none.

    `rhs` is of the same kind as the matrix (nested lists are rationals).  The
    matrix is eliminated once, with every right-hand side as an extra column;
    each solution is a vector of that kind, zero at the free columns.
    """
    t, a = _system(matrix)
    b = rhs if isinstance(rhs, GaussTensor) else Tensor.of(rhs)
    if type(b) is not type(t):
        raise TypeError(f"a {type(t).__name__} system has {type(b).__name__} right-hand sides")
    n = a.shape[1]
    rows, pivots, d = _eliminate(np.hstack([a * b.den, b.num.reshape(len(b), -1).T * t.den]), n)
    sols = []
    for col in rows[:, n:].T:
        if any(col[len(pivots):]):
            sols.append(None)
            continue
        x = np.zeros(n, dtype=object)
        x[pivots] = col[:len(pivots)]
        sols.append(type(t)(x.reshape(t.num.shape[1:]), d))
    return sols


# ---------------------------------------------------------------------------
# characteristic polynomial & rational roots
# ---------------------------------------------------------------------------

def charpoly(matrix: GaussTensor) -> GaussTensor:
    """Coefficients of det(yI - dA) over Z[i] as a GaussTensor vector, highest first.

    d is the denominator of A, so A has the characteristic polynomial
    sum_k C_k x^(n-k) / d^k.  Faddeev-LeVerrier runs on the integral dA: every
    C_k lies in Z[i], so each division by k is exact.
    """
    n = len(matrix)
    scaled = GaussTensor(matrix.num)
    eye = np.eye(n, dtype=int).astype(object)[..., None]
    m = GaussTensor.identity(n)
    coeffs = [np.array([1, 0], dtype=object)]
    for k in range(1, n + 1):
        p = scaled @ m
        coeffs.append(-(np.trace(p.num) // k))   # (re, im) of C_k
        m = GaussTensor(p.num + eye * coeffs[-1])
    return GaussTensor(np.stack(coeffs))


def unscaled(q: GaussTensor, d) -> GaussTensor:
    """The coefficients q_k / d^k of sum_k q_k x^(n-k) / d^k, a polynomial given in y = d x."""
    n = len(q) - 1
    powers = np.array([d ** (n - k) for k in range(n + 1)], dtype=object)[:, None]
    return GaussTensor(q.num * powers, d ** n)


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
# integer matrices: mod-p elimination, certified spectra
# ---------------------------------------------------------------------------

_PRIMES = [2097143, 2097133, 2097131, 2097097, 2097091, 2097083, 2097047,
           2097041, 2097031, 2097023, 2097013, 2096993]


def rank_mod_p(matrix, p):
    """Rank of an integer matrix mod p (numpy elimination).

    Always a lower bound for the rationals' rank; callers must certify before
    claiming exactness.
    """
    a = (np.asarray(matrix) % p).astype(np.int64)
    m, n = a.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[r + 1:, c].copy()
        mask = col != 0
        if mask.any():
            a[r + 1:][mask] = (a[r + 1:][mask] - col[mask, None] * a[r][None, :]) % p
        r += 1
        if r == m:
            break
    return r


def int_matmul(a, b):
    """Exact product of integer matrices (or stacks of them, or a matrix and a vector).

    With n the inner dimension, every partial sum of the product is bounded
    by n max|a| max|b|.  Below 2^53 each one is an integer that a double
    holds exactly, whatever order BLAS sums in, so the product runs in
    float64 and comes back as int64.  The bound is read from the float images
    of the entries: an integer converts exactly when its image is below 2^53,
    and a larger image fails the bound.  Otherwise, or when an entry is
    beyond float range, the product runs on Python integers and comes back as
    an object array.
    """
    try:
        fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    except OverflowError:
        fa = None
    if fa is not None and fa.shape[-1] * int_abs_max(fa) * int_abs_max(fb) < 2 ** 53:
        return (fa @ fb).astype(np.int64)
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


def int_abs_max(a):
    """Largest absolute entry of an array of integers (of any dtype) as a Python int, at least 1."""
    return max(1, int(np.abs(a).max())) if a.size else 1


def krylov_min_poly(matvec, v):
    """Monic minimal polynomial of the integer vector v under an integer operator.

    Returns Fraction coefficients (highest first).  It divides the operator's
    minimal polynomial; equality must be certified separately.  Dependence
    detection runs mod p; the dependence itself is solved exactly over all
    rows, so a bad prime only costs extra iterations.
    """
    p = _PRIMES[0]
    vecs = [list(v)]
    while len(vecs) <= len(v) + 1:
        vecs.append(matvec(vecs[-1]))
        if rank_mod_p(vecs, p) == len(vecs):
            continue
        # dependence suspected: solve sum c_j v_j = -v_last exactly (over all rows)
        lead = Tensor(np.array(vecs[:-1], dtype=object).T)
        sol = solve(lead, Tensor(-np.array(vecs[-1:], dtype=object)))[0]
        if sol is not None:
            return [Q(1)] + [sol[j] for j in range(len(vecs) - 2, -1, -1)]
    raise RuntimeError("krylov failed to terminate")


def certify_annihilation(int_matrix, int_roots):
    """Exact proof that prod_k (A - r_k I) = 0 for an integer matrix A.

    Runs the product mod enough primes that CRT covers an a-priori entry
    bound, so a zero residue everywhere implies the exact zero matrix.  Each
    step multiplies two matrices of residues below p < 2^21, so for n < 2048
    `int_matmul` keeps the whole chain in float64.
    """
    a = np.asarray(int_matrix)
    n = len(a)
    max_a = int_abs_max(a)
    bound = max_a + max((abs(r) for r in int_roots), default=0)
    for r in int_roots:
        bound *= n * (max_a + abs(r))
    need = 2 * bound + 1
    prod = 1
    primes = []
    for p in _PRIMES:
        primes.append(p)
        prod *= p
        if prod >= need:
            break
    else:
        raise RuntimeError("prime pool exhausted for certificate")
    eye = np.eye(n, dtype=np.int64)
    for p in primes:
        ap = (a % p).astype(np.int64)
        acc = eye
        for r in int_roots:
            acc = int_matmul(acc, (ap - (r % p) * eye) % p) % p
        if np.any(acc):
            return False
    return True


def certified_eigenspace_dims(int_matrix, eigs_scaled):
    """Exact eigenspace dimensions of a diagonalizable integer matrix.

    Requires that `certify_annihilation` already proved the matrix is
    diagonalizable with exactly `eigs_scaled` as eigenvalues.  Mod-p ranks are
    lower bounds for rational ranks, so when the resulting kernel dimensions
    add up to the full dimension each one is exact.
    """
    a = np.asarray(int_matrix)
    n = len(a)
    eye = np.eye(n, dtype=np.int64)
    for p in _PRIMES:
        ap = (a % p).astype(np.int64)
        dims = [n - rank_mod_p(ap - (lam % p) * eye, p) for lam in eigs_scaled]
        if sum(dims) == n:
            return dims
    raise RuntimeError("no prime certified the eigenspace dimensions")
