"""Reference linear algebra on nested lists of CQ (or Fraction) entries.

These are the list-matrix loops that `GaussTensor` and the fraction-free
elimination replaced in the program, the Bareiss elimination that
`linalg.eliminate`'s primitive rows replaced, and the Kronecker construction
of the gamma matrices that `clifford`'s bit formula replaced, kept here to
compare the integer kernels against entry for entry.  `CQ` is the reference's own Gaussian
rational, independent of the program; `parts` and `entries` convert nested
lists of it to and from the integer parts over one denominator that a
`GaussTensor` holds.  `split_by_sympy` splits a rational polynomial by sympy's
factorization, a second oracle for `linalg.rational_roots`.
"""

from collections import Counter
from fractions import Fraction as Q
from functools import reduce
from math import lcm

import numpy as np
import sympy


class CQ:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Q(re)
        self.im = Q(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, CQ) else CQ(x)

    def __add__(self, other):
        o = CQ.of(other)
        return CQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = CQ.of(other)
        return CQ(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = CQ.of(other)
        return CQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = CQ.of(other)
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return CQ((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return CQ(-self.re, -self.im)

    def conj(self):
        return CQ(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = CQ.of(other) if isinstance(other, (CQ, int, Q)) else None
        return o is not None and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def parts(values):
    """(re, im, den): integer arrays and one denominator of nested lists of CQs or rationals."""
    arr = np.asarray(values, dtype=object)
    pairs = [CQ.of(x) for x in arr.flat]
    den = lcm(1, *(q.denominator for x in pairs for q in (x.re, x.im)))
    re, im = ([int(getattr(x, part) * den) for x in pairs] for part in ("re", "im"))
    return (np.array(re, dtype=object).reshape(arr.shape),
            np.array(im, dtype=object).reshape(arr.shape), den)


def entries(num, den):
    """Nested lists of CQs of an integer array whose last axis holds (re, im), over den."""
    num = np.asarray(num, dtype=object)
    flat = [CQ(Q(re, den), Q(im, den)) for re, im in num.reshape(-1, 2)]
    return np.array(flat, dtype=object).reshape(num.shape[:-1]).tolist()


def mat_identity(n, one=Q(1), zero=Q(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def mat_mul(a, b):
    zero = a[0][0] - a[0][0]
    cols_b = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols_b:
            acc = zero
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


# the Pauli matrices sigma_1 = [[0, 1], [1, 0]], sigma_2 = [[0, -i], [i, 0]] and
# sigma_3 = diag(1, -1), and the 2 x 2 identity, as CQ nested lists
_SIGMA = ([[CQ(0), CQ(1)], [CQ(1), CQ(0)]], [[CQ(0), CQ(0, -1)], [CQ(0, 1), CQ(0)]],
          [[CQ(1), CQ(0)], [CQ(0), CQ(-1)]])
_ID2 = [[CQ(1), CQ(0)], [CQ(0), CQ(1)]]


def kron(a, b):
    """Kronecker product of two nested-list matrices."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def gamma_matrices(n):
    """Reference gamma matrices of Cl(n), 2 <= n <= 8, as dense CQ nested lists.

    The Kronecker construction of Delta_n: Gamma_2k-1 and Gamma_2k are
    sigma_3^(k-1) (x) i sigma_1|2 (x) Id^(n//2 - k); odd n adds
    i sigma_3^(n//2), and every generator changes sign unless the volume
    element Gamma_1 ... Gamma_n is then +1 (n = 3 mod 4) or -i (n = 1 mod 4).
    """
    half = n // 2
    product = lambda mats: reduce(kron, mats)
    gammas = []
    for k in range(1, half + 1):
        for sigma in _SIGMA[:2]:
            factors = [_SIGMA[2]] * (k - 1) + [mat_scale(sigma, CQ(0, 1))] + [_ID2] * (half - k)
            gammas.append(product(factors))
    if n % 2:
        gammas.append(mat_scale(product([_SIGMA[2]] * half), CQ(0, 1)))
        target = CQ(1) if n % 4 == 3 else CQ(0, -1)
        if reduce(mat_mul, gammas)[0][0] != target:
            gammas = [mat_scale(g, CQ(-1)) for g in gammas]
    return gammas


def monomial_of(matrix):
    """(cols, phases) of a matrix with one entry i^k per row."""
    units = (CQ(1), CQ(0, 1), CQ(-1), CQ(0, -1))
    cols = tuple(next(j for j, x in enumerate(row) if x) for row in matrix)
    return cols, tuple(units.index(row[c]) for row, c in zip(matrix, cols))


def act_form_by_gamma_products(parts):
    """Reference action: each blade as a chain of dense reference gamma-matrix products."""
    gammas = gamma_matrices(parts[0].n)
    size = len(gammas[0])
    out = [[CQ(0)] * size for _ in range(size)]
    for part in parts:
        for blade, coeff in part.terms.items():
            m = mat_identity(size, CQ(1), CQ(0))
            for i in blade:
                m = mat_mul(m, gammas[i - 1])
            out = mat_add(out, mat_scale(m, CQ(coeff)))
    return out


def poly_mul(p, q):
    """Product of two polynomials with int or Fraction coefficients, highest first."""
    out = [p[0] - p[0]] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, x):
    """Horner's rule over the coefficients' own scalars, highest first."""
    acc = coeffs[0] - coeffs[0]
    for c in coeffs:
        acc = acc * x + c
    return acc


def charpoly_by_fractions(matrix):
    """Reference Faddeev-LeVerrier over the matrix's own scalars (Fraction or CQ)."""
    n = len(matrix)
    one = CQ(1) if isinstance(matrix[0][0], CQ) else Q(1)
    zero = one - one
    coeffs = [one]
    m = mat_identity(n, one, zero)
    for k in range(1, n + 1):
        am = mat_mul(matrix, m)
        ck = -(sum((am[i][i] for i in range(n)), zero) / k)
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else zero) for j in range(n)] for i in range(n)]
    return coeffs


def split_by_sympy(q, d):
    """The rational roots with multiplicity and the monic residual of sum_k q_k x^(n-k) / d^k,
    for integers q_k, by sympy's factorization over Q."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c, d ** k) for k, c in enumerate(q)], x)
    roots, rest = Counter(), sympy.Poly(1, x)
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            root = -b / a
            roots[Q(int(root.p), int(root.q))] += mult
        else:
            rest *= factor ** mult
    residual = [Q(int(c.p), int(c.q)) for c in rest.monic().all_coeffs()]
    return sorted(roots.items()), residual if len(residual) > 1 else None


def rref(matrix, pivot_limit=None):
    """Reduced row echelon form over any exact field; returns (rows, pivot_cols).

    The input is copied; entries need +,-,*,/ and truthiness.  Columns at or
    beyond `pivot_limit` are reduced but never chosen as pivots (augmented
    right-hand sides).
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    limit = n if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for c in range(limit):
        pivot_row = next((k for k in range(r, m) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for k in range(m):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def eliminate_bareiss(a, limit):
    """Bareiss's fraction-free Gauss-Jordan elimination of an integer array, on Python ints.

    The contract of `linalg.eliminate`: columns at or beyond `limit` are
    never pivots, and it returns (rows, pivot_cols, d) with d > 0, every pivot
    entry equal to d and rows / d the reduced row echelon form.  Each pivot p
    rescales every row by p / d_prev, an exact division by Sylvester's
    identity, so every entry is a minor of the input and grows with the
    pivots even where a row has no entry in the pivot column.
    """
    a, pivots, d = np.array(a, dtype=object), [], 1
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


def rank(matrix):
    if not matrix:
        return 0
    return len(rref(matrix)[1])


def nullspace(matrix, one=Q(1)):
    """Exact kernel basis (list of column vectors) of a matrix over a field."""
    if not matrix:
        return []
    rows, pivots = rref(matrix)
    n = len(matrix[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    zero = one - one
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(matrix, rhs_cols):
    """Solve A x = b for each b in rhs_cols (one particular solution each).

    Returns a list of solution vectors, with None for inconsistent systems.
    Eliminates the matrix once for all right-hand sides.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    k = len(rhs_cols)
    aug = [list(matrix[i]) + [rhs_cols[j][i] for j in range(k)] for i in range(m)]
    rows, pivots = rref(aug, pivot_limit=n)
    zero = matrix[0][0] - matrix[0][0]
    piv = list(enumerate(pivots))
    sols = []
    for j in range(k):
        col = n + j
        consistent = True
        for r in range(len(rows)):
            if rows[r][col] and all(not rows[r][c] for c in range(n)):
                consistent = False
                break
        if not consistent:
            sols.append(None)
            continue
        x = [zero] * n
        for r, pc in piv:
            x[pc] = rows[r][col]
        sols.append(x)
    return sols
