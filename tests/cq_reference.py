"""Reference spinor linear algebra on nested lists of CQ (or Fraction) entries.

These are the list-matrix loops that `GaussTensor` replaced in the program,
kept here to compare the integer kernels against entry for entry.
"""

from fractions import Fraction as Q

from skewtor.linalg import CQ


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


def act_form_by_gamma_products(rep, parts):
    """Reference action: each blade as a chain of dense CQ gamma-matrix products."""
    size = rep.dim
    gammas = [g.tolist() for g in rep.gammas]
    out = [[CQ(0)] * size for _ in range(size)]
    for part in parts:
        for blade, coeff in part.terms.items():
            m = mat_identity(size, CQ(1), CQ(0))
            for i in blade:
                m = mat_mul(m, gammas[i - 1])
            out = mat_add(out, mat_scale(m, CQ(coeff)))
    return out


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
