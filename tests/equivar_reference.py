"""Reference builders of the g2-module actions and of the maps Phi and Psi.

These are the per-module constructions that `skewtor.equivar` replaced by one
slot sum and one projection on unit tensors, kept here to compare the engine
against exactly:
  * Lambda^p: the so_action image of every unit blade, one blade at a time;
  * S^2: W -> a W + W a^T on the symmetric unit matrices;
  * m and g2: the commutator [a, X] projected on an orthogonal basis of
    skew matrices;
  * R^7 (x) V: the Kronecker sum, with e^i outer;
  * Phi and Psi: a loop over the rows (x, y <= z).
"""

from fractions import Fraction as Q
from math import lcm

import numpy as np

from skewtor.forms import Form, all_blades, inner, so_action
from skewtor.linalg import Tensor

S2_PAIRS = [(i, j) for i in range(1, 8) for j in range(i, 8)]


def endo(alpha):
    """The matrix A with A e_u = sum_v alpha(u, v) e_v of an integral 2-form, as int64."""
    assert alpha.den == 1
    return Tensor.of_form(alpha).num.T.astype(np.int64)


def form_action(xi, degree):
    """so_action of a generator on the degree-p forms: column c is the image of blade c."""
    images = [so_action(xi, Form.blade(7, *b)) for b in all_blades(7, degree)]
    assert all(img.den == 1 for img in images)
    return np.array([img.num for img in images], dtype=np.int64).T


def s2_action(a):
    """W -> a W + W a^T in the value coordinates W(e_y, e_z), y <= z."""
    columns = []
    for u, v in S2_PAIRS:
        w = np.zeros((7, 7), dtype=np.int64)
        w[u - 1, v - 1] = w[v - 1, u - 1] = 1
        image = a @ w + w @ a.T
        columns.append([image[y - 1, z - 1] for y, z in S2_PAIRS])
    return np.array(columns, dtype=np.int64).T


def ad_action(a, mats, norms):
    """(rho, d, closed) of X -> a X - X a on an orthogonal basis of skew matrices X_c.

    The 2-form inner product is half the entrywise product of the matrices,
    so the coefficient of [a, X_c] on X_j is <[a, X_c], X_j>_F / (2 |X_j|^2).
    """
    brackets = [a @ x - x @ a for x in mats]
    coeffs = [[Q(int((b * y).sum())) / (2 * norm) for b in brackets]
              for y, norm in zip(mats, norms)]
    d = lcm(*(c.denominator for row in coeffs for c in row))
    rho = np.array([[int(c * d) for c in row] for row in coeffs], dtype=np.int64)
    closed = [np.array_equal(sum(int(rho[j, c]) * y for j, y in enumerate(mats)), d * b)
              for c, b in enumerate(brackets)]
    return rho, d, closed


def tensor_action(a, rho, d):
    """d (a (x) 1 + 1 (x) rho / d), with the R^7 index outer."""
    return np.kron(d * a, np.eye(len(rho), dtype=np.int64)) \
        + np.kron(np.eye(7, dtype=np.int64), rho)


def generators(space, basis, m_basis):
    """(rho, d) of each algebra basis element on a module, in the engine's order."""
    if space in ("r7_m", "r7_g2"):
        span = m_basis if space == "r7_m" else basis
        mats, norms = [endo(x) for x in span], [inner(x, x) for x in span]
    out = []
    for xi in basis:
        a = endo(xi)
        if space == "lambda1":
            out.append((a, 1))
        elif space.startswith("lambda"):
            out.append((form_action(xi, int(space[-1])), 1))
        elif space == "r7_s2":
            out.append((tensor_action(a, s2_action(a), 1), 1))
        else:
            rho, d, closed = ad_action(a, mats, norms)
            assert all(closed)
            out.append((tensor_action(a, rho, d), d))
    return out


def closure_residuals(basis):
    """For each pair a < b of basis elements, whether [xi_a, xi_b] lies in their span."""
    mats, norms = [endo(x) for x in basis], [inner(x, x) for x in basis]
    out = []
    for a in range(len(basis)):
        out.extend(ad_action(mats[a], mats, norms)[2][a + 1:])
    return out


def map_matrix(forms):
    """196 x 7k matrix: column e^i (x) X_c, row (x, y <= z), entry X_c(x, y)[z = i] + X_c(x, z)[y = i]."""
    k = len(forms)
    out = np.zeros((7, len(S2_PAIRS), 7, k), dtype=np.int64)
    for c, x_c in enumerate(forms):
        for x in range(1, 8):
            for r, (y, z) in enumerate(S2_PAIRS):
                out[x - 1, r, z - 1, c] += int(x_c.eval(x, y))
                out[x - 1, r, y - 1, c] += int(x_c.eval(x, z))
    return out.reshape(7 * len(S2_PAIRS), 7 * k)
