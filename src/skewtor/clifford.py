"""Exact complex Clifford modules Delta_n (2 <= n <= 8) and form actions on spinors.

Conventions, pinned by the identities the test suite enforces:
  * e_i . e_i = -1, gamma matrices anti-hermitian over Gaussian rationals;
  * for odd n the volume element Gamma_1 ... Gamma_n is normalized to +Id
    when n = 3 (mod 4) and to -i Id when n = 1 (mod 4).  With this choice the
    canonical 3-form of dimension 7 acts with the simple eigenvalue -7 and
    the Reeb direction of dimension 5 acts by +i on the rank-one subbundles.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import matmul

import numpy as np

from .errors import DegreeError, DimensionMismatch
from .forms import Form, all_blades, common_denominator
from .linalg import (GaussTensor, Tensor, charpoly, int_matmul, is_hermitian, nullspace,
                     rank, rational_roots, solve, unscaled)

_S3 = np.diag([1, -1])
_ID2 = np.eye(2, dtype=int)
_ZERO2 = np.zeros((2, 2), dtype=int)
# (re, im) of i sigma_1 and of i sigma_2, with the Pauli matrices
# sigma_1 = [[0, 1], [1, 0]], sigma_2 = [[0, -i], [i, 0]], sigma_3 = _S3
_I_SIGMA = ((_ZERO2, np.array([[0, 1], [1, 0]])), (np.array([[0, 1], [-1, 0]]), _ZERO2))


def _kron(mats):
    return reduce(np.kron, mats)


# i^k as (re, im)
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class GammaRep:
    """Gamma matrices of Cl(n) acting on C^(2^floor(n/2)), as GaussTensors.

    Every product of gamma matrices is a signed monomial matrix: row r holds
    i^phases[r] in column cols[r] and zeros elsewhere.  `monomial(blade)`
    gives (cols, phases) of the product over a blade, derived once from
    `gammas`.
    """

    def __init__(self, n, gammas):
        self.n = n
        self.gammas = gammas
        self.dim = len(gammas[0])
        self._monomials = {(): (tuple(range(self.dim)), (0,) * self.dim)}
        self._monomials.update({(i,): _monomial_of(g) for i, g in enumerate(gammas, 1)})

    def monomial(self, blade):
        """(cols, phases) of Gamma_i1 ... Gamma_ik for an ascending blade (i1, ..., ik)."""
        mono = self._monomials.get(blade)
        if mono is None:
            cols, phases = self.monomial(blade[:-1])
            g_cols, g_phases = self._monomials[blade[-1:]]
            mono = (tuple(g_cols[c] for c in cols),
                    tuple((p + g_phases[c]) % 4 for p, c in zip(phases, cols)))
            self._monomials[blade] = mono
        return mono

    def volume(self):
        """The matrix of the volume element Gamma_1...Gamma_n."""
        return reduce(matmul, self.gammas)


def _monomial_of(gamma):
    """(cols, phases) of a matrix with one entry i^k per row."""
    cols = [next(j for j in range(len(gamma)) if gamma.re[r, j] or gamma.im[r, j])
            for r in range(len(gamma))]
    phases = [_UNITS.index((gamma.re[r, c], gamma.im[r, c])) for r, c in enumerate(cols)]
    return tuple(cols), tuple(phases)


@lru_cache(maxsize=None)
def build_rep(n: int) -> GammaRep:
    if not 2 <= n <= 8:
        raise DimensionMismatch("spin modules provided for dimensions 2..8")
    half = n // 2
    # sigma_3^(k-1) (x) i sigma_1|2 (x) Id^(half-k); odd n adds i sigma_3^half
    gammas = []
    for k in range(1, half + 1):
        pre = [_S3] * (k - 1)
        post = [_ID2] * (half - k)
        for re, im in _I_SIGMA:
            gammas.append(GaussTensor.of_parts(_kron(pre + [re] + post), _kron(pre + [im] + post)))
    if n % 2:
        gammas.append(GaussTensor.of_parts(np.zeros((2 ** half,) * 2, dtype=int),
                                           _kron([_S3] * half)))
        rep = GammaRep(n, gammas)
        target = [1, 0] if n % 4 == 3 else [0, -1]   # (re, im) of +1 or -i
        if rep.volume().num[0, 0].tolist() != target:
            rep = GammaRep(n, [-g for g in gammas])
        assert rep.volume().num[0, 0].tolist() == target
        return rep
    return GammaRep(n, gammas)


def act_form(form) -> GaussTensor:
    """Clifford action on Delta_n of a form (or an iterable of homogeneous parts of one n).

    Each blade adds its coefficient times i^phase at one entry per row, in
    integers over the common denominator of the coefficients.
    """
    parts = [form] if isinstance(form, Form) else list(form)
    if any(part.n != parts[0].n for part in parts):
        raise DimensionMismatch("form parts of different dimension")
    rep = build_rep(parts[0].n)
    nums, den = common_denominator(parts)
    size = rep.dim
    acc = [[0, 0] for _ in range(size * size)]
    for part, num in zip(parts, nums):
        for blade, x in zip(all_blades(part.n, part.degree), num.tolist()):
            if not x:
                continue
            cols, phases = rep.monomial(blade)
            for r, (c, p) in enumerate(zip(cols, phases)):
                acc[r * size + c][p % 2] += x if p < 2 else -x
    return GaussTensor(np.array(acc, dtype=object).reshape(size, size, 2), den)


class EigenReport:
    """Exact spectrum: rational eigenvalues with multiplicity plus any residual factor."""

    def __init__(self, size, pairs, residual, hermitian):
        self.size = size
        self.pairs = pairs            # sorted [(Fraction eigenvalue, multiplicity)]
        self.residual = residual      # remaining charpoly factor (a GaussTensor vector) or None
        self.hermitian = hermitian

    def multiset(self):
        out = []
        for value, mult in self.pairs:
            out.extend([value] * mult)
        return out

    def as_pairs(self):
        return [(str(v), m) for v, m in self.pairs]

    def __repr__(self):
        body = ", ".join(f"{v} x{m}" for v, m in self.pairs)
        if self.residual is not None:
            body += f"; residual degree {len(self.residual) - 1}"
        return f"EigenReport({body})"


def eigen_report(matrix: GaussTensor) -> EigenReport:
    size, d = len(matrix), matrix.den
    coeffs = charpoly(matrix)
    if coeffs.im.any():
        # a non-real polynomial is not searched: it is the residual whole
        pairs, residual = [], unscaled(coeffs, d)
    else:
        pairs, residual = rational_roots(coeffs.re.tolist(), d)
    total = sum(m for _, m in pairs) + (0 if residual is None else len(residual) - 1)
    if total != size:
        raise RuntimeError("spectrum bookkeeping lost degrees")
    return EigenReport(size, pairs, residual, is_hermitian(matrix))


def common_kernel(endos, dim=None) -> GaussTensor:
    """Exact basis (as rows) of the intersection of kernels; empty input gives the full module."""
    endos = list(endos)
    if not endos:
        if dim is None:
            raise ValueError("dimension required for an empty kernel problem")
        return GaussTensor.identity(dim)
    size = len(endos[0])
    for m in endos:
        if len(m) != size:
            raise DimensionMismatch("spin endomorphism sizes differ")
    # the kernels do not depend on the denominators, so the numerators are stacked
    return nullspace(GaussTensor(np.concatenate([m.num for m in endos])))


# ---------------------------------------------------------------------------
# dimension-5 closed-form kernel conditions
# ---------------------------------------------------------------------------

def spinor_5d(which: str):
    """Distinguished spinors of Delta_5 in the pinned basis.

    "plus":  rank-one type, Reeb direction acts by +i (a (+/-4)-eigenvector of
             the contact 3-form action);
    "minus": rank-two kernel type, Reeb direction acts by -i.
    """
    if which in ("plus", "minus"):
        return GaussTensor.identity(4)[("plus", "minus").index(which)]
    raise ValueError("which must be 'plus' or 'minus'")


# Each condition is c(first) + sign * s * c(second) = 0, with s = +1 for
# "plus" and -1 for "minus", on the coefficients c of t (3-blades) and x
# (1-blades); the fifth is x_5 = 0 alone.
_KERNEL_CONDITIONS = (
    ((1,), (2, 3, 4), 1), ((2,), (1, 3, 4), -1), ((3,), (1, 2, 4), 1),
    ((4,), (1, 2, 3), -1), ((5,), None, 0), ((1, 2, 5), (3, 4, 5), 1),
    ((2, 3, 5), (1, 4, 5), 1), ((2, 4, 5), (1, 3, 5), -1),
)
# the 15 coordinates of (t, x): the 3-blades of R^5 in blade order, then e_1 .. e_5
_COORDINATES = tuple(all_blades(5, 3)) + tuple(all_blades(5, 1))


def kernel_condition_rows(which: str):
    """The closed-form conditions of `kernel_conditions_5d` as an 8 x 15 integer matrix.

    Columns are the coordinates of (t, x) in `_COORDINATES` order.  The
    "plus" variant carries the sign pattern x_1 = -t_234, the "minus"
    variant x_1 = +t_234.
    """
    s = 1 if which == "plus" else -1 if which == "minus" else None
    if s is None:
        raise ValueError("which must be 'plus' or 'minus'")
    rows = np.zeros((len(_KERNEL_CONDITIONS), len(_COORDINATES)), dtype=int)
    for r, (first, second, sign) in enumerate(_KERNEL_CONDITIONS):
        rows[r, _COORDINATES.index(first)] = 1
        if second:
            rows[r, _COORDINATES.index(second)] = sign * s
    return rows


def kernel_conditions_5d(t: Form, x: Form, which: str) -> bool:
    """Closed-form test for the distinguished spinor to lie in ker(t . + x .).

    `t` is a 3-form and `x` a 1-form on R^5; the test is that every row of
    `kernel_condition_rows` vanishes on their coefficients.
    """
    if t.n != 5 or x.n != 5:
        raise DimensionMismatch("dimension-5 conditions")
    if t.degree != 3 or x.degree != 1:
        raise DegreeError("expected a 3-form and a 1-form")
    nums, _ = common_denominator([t, x])
    return not int_matmul(kernel_condition_rows(which), np.concatenate(nums)).any()


def kernel_conditions_are_membership(which: str) -> bool:
    """Exact proof that `kernel_conditions_5d` is kernel membership, for every (t, x).

    Both are linear conditions on the 15 coordinates of (t, x): membership is
    the vanishing of the real and imaginary parts of (t . + x .) psi,
    linear in (t, x) with one column per unit coordinate.  Two sets of
    linear conditions cut out the same subspace exactly when each and their
    union have one rank.
    """
    psi = spinor_5d(which)
    units = [(Form.blade(5, *b), Form.zero(5, 1)) if len(b) == 3
             else (Form.zero(5, 3), Form.blade(5, *b)) for b in _COORDINATES]
    member = np.stack([(act_form([t, x]) @ psi).num.reshape(-1) for t, x in units], axis=1)
    closed = kernel_condition_rows(which)
    ranks = {rank(Tensor(m)) for m in (member, closed, np.vstack([member, closed]))}
    return len(ranks) == 1


def restrict(matrix: GaussTensor, basis: GaussTensor) -> GaussTensor:
    """Matrix of an endomorphism restricted to an invariant subspace (basis as rows)."""
    cols = basis.T
    sols = solve(cols, (matrix @ cols).T)
    if any(s is None for s in sols):
        raise ValueError("subspace is not invariant")
    nums, den = common_denominator(sols)
    return GaussTensor(np.stack(nums, axis=1), den)


def half_spinor_bases(n: int):
    """Eigenbases (as rows) of the volume element on Delta_n for even n (+i, -i)."""
    if n % 2:
        raise DimensionMismatch("half modules exist in even dimensions")
    rep = build_rep(n)
    vol, eye = rep.volume(), np.eye(rep.dim, dtype=int)
    return tuple(nullspace(vol - GaussTensor.of_parts(0 * eye, s * eye)) for s in (1, -1))
