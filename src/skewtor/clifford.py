"""Exact complex Clifford modules Delta_n (2 <= n <= 8) and form actions on spinors.

Conventions, pinned by the identities the test suite enforces:
  * e_i . e_i = -1, gamma matrices anti-hermitian over Gaussian rationals;
  * for odd n the volume element Gamma_1 ... Gamma_n is normalized to +Id
    when n = 3 (mod 4) and to -i Id when n = 1 (mod 4).  With this choice the
    canonical 3-form of dimension 7 acts with the simple eigenvalue -7 and
    the Reeb direction of dimension 5 acts by +i on the rank-one subbundles.

The module is one table of signed monomial matrices: the product of gamma
matrices over a blade holds one entry i^k per row.  `act_form` is the one
place that turns it into a dense matrix; a gamma matrix is `act_form(e_i)`.

Each gamma matrix moves a row r to a row whose index differs from r in one
bit, or (the last generator of odd n) keeps it, so the volume element is
diagonal and, for even n, the rows of even and of odd popcount are the half
modules Delta^+ and Delta^-: an even form preserves them and an odd form
swaps them.  `eigen_report` factors a characteristic polynomial along this
grading, and `half_module_blocks` reads the blocks by the same gather.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DegreeError, DimensionMismatch
from .forms import Form, _abs_max, _exact_array, all_blades, common_denominator
from .linalg import (GaussTensor, Tensor, charpoly, is_hermitian, nullspace, rank,
                     rational_roots, unscaled)


def _times(mono, gen):
    """(cols, phases) of the product of two signed monomial matrices."""
    cols, phases = mono
    g_cols, g_phases = gen
    return (tuple(g_cols[c] for c in cols),
            tuple((p + g_phases[c]) % 4 for p, c in zip(phases, cols)))


@lru_cache(maxsize=None)
def _generators(n):
    """(cols, phases) of Gamma_1 .. Gamma_n: row r holds i^phases[r] in column cols[r].

    Gamma_2k-1 and Gamma_2k are sigma_3^(k-1) (x) i sigma_1|2 (x) Id^(half-k),
    read on the bits of r with the first factor on the highest bit: i sigma_1
    and i sigma_2 flip the bit of slot k, each sigma_3 above it gives -1 where
    its bit is set, and i sigma_2 gives -1 where the bit of slot k is set.  Odd
    n adds i sigma_3^half, and all generators change sign when the volume
    element is not then the pinned +1 or -i.
    """
    if not 2 <= n <= 8:
        raise DimensionMismatch("spin modules provided for dimensions 2..8")
    half = n // 2
    rows = range(2 ** half)
    gens = []
    for bit in reversed(range(half)):
        signs = [2 * (r >> (bit + 1)).bit_count() for r in rows]
        cols = tuple(r ^ (1 << bit) for r in rows)
        gens.append((cols, tuple((s + 1) % 4 for s in signs)))
        gens.append((cols, tuple((s + 2 * (r >> bit & 1)) % 4 for r, s in zip(rows, signs))))
    if n % 2:
        gens.append((tuple(rows), tuple((1 + 2 * r.bit_count()) % 4 for r in rows)))
        target = 0 if n % 4 == 3 else 3   # i^0 = +1 or i^3 = -i
        if reduce(_times, gens)[1][0] != target:
            gens = [(cols, tuple((p + 2) % 4 for p in phases)) for cols, phases in gens]
    return tuple(gens)


@lru_cache(maxsize=None)
def _monomial(n, blade):
    """(cols, phases) of Gamma_i1 ... Gamma_ik for an ascending blade (i1, ..., ik) of R^n."""
    gens = _generators(n)
    if not blade:
        size = len(gens[0][0])
        return tuple(range(size)), (0,) * size
    return _times(_monomial(n, blade[:-1]), gens[blade[-1] - 1])


def act_form(form) -> GaussTensor:
    """Clifford action on Delta_n of a form (or an iterable of homogeneous parts of one n).

    Each blade adds its coefficient times i^phase at one entry per row, in
    integers over the common denominator of the coefficients.
    """
    parts = [form] if isinstance(form, Form) else list(form)
    if any(part.n != parts[0].n for part in parts):
        raise DimensionMismatch("form parts of different dimension")
    n = parts[0].n
    size = len(_generators(n)[0][0])
    nums, den, _ = common_denominator(parts)
    acc = [0] * (2 * size * size)
    for part, num in zip(parts, nums):
        for blade, x in zip(all_blades(part.n, part.degree), num.tolist()):
            if not x:
                continue
            cols, phases = _monomial(n, blade)
            for r, (c, p) in enumerate(zip(cols, phases)):
                acc[2 * (r * size + c) + p % 2] += x if p < 2 else -x
    bound = _abs_max(acc)
    return GaussTensor(_exact_array(acc, bound).reshape(size, size, 2), den, bound)


class EigenReport(NamedTuple):
    """Exact spectrum found by `eigen_report`: rational eigenvalues plus any residual factor."""

    pairs: list         # sorted [(Fraction eigenvalue, multiplicity)]
    residual: object    # remaining charpoly factor (a GaussTensor vector) or None
    hermitian: bool


def eigen_report(matrix: GaussTensor) -> EigenReport:
    """The exact spectrum of A = N / d: the rational roots of det(yI - N) over d, by one
    `charpoly` call, factored along the half-spin grading (`_parity_rows`).

    An even form keeps the half modules Delta^+ and Delta^-, so the blocks of
    N between them vanish and det(yI - N) = det(yI - N_++) det(yI - N_--): one
    `charpoly` of the two diagonal blocks, multiplied exactly over Z[i].  An
    odd form swaps them, so the diagonal blocks vanish and
    det(yI - N) = det(y^2 I - N_+- N_-+): one `charpoly` of half the size,
    read at y^2.  Any other matrix (odd n, mixed parity) is taken whole.  The
    blocks are numerators of N, so each keeps the denominator d.
    """
    size, d = len(matrix), matrix.den
    coeffs = _graded_charpoly(matrix)
    if coeffs.im.any():
        # a non-real polynomial is not searched: it is the residual whole
        pairs, residual = [], unscaled(coeffs, d)
    else:
        pairs, residual = rational_roots(coeffs.re.tolist(), d)
    total = sum(m for _, m in pairs) + (0 if residual is None else len(residual) - 1)
    if total != size:
        raise RuntimeError("spectrum bookkeeping lost degrees")
    return EigenReport(pairs, residual, is_hermitian(matrix))


def _graded_charpoly(matrix: GaussTensor) -> GaussTensor:
    """det(yI - N) over Z[i] for the numerators N of a square matrix, as `eigen_report` factors it."""
    even, odd = _parity_rows(len(matrix))
    if len(even) == len(odd):
        ee, eo, oe, oo = _blocks(matrix, even, odd)
        if not (np.count_nonzero(eo) or np.count_nonzero(oe)):
            first, second = charpoly(GaussTensor(np.stack([ee, oo]), 1, matrix.bound))
            (ar, ai), (br, bi) = ((f.re.astype(object), f.im.astype(object))
                                  for f in (first, second))
            return GaussTensor.of_parts(np.convolve(ar, br) - np.convolve(ai, bi),
                                        np.convolve(ar, bi) + np.convolve(ai, br))
        if not (np.count_nonzero(ee) or np.count_nonzero(oo)):
            half = charpoly(GaussTensor(eo, 1, matrix.bound) @ GaussTensor(oe, 1, matrix.bound))
            spread = np.zeros((2 * len(half) - 1, 2), dtype=half.num.dtype)
            spread[::2] = half.num
            return GaussTensor(spread, 1, half.bound)
    return charpoly(matrix)


def common_kernel(endos) -> GaussTensor:
    """Exact basis (as rows) of the intersection of the kernels of a list of endomorphisms."""
    size = len(endos[0])
    for m in endos:
        if len(m) != size:
            raise DimensionMismatch("spin endomorphism sizes differ")
    # the kernels do not depend on the denominators, so the numerators are stacked
    return nullspace(GaussTensor(np.concatenate([m.num for m in endos]), 1,
                                 max(m.bound for m in endos)))


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
    nums, den, bound = common_denominator([t, x])
    coordinates = Tensor(np.concatenate(nums), den, bound)
    return Tensor.einsum("rc,c->r", Tensor(kernel_condition_rows(which)), coordinates).is_zero()


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


def _parity_rows(size):
    """The row indices below `size` of even popcount, then those of odd popcount.

    On Delta_n the volume element is diagonal with one value on each class,
    so for even n they are the rows of the half modules (`_half_rows`).
    """
    return [[r for r in range(size) if r.bit_count() % 2 == k] for k in (0, 1)]


def _blocks(matrix: GaussTensor, first, second):
    """The numerator blocks first x first, first x second, second x first and second x second
    of a matrix, for two row sets of one size, by one index gather."""
    order = first + second
    h = len(first)
    graded = matrix.num[np.ix_(order, order)]
    return graded[:h, :h], graded[:h, h:], graded[h:, :h], graded[h:, h:]


def _half_rows(n):
    """The `_parity_rows` of Delta_n, n even, as the rows of its half modules: those
    where the diagonal volume element Gamma_1...Gamma_n acts by +i, then by -i
    (n = 2 mod 4, where it squares to -1), or by +1, then by -1 (n = 0 mod 4)."""
    if n % 2:
        raise DimensionMismatch("half modules exist in even dimensions")
    _, phases = _monomial(n, tuple(range(1, n + 1)))
    rows = _parity_rows(len(phases))
    # the volume element is i^phase: +i or +1 (phase n/2 mod 2) on the plus half
    return rows if phases[0] == n // 2 % 2 else rows[::-1]


def half_module_blocks(n: int, matrix: GaussTensor):
    """The diagonal blocks of a spin endomorphism of Delta_n, n even, in `_half_rows` order.

    A matrix whose off-diagonal blocks do not vanish does not preserve the
    half modules (an odd form swaps them) and is refused with ValueError.
    """
    plus, minus = _half_rows(n)
    if len(matrix) != len(plus) + len(minus):
        raise DimensionMismatch(f"a spin endomorphism of Delta_{n} has size {len(plus) * 2}")
    pp, pm, mp, mm = _blocks(matrix, plus, minus)
    if np.count_nonzero(pm) or np.count_nonzero(mp):
        raise ValueError("the endomorphism does not preserve the half modules")
    return GaussTensor(pp, matrix.den, matrix.bound), GaussTensor(mm, matrix.den, matrix.bound)
