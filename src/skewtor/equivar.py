"""Representation-theoretic engine for the 14-dimensional stabilizer algebra.

Everything is assembled in explicit integer coordinates, and nothing that a
formula writes down is solved for:
  * the stabilizer algebra g as the 2-forms orthogonal to the seven e_i -| w3,
    two per block of three 2-blades of w3, orthogonal by construction;
  * every module as one kind of data, a stack of mutually orthogonal integer
    unit tensors (the unit blades of Lambda^p, the symmetric units of S^2,
    the e_k -| w3 of m, the basis of g); a generator acts on each by one
    `linalg.slot_sum` of its 2-tensor and is read back by projection, and
    R^7 (x) V is the Kronecker sum of the actions on R^7 and V;
  * the equivariant maps Phi (from R^7 (x) g) and Psi (from R^7 (x) m) into
    R^7 (x) S^2(R^7)), both `_symmetrized`, as integer matrices with exact
    rank certificates, the isotypic parts of R^7 (x) m = R^7 (x) R^7 by
    formula, and their intertwining checked on every generator;
  * the Casimir operator of each relevant module, its spectrum proven,
    counted and labelled by one exact product chain prod_k (C' - r_k I) over
    the Casimir values r_k of the irreducible g2-modules from the weight
    table `G2_IRREPS`: every finite-dimensional g2-module is a sum of
    irreducibles, so the chain vanishes, which proves C' diagonalizable, and
    the traces of its partial products give the multiplicities.

`Spaces` builds the actions on each base module, Phi, Psi, every Casimir and
the calibration once, and hands them out read-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import count
from math import comb, lcm
from types import MappingProxyType

import numpy as np

from .errors import StructureError
from .forms import Form, _abs_max, common_denominator, contract, dense, inner, interior, wedge
from .g2 import _projectors, canonical_omega3, spanning_27
from .linalg import Tensor, certified_spectrum, eliminate, int_matmul, rank, slot_sum

Q = Fraction

S2_PAIRS = [(i, j) for i in range(1, 8) for j in range(i, 8)]


class G2Algebra:
    """Integer orthogonal basis of the stabilizer algebra inside the 2-forms, by formula.

    The seven e_i -| w3 = s_a a + s_b b + s_c c (a < b < c unit 2-blades,
    s = +-1) hold each 2-blade exactly once, so the 2-forms orthogonal to
    all of them, the algebra, are the sum of the 2-dimensional complements
    of e_i -| w3 in its block, spanned by s_a a - s_b b and
    s_a a + s_b b - 2 s_c c.
    """

    def __init__(self):
        w3 = canonical_omega3()
        self.basis = []
        for i in range(1, 8):
            block = contract(w3, i).num
            abc = np.flatnonzero(block)
            for weights in ((1, -1, 0), (1, 1, -2)):
                num = np.zeros_like(block)
                num[abc] = block[abc] * weights
                self.basis.append(Form.of_numerators(7, 2, num))
        self.norms = [inner(x, x) for x in self.basis]
        self.units = _units_of(self.basis)
        if slot_sum(self.units, Tensor.of_form(w3).num, 3).any():
            raise StructureError("stabilizer basis does not annihilate the 3-form")

    @cached_property
    def adjoint(self):
        """The 14 actions (rho, d, closed) of the basis on itself, built once: the g2 table."""
        return [_module_action(alpha, self.units) for alpha in self.units]

    def closure_residuals(self):
        """For each pair a < b of basis elements, whether [xi_a, xi_b] lies in the algebra."""
        return [flag for a, (_, _, closed) in enumerate(self.adjoint) for flag in closed[a + 1:]]


# ---------------------------------------------------------------------------
# modules as stacks of orthogonal integer unit tensors
# ---------------------------------------------------------------------------

_S2_ROWS = np.array([y - 1 for y, _ in S2_PAIRS])
_S2_COLS = np.array([z - 1 for _, z in S2_PAIRS])


def _units_of(forms):
    """The dense tensors of integral forms of one degree, stacked as int64: [c, i1, .., ip]."""
    return dense(np.stack([f.num for f in forms]).astype(np.int64), 7, forms[0].degree)


def _module_action(alpha, units):
    """A generator's action on the span of mutually orthogonal integer unit tensors U[c].

    alpha is the generator's dense 2-tensor, applied in every slot by
    `slot_sum`.  The coefficient of the image of U[c] on U[j] is its
    projection <image_c, U_j> / |U_j|^2.  Returns (rho, d, closed): rho / d
    is the action on the coefficients, with d their least common
    denominator, and closed[c] says whether the image of U[c] lies in the
    span.
    """
    image = slot_sum(alpha, units, units.ndim - 1)
    flat, image = units.reshape(len(units), -1), image.reshape(len(units), -1)
    num = int_matmul(flat, image.T)
    # int64 holds |U_j|^2 <= size max|U|^2 below 2^63; past it, Python integers
    if flat.shape[1] * _abs_max(flat) ** 2 >= 2 ** 63:
        flat = flat.astype(object)
    den = (flat * flat).sum(axis=1, keepdims=True)
    g = np.gcd(num, den)
    d = lcm(*(den // g).ravel().tolist())
    # and |rho| = |num / g| d / (den / g) <= d max|num| and d image below 2^63
    if d * max(_abs_max(num), _abs_max(image)) >= 2 ** 63:
        g, image = g.astype(object), image.astype(object)
    rho = (num // g) * (d // (den // g))
    closed = (int_matmul(rho.T, flat) == d * image).all(axis=1)
    return rho, d, closed.tolist()


def _tensor_action(a, rho, d):
    """d (a (x) 1 + 1 (x) rho / d) in (small x big) coordinates, in int64 below 2^63."""
    # its entries are at most d max|a| + max|rho|
    if d * _abs_max(a) + _abs_max(rho) >= 2 ** 63:
        a, rho = a.astype(object), rho.astype(object)
    return np.kron(d * a, np.eye(len(rho), dtype=np.int64)) \
        + np.kron(np.eye(len(a), dtype=np.int64), rho)


def _read_only(array):
    array.flags.writeable = False
    return array


class Spaces:
    """Every module in play as its unit tensors, with lazily assembled integer actions.

    `units` maps lambda1..lambda3 (the unit blades), s2 (the symmetric units
    of `S2_PAIRS`) and m (the e_k -| w3) to their stacked dense tensors;
    these and g2, whose units are the algebra basis, are the base modules,
    and the space r7_V is R^7 (x) V.
    """

    def __init__(self):
        self.algebra = G2Algebra()
        self.w3 = canonical_omega3()
        self.m_basis = [contract(self.w3, i) for i in range(1, 8)]
        s2, r = np.zeros((len(S2_PAIRS), 7, 7), dtype=np.int64), np.arange(len(S2_PAIRS))
        s2[r, _S2_ROWS, _S2_COLS] = s2[r, _S2_COLS, _S2_ROWS] = 1
        self.units = {f"lambda{p}": dense(np.eye(comb(7, p), dtype=np.int64), 7, p)
                      for p in range(1, 4)}
        self.units.update(s2=s2, m=_units_of(self.m_basis))
        self._tables, self._cache = {}, {}

    def _table(self, module: str):
        """The 14 actions (rho, d) on a base module, built and checked for closure once."""
        if module not in self._tables:
            actions = (self.algebra.adjoint if module == "g2" else
                       [_module_action(alpha, self.units[module]) for alpha in self.algebra.units])
            if not all(all(closed) for _, _, closed in actions):
                raise StructureError("the action left the module")
            self._tables[module] = [(_read_only(rho), d) for rho, d, _ in actions]
        return self._tables[module]

    def generators(self, space: str):
        """The actions of the 14 basis elements on a module, in basis order.

        Yields (rho, d) with rho an integer matrix (int64 under the bounds of
        `_module_action` and `_tensor_action`); the action is rho / d, with
        d the least common denominator of its entries: the cached table of a
        base module, or on r7_V the Kronecker sums of the R^7 and V tables.
        """
        module = space.removeprefix("r7_")
        if module == space:
            yield from self._table(module)
            return
        for (a, _), (rho, d) in zip(self._table("lambda1"), self._table(module)):
            yield _tensor_action(a, rho, d), d

    def casimir(self, space: str):
        """Integer matrix C' = L * Casimir plus the exact scale L.

        The Casimir is sum_a rho_a^2 / |xi_a|^2; with rho_a = N_a / d_a each
        term is N_a^2 / w_a, w_a = d_a^2 |xi_a|^2, and L = lcm of the w_a.
        C' is a read-only int64 array (object if its entries leave int64),
        built once per module and shared by every caller.
        """
        if space in self._cache:
            return self._cache[space]
        terms = ((int_matmul(rho, rho), d * d * int(norm))
                 for (rho, d), norm in zip(self.generators(space), self.algebra.norms))
        total, scale = next(terms)
        for sq, weight in terms:
            grown = lcm(scale, weight)
            k, f = grown // scale, grown // weight
            if (total.dtype == object or sq.dtype == object
                    or k * _abs_max(total) + f * _abs_max(sq) >= 2 ** 62):
                total, sq = total.astype(object), sq.astype(object)
            total = total * k + sq * f
            scale = grown
        self._cache[space] = (_read_only(total), scale)
        return self._cache[space]

    @cached_property
    def phi(self):
        """Phi as a read-only 196 x 98 int64 matrix; columns e^i (x) xi_a, rows (x, y<=z)."""
        return _read_only(_map_matrix(self.algebra.basis))

    @cached_property
    def psi(self):
        """Psi as a read-only 196 x 49 int64 matrix; columns e^i (x) (e_k -| w3)."""
        return _read_only(_map_matrix(self.m_basis))

    @cached_property
    def calibration(self):
        """The Casimir value of each irreducible of `G2_IRREPS` by label, derived once.

        Each is the measured scalar C(7) of the vector module times the
        irreducible's ratio in the weight table.
        """
        c1, s1 = self.casimir("lambda1")
        c1 = Tensor(c1, s1)
        seven = c1[0, 0]
        if c1 != Tensor.identity(7) * seven:
            raise StructureError("Casimir is not scalar on the vector module")
        return MappingProxyType({label: seven * ratio for label, _, ratio in G2_IRREPS})


@cache
def spaces() -> Spaces:
    """The one `Spaces` of the process, which every suite and decomposition reads."""
    return Spaces()


# ---------------------------------------------------------------------------
# Casimir spectrum with certificates
# ---------------------------------------------------------------------------

def g2_irreps(max_dim):
    """(label, dimension, Casimir ratio to the 7) of each g2-irreducible up to max_dim, by ratio.

    V(a, b), of highest weight a w_1 + b w_2 (w_1 that of the 7, w_2 of the
    14), has Weyl's dimension and the Casimir 2a^2 + 6ab + 6b^2 + 10a + 18b,
    12 on the 7 (Humphreys, Introduction to Lie Algebras, 22.3 and 24.3;
    Fulton & Harris, Lecture 22).  A label is the dimension, primed once for
    each earlier irreducible of that dimension (V(0, 2) is 77').  A Casimir
    value shared by two irreducibles could not tell them apart: it raises
    ValueError.
    """
    found = []
    for a in count():
        for b in count():
            dim = ((a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4)
                   * (2 * a + 3 * b + 5) // 120)
            if dim > max_dim:
                break
            found.append((Q(2 * a * a + 6 * a * b + 6 * b * b + 10 * a + 18 * b, 12), dim))
        if b == 0:      # V(a, 0) is too large, and the dimension grows with a
            break
    found.sort()
    if len({ratio for ratio, _ in found}) < len(found):
        raise ValueError(f"two irreducible g2-modules of dimension <= {max_dim} "
                         "share a Casimir value")
    dims = [dim for _, dim in found]
    return [(str(dim) + "'" * dims[:k].count(dim), dim, ratio)
            for k, (ratio, dim) in enumerate(found)]


# every irreducible that fits in the largest module of the suites, R^7 (x) S^2
G2_IRREPS = g2_irreps(196)


def casimir_spectrum(space: str):
    """Certified (eigenvalue, dimension) pairs of the Casimir on a module, with its scale.

    The module is a sum of irreducibles, so the `linalg.certified_spectrum`
    chain of C' over the calibrated values of the irreducibles of
    `G2_IRREPS` that fit in it vanishes and counts each eigenspace; a chain
    that does not vanish is refused.  The chain takes the values in
    increasing ratio, which keeps the suites' chains in int64, and the pairs
    are returned in increasing eigenvalue.
    """
    sp = spaces()
    cmat, scale = sp.casimir(space)
    values = [sp.calibration[label] for label, dim, _ in G2_IRREPS if dim <= len(cmat)]
    pairs = certified_spectrum(cmat, values, scale)
    if pairs is None:
        raise StructureError(f"the Casimir on {space} is not diagonalizable "
                             "with the irreducibles' values")
    return pairs, scale


def casimir_decompose(space: str) -> dict:
    """Isotypic decomposition {label: (dim, multiplicity)}, in increasing Casimir eigenvalue.

    Each block of `casimir_spectrum` is the isotypic part of the one
    irreducible of `G2_IRREPS` with its value; a block whose dimension that
    irreducible's does not divide raises.
    """
    calibration = spaces().calibration
    irreps = {calibration[label]: (label, dim) for label, dim, _ in G2_IRREPS}
    out = {}
    for value, dim in casimir_spectrum(space)[0]:
        label, irrep_dim = irreps[value]
        if dim % irrep_dim:
            raise StructureError(f"unmatched isotypic block in {space}: "
                                 f"eigenvalue {value}, dimension {dim}")
        out[label] = (dim, dim // irrep_dim)
    return out


# ---------------------------------------------------------------------------
# the equivariant maps and their rank certificates
# ---------------------------------------------------------------------------

def _map_matrix(forms):
    """196 x 7k integer matrix of e^i (x) X_c -> p_z(x, y) + p_y(x, z), p_k = [k = i] X_c.

    The columns are e^i (x) X_c (e^i outer) for the k integral 2-forms X_c,
    and the rows the value coordinates (x, y <= z).
    """
    coeffs = np.zeros((7, len(forms), 7, comb(7, 2)), dtype=object)
    coeffs[np.arange(7), :, np.arange(7)] = np.stack([f.num for f in forms])
    values = _symmetrized(Tensor(coeffs.reshape(7 * len(forms), 7, -1))).num
    return values[:, :, _S2_ROWS, _S2_COLS].reshape(7 * len(forms), -1).T.astype(np.int64)


def isotypic_basis_r7_m(label: str):
    """Integer basis of the isotypic part `label` (1, 7, 14 or 27) of R^7 (x) m, as rows.

    e_k -> e_k -| w3 is equivariant, so R^7 (x) m is R^7 (x) R^7 = 1 + 7 + 14 + 27
    (Fulton & Harris, Lecture 22) on the coefficients T[i, k] of
    e^i (x) (e_k -| w3): the parts are the identity, the 2-tensors of m and
    of the algebra, and the symmetric units but E_77 less their trace times
    E_77.  One product checks that the part lies in the eigenspace of C'
    with its calibrated value; a part that does not raises.
    """
    sp = spaces()
    s2 = sp.units["s2"]     # E_77 is the last of S2_PAIRS
    parts = {"1": np.eye(7, dtype=np.int64)[None], "7": sp.units["m"], "14": sp.algebra.units,
             "27": s2[:-1] - np.trace(s2[:-1], axis1=1, axis2=2)[:, None, None] * s2[-1]}
    basis = parts[label].reshape(-1, 49)
    cmat, scale = sp.casimir("r7_m")
    lam = sp.calibration[label] * scale
    if np.any(int_matmul(cmat, basis.T) * lam.denominator != basis.T * lam.numerator):
        raise StructureError(f"the {label}-part of R^7 (x) m is not an eigenspace of the Casimir")
    return basis


def rank_certificates():
    """Exact rank and containment certificates for the connection-existence theory.

    The rank and containment claims are read from one elimination of
    [Phi | Psi B14 | Psi B1 | Psi B27] (B the isotypic bases of R^7 (x) m)
    with pivots in Phi's columns only: Phi is injective when each of its
    columns holds a pivot, and the rows below the pivots are the quotient by
    Im(Phi), so an image meets Im(Phi) only in 0 when they have full rank on
    its columns, and lies in Im(Phi) when they vanish on them.  Each basis
    lies in its eigenspace, so it spans the whole isotypic part when its size
    is the multiplicity the r7_m product chain certifies.
    """
    sp = spaces()
    phi, psi = sp.phi, sp.psi
    labels = ("14", "1", "27")
    b14, b1, b27 = bases = [isotypic_basis_r7_m(label) for label in labels]
    certified = dict(casimir_spectrum("r7_m")[0])
    sized = {label: len(b) == certified.get(sp.calibration[label])
             for label, b in zip(labels, bases)}
    images = int_matmul(psi, np.vstack(bases).T)
    matrix = np.hstack([phi, images])
    rows, pivots, _ = eliminate(matrix, phi.shape[1])
    quotient = rows[len(pivots):]
    ends = np.cumsum([phi.shape[1]] + [len(b) for b in bases])
    cols14, cols1, cols27 = (slice(a, b) for a, b in zip(ends, ends[1:]))
    out = {}
    out["phi-injective"] = len(pivots) == phi.shape[1]
    out["psi-14-dimension"] = sized["14"]
    out["images-meet-trivially"] = (out["phi-injective"]
                                    and rank(Tensor(quotient[:, cols14])) == len(b14))
    out["scalar-block-dimension"] = sized["1"]
    out["traceless-block-dimension"] = sized["27"]
    out["scalar-image-contained"] = not quotient[:, cols1].any()
    out["scalar-image-solution-zero"] = not matrix[:, cols1].any()
    out["traceless-image-contained"] = not quotient[:, cols27].any()
    return out


def equivariance_residual_zero():
    """Exact intertwining check of Phi, Psi and the r7_s2 Casimir on all 14 generators.

    With rho = N / d on each module, Phi rho_g2 = rho_s2 Phi becomes the
    integer identity Phi (d_s2 N_g2) = (d_g2 N_s2) Phi; likewise for Psi and
    the Casimir.  Each scale enters an operand, so the bound of `int_matmul`
    covers it.
    """
    sp = spaces()
    phi, psi = sp.phi, sp.psi
    cas = sp.casimir("r7_s2")[0]
    for (g2_rho, g2_d), (m_rho, m_d), (s2_rho, s2_d) in zip(
            sp.generators("r7_g2"), sp.generators("r7_m"), sp.generators("r7_s2")):
        if np.any(int_matmul(phi, _scaled(g2_rho, s2_d)) - int_matmul(_scaled(s2_rho, g2_d), phi)):
            return False
        if np.any(int_matmul(psi, _scaled(m_rho, s2_d)) - int_matmul(_scaled(s2_rho, m_d), psi)):
            return False
        if np.any(int_matmul(cas, s2_rho) - int_matmul(s2_rho, cas)):
            return False
    return True


def _scaled(rho, d):
    """The integer matrix d rho, on Python integers where int64 could wrap."""
    return (rho if _abs_max(rho) * d < 2 ** 63 else rho.astype(object)) * d


def _coefficients(table) -> Tensor:
    """The [case, k, blade] coefficients of a table of 2-forms."""
    nums, den, bound = common_denominator([f for row in table for f in row])
    return Tensor(np.stack(nums).reshape(len(table), len(table[0]), -1), den, bound)


def _pr_m(coeffs) -> Tensor:
    """pr_m of every row of [case, k, blade] coefficients, by the cached 21 x 21 projector."""
    return Tensor.einsum("ckb,ab->cka", coeffs, _projectors(2)[0])


def _symmetrized(coeffs):
    """[case, x, y, z] -> p_z(x, y) + p_y(x, z) of [case, k, blade] coefficients of 2-forms p_k."""
    t = Tensor(dense(coeffs.num, 7, 2), coeffs.den, coeffs.bound)
    return Tensor.einsum("czxy->cxyz", t) + Tensor.einsum("cyxz->cxyz", t)


def sigma0_constant():
    """Exact proportionality constant between Phi(Sigma_0(.)) and Psi on vector types.

    On the vector type of e_g, Sigma_0(Y) = pr_g2(e_g ^ Y) and the embedded
    Gamma(Y) = (A_kappa Y) -| w3 with kappa = e_g -| w3; all seven g at once.
    """
    w3 = canonical_omega3()
    e = [Form.blade(7, k) for k in range(1, 8)]
    sigma = _coefficients([[wedge(g, y) for y in e] for g in e])
    phi = _symmetrized(sigma - _pr_m(sigma))
    psi = _symmetrized(_coefficients([[interior(contract(contract(w3, g), y), w3)
                                       for y in range(1, 8)] for g in range(1, 8)]))
    if any(p.is_zero() for p in psi):
        raise StructureError("Psi vanishes on a vector type")
    k = np.unravel_index(np.flatnonzero(psi.num)[0], psi.num.shape)
    constant = phi[k] / psi[k]
    if phi != psi * constant:
        raise StructureError("map pair is not proportional")
    return constant


def sigma_solution_identity():
    """Phi(Sigma(Gamma)) = Psi(Gamma) for the closed-form algebra-valued Sigma.

    Gamma carries a vector part beta (embedded as (1/4) pr_m(beta ^ .)) and a
    traceless part (embedded as (1/2) pr_m(. -| Gamma27));
    Sigma(Gamma)(Y) = -(1/2) pr_g2(Y -| Gamma27 - (1/4) beta ^ Y).  Both sides
    are linear in (beta, Gamma27), so the seven e_b and the whole of
    `spanning_27()` prove it, all at once as [case, Y, blade] coefficients.
    """
    cases = ([(Form.zero(7, 1), gamma27) for gamma27 in spanning_27()]
             + [(Form.blade(7, b), Form.zero(7, 3)) for b in range(1, 8)])
    contracted = _coefficients([[contract(gamma27, y) for y in range(1, 8)]
                                for _, gamma27 in cases])
    wedged = _coefficients([[wedge(beta, Form.blade(7, y)) for y in range(1, 8)]
                            for beta, _ in cases])
    arg = contracted - wedged * Q(1, 4)
    sig = (arg - _pr_m(arg)) * Q(-1, 2)
    emb = _pr_m(wedged * Q(1, 4) + contracted * Q(1, 2))
    return _symmetrized(sig) == _symmetrized(emb)
