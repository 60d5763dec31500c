"""Representation-theoretic engine for the 14-dimensional stabilizer algebra.

Everything is assembled in explicit integer coordinates, as exact `Tensor`s
that carry their bounds, and nothing that a formula writes down is solved
for:
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
  * the Casimir operator C of each relevant module, its spectrum proven,
    counted and labelled by one exact product chain prod_k (C - r_k I) over
    the Casimir values r_k of the irreducible g2-modules from the weight
    table `G2_IRREPS`: every finite-dimensional g2-module is a sum of
    irreducibles, so the chain vanishes, which proves C diagonalizable, and
    the traces of its partial products give the multiplicities.

`Spaces` builds the actions on each base module, Phi, Psi, every Casimir and
the calibration once, and hands them out read-only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import count
from math import comb
from operator import add
from types import MappingProxyType

import numpy as np

from .errors import StructureError
from .forms import Form, common_denominator, contract, dense, inner, interior, wedge
from .g2 import _projectors, canonical_omega3, spanning_27
from .linalg import Tensor, certified_spectrum, eliminate, rank, slot_sum

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
        self.units = Tensor.of_forms(self.basis)
        if not slot_sum(self.units, Tensor.of_form(w3), 3).is_zero():
            raise StructureError("stabilizer basis does not annihilate the 3-form")

    @cached_property
    def adjoint(self):
        """The 14 actions (rho, closed) of the basis on itself, built once: the g2 table."""
        return [_module_action(alpha, self.units) for alpha in self.units]

    def closure_residuals(self):
        """For each pair a < b of basis elements, whether [xi_a, xi_b] lies in the algebra."""
        return [flag for a, (_, closed) in enumerate(self.adjoint) for flag in closed[a + 1:]]


# ---------------------------------------------------------------------------
# modules as stacks of orthogonal integer unit tensors
# ---------------------------------------------------------------------------

_S2_ROWS = np.array([y - 1 for y, _ in S2_PAIRS])
_S2_COLS = np.array([z - 1 for _, z in S2_PAIRS])


def _flat(t):
    """A stack of tensors [c, ...] as the matrix [c, flattened entries], with its bound."""
    return Tensor(t.num.reshape(len(t), -1), t.den, t.bound)


def _module_action(alpha, units):
    """A generator's action on the span of mutually orthogonal integer unit tensors U[c].

    alpha is the generator's dense 2-tensor, applied in every slot by
    `slot_sum`.  The coefficient of the image of U[c] on U[j] is its
    projection <image_c, U_j> / |U_j|^2, one contraction.  Returns
    (rho, closed): rho is the action on the coefficients, a Tensor over the
    least common denominator of its entries, and closed[c] says whether the
    image of U[c] lies in the span.
    """
    flat = _flat(units)
    image = _flat(slot_sum(alpha, units, units.num.ndim - 1))
    norms = Tensor.einsum("jx,jx->j", flat, flat)
    rho = Tensor.einsum("jx,cx,j->jc", flat, image, Tensor.of([1 / q for q in norms]))
    residual = Tensor.einsum("jc,jx->cx", rho, flat) - image
    return rho, (residual.num == 0).all(axis=1).tolist()


def _tensor_action(a, rho):
    """a (x) 1 + 1 (x) rho: the action on R^7 (x) V of a generator acting by a and by rho.

    A Kronecker product with an identity keeps the entries, so each term
    keeps its factor's denominator and bound, and the sum is the one of the
    exact base.
    """
    return (Tensor(np.kron(a.num, np.eye(len(rho), dtype=np.int64)), a.den, a.bound)
            + Tensor(np.kron(np.eye(len(a), dtype=np.int64), rho.num), rho.den, rho.bound))


def _read_only(t):
    t.num.flags.writeable = False
    return t


class Spaces:
    """Every module in play as its unit tensors, with lazily assembled actions.

    `units` maps lambda1..lambda3 (the unit blades), s2 (the symmetric units
    of `S2_PAIRS`) and m (the e_k -| w3) to their stacked dense Tensors;
    these and g2, whose units are the algebra basis, are the base modules,
    and the space r7_V is R^7 (x) V.
    """

    def __init__(self):
        self.algebra = G2Algebra()
        self.w3 = canonical_omega3()
        self.m_basis = [contract(self.w3, i) for i in range(1, 8)]
        s2, r = np.zeros((len(S2_PAIRS), 7, 7), dtype=np.int64), np.arange(len(S2_PAIRS))
        s2[r, _S2_ROWS, _S2_COLS] = s2[r, _S2_COLS, _S2_ROWS] = 1
        self.units = {f"lambda{p}": Tensor(dense(np.eye(comb(7, p), dtype=np.int64), 7, p))
                      for p in range(1, 4)}
        self.units.update(s2=Tensor(s2), m=Tensor.of_forms(self.m_basis))
        self._tables, self._cache = {}, {}

    def _table(self, module: str):
        """The 14 actions on a base module, built and checked for closure once."""
        if module not in self._tables:
            actions = (self.algebra.adjoint if module == "g2" else
                       [_module_action(alpha, self.units[module]) for alpha in self.algebra.units])
            if not all(all(closed) for _, closed in actions):
                raise StructureError("the action left the module")
            self._tables[module] = [_read_only(rho) for rho, _ in actions]
        return self._tables[module]

    def generators(self, space: str):
        """The actions of the 14 basis elements on a module, in basis order.

        Yields reduced Tensors, each over the least common denominator of its
        entries and with the bound its operations carry: the cached table of
        a base module (the bound of `_module_action`'s contraction), or on
        r7_V the Kronecker sums of the R^7 and V tables (the bound of their
        sum).
        """
        module = space.removeprefix("r7_")
        if module == space:
            yield from self._table(module)
            return
        for a, rho in zip(self._table("lambda1"), self._table(module)):
            yield _tensor_action(a, rho)

    def casimir(self, space: str) -> Tensor:
        """The Casimir sum_a rho_a^2 / |xi_a|^2 of a module, one reduced Tensor.

        Each term is one contraction of an action with itself, scaled by the
        inverse norm, and the sum is the exact base's: the bound is the one
        those operations carry.  It is built once per module and shared by
        every caller, its numerators read-only.
        """
        if space not in self._cache:
            terms = (Tensor.einsum("ij,jk->ik", rho, rho) * (1 / norm)
                     for rho, norm in zip(self.generators(space), self.algebra.norms))
            self._cache[space] = _read_only(reduce(add, terms))
        return self._cache[space]

    @cached_property
    def phi(self):
        """Phi as a read-only 196 x 98 integer Tensor; columns e^i (x) xi_a, rows (x, y<=z)."""
        return _read_only(_map_matrix(self.algebra.basis))

    @cached_property
    def psi(self):
        """Psi as a read-only 196 x 49 integer Tensor; columns e^i (x) (e_k -| w3)."""
        return _read_only(_map_matrix(self.m_basis))

    @cached_property
    def calibration(self):
        """The Casimir value of each irreducible of `G2_IRREPS` by label, derived once.

        Each is the measured scalar C(7) of the vector module times the
        irreducible's ratio in the weight table.
        """
        c1 = self.casimir("lambda1")
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
    """Certified (eigenvalue, dimension) pairs of the Casimir on a module.

    The module is a sum of irreducibles, so the `linalg.certified_spectrum`
    chain of the Casimir over the calibrated values of the irreducibles of
    `G2_IRREPS` that fit in it vanishes and counts each eigenspace; a chain
    that does not vanish is refused.  The chain takes the values in
    increasing ratio, which keeps the suites' chains in float64, and the
    pairs are returned in increasing eigenvalue.
    """
    sp = spaces()
    cas = sp.casimir(space)
    values = [sp.calibration[label] for label, dim, _ in G2_IRREPS if dim <= len(cas)]
    pairs = certified_spectrum(cas, values)
    if pairs is None:
        raise StructureError(f"the Casimir on {space} is not diagonalizable "
                             "with the irreducibles' values")
    return pairs


def casimir_decompose(space: str) -> dict:
    """Isotypic decomposition {label: (dim, multiplicity)}, in increasing Casimir eigenvalue.

    Each block of `casimir_spectrum` is the isotypic part of the one
    irreducible of `G2_IRREPS` with its value; a block whose dimension that
    irreducible's does not divide raises.
    """
    calibration = spaces().calibration
    irreps = {calibration[label]: (label, dim) for label, dim, _ in G2_IRREPS}
    out = {}
    for value, dim in casimir_spectrum(space):
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
    """196 x 7k integer Tensor of e^i (x) X_c -> p_z(x, y) + p_y(x, z), p_k = [k = i] X_c.

    The columns are e^i (x) X_c (e^i outer) for the k integral 2-forms X_c,
    and the rows the value coordinates (x, y <= z).
    """
    coeffs = np.zeros((7, len(forms), 7, comb(7, 2)), dtype=object)
    coeffs[np.arange(7), :, np.arange(7)] = np.stack([f.num for f in forms])
    values = _symmetrized(Tensor(coeffs.reshape(7 * len(forms), 7, -1)))
    return Tensor(values.num[:, :, _S2_ROWS, _S2_COLS].reshape(7 * len(forms), -1).T,
                  values.den, values.bound)


def isotypic_basis_r7_m(label: str):
    """Integer basis of the isotypic part `label` (1, 7, 14 or 27) of R^7 (x) m, as Tensor rows.

    e_k -> e_k -| w3 is equivariant, so R^7 (x) m is R^7 (x) R^7 = 1 + 7 + 14 + 27
    (Fulton & Harris, Lecture 22) on the coefficients T[i, k] of
    e^i (x) (e_k -| w3): the parts are the identity, the 2-tensors of m and
    of the algebra, and the symmetric units but E_77 less their trace times
    E_77.  One product checks that the part lies in the eigenspace of the
    Casimir with its calibrated value; a part that does not raises.
    """
    sp = spaces()
    s2 = sp.units["s2"]     # E_77 is the last of S2_PAIRS
    parts = {"1": Tensor.identity(7)[None], "7": sp.units["m"], "14": sp.algebra.units,
             "27": s2[:-1] - Tensor.einsum("cii,xy->cxy", s2[:-1], s2[-1])}
    basis = _flat(parts[label])
    if Tensor.einsum("ij,kj->ki", sp.casimir("r7_m"), basis) != basis * sp.calibration[label]:
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
    bases = [isotypic_basis_r7_m(label) for label in labels]
    certified = dict(casimir_spectrum("r7_m"))
    sized = {label: len(b) == certified.get(sp.calibration[label])
             for label, b in zip(labels, bases)}
    images = [Tensor.einsum("ij,kj->ik", psi, b) for b in bases]
    matrix = np.hstack([phi.num] + [x.num for x in images])
    columns = phi.num.shape[1]
    rows, pivots, _ = eliminate(matrix, columns)
    quotient = rows[len(pivots):]
    ends = np.cumsum([columns] + [len(b) for b in bases])
    cols14, cols1, cols27 = (slice(a, b) for a, b in zip(ends, ends[1:]))
    out = {}
    out["phi-injective"] = len(pivots) == columns
    out["psi-14-dimension"] = sized["14"]
    out["images-meet-trivially"] = (out["phi-injective"]
                                    and rank(Tensor(quotient[:, cols14])) == len(bases[0]))
    out["scalar-block-dimension"] = sized["1"]
    out["traceless-block-dimension"] = sized["27"]
    out["scalar-image-contained"] = not quotient[:, cols1].any()
    out["scalar-image-solution-zero"] = not matrix[:, cols1].any()
    out["traceless-image-contained"] = not quotient[:, cols27].any()
    return out


def equivariance_residual_zero():
    """Exact intertwining check of Phi, Psi and the r7_s2 Casimir on all 14 generators.

    Phi rho_g2 = rho_s2 Phi, Psi rho_m = rho_s2 Psi and C rho_s2 = rho_s2 C,
    each side one contraction of exact Tensors, compared reduced.
    """
    sp = spaces()
    phi, psi, cas = sp.phi, sp.psi, sp.casimir("r7_s2")
    for g2, m, s2 in zip(sp.generators("r7_g2"), sp.generators("r7_m"), sp.generators("r7_s2")):
        if (_product(phi, g2) != _product(s2, phi) or _product(psi, m) != _product(s2, psi)
                or _product(cas, s2) != _product(s2, cas)):
            return False
    return True


def _product(a, b):
    return Tensor.einsum("ij,jk->ik", a, b)


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
