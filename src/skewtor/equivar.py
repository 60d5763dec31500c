"""Representation-theoretic engine for the 14-dimensional stabilizer algebra.

Everything is assembled in explicit integer coordinates:
  * the stabilizer algebra g as the 2-forms orthogonal to the seven e_i -| w3,
    orthogonalized over the rationals;
  * the equivariant maps Phi (from R^7 (x) g) and Psi (from R^7 (x) m) into
    R^7 (x) S^2(R^7)), as integer matrices with exact rank certificates;
  * the Casimir operator of each relevant module with certified eigenspace
    dimensions (mod-p ranks promoted by an annihilation certificate plus the
    dimension count, never trusted raw).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

import numpy as np

from .errors import StructureError
from .forms import (Form, all_blades, common_denominator, contract, dense, derivation, inner,
                    interior, so_action, wedge)
from .g2 import _projectors, canonical_omega3, project3, spanning_27
from .linalg import (Tensor, certified_eigenspace_dims, certify_annihilation,
                     int_abs_max, int_matmul, krylov_min_poly, nullspace, rank,
                     rank_mod_p, rational_roots, solve, _PRIMES)

Q = Fraction

S2_PAIRS = [(i, j) for i in range(1, 8) for j in range(i, 8)]


class G2Algebra:
    """Integer orthogonal basis of the stabilizer algebra inside the 2-forms."""

    def __init__(self):
        # the 2-forms orthogonal to every e_i -| w3, i = 1..7
        w3 = canonical_omega3()
        kernel = nullspace([contract(w3, i).num for i in range(1, 8)])
        if len(kernel) != 14:
            raise StructureError("stabilizer equations do not cut out 14 dimensions")
        raw = [Form.of_numerators(7, 2, v) for v in kernel.num]
        self.basis = _orthogonalize(raw)
        self.norms = [inner(x, x) for x in self.basis]
        self.endos = np.stack([_int_endo(x) for x in self.basis])
        if any(not so_action(x, w3).is_zero() for x in self.basis):
            raise StructureError("stabilizer basis does not annihilate the 3-form")

    def coordinates(self, alpha: Form):
        """Coefficients of a 2-form in the basis, or None if outside the algebra.

        The basis is orthogonal, so the coefficients are the projections.
        """
        coords = [inner(alpha, x) / norm for x, norm in zip(self.basis, self.norms)]
        span = sum((x * c for c, x in zip(coords, self.basis)), Form.zero(7, 2))
        return coords if span == alpha else None

    def closure_residuals(self):
        """For each pair a < b of basis elements, whether [xi_a, xi_b] lies in the algebra."""
        out = []
        for a in range(14):
            closed = _ad_action(self.endos[a], self.endos, self.norms)[2]
            out.extend(closed[a + 1:])
        return out


def _orthogonalize(forms):
    """Gram-Schmidt over Q without normalization, rescaled to primitive integers."""
    out = []
    for f in forms:
        g = f
        for h in out:
            g = g - h * (inner(g, h) / inner(h, h))
        if g.is_zero():
            raise StructureError("dependent basis in orthogonalization")
        out.append(Form.of_numerators(g.n, g.degree, g.num // gcd(*g.num)))
    return out


# ---------------------------------------------------------------------------
# module actions as integer matrices
# ---------------------------------------------------------------------------

def _int_endo(alpha: Form):
    """The matrix A with A e_u = sum_v alpha(u, v) e_v of an integral 2-form, as int64."""
    if alpha.den != 1:
        raise StructureError("generator 2-form has a non-integral coefficient")
    return Tensor.of_form(alpha).num.T.astype(np.int64)


def _form_action(xi, degree):
    """so_action of an integral generator 2-form on the degree-p forms, as an int64 matrix.

    Column c is the derivation image of blade c, with the images e_m -| xi
    computed once.
    """
    images = [contract(xi, m) for m in range(1, 8)]
    columns = [derivation(Form.blade(7, *b), 1, lambda m: images[m - 1]).num
               for b in all_blades(7, degree)]
    return np.array(columns, dtype=np.int64).T


_S2_ROWS = np.array([y - 1 for y, _ in S2_PAIRS])
_S2_COLS = np.array([z - 1 for _, z in S2_PAIRS])


def _s2_action(a):
    """W -> a W + W a^T on symmetric bilinear forms, in value coordinates.

    Coordinates are the values W(e_y, e_z) for y <= z; the basis element of
    the pair (u, v) is the symmetric W with W[u][v] = W[v][u] = 1, matching
    the row convention of the equivariant map matrices.
    """
    w = np.zeros((len(S2_PAIRS), 7, 7), dtype=np.int64)
    w[np.arange(len(S2_PAIRS)), _S2_ROWS, _S2_COLS] = 1
    w[np.arange(len(S2_PAIRS)), _S2_COLS, _S2_ROWS] = 1
    image = int_matmul(a, w) + int_matmul(w, a.T)
    return image[:, _S2_ROWS, _S2_COLS].T


def _ad_action(a, basis, norms):
    """ad_a on the span of an orthogonal basis of skew matrices.

    The 2-form inner product is half the entrywise product of the matrices,
    so the coefficient of [a, X_c] on X_j is <[a, X_c], X_j>_F / (2 |X_j|^2).
    Returns (rho, d, closed): rho / d is the action on the projections, and
    closed[c] says whether [a, X_c] equals its projection, i.e. lies in the span.
    """
    comm = int_matmul(a, basis) - int_matmul(basis, a)
    num = np.einsum("cuv,juv->jc", comm, basis)
    den = np.array([[2 * int(norm)] for norm in norms], dtype=np.int64)
    g = np.gcd(num, den)
    d = int(np.lcm.reduce((den // g).ravel()))
    rho = (num // g) * (d // (den // g))
    closed = (np.einsum("jc,juv->cuv", rho, basis) == d * comm).all(axis=(1, 2))
    return rho, d, closed.tolist()


def _tensor_action(a, rho, d):
    """d (a (x) 1 + 1 (x) rho / d) in (small x big) coordinates."""
    return np.kron(d * a, np.eye(len(rho), dtype=np.int64)) \
        + np.kron(np.eye(len(a), dtype=np.int64), rho)


class Spaces:
    """Lazily assembled integer action matrices for every module in play."""

    def __init__(self):
        self.algebra = G2Algebra()
        self.w3 = canonical_omega3()
        self.m_basis = [contract(self.w3, i) for i in range(1, 8)]
        self.m_endos = np.stack([_int_endo(mu) for mu in self.m_basis])
        self.m_norms = [inner(mu, mu) for mu in self.m_basis]
        self._cache = {}

    def _action(self, space: str, k: int):
        """Action of the k-th algebra basis element, as (rho, d)."""
        a = self.algebra.endos[k]
        if space == "lambda1":
            return a, 1
        if space in ("lambda2", "lambda3", "lambda4"):
            return _form_action(self.algebra.basis[k], int(space[-1])), 1
        if space == "r7_s2":
            return _tensor_action(a, _s2_action(a), 1), 1
        if space in ("r7_m", "r7_g2"):
            basis, norms = ((self.m_endos, self.m_norms) if space == "r7_m"
                            else (self.algebra.endos, self.algebra.norms))
            rho, d, closed = _ad_action(a, basis, norms)
            if not all(closed):
                raise StructureError("bracket left the module")
            return _tensor_action(a, rho, d), d
        raise KeyError(f"unknown space '{space}'")

    def generators(self, space: str):
        """The actions of the 14 basis elements on a module, built one at a time.

        Yields (rho, d) with rho an int64 matrix; the action is rho / d, with
        d the least common denominator of its entries.
        """
        for k in range(len(self.algebra.basis)):
            yield self._action(space, k)

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
                    or k * int_abs_max(total) + f * int_abs_max(sq) >= 2 ** 62):
                total, sq = total.astype(object), sq.astype(object)
            total = total * k + sq * f
            scale = grown
        total.flags.writeable = False
        self._cache[space] = (total, scale)
        return self._cache[space]

    @cached_property
    def calibration(self):
        """Exact Casimir scalars on the four small irreducibles, derived once."""
        table = {}
        c1, s1 = self.casimir("lambda1")
        c1 = Tensor(c1, s1)
        value = c1[0, 0]
        if c1 != Tensor.identity(7) * value:
            raise StructureError("Casimir is not scalar on the vector module")
        table["7"] = value

        c3, s3 = self.casimir("lambda3")
        c3 = Tensor(c3)
        w3 = canonical_omega3()
        w3vec = Tensor(w3.num, w3.den)
        if not Tensor.einsum("ij,j->i", c3, w3vec).is_zero():
            raise StructureError("Casimir does not kill the invariant 3-form")
        table["1"] = Q(0)

        c2, s2 = self.casimir("lambda2")
        xi = self.algebra.basis[0]
        lam14 = _eigen_scalar(Tensor(c2), Tensor(xi.num, xi.den))
        table["14"] = lam14 / s2

        probe = project3(Form.blade(7, 1, 2, 3))[2]
        lam27 = _eigen_scalar(c3, Tensor(probe.num, probe.den))
        table["27"] = lam27 / s3
        return MappingProxyType(table)


_SPACES = None


def spaces() -> Spaces:
    global _SPACES
    if _SPACES is None:
        _SPACES = Spaces()
    return _SPACES


# ---------------------------------------------------------------------------
# Casimir spectrum with certificates
# ---------------------------------------------------------------------------

IRREP_DIMS = {"1": 1, "7": 7, "14": 14, "27": 27, "64": 64, "77": 77}


class IsotypicReport:
    def __init__(self, space, entries, scale):
        self.space = space
        self.entries = entries  # list of (eigenvalue Fraction, dimension, label, multiplicity)
        self.scale = scale

    def dims_by_label(self):
        return {label: (dim, mult) for _, dim, label, mult in self.entries}

    def __repr__(self):
        body = ", ".join(f"{label}:dim {dim} (x{mult}, c={val})"
                         for val, dim, label, mult in self.entries)
        return f"IsotypicReport({self.space}: {body})"


def _eigen_scalar(matrix, vec):
    """The eigenvalue of an integer matrix on a nonzero probe vector (both Tensors)."""
    image = Tensor.einsum("ij,j->i", matrix, vec)
    k = next(i for i, x in enumerate(vec) if x)
    lam = image[k] / vec[k]
    if image != vec * lam:
        raise StructureError("probe vector is not an eigenvector")
    return lam


def casimir_spectrum(space: str):
    """Certified (eigenvalue, dimension) pairs of the Casimir on a module."""
    sp = spaces()
    cmat, scale = sp.casimir(space)
    n = len(cmat)

    def matvec(v):
        return int_matmul(cmat, v).tolist()

    # with simple integral roots, the lcm of the vectors' minimal polynomials
    # has the union of their roots; each new vector can only add roots
    rng = random.Random(20240811)
    roots = set()
    for _ in range(12):
        v = [rng.randint(1, 9) for _ in range(n)]
        poly = krylov_min_poly(matvec, v)
        # integral roots make a monic polynomial integral
        integral = all(c.denominator == 1 for c in poly)
        pairs, residual = rational_roots([int(c) for c in poly], 1) if integral else ([], poly)
        if residual is not None or any(m > 1 for _, m in pairs):
            # not diagonalizable over Q with integral eigenvalues
            raise StructureError("Casimir minimal polynomial does not split over Z "
                                 "into simple roots")
        roots.update(int(r) for r, _ in pairs)
        if certify_annihilation(cmat, sorted(roots)):
            break
    else:
        raise StructureError("minimal polynomial candidate failed certification")
    roots = sorted(roots)
    dims = certified_eigenspace_dims(cmat, roots)
    return sorted(((Q(r, scale), d) for r, d in zip(roots, dims) if d),
                  key=lambda p: p[0]), scale


def casimir_decompose(space: str) -> IsotypicReport:
    """Isotypic decomposition with irreducibles identified by calibrated scalars.

    Unmatched eigenvalues are attributed to the 64- or 77-dimensional modules
    purely by dimension count; anything else raises.
    """
    pairs, scale = casimir_spectrum(space)
    calib = spaces().calibration
    by_value = {v: k for k, v in calib.items()}
    entries = []
    leftovers = []
    for value, dim in pairs:
        label = by_value.get(value)
        if label is not None and dim % IRREP_DIMS[label] == 0:
            entries.append((value, dim, label, dim // IRREP_DIMS[label]))
        else:
            leftovers.append((value, dim))
    for value, dim in leftovers:
        if dim in (64, 77):
            entries.append((value, dim, str(dim), 1))
        else:
            entries.append((value, dim, "UNMATCHED", 0))
    entries.sort()
    if any(label == "UNMATCHED" for _, _, label, _ in entries):
        raise StructureError(f"unmatched isotypic block in {space}: {entries}")
    return IsotypicReport(space, entries, scale)


# ---------------------------------------------------------------------------
# the equivariant maps and their rank certificates
# ---------------------------------------------------------------------------

def _map_matrix(endos):
    """196 x 7k integer matrix with columns e^i (x) X_c and rows (x, y <= z).

    The entry is X_c(x, y) [z = i] + X_c(x, z) [y = i], for the k skew
    matrices X_c = _int_endo(.) stacked in `endos`.
    """
    values = endos.transpose(0, 2, 1)  # values[c, x, y] = X_c(x, y)
    out = np.zeros((7, len(S2_PAIRS), 7, len(endos)), dtype=np.int64)
    for r, (y, z) in enumerate(S2_PAIRS):
        out[:, r, z - 1, :] += values[:, :, y - 1].T
        out[:, r, y - 1, :] += values[:, :, z - 1].T
    return out.reshape(7 * len(S2_PAIRS), 7 * len(endos))


def phi_matrix():
    """Phi as a 196 x 98 integer matrix; columns e^i (x) xi_a, rows (x, y<=z)."""
    return _map_matrix(spaces().algebra.endos)


def psi_matrix():
    """Psi as a 196 x 49 integer matrix; columns e^i (x) (e_k -| w3)."""
    return _map_matrix(spaces().m_endos)


def isotypic_basis_r7_m(label: str):
    """Exact basis of one isotypic component of R^7 (x) m (49-dim), as the rows of a Tensor."""
    sp = spaces()
    cmat, scale = sp.casimir("r7_m")
    lam = sp.calibration[label] * scale
    if lam.denominator != 1:
        raise StructureError("calibration scalar does not clear the scale")
    return nullspace(Tensor(cmat) - Tensor.identity(49) * lam)


def full_column_rank_certificate(matrix):
    """Exact statement that an integer matrix has full column rank.

    A mod-p rank is a lower bound on the rank over Q, so reaching the column
    count mod one of three primes proves it; only when all three fall short
    is the rank settled by exact elimination.
    """
    cols = np.shape(matrix)[1]
    for p in _PRIMES[:3]:
        if rank_mod_p(matrix, p) == cols:
            return True
    return rank(Tensor(matrix)) == cols


def rank_certificates():
    """Exact rank and containment certificates for the connection-existence theory."""
    phi = phi_matrix()
    out = {}
    out["phi-injective"] = full_column_rank_certificate(phi)

    # every statement below is invariant under rescaling the isotypic basis
    # vectors, so each is read as its integer numerators
    psi = psi_matrix()
    basis14 = isotypic_basis_r7_m("14")
    cols14 = int_matmul(psi, basis14.num.T)
    combined = np.hstack([phi, cols14])
    out["psi-14-dimension"] = len(basis14) == 14
    out["images-meet-trivially"] = full_column_rank_certificate(combined)

    # containment of the scalar- and 27-type images inside Im(Phi)
    basis1 = isotypic_basis_r7_m("1")
    basis27 = isotypic_basis_r7_m("27")
    out["scalar-block-dimension"] = len(basis1) == 1
    out["traceless-block-dimension"] = len(basis27) == 27
    rhs = int_matmul(psi, np.vstack([basis1.num, basis27.num]).T)
    sols = solve(Tensor(phi), Tensor(rhs.T))
    out["scalar-image-contained"] = sols[0] is not None
    out["scalar-image-solution-zero"] = sols[0] is not None and sols[0].is_zero()
    out["traceless-image-contained"] = all(s is not None for s in sols[1:])
    return out


def _coefficients(table) -> Tensor:
    """The [case, k, blade] coefficients of a table of 2-forms."""
    nums, den = common_denominator([f for row in table for f in row])
    return Tensor(np.stack(nums).reshape(len(table), len(table[0]), -1), den)


def _pr_m(coeffs) -> Tensor:
    """pr_m of every row of [case, k, blade] coefficients, by the cached 21 x 21 projector."""
    return Tensor.einsum("ckb,ab->cka", coeffs, _projectors(2)[0])


def _symmetrized(coeffs):
    """[case, x, y, z] -> p_z(x, y) + p_y(x, z) of [case, k, blade] coefficients of 2-forms p_k."""
    t = Tensor(dense(coeffs.num, 7, 2), coeffs.den)
    return Tensor.einsum("czxy->cxyz", t) + Tensor.einsum("cyxz->cxyz", t)


def sigma0_constant():
    """Exact proportionality constant between Phi(Sigma_0(.)) and Psi on vector types.

    On the vector type of e_g, Sigma_0(Y) = pr_g2(e_g ^ Y) and the embedded
    Gamma(Y) = (A_kappa Y) -| w3 with kappa = e_g -| w3; all seven g at once.
    """
    w3 = canonical_omega3()
    e = [Form.basis_vector(7, k) for k in range(1, 8)]
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
             + [(Form.basis_vector(7, b), Form.zero(7, 3)) for b in range(1, 8)])
    contracted = _coefficients([[contract(gamma27, y) for y in range(1, 8)]
                                for _, gamma27 in cases])
    wedged = _coefficients([[wedge(beta, Form.basis_vector(7, y)) for y in range(1, 8)]
                            for beta, _ in cases])
    arg = contracted - wedged * Q(1, 4)
    sig = (arg - _pr_m(arg)) * Q(-1, 2)
    emb = _pr_m(wedged * Q(1, 4) + contracted * Q(1, 2))
    return _symmetrized(sig) == _symmetrized(emb)
