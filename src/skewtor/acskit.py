"""Almost-contact-metric and almost-hermitian structures on invariant frames.

Provides the Nijenhuis tensors, the existence test and torsion formula for
the compatible connection with totally skew torsion, the associated Ricci
forms, the one-parameter contact deformation, and the pointwise identity
pack of the 6-dimensional nearly Kaehler algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .equivar import full_column_rank_certificate
from .errors import DegreeError, NoSkewConnection, StructureError
from .forms import Form, all_blades, blade_tensors, interior, sigma_t, wedge
from .liegeom import LieModel, SkewTorsionStructure, d_form, tt_contraction
from .linalg import Tensor, int_matmul

Q = Fraction
ein = Tensor.einsum


def _nabla_endo(conn, phi):
    """[i, j, k] = g((nabla_{e_i} phi) e_j, e_k): [nabla_i, phi] in coefficients."""
    return ein("lj,ilk->ijk", phi, conn.omega) - ein("ijl,kl->ijk", conn.omega, phi)


class _EndoStructure(SkewTorsionStructure):
    """A metric structure given by an endomorphism `phi` of the invariant frame.

    `phi` is the contact endomorphism or the almost complex structure J, a
    Tensor whose column j holds phi(e_j); both structures keep it under this
    one name.
    """

    @property
    def n(self):
        return self.model.n

    @cached_property
    def nijenhuis(self) -> "NijTensor":
        """The integrability tensor, built once by the module function `nijenhuis`."""
        return nijenhuis(self)

    def fundamental_form(self) -> Form:
        """F(X,Y) = g(X, phi(Y)) as a 2-form."""
        return self.phi.to_form()

    @cached_property
    def d_fundamental(self) -> Form:
        """dF, computed once."""
        return d_form(self.model, self.fundamental_form())


class AlmostContact(_EndoStructure):
    """Odd-dimensional metric structure (xi, eta, phi) with exact compatibility checks.

    The Reeb vector xi is the frame vector e_xi_index (1-based), and eta is
    its metric dual, the coframe 1-form e^xi_index.
    """

    kind = "contact"

    def __init__(self, model: LieModel, xi_index: int, phi):
        n = model.n
        if n % 2 == 0:
            raise DegreeError("contact structures live in odd dimensions")
        if not 1 <= xi_index <= n:
            raise StructureError(f"Reeb index {xi_index} is outside 1..{n}")
        self.model = model
        self.xi_index = xi_index
        self.xi = xi = Tensor.of([int(k == xi_index - 1) for k in range(n)])
        self.eta = Form.basis_vector(n, xi_index)
        self.phi = phi = Tensor.of(phi)
        one = Tensor.identity(n)
        if not ein("ij,j->i", phi, xi).is_zero():
            raise StructureError("phi must kill xi")
        if ein("ik,kj->ij", phi, phi) != ein("i,j->ij", xi, xi) - one:
            raise StructureError("phi^2 must be -Id + eta (x) xi")
        if ein("ki,kj->ij", phi, phi) != one - ein("i,j->ij", xi, xi):
            raise StructureError("phi must be metric-compatible")

    @cached_property
    def d_eta(self) -> Form:
        """d eta, computed once."""
        return d_form(self.model, self.eta)

    def is_contact_metric(self) -> bool:
        return self.fundamental_form() * 2 == self.d_eta

    def killing_matrix(self) -> Tensor:
        """K[i, j] = g(nabla^g_{e_i} xi, e_j); xi is Killing iff K is skew."""
        return self.model.levi_civita.nabla_vector(self.xi)

    def xi_is_killing(self) -> bool:
        """Whether ad_xi, A[i, j] = g([xi, e_i], e_j), is skew.

        K + K^T = -(A + A^T), so this is the skewness of `killing_matrix`
        read from the brackets, without the Levi-Civita connection.
        """
        ad = ein("k,kij->ij", self.xi, self.model.c)
        return ad == -ein("ij->ji", ad)

    def _torsion(self) -> Form:
        return contact_torsion(self)


class AlmostHermitian(_EndoStructure):
    """Even-dimensional metric structure with an orthogonal complex matrix J."""

    kind = "hermitian"

    def __init__(self, model: LieModel, j):
        n = model.n
        if n % 2:
            raise DegreeError("hermitian structures live in even dimensions")
        self.model = model
        self.phi = j = Tensor.of(j)
        one = Tensor.identity(n)
        if ein("ik,kj->ij", j, j) != -one:
            raise StructureError("J^2 must be -Id")
        if ein("ki,kj->ij", j, j) != one:
            raise StructureError("J must be orthogonal")

    # Omega(X,Y) = g(X, J(Y))
    kaehler_form = _EndoStructure.fundamental_form

    def _torsion(self) -> Form:
        return hermitian_torsion(self)


class NijTensor:
    """(0,3) integrability tensor; totally skew iff the structure admits the connection."""

    def __init__(self, table):
        self.table = table    # Tensor: table[i, j, k] = N(e_i, e_j, e_k), 0-based
        self.totally_skew = (table == -ein("jik->ijk", table)
                             and table == -ein("ikj->ijk", table))

    def is_zero(self):
        return self.table.is_zero()

    def as_form(self) -> Form:
        if not self.totally_skew:
            raise StructureError("tensor is not totally skew")
        return self.table.to_form()


def nijenhuis(s) -> NijTensor:
    """Integrability tensor of a contact or hermitian structure, from brackets.

    N(X,Y) = [phi X, phi Y] + phi^2 [X,Y] - phi[phi X, Y] - phi[X, phi Y],
    plus d(eta)(X,Y) xi for contact input.
    """
    c, p = s.model.c, s.phi
    table = (ein("ai,bj,abk->ijk", p, p, c) + ein("kl,lm,ijm->ijk", p, p, c)
             - ein("kl,ai,ajl->ijk", p, p, c) - ein("kl,bj,ibl->ijk", p, p, c))
    if isinstance(s, AlmostContact):
        table = table + ein("ij,k->ijk", Tensor.of_form(s.d_eta), s.xi)
    return NijTensor(table)


def n2_tensor(s: AlmostContact) -> Tensor:
    """N2(X,Y) = d(eta)(phi X, Y) + d(eta)(X, phi Y)."""
    de = Tensor.of_form(s.d_eta)
    return ein("ai,aj->ij", s.phi, de) + ein("aj,ia->ij", s.phi, de)


def pullback3(a: Form, matrix) -> Form:
    """(X,Y,Z) -> a(MX, MY, MZ) for a linear map M (columns = images)."""
    if a.degree != 3:
        raise DegreeError("pullback3 expects a 3-form")
    m = Tensor.of(matrix)
    return ein("pqr,px,qy,rz->xyz", Tensor.of_form(a), m, m, m).to_form()


def contact_torsion(s: AlmostContact) -> Form:
    """Torsion of the unique connection preserving (g, xi, eta, phi).

    T = eta ^ d(eta) + d^phi F + N - eta ^ (xi -| N), defined when N is
    totally skew and xi is a Killing field.
    """
    nij = s.nijenhuis
    if not nij.totally_skew:
        raise NoSkewConnection("nijenhuis-not-skew")
    if not s.xi_is_killing():
        raise NoSkewConnection("xi-not-killing")
    dphi_f = -pullback3(s.d_fundamental, s.phi)
    n_form = nij.as_form()
    # xi -| N contracts with xi through its metric dual eta
    return (wedge(s.eta, s.d_eta) + dphi_f + n_form
            - wedge(s.eta, interior(s.eta, n_form)))


def hermitian_torsion(s: AlmostHermitian) -> Form:
    """Torsion of the unique hermitian connection with skew torsion.

    T(X,Y,Z) = -d(Omega)(JX, JY, JZ) + N(X,Y,Z); exists iff N is a 3-form.
    """
    nij = s.nijenhuis
    if not nij.totally_skew:
        raise NoSkewConnection("nijenhuis-not-skew")
    return -pullback3(s.d_fundamental, s.phi) + nij.as_form()


def torsion_uniqueness_certificate(s) -> bool:
    """No 3-form perturbation of the torsion keeps the structure parallel.

    The parallelism conditions are affine in the torsion; uniqueness of the
    compatible connection is exactly injectivity of the linear response of
    (nabla phi, nabla eta) to a torsion perturbation dT, whose connection
    perturbation is omega'_ijk = dT(i, j, k) / 2.  The response matrix has
    one column per blade of dT and n^3 (+ n^2 with eta) rows; it is built
    from the signed permutations of each blade, scaled by 2 L to integers
    (L clears the denominators of phi and eta), and its full column rank is
    certified mod p, with exact elimination only if that falls short.  The
    matrix depends only on the frame (phi, and xi for contact input), so each
    frame is certified once.
    """
    frame = (s.phi.den, tuple(s.phi.num.flat), getattr(s, "xi_index", None))
    if frame not in _CERTIFICATES:
        _CERTIFICATES[frame] = full_column_rank_certificate(_uniqueness_response(s))
    return _CERTIFICATES[frame]


_CERTIFICATES = {}


def _uniqueness_response(s):
    """The response matrix of `torsion_uniqueness_certificate`, times 2 L, as integers.

    L is the denominator of phi (eta = e^xi needs none).  Row [i, j, k] of a
    blade dT is sum_l phi[l, j] dT(i, l, k) - dT(i, j, l) phi[k, l], and
    sum_l dT(i, j, l) eta[l] for contact input.
    """
    p = s.phi.num
    blades = blade_tensors(s.model.n, 3)
    response = [np.swapaxes(int_matmul(np.swapaxes(blades, 2, 3), p), 2, 3)
                - int_matmul(blades, p.T)]
    if isinstance(s, AlmostContact):
        response.append(int_matmul(blades, s.xi.num * s.phi.den)[..., None])
    matrix = np.concatenate([r.reshape(len(blades), s.model.n, -1) for r in response], axis=2)
    return matrix.reshape(len(blades), -1).T


def structure_parallel_residuals(s):
    """Max residuals of nabla g = nabla (eta, xi, phi | J) = 0 under the structure's connection."""
    conn = s.connection
    res = _nabla_endo(conn, s.phi).max_abs()
    if isinstance(s, AlmostContact):
        res = max(res, conn.nabla_vector(s.xi).max_abs())
    return res


# ---------------------------------------------------------------------------
# displayed general identities of almost contact structures
#
# Tensors are indexed [x, y, z] by frame vectors; p[a, y] is the coefficient
# of e_a in phi(e_y), so contracting with p puts phi into that argument.
# ---------------------------------------------------------------------------

def contact_general_identities(s: AlmostContact) -> dict:
    """The five displayed compatibility identities; values are max residuals."""
    lc = s.model.levi_civita
    p, xi = s.phi, s.xi
    eta = xi    # in the orthonormal frame the metric dual has the same components
    df = Tensor.of_form(s.d_fundamental)
    de = Tensor.of_form(s.d_eta)
    nij = s.nijenhuis.table
    nabla_phi = _nabla_endo(lc, p)
    nabla_eta = lc.nabla_vector(eta)

    covariant = nabla_phi * 2 - (
        ein("xab,ay,bz->xyz", df, p, p) - df + ein("yzc,cx->xyz", nij, p)
        + ein("x,yz->xyz", eta, n2_tensor(s)) + ein("z,ay,ax->xyz", eta, p, de)
        + ein("y,az,xa->xyz", eta, p, de))
    phi_phi = (nabla_phi + ein("xab,ay,bz->xyz", nabla_phi, p, p)
               - ein("y,xa,az->xyz", eta, nabla_eta, p)
               + ein("z,xa,ay->xyz", eta, nabla_eta, p))
    xi_derivative = ein("xab,ay,b->xy", nabla_phi, p, xi)
    phi_phi_nij = (nij + ein("abz,ax,by->xyz", nij, p, p)
                   - ein("x,a,ayz->xyz", eta, xi, nij) - ein("y,b,xbz->xyz", eta, xi, nij))
    mixed_nij = (nij + ein("ayc,ax,cz->xyz", nij, p, p) - ein("z,a,axy->xyz", eta, xi, nij)
                 + ein("x,a,abc,by,cz->xyz", eta, xi, nij, p, p))
    return {"covariant-derivative-of-phi": covariant.max_abs(),
            "phi-phi-symmetry": phi_phi.max_abs(),
            "xi-derivative": max((xi_derivative - nabla_eta).max_abs(),
                                 (nabla_eta - s.killing_matrix()).max_abs()),
            "nijenhuis-phi-phi": phi_phi_nij.max_abs(),
            "nijenhuis-phi-mixed": mixed_nij.max_abs()}


def nijenhuis_gradient_identities(s: AlmostContact) -> dict:
    """Both displayed reconstructions of dF^- and N from covariant data."""
    p = s.phi
    eta = s.xi
    df = Tensor.of_form(s.d_fundamental)
    nij = s.nijenhuis.table
    nabla_phi = _nabla_endo(s.model.levi_civita, p)
    killing = s.killing_matrix()

    df_minus = (ein("xab,ay,bz->xyz", df, p, p) + ein("ayb,ax,bz->xyz", df, p, p)
                + ein("abz,ax,by->xyz", df, p, p) - df)
    from_nij = -(ein("xyc,cz->xyz", nij, p) + ein("yzc,cx->xyz", nij, p)
                 + ein("zxc,cy->xyz", nij, p))
    gradient = (ein("ax,ayz->xyz", p, nabla_phi) - ein("ay,axz->xyz", p, nabla_phi)
                + ein("xaz,ay->xyz", nabla_phi, p) - ein("yaz,ax->xyz", nabla_phi, p)
                - ein("y,xz->xyz", eta, killing) + ein("x,yz->xyz", eta, killing))
    return {"df-minus": (df_minus - from_nij).max_abs(),
            "nijenhuis-from-gradient": (nij - gradient).max_abs()}


def nijenhuis_xi_identities(s: AlmostContact) -> dict:
    """The chained equalities along the Reeb direction (requires skew N, Killing xi)."""
    s.torsion   # raises NoSkewConnection unless N is skew and xi Killing
    nij = s.nijenhuis
    p, xi = s.phi, s.xi
    df = Tensor.of_form(s.d_fundamental)
    de = Tensor.of_form(s.d_eta)
    # N(phi X, Y, xi) = N(X, phi Y, xi) = N2(X, Y) = dF(X, Y, xi) = -dF(phi X, phi Y, xi)
    common = ein("ayc,ax,c->xy", nij.table, p, xi)
    chain = [ein("xbc,by,c->xy", nij.table, p, xi), n2_tensor(s),
             ein("xyc,c->xy", df, xi), -ein("abc,ax,by,c->xy", df, p, p, xi)]
    # nabla^g_xi xi = xi -| d eta = 0
    reeb = max(ein("i,ik->k", xi, s.killing_matrix()).max_abs(),
               ein("a,ab->b", xi, de).max_abs())
    return {"chain-residual": max((v - common).max_abs() for v in chain),
            "reeb-geodesic": reeb, "common-nonzero": not common.is_zero()}


# ---------------------------------------------------------------------------
# Ricci forms and the holonomy-reduction identities
# ---------------------------------------------------------------------------

def ricci_form_package(s):
    """(rho, torsion one-form, dT contraction) of the characteristic connection.

    For contact input the one-form is omega(X) = -(1/2) sum T(X, e_i, phi e_i);
    for hermitian input it is the Lee form theta(X) = -(1/2) sum T(JX, e_i, J e_i).
    In both cases lambda(X,Y) = sum dT(X,Y,e_i, phi/J (e_i)) with no 1/2: this
    is the normalization under which the Ricci-form identity and the Sasakian
    value 16(1-k)F hold exactly (the test suite pins both).
    """
    p, conn = s.phi, s.connection
    rho = ein("ai,xyia->xy", p, conn.curvature.r) * Q(1, 2)
    lam = ein("ai,xyia->xy", p, Tensor.of_form(conn.dt))
    one_form = ein("ai,xia->x", p, Tensor.of_form(s.torsion)) * Q(-1, 2)
    if isinstance(s, AlmostHermitian):
        one_form = ein("bx,b->x", p, one_form)
    return rho, one_form, lam


def holonomy_reduction_residual(s):
    """Residual of the Ricci-form identity; also reports whether rho vanishes.

    Contact: rho(X,Y) = Ric(X, phi Y) - (nabla_X omega)(Y) + lambda(X,Y)/4.
    Hermitian: rho(X,Y) = Ric(X, J Y) + (nabla_X theta)(J Y) + lambda(X,Y)/4.
    """
    p, conn = s.phi, s.connection
    rho, one_form, lam = ricci_form_package(s)
    nabla_w = conn.nabla_vector(one_form)
    rhs = ein("ay,xa->xy", p, conn.curvature.ric) + lam * Q(1, 4)
    if isinstance(s, AlmostContact):
        rhs = rhs - nabla_w
    else:
        rhs = rhs + ein("ay,xa->xy", p, nabla_w)
    return {"identity-residual": (rho - rhs).max_abs(), "rho-vanishes": rho.is_zero()}


def sasakian_ricci_package(s: AlmostContact) -> dict:
    """Exact Sasakian curvature bookkeeping at arbitrary odd dimension 2k+1."""
    if not s.is_contact_metric():
        raise StructureError("package stated for contact metric structures")
    n = s.n
    k = (n - 1) // 2
    t = s.torsion
    if t != wedge(s.eta, s.d_eta):
        raise StructureError("Sasakian torsion must be eta ^ d eta")
    conn = s.connection
    rho, one_form, lam = ricci_form_package(s)
    one = Tensor.identity(n)
    eta = s.xi
    eta2 = ein("x,y->xy", eta, eta)
    out = {}
    out["lambda-is-16(1-k)F"] = lam == Tensor.of_form(s.fundamental_form()) * (16 * (1 - k))
    out["one-form-parallel"] = conn.nabla_vector(one_form).is_zero()
    ttc = tt_contraction(t)
    out["tt-contraction"] = ttc == one * 8 + eta2 * (8 * (k - 1))
    ric_target = (one - eta2) * (4 * (k - 1))
    ricg_target = one * (2 * (2 * k - 1)) - eta2 * (2 * (k - 1))
    out["ricci-condition-holds"] = conn.curvature.ric == ric_target
    out["riemannian-condition-holds"] = s.model.levi_civita.curvature.ric == ricg_target
    # the two conditions are equivalent through Ric^g = Ric^nabla + TT/4
    out["conditions-equivalent"] = ric_target + ttc * Q(1, 4) == ricg_target
    out["integrability-scale"] = Q(1, 2) * conn.dt.eval(1, 2, 3, 4)
    out["matches-4(k-1)"] = out["integrability-scale"] == 4 * (k - 1)
    return out


def tanno_deform(s: AlmostContact, a2) -> AlmostContact:
    """Deform (phi, xi, eta, g) by the one-parameter contact rescaling.

    Frames are tracked by parity weights (1 on the phi-planes, 2 along xi) so
    a rational square parameter keeps all structure constants rational.
    """
    a2 = Q(a2)
    if a2 <= 0:
        raise StructureError("deformation parameter must be positive")
    if s.torsion != wedge(s.eta, s.d_eta):
        raise StructureError("deformation defined for Sasakian input")
    n, xi_index = s.n, s.xi_index
    weights = [2 if i == xi_index - 1 else 1 for i in range(n)]
    new_d = []
    for i in range(n):
        d = s.model.d_coframe[i]
        values = []
        for (a, b), coeff in zip(all_blades(n, 2), d.num):
            expo = weights[a - 1] + weights[b - 1] - weights[i]
            if coeff and expo % 2:
                raise StructureError("deformation leaves the rational frame")
            values.append(coeff * a2 ** (expo // 2))
        new_d.append(Form.of_rationals(n, 2, values) * Q(1, d.den))
    model = LieModel(n, new_d, name=f"{s.model.name}-tanno")
    return AlmostContact(model, xi_index, s.phi)


# ---------------------------------------------------------------------------
# pointwise nearly Kaehler algebra in dimension 6
# ---------------------------------------------------------------------------

def nearly_kaehler_identities(a) -> dict:
    """Identity pack of the 6-dimensional constant-type algebra at parameter a.

    All quantities quadratic in the torsion scale rationally with a; the
    structure equations dT = a Omega ^ Omega and T T-contraction = 2 a g are
    verified against the canonical real 3-form psi.  The contractions run on
    the dense tensors of psi and Omega ^ Omega.
    """
    a = Q(a)
    n = 6
    psi = (Form.blade(n, 1, 3, 5) - Form.blade(n, 1, 4, 6)
           - Form.blade(n, 2, 3, 6) - Form.blade(n, 2, 4, 5))
    omega = Form.blade(n, 1, 2) + Form.blade(n, 3, 4) + Form.blade(n, 5, 6)
    # J e_{2k-1} = e_{2k}: the matrix of J is minus the tensor of Omega
    j = -Tensor.of_form(omega)
    one = Tensor.identity(n)
    out = {}
    ttc_psi = tt_contraction(psi)
    out["tt-contraction-2ag"] = ttc_psi * Q(a, 2) == one * (2 * a)
    omega2 = wedge(omega, omega)
    out["two-sigma-is-dt"] = sigma_t(psi) == omega2
    dt = omega2 * a
    ric_nabla = one * (Q(5, 2) * a) - ttc_psi * (Q(1, 4) * Q(a, 2))
    out["ricci-reduction-2ag"] = ric_nabla == one * (2 * a)
    scal = ein("xx->", ric_nabla)[()]
    out["scal-12a"] = scal == 12 * a
    sig = sigma_t(psi) * Q(a, 2)
    lhs = dt * Q(3, 4) - sig * Q(1, 2)
    rhs = dt * Q(1, 4) + sig * Q(1, 2)
    out["endomorphism-forms-agree"] = lhs == rhs
    target = (Form.blade(n, 1, 2, 3, 4) + Form.blade(n, 1, 2, 5, 6)
              + Form.blade(n, 3, 4, 5, 6)) * a
    out["endomorphism-form-value"] = lhs == target
    # holonomy-reduction contraction: Ric(X,Y) = (1/4) sum dT(X, JY, e_i, J e_i),
    # with dT = a Omega ^ Omega
    contraction = ein("by,ci,xbic->xy", j, j, Tensor.of_form(omega2))
    out["ricci-from-dt-contraction"] = contraction * (Q(1, 4) * a) == ric_nabla
    # constant-type norm identity, quadratic in both arguments: polarized on
    # the vectors e_u1 + e_u2 (u1 <= u2); both sides carry the factor a / 2
    pairs = np.zeros((n * (n + 1) // 2, n), dtype=object)
    for r, (u1, u2) in enumerate((u1, u2) for u1 in range(n) for u2 in range(u1, n)):
        pairs[r, u1] += 1
        pairs[r, u2] += 1
    pairs = Tensor(pairs)
    values = ein("sp,tq,pqm->stm", pairs, pairs, Tensor.of_form(psi))
    gram = ein("sp,tp->st", pairs, pairs)
    gjy = ein("sp,pq,tq->st", pairs, j, pairs)
    norm_side = ein("stm,stm->st", values, values)
    metric_side = (ein("ss,tt->st", gram, gram) - ein("st,st->st", gram, gram)
                   - ein("st,st->st", gjy, gjy))
    out["constant-type-identity"] = not a or norm_side == metric_side
    return out


def half_module_endomorphism_spectrum(a):
    """Eigenvalues of the parallel-spinor integrability endomorphism per half module."""
    from .clifford import act_form, eigen_report, half_spinor_bases, restrict
    a = Q(a)
    four_form = (Form.blade(6, 1, 2, 3, 4) + Form.blade(6, 1, 2, 5, 6)
                 + Form.blade(6, 3, 4, 5, 6)) * a
    endo = act_form([four_form, Form.scalar(6, 3 * a)])
    plus, minus = half_spinor_bases(6)
    return (eigen_report(restrict(endo, plus)).multiset(),
            eigen_report(restrict(endo, minus)).multiset())
