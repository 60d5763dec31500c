"""Left-invariant Riemannian geometry from structure constants.

A LieModel is an orthonormal coframe e_1 .. e_n together with the exterior
derivatives de_i (invariant 2-forms).  All geometry below is evaluated on
invariant tensors, where covariant derivatives reduce to exact linear algebra
over the structure constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .clifford import act_form, build_rep, common_kernel
from .errors import DegreeError, DimensionMismatch, NoSkewConnection, StructureError
from .forms import Form, contract, derivation, sigma_t
from .linalg import GaussTensor, Tensor

Q = Fraction


class LieModel:
    """dim + structure 2-forms de_i of an orthonormal invariant coframe."""

    def __init__(self, n, d_coframe, name=""):
        if len(d_coframe) != n:
            raise DimensionMismatch("need one structure 2-form per coframe element")
        for d in d_coframe:
            if d.n != n or (not d.is_zero() and d.degree != 2):
                raise DegreeError("structure forms must be invariant 2-forms")
        self.n = n
        self.d_coframe = [d if d.degree == 2 else Form.zero(n, 2) for d in d_coframe]
        self.name = name
        # c[i, j, k]: [e_i, e_j] = sum_k c[i, j, k] e_k, from de_k(e_i,e_j) = -c_ijk
        self.c = -Tensor.einsum("kij->ijk", Tensor.of_forms(self.d_coframe))
        bad = self.jacobi_residuals()
        if any(not r.is_zero() for r in bad):
            raise StructureError(f"structure constants violate d^2 = 0 ({name or 'model'})")

    def jacobi_residuals(self):
        return [d_form(self, d) for d in self.d_coframe]

    @cached_property
    def levi_civita(self) -> "ConnectionData":
        """The Levi-Civita connection, built once by the module function `levi_civita`."""
        return levi_civita(self)

    def __repr__(self):
        return f"LieModel({self.name or 'anon'}, dim {self.n})"


def d_form(model: LieModel, a: Form) -> Form:
    """Chevalley-Eilenberg differential of an invariant form."""
    if a.n != model.n:
        raise DimensionMismatch("form does not live on this model")
    return derivation(a, 2, lambda i: model.d_coframe[i - 1])


class ConnectionData:
    """Metric connection coefficients omega[i, j, k] = g(nabla_{e_i} e_j, e_k), 0-based.

    `torsion` is the totally skew torsion 3-form, None for Levi-Civita.  The
    curvature table, the spinor side and, for a torsion connection, dT,
    delta(T) and the stacked nabla T are computed on first use and shared by
    every reader; none of them may be written into.  Each cache calls its
    module function (or class) by name at call time, so a wrapper installed
    on the module sees the call.
    """

    def __init__(self, model, omega, torsion=None):
        self.model = model
        self.omega = omega           # Tensor of shape (n, n, n)
        self.torsion = torsion
        self.source = "levi-civita" if torsion is None else "torsion"   # keys bench/spans.py
        if omega != -Tensor.einsum("ijk->ikj", omega):
            raise StructureError("connection is not metric")

    @cached_property
    def curvature(self) -> "CurvatureTable":
        return curvature(self)

    @cached_property
    def spinors(self) -> "SpinorData":
        return SpinorData(self)

    @property
    def skew_torsion(self) -> Form:
        """The torsion 3-form that the torsion tables read; StructureError for Levi-Civita."""
        if self.torsion is None:
            raise StructureError("the Levi-Civita connection has no torsion form")
        return self.torsion

    @cached_property
    def dt(self) -> Form:
        return d_form(self.model, self.skew_torsion)

    @cached_property
    def delta_t(self) -> Form:
        """The Levi-Civita codifferential of the torsion."""
        return codiff(self.model.levi_civita, self.skew_torsion)

    @cached_property
    def nabla_t(self) -> Tensor:
        """[i, a, b, c] = (nabla_{e_i} T)(e_a, e_b, e_c)."""
        t = self.skew_torsion
        return Tensor.of_forms([nabla_form(self, i, t) for i in range(1, self.model.n + 1)])

    def nabla_vector(self, v) -> Tensor:
        """[i, k]: the coefficients of nabla_{e_i} of an invariant vector field v."""
        return Tensor.einsum("ijk,j->ik", self.omega, Tensor.of(v))


def levi_civita(model: LieModel) -> ConnectionData:
    """Unique metric torsion-free connection of the invariant orthonormal frame."""
    c = model.c
    omega = (c - Tensor.einsum("jki->ijk", c) + Tensor.einsum("kij->ijk", c)) * Q(1, 2)
    return ConnectionData(model, omega)


def with_torsion(model: LieModel, t: Form) -> ConnectionData:
    """Metric connection with prescribed totally skew torsion 3-form."""
    if t.degree != 3:
        raise DegreeError("torsion must be a 3-form")
    if t.n != model.n:
        raise DimensionMismatch("torsion does not live on this model")
    return ConnectionData(model, model.levi_civita.omega + Tensor.of_form(t) * Q(1, 2), t)


class SkewTorsionStructure:
    """A metric structure, which carries at most one connection with totally skew torsion.

    A subclass computes that torsion in `_torsion`, with the module function
    of its kind, and raises NoSkewConnection when there is none.  `torsion`
    runs it once, a failure included, and `connection` builds the connection
    once.
    """

    @cached_property
    def _torsion_or_error(self):
        try:
            return self._torsion()
        except NoSkewConnection as err:
            return err

    def admits_connection(self) -> bool:
        return not isinstance(self._torsion_or_error, NoSkewConnection)

    @property
    def torsion(self) -> Form:
        """The characteristic torsion; raises NoSkewConnection when the structure has none."""
        t = self._torsion_or_error
        if isinstance(t, NoSkewConnection):
            raise NoSkewConnection(t.reason, str(t))
        return t

    @cached_property
    def connection(self) -> ConnectionData:
        """The characteristic connection, with torsion `torsion`."""
        return with_torsion(self.model, self.torsion)


def nabla_form(conn: ConnectionData, i: int, a: Form) -> Form:
    """Covariant derivative nabla_{e_i} of an invariant form."""
    # nabla_{e_i} e^j = sum_k omega_ijk e^k
    n, omega = conn.model.n, conn.omega
    return derivation(a, 1, lambda j: Form.of_numerators(n, 1, omega.num[i - 1, j - 1], omega.den))


def codiff(conn: ConnectionData, a: Form) -> Form:
    """Codifferential -sum_i e_i -| nabla_{e_i} a of a connection."""
    n = conn.model.n
    return -sum((contract(nabla_form(conn, i, a), i) for i in range(1, n + 1)),
                Form.zero(n, max(a.degree - 1, 0)))


class CurvatureTable:
    def __init__(self, r, ric, scal):
        self.r = r          # Tensor: r[i, j, k, l] = R(e_i,e_j,e_k,e_l), 0-based
        self.ric = ric      # Tensor: ric[i, j] = Ric(e_i, e_j)
        self.scal = scal    # Fraction

    def ric_diag(self):
        return [self.ric[i, i] for i in range(len(self.ric))]


def curvature(conn: ConnectionData) -> CurvatureTable:
    """Curvature, Ricci and scalar tables of an invariant metric connection.

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    R(X,Y,Z,V) = g(R(X,Y)Z, V), Ric(X,Y) = sum_i R(e_i, X, Y, e_i),
    Scal = sum_ij R(e_i,e_j,e_j,e_i).
    """
    om, c = conn.omega, conn.model.c
    # g(nabla_i nabla_j e_k, e_m) = sum_l omega_jkl omega_ilm on invariant fields
    second = Tensor.einsum("jkl,ilm->ijkm", om, om)
    r = (second - Tensor.einsum("jikm->ijkm", second)
         - Tensor.einsum("ijl,lkm->ijkm", c, om))
    return CurvatureTable(r, Tensor.einsum("ixyi->xy", r), Tensor.einsum("ijji->", r)[()])


def tt_contraction(t: Form) -> Tensor:
    """Table sum_{m,n} T(e_i,e_m,e_n) T(e_j,e_m,e_n)."""
    tt = Tensor.of_form(t)
    return Tensor.einsum("imk,jmk->ij", tt, tt)


# ---------------------------------------------------------------------------
# curvature-identity verification (torsion connection against Levi-Civita)
# ---------------------------------------------------------------------------

def curvature_identity_residuals(conn: ConnectionData):
    """Residuals of the six displayed torsion-curvature identities of a torsion connection.

    Returns a dict name -> max |residual| as Fractions (0 means the identity
    holds exactly on every index tuple).  Tensors are indexed [x, y, z, v].
    """
    ein = Tensor.einsum
    t = conn.skew_torsion
    tt = Tensor.of_form(t)
    dt = Tensor.of_form(conn.dt)
    sig = Tensor.of_form(sigma_t(t))
    delta_t = conn.delta_t
    nab_t = conn.nabla_t
    rt = conn.curvature
    rg = conn.model.levi_civita.curvature

    cyclic = nab_t + ein("yzxv->xyzv", nab_t) + ein("zxyv->xyzv", nab_t)
    nab_v = ein("vxyz->xyzv", nab_t)
    differential = dt - (cyclic - nab_v + sig * 2)
    # sum_k T(X,Y,e_k) T(Z,V,e_k)
    g_t = ein("xyk,zvk->xyzv", tt, tt)
    comparison = rg.r - (rt.r - nab_t * Q(1, 2) + ein("yxzv->xyzv", nab_t) * Q(1, 2)
                         - g_t * Q(1, 4) - sig * Q(1, 4))
    bianchi = (rt.r + ein("yzxv->xyzv", rt.r) + ein("zxyv->xyzv", rt.r)
               - (dt - sig + nab_v))
    dense_delta = Tensor.of_form(delta_t)
    # sum_i g(T(e_i,X), T(Y,e_i)) = -T_{XmN}T_{YmN} by double skewness
    ricci = rg.ric - (rt.ric + dense_delta * Q(1, 2) + tt_contraction(t) * Q(1, 4))
    skew = rt.ric - ein("yx->xy", rt.ric) + dense_delta
    return {"torsion-differential": differential.max_abs(),
            "curvature-comparison": comparison.max_abs(),
            "first-bianchi": bianchi.max_abs(),
            "ricci-comparison": ricci.max_abs(),
            "ricci-skew-part": skew.max_abs(),
            "codifferential-agreement":
                Tensor.of_form(delta_t - codiff(conn, t)).max_abs()}


# ---------------------------------------------------------------------------
# invariant spinor calculus
# ---------------------------------------------------------------------------

def _sum_products(lefts, rights):
    """sum_k lefts[k] rights[k] of spinor endomorphisms."""
    products = [a @ b for a, b in zip(lefts, rights)]
    return sum(products[1:], products[0])


def lc_trace_vector(model: LieModel) -> Tensor:
    """V = sum_i nabla^g_{e_i} e_i (nonzero off unimodular-type models)."""
    return Tensor.einsum("iik->k", model.levi_civita.omega)


class SpinorData:
    """The spinor side of a metric connection on Delta_n, built once as `conn.spinors`.

    `lams` is the spin connection: nabla_{e_i} psi = Lambda_i psi on invariant
    spinors, where Lambda_i is the Clifford action of the 2-form (1/2) omega_i,
    that is (1/2) sum_{j<k} omega_ijk Gamma_j Gamma_k.  The Dirac operator
    D = sum_i Gamma_i Lambda_i, the parallel spinors, the torsion term
    sum_k (e_k -| T) . Lambda_k and the field endomorphism are computed on
    first use.  The torsion term, the field endomorphism and the three
    identities below read the torsion, so on a Levi-Civita connection they
    raise StructureError.
    """

    def __init__(self, conn: ConnectionData):
        self.conn, self.model = conn, conn.model
        self.lams = [act_form(plane.to_form() * Q(1, 2)) for plane in conn.omega]

    @cached_property
    def dirac(self) -> GaussTensor:
        return _sum_products(build_rep(self.model.n).gammas, self.lams)

    @cached_property
    def parallel(self) -> GaussTensor:
        """Basis (as rows) of the invariant spinors with nabla psi = 0."""
        return common_kernel(self.lams)

    @cached_property
    def torsion_term(self) -> GaussTensor:
        t = self.conn.skew_torsion
        return _sum_products([act_form(contract(t, k)) for k in range(1, self.model.n + 1)],
                             self.lams)

    @cached_property
    def field(self) -> GaussTensor:
        """(3/4) dT - (1/2) sigma^T + (1/2) delta(T) + Scal/4."""
        conn = self.conn
        return act_form([conn.dt * Q(3, 4) - sigma_t(conn.skew_torsion) * Q(1, 2),
                         conn.delta_t * Q(1, 2),
                         Form.scalar(self.model.n, conn.curvature.scal / 4)])

    def square_residual(self):
        """Matrix residual of the Dirac-square (Weitzenboeck) identity on invariant spinors.

        D^2 = nabla*nabla + (3/4) dT - (1/2) sigma^T + (1/2) delta(T)
              - sum e_k-|T nabla_k + Scal/4 must vanish identically.  The 1/2 on
        the codifferential term is forced: it is the unique coefficient under
        which the identity closes exactly on models whose torsion is not
        coclosed, and the only one consistent with the parallel-spinor
        corollary (all verified by the test suite).
        """
        lap = -_sum_products(self.lams, self.lams)
        v = lc_trace_vector(self.model)
        for k, lam in enumerate(self.lams):
            if v[k]:
                lap = lap + lam * v[k]
        return self.dirac @ self.dirac - (lap + self.field - self.torsion_term)

    def anticommutator_residual(self):
        """Residual of D T + T D = dT + delta(T) - 2 sigma^T - 2 sum e_i-|T nabla_i."""
        t = self.conn.skew_torsion
        tm = act_form(t)
        lhs = self.dirac @ tm + tm @ self.dirac
        rhs = act_form([self.conn.dt, self.conn.delta_t, sigma_t(t) * -2])
        return lhs - (rhs - self.torsion_term * 2)

    def field_equations(self):
        """Residual vectors of both field equations on each invariant parallel spinor.

        First: (3/4 dT - 1/2 sigma^T + 1/2 delta(T) + Scal/4) psi = 0.
        Second: (1/2 X-|dT + nabla_X T - Ric(X)) psi = 0 for every coframe X.
        Returns the parallel spinors (as rows) and, per spinor, both residuals.
        """
        n, conn = self.model.n, self.conn
        second = [act_form([contract(conn.dt, i) * Q(1, 2) + conn.nabla_t[i - 1].to_form(),
                            -Form.from_vector(n, conn.curvature.ric[i - 1])])
                  for i in range(1, n + 1)]
        residuals = [(self.field @ psi, [op @ psi for op in second]) for psi in self.parallel]
        return self.parallel, residuals

