"""Left-invariant Riemannian geometry from structure constants.

A LieModel is an orthonormal coframe e_1 .. e_n together with the exterior
derivatives de_i (invariant 2-forms).  All geometry below is evaluated on
invariant tensors, where covariant derivatives reduce to exact linear algebra
over the structure constants.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import GammaRep, act_form, common_kernel
from .errors import DegreeError, DimensionMismatch, StructureError
from .forms import Form, contract, derivation, sigma_t, wedge
from .linalg import (CQ, mat_add, mat_identity, mat_mul, mat_scale, mat_sub,
                     mat_vec)

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
        self.d_coframe = [Form(n, 2, d.terms) for d in d_coframe]
        self.name = name
        # c[i][j][k]: [e_i, e_j] = sum_k c[i][j][k] e_k, from de_k(e_i,e_j) = -c_ijk
        self.c = [[[-self.d_coframe[k - 1].eval(i, j) for k in range(1, n + 1)]
                   for j in range(1, n + 1)] for i in range(1, n + 1)]
        bad = self.jacobi_residuals()
        if any(not r.is_zero() for r in bad):
            raise StructureError(f"structure constants violate d^2 = 0 ({name or 'model'})")

    def jacobi_residuals(self):
        return [d_form(self, d) for d in self.d_coframe]

    def bracket(self, i, j):
        """[e_i, e_j] as a coefficient list."""
        return list(self.c[i - 1][j - 1])

    def __repr__(self):
        return f"LieModel({self.name or 'anon'}, dim {self.n})"


def d_form(model: LieModel, a: Form) -> Form:
    """Chevalley-Eilenberg differential of an invariant form."""
    if a.n != model.n:
        raise DimensionMismatch("form does not live on this model")
    return derivation(a, 2, lambda i: model.d_coframe[i - 1])


class ConnectionData:
    """Metric connection coefficients omega_ijk = g(nabla_{e_i} e_j, e_k)."""

    def __init__(self, model, omega, source):
        self.model = model
        self.omega = omega           # n x n x n nested lists of Fractions
        self.source = source         # "levi-civita" or "torsion"
        n = model.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if omega[i][j][k] != -omega[i][k][j]:
                        raise StructureError("connection is not metric")

    def coefficient(self, i, j, k):
        return self.omega[i - 1][j - 1][k - 1]

    def nabla_vector(self, i, v):
        """nabla_{e_i} of an invariant vector field with coefficients v."""
        n = self.model.n
        return [sum(v[j] * self.omega[i - 1][j][k] for j in range(n))
                for k in range(n)]

    def torsion_residual(self):
        """T(e_i,e_j) - (nabla_i e_j - nabla_j e_i - [e_i,e_j]) sanity table."""
        n = self.model.n
        out = []
        for i in range(n):
            for j in range(n):
                row = [self.omega[i][j][k] - self.omega[j][i][k]
                       - self.model.c[i][j][k] for k in range(n)]
                out.append(row)
        return out


def levi_civita(model: LieModel) -> ConnectionData:
    """Unique metric torsion-free connection of the invariant orthonormal frame."""
    n = model.n
    c = model.c
    omega = [[[Q(c[i][j][k] - c[j][k][i] + c[k][i][j], 2) for k in range(n)]
              for j in range(n)] for i in range(n)]
    return ConnectionData(model, omega, "levi-civita")


def with_torsion(model: LieModel, t: Form) -> ConnectionData:
    """Metric connection with prescribed totally skew torsion 3-form."""
    if t.degree != 3:
        raise DegreeError("torsion must be a 3-form")
    if t.n != model.n:
        raise DimensionMismatch("torsion does not live on this model")
    base = levi_civita(model)
    n = model.n
    omega = [[[base.omega[i][j][k] + Q(1, 2) * t.eval(i + 1, j + 1, k + 1)
               for k in range(n)] for j in range(n)] for i in range(n)]
    conn = ConnectionData(model, omega, "torsion")
    conn.torsion = t
    return conn


def nabla_form(conn: ConnectionData, i: int, a: Form) -> Form:
    """Covariant derivative nabla_{e_i} of an invariant form."""
    # nabla_{e_i} e^j = sum_k omega_ijk e^k
    omega = conn.omega[i - 1]
    return derivation(a, 1, lambda j: Form.from_vector(conn.model.n, omega[j - 1]))


def d_via_connection(model: LieModel, a: Form) -> Form:
    """d(a) = sum_i e_i ^ nabla^g_{e_i} a; agrees with the CE differential."""
    lc = levi_civita(model)
    n = model.n
    out = Form(n, a.degree + 1)
    for i in range(1, n + 1):
        out = out + wedge(Form.basis_vector(n, i), nabla_form(lc, i, a))
    return out


def codiff(model_or_conn, a: Form) -> Form:
    """Codifferential -sum_i e_i -| nabla_{e_i} a (Levi-Civita by default)."""
    conn = model_or_conn if isinstance(model_or_conn, ConnectionData) \
        else levi_civita(model_or_conn)
    n = conn.model.n
    out = Form(n, max(a.degree - 1, 0))
    for i in range(1, n + 1):
        out = out + contract(nabla_form(conn, i, a), i)
    return -out


class CurvatureTable:
    def __init__(self, r, ric, scal):
        self.r = r          # r[i][j][k][l] = R(e_i,e_j,e_k,e_l), 0-based
        self.ric = ric      # ric[i][j] = Ric(e_i, e_j)
        self.scal = scal

    def entry(self, i, j, k, l):
        return self.r[i - 1][j - 1][k - 1][l - 1]

    def ric_diag(self):
        return [self.ric[i][i] for i in range(len(self.ric))]


def curvature(conn: ConnectionData) -> CurvatureTable:
    """Curvature, Ricci and scalar tables of an invariant metric connection.

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    R(X,Y,Z,V) = g(R(X,Y)Z, V), Ric(X,Y) = sum_i R(e_i, X, Y, e_i),
    Scal = sum_ij R(e_i,e_j,e_j,e_i).
    """
    model = conn.model
    n = model.n
    om = conn.omega
    c = model.c
    r = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for m in range(n):
                    val = Q(0)
                    for l in range(n):
                        val += om[j][k][l] * om[i][l][m] - om[i][k][l] * om[j][l][m]
                        if c[i][j][l]:
                            val -= c[i][j][l] * om[l][k][m]
                    r[i][j][k][m] = val
                    r[j][i][k][m] = -val
    ric = [[sum(r[i][x][y][i] for i in range(n)) for y in range(n)] for x in range(n)]
    scal = sum(r[i][j][j][i] for i in range(n) for j in range(n))
    return CurvatureTable(r, ric, scal)


def tt_contraction(t: Form):
    """Table sum_{m,n} T(e_i,e_m,e_n) T(e_j,e_m,e_n)."""
    n = t.n
    out = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = Q(0)
            for m in range(1, n + 1):
                for k in range(1, n + 1):
                    a = t.eval(i + 1, m, k)
                    if a:
                        b = t.eval(j + 1, m, k)
                        if b:
                            val += a * b
            out[i][j] = out[j][i] = val
    return out


# ---------------------------------------------------------------------------
# curvature-identity verification (torsion connection against Levi-Civita)
# ---------------------------------------------------------------------------

def curvature_identity_residuals(model: LieModel, t: Form):
    """Residuals of the six displayed torsion-curvature identities.

    Returns a dict name -> max |residual| as Fractions (0 means the identity
    holds exactly on every index tuple).
    """
    n = model.n
    conn = with_torsion(model, t)
    lc = levi_civita(model)
    dt = d_form(model, t)
    sig = sigma_t(t)
    delta_t = codiff(model, t)
    nab_t = [nabla_form(conn, i, t) for i in range(1, n + 1)]
    rt = curvature(conn)
    rg = curvature(lc)

    def tvec(i, j):
        return [t.eval(i, j, k) for k in range(1, n + 1)]

    res = {k: Q(0) for k in ("torsion-differential", "curvature-comparison",
                             "first-bianchi", "ricci-comparison",
                             "ricci-skew-part", "codifferential-agreement")}

    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                for v in range(1, n + 1):
                    lhs = dt.eval(x, y, z, v)
                    cyc = (nab_t[x - 1].eval(y, z, v) + nab_t[y - 1].eval(z, x, v)
                           + nab_t[z - 1].eval(x, y, v))
                    rhs = cyc - nab_t[v - 1].eval(x, y, z) + 2 * sig.eval(x, y, z, v)
                    res["torsion-differential"] = max(res["torsion-differential"],
                                                      abs(lhs - rhs))

                    txy, tzv = tvec(x, y), tvec(z, v)
                    g_t = sum(a * b for a, b in zip(txy, tzv))
                    rhs2 = (rt.entry(x, y, z, v)
                            - Q(1, 2) * nab_t[x - 1].eval(y, z, v)
                            + Q(1, 2) * nab_t[y - 1].eval(x, z, v)
                            - Q(1, 4) * g_t - Q(1, 4) * sig.eval(x, y, z, v))
                    res["curvature-comparison"] = max(res["curvature-comparison"],
                                                      abs(rg.entry(x, y, z, v) - rhs2))

                    bia = (rt.entry(x, y, z, v) + rt.entry(y, z, x, v)
                           + rt.entry(z, x, y, v))
                    rhs3 = (dt.eval(x, y, z, v) - sig.eval(x, y, z, v)
                            + nab_t[v - 1].eval(x, y, z))
                    res["first-bianchi"] = max(res["first-bianchi"], abs(bia - rhs3))

    ttc = tt_contraction(t)
    for x in range(n):
        for y in range(n):
            lhs = rg.ric[x][y]
            # sum_i g(T(e_i,X), T(Y,e_i)) = -T_{XmN}T_{YmN} by double skewness
            rhs = (rt.ric[x][y] + Q(1, 2) * delta_t.eval(x + 1, y + 1)
                   + Q(1, 4) * ttc[x][y])
            res["ricci-comparison"] = max(res["ricci-comparison"], abs(lhs - rhs))
            skew = rt.ric[x][y] - rt.ric[y][x] + delta_t.eval(x + 1, y + 1)
            res["ricci-skew-part"] = max(res["ricci-skew-part"], abs(skew))

    delta_nabla = codiff(conn, t)
    diff = delta_t - delta_nabla
    res["codifferential-agreement"] = max((abs(c) for c in diff.terms.values()),
                                          default=Q(0))
    return res


# ---------------------------------------------------------------------------
# invariant spinor calculus
# ---------------------------------------------------------------------------

def spinor_connection(conn: ConnectionData, rep: GammaRep):
    """Endomorphisms Lambda_i with nabla_{e_i} psi = Lambda_i psi on invariant spinors."""
    if rep.n != conn.model.n:
        raise DimensionMismatch("spin module does not match the model")
    n = conn.model.n
    size = rep.dim
    out = []
    for i in range(n):
        m = [[CQ(0)] * size for _ in range(size)]
        for j in range(n):
            for k in range(j + 1, n):
                coeff = conn.omega[i][j][k]
                if not coeff:
                    continue
                gg = mat_mul(rep.gammas[j], rep.gammas[k])
                c = CQ(Q(1, 2) * coeff)
                for a in range(size):
                    for b in range(size):
                        if gg[a][b]:
                            m[a][b] = m[a][b] + c * gg[a][b]
        out.append(m)
    return out


def dirac_matrix(conn: ConnectionData, rep: GammaRep):
    lams = spinor_connection(conn, rep)
    size = rep.dim
    out = [[CQ(0)] * size for _ in range(size)]
    for i in range(conn.model.n):
        out = mat_add(out, mat_mul(rep.gammas[i], lams[i]))
    return out


def parallel_spinors(conn: ConnectionData, rep: GammaRep):
    return common_kernel(spinor_connection(conn, rep), dim=rep.dim)


def lc_trace_vector(model: LieModel):
    """V = sum_i nabla^g_{e_i} e_i (nonzero off unimodular-type models)."""
    lc = levi_civita(model)
    n = model.n
    return [sum(lc.omega[i][i][k] for i in range(n)) for k in range(n)]


def dirac_square_residual(model: LieModel, t: Form, rep: GammaRep):
    """Matrix residual of the Dirac-square (Weitzenboeck) identity on invariant spinors.

    D^2 = nabla*nabla + (3/4) dT - (1/2) sigma^T + (1/2) delta(T)
          - sum e_k-|T nabla_k + Scal/4 must vanish identically; returns the
    residual matrix.  The 1/2 on the codifferential term is forced: it is the
    unique coefficient under which the identity closes exactly on models whose
    torsion is not coclosed, and the only one consistent with the
    parallel-spinor corollary (all verified by the test suite).
    """
    conn = with_torsion(model, t)
    lams = spinor_connection(conn, rep)
    size = rep.dim
    n = model.n
    d2 = mat_mul(dirac_matrix(conn, rep), dirac_matrix(conn, rep))

    lap = [[CQ(0)] * size for _ in range(size)]
    for i in range(n):
        lap = mat_sub(lap, mat_mul(lams[i], lams[i]))
    v = lc_trace_vector(model)
    for k in range(n):
        if v[k]:
            lap = mat_add(lap, mat_scale(lams[k], CQ(v[k])))

    dt = d_form(model, t)
    sig = sigma_t(t)
    delta_t = codiff(model, t)
    scal = curvature(conn).scal

    rhs = lap
    rhs = mat_add(rhs, mat_scale(act_form(rep, dt), CQ(Q(3, 4))))
    rhs = mat_sub(rhs, mat_scale(act_form(rep, sig), CQ(Q(1, 2))))
    rhs = mat_add(rhs, mat_scale(act_form(rep, delta_t), CQ(Q(1, 2))))
    for k in range(n):
        rhs = mat_sub(rhs, mat_mul(act_form(rep, contract(t, k + 1)), lams[k]))
    rhs = mat_add(rhs, mat_scale(mat_identity(size, CQ(1), CQ(0)), CQ(Q(scal, 4))))
    return mat_sub(d2, rhs)


def dirac_torsion_anticommutator_residual(model: LieModel, t: Form, rep: GammaRep):
    """Residual of D T + T D = dT + delta(T) - 2 sigma^T - 2 sum e_i-|T nabla_i."""
    conn = with_torsion(model, t)
    lams = spinor_connection(conn, rep)
    size = rep.dim
    n = model.n
    d = dirac_matrix(conn, rep)
    tm = act_form(rep, t)
    lhs = mat_add(mat_mul(d, tm), mat_mul(tm, d))
    rhs = act_form(rep, d_form(model, t))
    rhs = mat_add(rhs, act_form(rep, codiff(model, t)))
    rhs = mat_sub(rhs, mat_scale(act_form(rep, sigma_t(t)), CQ(2)))
    for i in range(n):
        rhs = mat_sub(rhs, mat_scale(mat_mul(act_form(rep, contract(t, i + 1)), lams[i]), CQ(2)))
    return mat_sub(lhs, rhs)


def parallel_spinor_field_equations(model: LieModel, t: Form, rep: GammaRep):
    """Residual vectors of both field equations on each invariant parallel spinor.

    First: (3/4 dT - 1/2 sigma^T + 1/2 delta(T) + Scal/4) psi = 0.
    Second: (1/2 X-|dT + nabla_X T - Ric(X)) psi = 0 for every coframe X.
    """
    conn = with_torsion(model, t)
    basis = parallel_spinors(conn, rep)
    n = model.n
    dt = d_form(model, t)
    table = curvature(conn)
    size = rep.dim

    first = act_form(rep, dt)
    first = mat_scale(first, CQ(Q(3, 4)))
    first = mat_sub(first, mat_scale(act_form(rep, sigma_t(t)), CQ(Q(1, 2))))
    first = mat_add(first, mat_scale(act_form(rep, codiff(model, t)), CQ(Q(1, 2))))
    first = mat_add(first, mat_scale(mat_identity(size, CQ(1), CQ(0)),
                                     CQ(Q(table.scal, 4))))

    residuals = []
    for psi in basis:
        res1 = mat_vec(first, psi)
        res2 = []
        for i in range(1, n + 1):
            op = mat_scale(act_form(rep, contract(dt, i)), CQ(Q(1, 2)))
            op = mat_add(op, act_form(rep, nabla_form(conn, i, t)))
            ric_x = Form(n, 1, {(j,): table.ric[i - 1][j - 1] for j in range(1, n + 1)
                                if table.ric[i - 1][j - 1]})
            op = mat_sub(op, act_form(rep, ric_x))
            res2.append(mat_vec(op, psi))
        residuals.append((res1, res2))
    return basis, residuals
