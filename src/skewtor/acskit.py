"""Almost-contact-metric and almost-hermitian structures on invariant frames.

Provides the Nijenhuis tensors, the existence test and torsion formula for
the compatible connection with totally skew torsion, the associated Ricci
forms, the one-parameter contact deformation, and the pointwise identity
pack of the 6-dimensional nearly Kaehler algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

from .equivar import full_column_rank_certificate
from .errors import DegreeError, NoSkewConnection, StructureError
from .forms import Form, interior, sigma_t, wedge
from .liegeom import (LieModel, curvature, d_form, levi_civita,
                      nabla_form, tt_contraction, with_torsion)

Q = Fraction


def _columns(matrix):
    n = len(matrix)
    return [[matrix[i][j] for i in range(n)] for j in range(n)]


def apply_matrix(matrix, vec):
    n = len(matrix)
    return [sum(matrix[i][j] * vec[j] for j in range(n) if matrix[i][j] and vec[j])
            for i in range(n)]


def _support(x):
    """(index, coefficient) pairs of a coefficient vector; an int k stands for e_{k+1}."""
    return [(x, 1)] if isinstance(x, int) else [(a, c) for a, c in enumerate(x) if c]


def _trilinear(table, u, v, w):
    """sum of table[a][b][c] u_a v_b w_c for a dense 0-based table of a (0,3) tensor."""
    su, sv, sw = _support(u), _support(v), _support(w)
    return sum((cu * cv * cw * table[a][b][c] for a, cu in su for b, cv in sv
                for c, cw in sw), Q(0))


def _table3(a: Form):
    """Dense 0-based table a(e_i, e_j, e_k) of a 3-form, filled from its blades."""
    n = a.n
    table = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for blade in a.terms:
        for i, j, k in permutations(blade):
            table[i - 1][j - 1][k - 1] = a.eval(i, j, k)
    return table


def _nabla_endo(conn, phi):
    """table[i][j][k] = g((nabla_{e_i} phi) e_j, e_k): [nabla_i, phi] in coefficients."""
    n = conn.model.n
    om = conn.omega
    return [[[sum(phi[l][j] * om[i][l][k] for l in range(n))
              - sum(om[i][j][l] * phi[k][l] for l in range(n))
              for k in range(n)] for j in range(n)] for i in range(n)]


class _EndoStructure:
    """A metric structure given by an endomorphism `phi` of the invariant frame.

    `phi` is the contact endomorphism or the almost complex structure J;
    both structures keep it under this one name.
    """

    @property
    def n(self):
        return self.model.n

    def fundamental_form(self) -> Form:
        """F(X,Y) = g(X, phi(Y)) as a 2-form."""
        n = self.n
        return Form(n, 2, {(i + 1, j + 1): self.phi[i][j]
                           for i in range(n) for j in range(i + 1, n)})


class AlmostContact(_EndoStructure):
    """Odd-dimensional metric structure (xi, eta, phi) with exact compatibility checks."""

    def __init__(self, model: LieModel, xi, eta: Form, phi):
        n = model.n
        if n % 2 == 0:
            raise DegreeError("contact structures live in odd dimensions")
        self.model = model
        self.xi = [Q(x) for x in xi] if not isinstance(xi, int) \
            else [Q(1) if k == xi - 1 else Q(0) for k in range(n)]
        self.eta = eta
        self.phi = [[Q(x) for x in row] for row in phi]
        eta_vec = eta.vector_components()
        if sum(a * b for a, b in zip(eta_vec, self.xi)) != 1:
            raise StructureError("eta(xi) must be 1")
        if eta_vec != self.xi:
            raise StructureError("xi must be metric-dual to eta in this frame")
        if any(apply_matrix(self.phi, self.xi)):
            raise StructureError("phi must kill xi")
        phi2 = [[sum(self.phi[i][k] * self.phi[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                want = (Q(-1) if i == j else Q(0)) + eta_vec[j] * self.xi[i]
                if phi2[i][j] != want:
                    raise StructureError("phi^2 must be -Id + eta (x) xi")
        for i in range(n):
            for j in range(n):
                gphi = sum(self.phi[k][i] * self.phi[k][j] for k in range(n))
                want = (Q(1) if i == j else Q(0)) - eta_vec[i] * eta_vec[j]
                if gphi != want:
                    raise StructureError("phi must be metric-compatible")

    def d_eta(self) -> Form:
        return d_form(self.model, self.eta)

    def is_contact_metric(self) -> bool:
        return self.fundamental_form().scale(2) == self.d_eta()

    def killing_matrix(self):
        """K[i][j] = g(nabla^g_{e_i} xi, e_j); xi is Killing iff K is skew."""
        lc = levi_civita(self.model)
        return [lc.nabla_vector(i, self.xi) for i in range(1, self.n + 1)]

    def xi_is_killing(self) -> bool:
        k = self.killing_matrix()
        n = self.n
        return all(k[i][j] == -k[j][i] for i in range(n) for j in range(n))


class AlmostHermitian(_EndoStructure):
    """Even-dimensional metric structure with an orthogonal complex matrix J."""

    def __init__(self, model: LieModel, j):
        n = model.n
        if n % 2:
            raise DegreeError("hermitian structures live in even dimensions")
        self.model = model
        self.phi = j = [[Q(x) for x in row] for row in j]
        j2 = [[sum(j[i][k] * j[k][j_] for k in range(n))
               for j_ in range(n)] for i in range(n)]
        if any(j2[i][j_] != (Q(-1) if i == j_ else Q(0))
               for i in range(n) for j_ in range(n)):
            raise StructureError("J^2 must be -Id")
        for i in range(n):
            for j_ in range(n):
                gjj = sum(j[k][i] * j[k][j_] for k in range(n))
                if gjj != (Q(1) if i == j_ else Q(0)):
                    raise StructureError("J must be orthogonal")

    # Omega(X,Y) = g(X, J(Y))
    kaehler_form = _EndoStructure.fundamental_form


class NijTensor:
    """(0,3) integrability tensor; totally skew iff the structure admits the connection."""

    def __init__(self, table, n):
        self.table = table    # table[i][j][k] = N(e_i, e_j, e_k), 0-based
        self.n = n
        self.totally_skew = self._check_skew()

    def value(self, i, j, k):
        return self.table[i - 1][j - 1][k - 1]

    def _check_skew(self):
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = self.table[i][j][k]
                    if (self.table[j][i][k] != -v or self.table[i][k][j] != -v):
                        return False
        return True

    def is_zero(self):
        return all(not x for p in self.table for r in p for x in r)

    def as_form(self) -> Form:
        if not self.totally_skew:
            raise StructureError("tensor is not totally skew")
        terms = {}
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                for k in range(j + 1, self.n + 1):
                    v = self.value(i, j, k)
                    if v:
                        terms[(i, j, k)] = v
        return Form(self.n, 3, terms)


def nijenhuis(s) -> NijTensor:
    """Integrability tensor of a contact or hermitian structure, from brackets."""
    model = s.model
    n = model.n
    phi = s.phi
    d_eta, xi = (s.d_eta(), s.xi) if isinstance(s, AlmostContact) else (None, None)
    cols = _columns(phi)  # cols[j] = phi(e_j) coefficients

    def bracket(u, v):
        out = [Q(0)] * n
        for a, cu in _support(u):
            for b, cv in _support(v):
                for k, c in enumerate(model.c[a][b]):
                    if c:
                        out[k] += cu * cv * c
        return out

    table = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            term = bracket(cols[i], cols[j])
            phi2_br = apply_matrix(phi, apply_matrix(phi, model.c[i][j]))
            term = [a + b for a, b in zip(term, phi2_br)]
            t1 = apply_matrix(phi, bracket(cols[i], j))
            t2 = apply_matrix(phi, bracket(i, cols[j]))
            term = [a - b - c for a, b, c in zip(term, t1, t2)]
            if d_eta is not None:
                de = d_eta.eval(i + 1, j + 1)
                if de:
                    term = [a + de * x for a, x in zip(term, xi)]
            for k in range(n):
                table[i][j][k] = term[k]
    return NijTensor(table, n)


def n2_tensor(s: AlmostContact):
    """N2(X,Y) = d(eta)(phi X, Y) + d(eta)(X, phi Y)."""
    n = s.n
    de = s.d_eta()
    out = [[Q(0)] * n for _ in range(n)]
    cols = _columns(s.phi)
    for i in range(n):
        for j in range(n):
            val = Q(0)
            for a in range(n):
                if cols[i][a]:
                    val += cols[i][a] * de.eval(a + 1, j + 1)
                if cols[j][a]:
                    val += cols[j][a] * de.eval(i + 1, a + 1)
            out[i][j] = val
    return out


def pullback3(a: Form, matrix) -> Form:
    """(X,Y,Z) -> a(MX, MY, MZ) for a linear map M (columns = images)."""
    if a.degree != 3:
        raise DegreeError("pullback3 expects a 3-form")
    table = _table3(a)
    cols = _columns(matrix)
    return Form(a.n, 3, {b: _trilinear(table, *(cols[k - 1] for k in b))
                         for b in combinations(range(1, a.n + 1), 3)})


def contact_torsion(s: AlmostContact) -> Form:
    """Torsion of the unique connection preserving (g, xi, eta, phi).

    T = eta ^ d(eta) + d^phi F + N - eta ^ (xi -| N), defined when N is
    totally skew and xi is a Killing field.
    """
    nij = nijenhuis(s)
    if not nij.totally_skew:
        raise NoSkewConnection("nijenhuis-not-skew")
    if not s.xi_is_killing():
        raise NoSkewConnection("xi-not-killing")
    model = s.model
    d_eta = s.d_eta()
    f = s.fundamental_form()
    df = d_form(model, f)
    dphi_f = -pullback3(df, s.phi)
    n_form = nij.as_form()
    xi_form = Form.from_vector(s.n, s.xi)
    t = (wedge(s.eta, d_eta) + dphi_f + n_form
         - wedge(s.eta, interior(xi_form, n_form)))
    return t


def hermitian_torsion(s: AlmostHermitian) -> Form:
    """Torsion of the unique hermitian connection with skew torsion.

    T(X,Y,Z) = -d(Omega)(JX, JY, JZ) + N(X,Y,Z); exists iff N is a 3-form.
    """
    nij = nijenhuis(s)
    if not nij.totally_skew:
        raise NoSkewConnection("nijenhuis-not-skew")
    omega = s.kaehler_form()
    d_omega = d_form(s.model, omega)
    return -pullback3(d_omega, s.phi) + nij.as_form()


def torsion_uniqueness_certificate(s) -> bool:
    """No 3-form perturbation of the torsion keeps the structure parallel.

    The parallelism conditions are affine in the torsion; uniqueness of the
    compatible connection is exactly injectivity of the linear response of
    (nabla phi, nabla eta) to a torsion perturbation dT, whose connection
    perturbation is omega'_ijk = dT(i, j, k) / 2.  The response matrix has
    one column per blade of dT and n^3 (+ n^2 with eta) rows; it is built
    from the signed permutations of each blade, scaled by 2 L to integers
    (L clears the denominators of phi and eta), and its full column rank is
    certified mod p, with exact elimination only if that falls short.
    """
    matrix = _uniqueness_response(s)
    return full_column_rank_certificate(matrix, matrix.shape[1])


def _uniqueness_response(s):
    """The response matrix of `torsion_uniqueness_certificate`, times 2 L, as integers."""
    n = s.model.n
    contact = isinstance(s, AlmostContact)
    phi = s.phi
    eta = s.eta.vector_components() if contact else []
    den = 1
    for x in [x for row in phi for x in row] + eta:
        den = lcm(den, x.denominator)
    dtype = np.int64 if 2 * n * den < 2 ** 62 else object
    p = np.array([[int(x * den) for x in row] for row in phi], dtype=dtype)
    blades = _dense_blades(n, 3).astype(dtype)
    response = [np.einsum("lj,cilk->cijk", p, blades)
                - np.einsum("cijl,kl->cijk", blades, p)]
    if contact:
        e = np.array([int(x * den) for x in eta], dtype=dtype)
        response.append(np.einsum("cijl,l->cij", blades, e)[..., None])
    matrix = np.concatenate([r.reshape(len(blades), n, -1) for r in response], axis=2)
    return matrix.reshape(len(blades), -1).T


def _dense_blades(n, degree):
    """Stacked dense tensors of the unit blades: sign(perm) at each permuted index."""
    blades = list(combinations(range(n), degree))
    out = np.zeros((len(blades),) + (n,) * degree, dtype=np.int64)
    for perm in permutations(range(degree)):
        sign = -1 if sum(perm[i] > perm[j] for i in range(degree)
                         for j in range(i + 1, degree)) % 2 else 1
        for c, blade in enumerate(blades):
            out[(c,) + tuple(blade[k] for k in perm)] = sign
    return out


def structure_parallel_residuals(s, t: Form):
    """Max residuals of nabla g = nabla (eta, xi, phi | J) = 0 under the torsion connection."""
    conn = with_torsion(s.model, t)
    res = max(abs(v) for plane in _nabla_endo(conn, s.phi) for row in plane for v in row)
    if isinstance(s, AlmostContact):
        for i in range(1, s.n + 1):
            da = nabla_form(conn, i, s.eta)
            res = max(res, max((abs(c) for c in da.terms.values()), default=Q(0)))
    return res


# ---------------------------------------------------------------------------
# displayed general identities of almost contact structures
# ---------------------------------------------------------------------------

def _nabla_phi(s: AlmostContact):
    """g((nabla^g_i phi) e_j, e_k) as table[i][j][k]."""
    return _nabla_endo(levi_civita(s.model), s.phi)


def contact_general_identities(s: AlmostContact) -> dict:
    """The five displayed compatibility identities; values are max residuals."""
    model = s.model
    n = s.n
    lc = levi_civita(model)
    cols = _columns(s.phi)
    eta_vec = s.eta.vector_components()
    xi = s.xi
    df_t = _table3(d_form(model, s.fundamental_form()))
    de = s.d_eta()
    nij_t = nijenhuis(s).table
    n2 = n2_tensor(s)
    np_ = _nabla_phi(s)
    nabla_eta = [lc.nabla_vector(i, eta_vec) for i in range(1, n + 1)]
    killing = s.killing_matrix()

    res = {k: Q(0) for k in ("covariant-derivative-of-phi", "phi-phi-symmetry",
                             "xi-derivative", "nijenhuis-phi-phi",
                             "nijenhuis-phi-mixed")}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = 2 * np_[x][y][z]
                rhs = (_trilinear(df_t, x, cols[y], cols[z])
                       - df_t[x][y][z]
                       + _trilinear(nij_t, y, z, cols[x])
                       + eta_vec[x] * n2[y][z])
                rhs += eta_vec[z] * sum(cols[y][a] * de.eval(a + 1, x + 1)
                                        for a in range(n))
                rhs += eta_vec[y] * sum(cols[z][a] * de.eval(x + 1, a + 1)
                                        for a in range(n))
                res["covariant-derivative-of-phi"] = max(
                    res["covariant-derivative-of-phi"], abs(lhs - rhs))

                lhs2 = np_[x][y][z] + sum(np_[x][a][b] * cols[y][a] * cols[z][b]
                                          for a in range(n) for b in range(n))
                rhs2 = (eta_vec[y] * sum(nabla_eta[x][a] * cols[z][a] for a in range(n))
                        - eta_vec[z] * sum(nabla_eta[x][a] * cols[y][a] for a in range(n)))
                res["phi-phi-symmetry"] = max(res["phi-phi-symmetry"], abs(lhs2 - rhs2))

                lhs4 = nij_t[x][y][z]
                rhs4 = (-_trilinear(nij_t, cols[x], cols[y], z)
                        + eta_vec[x] * _trilinear(nij_t, xi, y, z)
                        + eta_vec[y] * _trilinear(nij_t, x, xi, z))
                res["nijenhuis-phi-phi"] = max(res["nijenhuis-phi-phi"], abs(lhs4 - rhs4))

                rhs5 = (-_trilinear(nij_t, cols[x], y, cols[z])
                        + eta_vec[z] * _trilinear(nij_t, xi, x, y)
                        - eta_vec[x] * _trilinear(nij_t, xi, cols[y], cols[z]))
                res["nijenhuis-phi-mixed"] = max(res["nijenhuis-phi-mixed"], abs(lhs4 - rhs5))

    for x in range(n):
        for y in range(n):
            phi_y = cols[y]
            lhs3 = sum(np_[x][a][b] * phi_y[a] * xi[b] for a in range(n) for b in range(n))
            res["xi-derivative"] = max(res["xi-derivative"],
                                       abs(lhs3 - nabla_eta[x][y]),
                                       abs(nabla_eta[x][y] - killing[x][y]))
    return res


def nijenhuis_gradient_identities(s: AlmostContact) -> dict:
    """Both displayed reconstructions of dF^- and N from covariant data."""
    n = s.n
    cols = _columns(s.phi)
    eta_vec = s.eta.vector_components()
    df_t = _table3(d_form(s.model, s.fundamental_form()))
    nij = nijenhuis(s)
    np_ = _nabla_phi(s)
    killing = s.killing_matrix()

    res = {"df-minus": Q(0), "nijenhuis-from-gradient": Q(0)}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                dfm = (_trilinear(df_t, x, cols[y], cols[z])
                       + _trilinear(df_t, cols[x], y, cols[z])
                       + _trilinear(df_t, cols[x], cols[y], z)
                       - df_t[x][y][z])
                rhs = (-_trilinear(nij.table, x, y, cols[z])
                       - _trilinear(nij.table, y, z, cols[x])
                       - _trilinear(nij.table, z, x, cols[y]))
                res["df-minus"] = max(res["df-minus"], abs(dfm - rhs))

                lhs = nij.table[x][y][z]
                val = Q(0)
                for a in range(n):
                    if cols[x][a]:
                        val += cols[x][a] * np_[a][y][z]
                    if cols[y][a]:
                        val -= cols[y][a] * np_[a][x][z]
                val += sum(np_[x][a][z] * cols[y][a] for a in range(n))
                val -= sum(np_[y][a][z] * cols[x][a] for a in range(n))
                val += -eta_vec[y] * killing[x][z] + eta_vec[x] * killing[y][z]
                res["nijenhuis-from-gradient"] = max(res["nijenhuis-from-gradient"],
                                                     abs(lhs - val))
    return res


def nijenhuis_xi_identities(s: AlmostContact) -> dict:
    """The chained equalities along the Reeb direction (requires skew N, Killing xi)."""
    n = s.n
    nij = nijenhuis(s)
    if not nij.totally_skew:
        raise NoSkewConnection("nijenhuis-not-skew")
    if not s.xi_is_killing():
        raise NoSkewConnection("xi-not-killing")
    cols = _columns(s.phi)
    xi = s.xi
    n2 = n2_tensor(s)
    df_t = _table3(d_form(s.model, s.fundamental_form()))
    de = s.d_eta()
    res = Q(0)
    common = []
    for x in range(n):
        for y in range(n):
            vals = [
                _trilinear(nij.table, cols[x], y, xi),
                _trilinear(nij.table, x, cols[y], xi),
                n2[x][y],
                _trilinear(df_t, x, y, xi),
                -_trilinear(df_t, cols[x], cols[y], xi),
            ]
            for v in vals[1:]:
                res = max(res, abs(v - vals[0]))
            common.append(vals[0])
    # nabla^g_xi xi = xi -| d eta = 0
    killing = s.killing_matrix()
    nab_xi = [sum(xi[i] * killing[i][k] for i in range(n)) for k in range(n)]
    xi_de = interior(Form.from_vector(n, xi), de)
    res_xi = max([abs(v) for v in nab_xi] + [abs(c) for c in xi_de.terms.values()] or [Q(0)])
    return {"chain-residual": res, "reeb-geodesic": res_xi,
            "common-nonzero": any(common)}


# ---------------------------------------------------------------------------
# Ricci forms and the holonomy-reduction identities
# ---------------------------------------------------------------------------

def ricci_form_package(s, t: Form):
    """(rho, torsion one-form, dT contraction) of the characteristic connection.

    For contact input the one-form is omega(X) = -(1/2) sum T(X, e_i, phi e_i);
    for hermitian input it is the Lee form theta(X) = -(1/2) sum T(JX, e_i, J e_i).
    In both cases lambda(X,Y) = sum dT(X,Y,e_i, phi/J (e_i)) with no 1/2: this
    is the normalization under which the Ricci-form identity and the Sasakian
    value 16(1-k)F hold exactly (the test suite pins both).
    """
    model = s.model
    n = model.n
    cols = _columns(s.phi)
    conn = with_torsion(model, t)
    table = curvature(conn)
    dt = d_form(model, t)

    rho = [[Q(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            val = Q(0)
            for i in range(n):
                for a in range(n):
                    if cols[i][a]:
                        val += cols[i][a] * table.r[x][y][i][a]
            rho[x][y] = val / 2

    lam = [[Q(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            val = Q(0)
            for i in range(n):
                for a in range(n):
                    if cols[i][a]:
                        val += cols[i][a] * dt.eval(x + 1, y + 1, i + 1, a + 1)
            lam[x][y] = val

    one_form = [Q(0)] * n
    for x in range(n):
        val = Q(0)
        for i in range(n):
            for a in range(n):
                if cols[i][a]:
                    val += cols[i][a] * t.eval(x + 1, i + 1, a + 1)
        one_form[x] = -val / 2
    if isinstance(s, AlmostHermitian):
        jone = [Q(0)] * n
        for x in range(n):
            jone[x] = -Q(1, 2) * sum(cols[x][b] * sum(cols[i][a] * t.eval(b + 1, i + 1, a + 1)
                                                      for i in range(n) for a in range(n))
                                     for b in range(n))
        one_form = jone
    return rho, one_form, lam


def holonomy_reduction_residual(s, t: Form):
    """Residual of the Ricci-form identity; also reports whether rho vanishes.

    Contact: rho(X,Y) = Ric(X, phi Y) - (nabla_X omega)(Y) + lambda(X,Y)/4.
    Hermitian: rho(X,Y) = Ric(X, J Y) + (nabla_X theta)(J Y) + lambda(X,Y)/4.
    """
    model = s.model
    n = model.n
    cols = _columns(s.phi)
    conn = with_torsion(model, t)
    table = curvature(conn)
    rho, one_form, lam = ricci_form_package(s, t)
    # invariant one-form: (nabla_i w)(e_j) = sum_k w_k omega_ikj
    nabla_w = [conn.nabla_vector(i, one_form) for i in range(1, n + 1)]
    res = Q(0)
    for x in range(n):
        for y in range(n):
            ric_phi = sum(cols[y][a] * table.ric[x][a] for a in range(n))
            if isinstance(s, AlmostContact):
                rhs = ric_phi - nabla_w[x][y] + Q(1, 4) * lam[x][y]
            else:
                nw_j = sum(cols[y][a] * nabla_w[x][a] for a in range(n))
                rhs = ric_phi + nw_j + Q(1, 4) * lam[x][y]
            res = max(res, abs(rho[x][y] - rhs))
    reduced = all(not x for row in rho for x in row)
    return {"identity-residual": res, "rho-vanishes": reduced}


def sasakian_ricci_package(s: AlmostContact) -> dict:
    """Exact Sasakian curvature bookkeeping at arbitrary odd dimension 2k+1."""
    if not s.is_contact_metric():
        raise StructureError("package stated for contact metric structures")
    n = s.n
    k = (n - 1) // 2
    t = contact_torsion(s)
    if t != wedge(s.eta, s.d_eta()):
        raise StructureError("Sasakian torsion must be eta ^ d eta")
    model = s.model
    conn = with_torsion(model, t)
    rho, one_form, lam = ricci_form_package(s, t)
    f = s.fundamental_form()
    out = {}
    out["lambda-is-16(1-k)F"] = all(
        lam[x][y] == 16 * (1 - k) * f.eval(x + 1, y + 1)
        for x in range(n) for y in range(n))
    nabla_w = [conn.nabla_vector(i, one_form) for i in range(1, n + 1)]
    out["one-form-parallel"] = all(not nabla_w[i][j] for i in range(n) for j in range(n))
    eta_vec = s.eta.vector_components()
    ttc = tt_contraction(t)
    out["tt-contraction"] = all(
        ttc[x][y] == 8 * (1 if x == y else 0) + 8 * (k - 1) * eta_vec[x] * eta_vec[y]
        for x in range(n) for y in range(n))
    table = curvature(conn)
    ric_target = [[4 * (k - 1) * ((1 if x == y else 0) - eta_vec[x] * eta_vec[y])
                   for y in range(n)] for x in range(n)]
    ricg_target = [[2 * (2 * k - 1) * (1 if x == y else 0)
                    - 2 * (k - 1) * eta_vec[x] * eta_vec[y]
                    for y in range(n)] for x in range(n)]
    tableg = curvature(levi_civita(model))
    out["ricci-condition-holds"] = table.ric == ric_target
    out["riemannian-condition-holds"] = tableg.ric == ricg_target
    # the two conditions are equivalent through Ric^g = Ric^nabla + TT/4
    implied = [[ric_target[x][y] + Q(1, 4) * ttc[x][y] for y in range(n)]
               for x in range(n)]
    out["conditions-equivalent"] = implied == ricg_target
    dt = d_form(model, t)
    out["integrability-scale"] = Q(1, 2) * dt.eval(1, 2, 3, 4)
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
    t = contact_torsion(s)
    if t != wedge(s.eta, s.d_eta()):
        raise StructureError("deformation defined for Sasakian input")
    n = s.n
    xi_index = next(i for i in range(n) if s.xi[i])
    if s.eta != Form.basis_vector(n, xi_index + 1):
        raise StructureError("deformation tracked only for coframe-aligned eta")
    weights = [2 if i == xi_index else 1 for i in range(n)]
    new_d = []
    for i in range(n):
        terms = {}
        for (a, b), coeff in s.model.d_coframe[i].terms.items():
            expo = weights[a - 1] + weights[b - 1] - weights[i]
            if expo % 2:
                raise StructureError("deformation leaves the rational frame")
            terms[(a, b)] = coeff * a2 ** (expo // 2)
        new_d.append(Form(n, 2, terms))
    model = LieModel(n, new_d, name=f"{s.model.name}-tanno")
    return AlmostContact(model, xi_index + 1, Form.basis_vector(n, xi_index + 1), s.phi)


# ---------------------------------------------------------------------------
# pointwise nearly Kaehler algebra in dimension 6
# ---------------------------------------------------------------------------

def nearly_kaehler_identities(a) -> dict:
    """Identity pack of the 6-dimensional constant-type algebra at parameter a.

    All quantities quadratic in the torsion scale rationally with a; the
    structure equations dT = a Omega ^ Omega and T T-contraction = 2 a g are
    verified against the canonical real 3-form psi.  The contractions run on
    the dense integer tensors of psi and Omega ^ Omega.
    """
    a = Q(a)
    n = 6
    psi = (Form.blade(n, 1, 3, 5) - Form.blade(n, 1, 4, 6)
           - Form.blade(n, 2, 3, 6) - Form.blade(n, 2, 4, 5))
    omega = Form.blade(n, 1, 2) + Form.blade(n, 3, 4) + Form.blade(n, 5, 6)
    j = np.zeros((n, n), dtype=np.int64)
    for k in range(0, n, 2):
        j[k + 1, k], j[k, k + 1] = 1, -1
    psi_t = _dense_form(psi)
    out = {}
    ttc_psi = np.einsum("imk,jmk->ij", psi_t, psi_t).tolist()
    out["tt-contraction-2ag"] = all(
        Q(a, 2) * ttc_psi[x][y] == (2 * a if x == y else 0)
        for x in range(n) for y in range(n))
    omega2 = wedge(omega, omega)
    out["two-sigma-is-dt"] = sigma_t(psi) == omega2
    dt = omega2.scale(a)
    ric_g = [[Q(5, 2) * a if x == y else Q(0) for y in range(n)] for x in range(n)]
    ric_nabla = [[ric_g[x][y] - Q(1, 4) * Q(a, 2) * ttc_psi[x][y] for y in range(n)]
                 for x in range(n)]
    out["ricci-reduction-2ag"] = all(
        ric_nabla[x][y] == (2 * a if x == y else 0) for x in range(n) for y in range(n))
    scal = sum(ric_nabla[x][x] for x in range(n))
    out["scal-12a"] = scal == 12 * a
    sig = sigma_t(psi).scale(Q(a, 2))
    lhs = dt.scale(Q(3, 4)) - sig.scale(Q(1, 2))
    rhs = dt.scale(Q(1, 4)) + sig.scale(Q(1, 2))
    out["endomorphism-forms-agree"] = lhs == rhs
    target = (Form.blade(n, 1, 2, 3, 4) + Form.blade(n, 1, 2, 5, 6)
              + Form.blade(n, 3, 4, 5, 6)).scale(a)
    out["endomorphism-form-value"] = lhs == target
    # holonomy-reduction contraction: Ric(X,Y) = (1/4) sum dT(X, JY, e_i, J e_i),
    # with dT = a Omega ^ Omega
    contraction = np.einsum("by,ci,xbic->xy", j, j, _dense_form(omega2)).tolist()
    out["ricci-from-dt-contraction"] = all(
        Q(1, 4) * a * contraction[x][y] == ric_nabla[x][y]
        for x in range(n) for y in range(n))
    # constant-type norm identity, quadratic in both arguments: polarized on
    # the vectors e_u1 + e_u2 (u1 <= u2); both sides carry the factor a / 2
    pairs = np.zeros((n * (n + 1) // 2, n), dtype=np.int64)
    for r, (u1, u2) in enumerate((u1, u2) for u1 in range(n) for u2 in range(u1, n)):
        pairs[r, u1] += 1
        pairs[r, u2] += 1
    values = np.einsum("sp,tq,pqm->stm", pairs, pairs, psi_t)
    gram = pairs @ pairs.T
    gjy = pairs @ j @ pairs.T
    norm_side = (values ** 2).sum(axis=2)
    metric_side = np.outer(gram.diagonal(), gram.diagonal()) - gram ** 2 - gjy ** 2
    out["constant-type-identity"] = not a or bool((norm_side == metric_side).all())
    return out


def _dense_form(form: Form):
    """Dense tensor of a form with integer coefficients, as an int64 array."""
    coeffs = [form.terms.get(tuple(k + 1 for k in b), Q(0))
              for b in combinations(range(form.n), form.degree)]
    if any(c.denominator != 1 for c in coeffs):
        raise StructureError("dense tensor of a form with non-integral coefficients")
    ints = np.array([int(c) for c in coeffs], dtype=np.int64)
    return np.tensordot(ints, _dense_blades(form.n, form.degree), axes=1)


def half_module_endomorphism_spectrum(a):
    """Eigenvalues of the parallel-spinor integrability endomorphism per half module."""
    from .clifford import act_form, build_rep, eigen_report, half_spinor_bases, restrict
    a = Q(a)
    rep = build_rep(6)
    four_form = (Form.blade(6, 1, 2, 3, 4) + Form.blade(6, 1, 2, 5, 6)
                 + Form.blade(6, 3, 4, 5, 6)).scale(a)
    endo = act_form(rep, [four_form, Form.scalar(6, 3 * a)])
    plus, minus = half_spinor_bases(rep)
    return (eigen_report(restrict(endo, plus)).multiset(),
            eigen_report(restrict(endo, minus)).multiset())
