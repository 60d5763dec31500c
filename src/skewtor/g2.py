"""Toolkit for 7-dimensional cross-product structures defined by the canonical 3-form.

Covers: type decomposition of 2- and 3-forms, recovery of the intrinsic
derivative components (scaling function, codifferential vector, traceless
3-form part, and the 2-form obstruction), the characteristic torsion, the
contraction formula for its Ricci tensor, and the algebraic identity packs
for the nearly-parallel and Ricci-flat special cases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DegreeError, NoSkewConnection, StructureError
from .forms import (Form, all_blades, contract, hodge, inner, interior,
                    sigma_t, so_action, wedge)
from .liegeom import (LieModel, codiff, curvature, d_form, levi_civita,
                      nabla_form, tt_contraction, with_torsion)
from .linalg import Tensor

Q = Fraction


def canonical_omega3() -> Form:
    f = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    return (f(1, 2, 7) + f(1, 3, 5) - f(1, 4, 6) - f(2, 3, 6) - f(2, 4, 5)
            + f(3, 4, 7) + f(5, 6, 7))


class G2Structure:
    """A 7-dimensional model carrying the canonical positive 3-form (an adapted frame)."""

    kind = "g2"

    def __init__(self, model: LieModel):
        if model.n != 7:
            raise DegreeError("these structures live on 7-dimensional frames")
        self.model = model
        self.omega3 = canonical_omega3()
        self.star_omega3 = hodge(self.omega3)

    @cached_property
    def torsion_class(self) -> "TorsionClass":
        """The intrinsic-derivative components, classified once per structure."""
        return classify(self)

    def characteristic_torsion(self) -> Form:
        return torsion_form(self)


@lru_cache(maxsize=None)
def _projectors(degree: int):
    """The orthogonal projections onto the 7-part of 2-forms, or onto the scalar and
    7-parts of 3-forms, as exact matrices sum_k v_k v_k^T / |v_k|^2 over the
    e_i -| w3, or over w3 and over the e_i -| *w3."""
    w3 = canonical_omega3()
    spans = ([[contract(w3, i) for i in range(1, 8)]] if degree == 2
             else [[w3], [contract(hodge(w3), i) for i in range(1, 8)]])
    outer = [[Tensor.einsum("i,j->ij", Tensor(v.num, v.den), Tensor(v.num, v.den))
              * (1 / inner(v, v)) for v in span] for span in spans]
    return [sum(parts[1:], parts[0]) for parts in outer]


def _parts(a: Form):
    """The projections of `a` by `_projectors`."""
    images = (Tensor.einsum("ij,j->i", p, Tensor(a.num, a.den))
              for p in _projectors(a.degree))
    return [Form.of_numerators(7, a.degree, x.num.tolist(), x.den) for x in images]


def project2(a: Form):
    """Split a 2-form into its 7- and 14-dimensional eigenparts.

    part7 satisfies *(w3 ^ part7) = 2 part7, part14 satisfies
    *(w3 ^ part14) = -part14.
    """
    if a.degree != 2 or a.n != 7:
        raise DegreeError("project2 expects a 2-form on the 7-frame")
    part7, = _parts(a)
    return part7, a - part7


def project3(a: Form):
    """Split a 3-form into scalar, vector and traceless parts (1 + 7 + 27)."""
    if a.degree != 3 or a.n != 7:
        raise DegreeError("project3 expects a 3-form on the 7-frame")
    part1, part7 = _parts(a)
    return part1, part7, a - part1 - part7


def pr_m(a: Form) -> Form:
    """Orthogonal projection of a 2-form onto the span of the e_i -| w3."""
    return project2(a)[0]


def pr_g2(a: Form) -> Form:
    return project2(a)[1]


class TorsionClass:
    """Intrinsic-derivative components of a structure: lambda, beta, gamma27, obstruction."""

    def __init__(self, lam, beta, gamma27, obstruction14):
        self.lam = lam                  # Fraction
        self.beta = beta                # coefficient list (vector)
        self.gamma27 = gamma27          # Form, degree 3, traceless part
        self.obstruction14 = obstruction14  # Form, degree 2; zero iff connection exists

    def admits_connection(self):
        return self.obstruction14.is_zero()

    def as_dict(self):
        from .modelfile import form_to_pairs
        return {"lambda": str(self.lam),
                "beta": [str(x) for x in self.beta],
                "gamma27": form_to_pairs(self.gamma27),
                "obstruction14": form_to_pairs(self.obstruction14)}


def classify(s: G2Structure) -> TorsionClass:
    """Recover (lambda, beta, gamma27, obstruction) from the Riemannian derivative.

    lambda and beta come from the inner-product formulas
    lambda = -(1/7)(d w3, *w3) and delta(w3) = -(beta -| w3); gamma27 from
    gamma27 = *d w3 + lambda w3 - (3/4) *(beta ^ w3).  The obstruction is the
    14-part of the skew component of the derivative's coefficient matrix.
    """
    model = s.model
    w3, sw3 = s.omega3, s.star_omega3
    dw3 = d_form(model, w3)
    lam = Q(-1, 7) * inner(dw3, sw3)
    delta_w3 = codiff(model, w3)
    beta = [Q(-1, 3) * inner(delta_w3, contract(w3, i)) for i in range(1, 8)]
    beta_form = Form.from_vector(7, beta)
    gamma27 = hodge(dw3) + w3.scale(lam) - hodge(wedge(beta_form, w3)).scale(Q(3, 4))

    # coefficient matrix gamma: nabla^g_{e_i} w3 = -3 (Z_i -| *w3), gamma[i][j] = (Z_i)_j
    lc = levi_civita(model)
    gamma = []
    for i in range(1, 8):
        nab = nabla_form(lc, i, w3)
        z = [Q(-1, 12) * inner(nab, contract(sw3, j)) for j in range(1, 8)]
        # exactness guard: the derivative must lie in the 7-dimensional orbit part
        if interior(Form.from_vector(7, z), sw3).scale(-3) != nab:
            raise StructureError("derivative of the 3-form left the vector-type orbit")
        gamma.append(z)

    skew = Form.of_rationals(7, 2, [gamma[i - 1][j - 1] - gamma[j - 1][i - 1]
                                    for i, j in all_blades(7, 2)])
    obstruction14 = project2(skew)[1]
    return TorsionClass(lam, beta, gamma27, obstruction14)


def torsion_form(s: G2Structure) -> Form:
    """Torsion of the unique compatible connection with skew torsion.

    T = (1/6)(d w3, *w3) w3 - *d w3 + *(beta ^ w3); raises NoSkewConnection
    when the 2-form obstruction component is present.
    """
    cls = s.torsion_class
    if not cls.admits_connection():
        raise NoSkewConnection("two-form-component",
                               "the structure has a 2-form-type derivative component")
    model = s.model
    w3 = s.omega3
    dw3 = d_form(model, w3)
    beta_form = Form.from_vector(7, cls.beta)
    t = (w3.scale(Q(1, 6) * inner(dw3, s.star_omega3)) - hodge(dw3)
         + hodge(wedge(beta_form, w3)))
    return t


def ricci_via_dt(s: G2Structure, t: Form):
    """Ricci tensor of the characteristic connection from the contraction formula.

    Ric(e_i) = (1/2) sum_j (e_i -| dT + 2 nabla_{e_i} T, e_j -| *w3) e_j.
    """
    model = s.model
    sw3 = s.star_omega3
    conn = with_torsion(model, t)
    dt = d_form(model, t)
    table = []
    for i in range(1, 8):
        row_form = contract(dt, i) + nabla_form(conn, i, t).scale(2)
        table.append([Q(1, 2) * inner(row_form, contract(sw3, j))
                      for j in range(1, 8)])
    return table


def torsion_component_identity(s: G2Structure) -> bool:
    """T = -(lambda/6) w3 - gamma27 - (1/4)(beta -| *w3) as an exact identity."""
    cls = s.torsion_class
    t = torsion_form(s)
    beta_form = Form.from_vector(7, cls.beta)
    rhs = (s.omega3.scale(-cls.lam / 6) - cls.gamma27
           - interior(beta_form, s.star_omega3).scale(Q(1, 4)))
    return t == rhs


def dw3_decomposition_identity(s: G2Structure) -> bool:
    """d w3 = -lambda (*w3) + *gamma27 + (3/4)(beta ^ w3) on the model."""
    cls = s.torsion_class
    beta_form = Form.from_vector(7, cls.beta)
    lhs = d_form(s.model, s.omega3)
    rhs = (s.star_omega3.scale(-cls.lam) + hodge(cls.gamma27)
           + wedge(beta_form, s.omega3).scale(Q(3, 4)))
    return lhs == rhs


def codiff_identity(s: G2Structure) -> bool:
    """delta(w3) = -(beta -| w3)."""
    cls = s.torsion_class
    beta_form = Form.from_vector(7, cls.beta)
    return codiff(s.model, s.omega3) == -interior(beta_form, s.omega3)


# ---------------------------------------------------------------------------
# universal contraction constants of the canonical 3-form
# ---------------------------------------------------------------------------

def spanning_27() -> list:
    """A spanning set of the 27-dimensional 3-form type (from projected blades)."""
    out = []
    for blade in all_blades(7, 3):
        part27 = project3(Form.blade(7, *blade))[2]
        if not part27.is_zero():
            out.append(part27)
    return out


def derivation_constant_identities():
    """Residuals of the displayed contraction constants; all must be zero.

    Keys name the identity; values are True/False (exact equality of forms).
    """
    w3 = canonical_omega3()
    sw3 = hodge(w3)
    out = {}

    ci_w = [contract(w3, i) for i in range(1, 8)]
    ci_sw = [contract(sw3, i) for i in range(1, 8)]

    def contraction_sum(part, build):
        """sum_{i,j} <part(j), e_i -| w3> build(j, e_i -| *w3)."""
        total = Form.zero(7, 0)
        for j in range(1, 8):
            part_j = part(j)
            for cw, csw in zip(ci_w, ci_sw):
                coeff = inner(part_j, cw)
                if coeff:
                    total = total + build(j, csw).scale(coeff)
        return total

    def beta_sum(beta_form, build):
        return contraction_sum(lambda j: wedge(beta_form, Form.basis_vector(7, j)), build)

    def gamma_sum(gamma, build):
        return contraction_sum(lambda j: contract(gamma, j), build)

    inter = lambda j, f: contract(f, j)
    wedge_j = lambda j, f: wedge(Form.basis_vector(7, j), f)

    ok_a = ok_d = ok_e = ok_f = True
    for b in range(1, 8):
        beta_form = Form.basis_vector(7, b)
        lhs = beta_sum(beta_form, inter)
        ok_a = ok_a and lhs == contract(w3, b).scale(-4)
        lhs_d = beta_sum(beta_form, wedge_j)
        ok_d = ok_d and lhs_d == wedge(beta_form, w3).scale(-3)
        ok_e = ok_e and hodge(wedge(beta_form, w3)) == -contract(sw3, b)
        ok_f = ok_f and tbeta_form(beta_form) == contract(sw3, b).scale(Q(-1, 4))
    out["beta-contraction-is-minus-4"] = ok_a
    out["beta-wedge-is-minus-3"] = ok_d
    out["star-beta-wedge"] = ok_e
    out["t-beta-is-quarter-contraction"] = ok_f

    ok_b = ok_c = True
    for gamma in spanning_27():
        ok_b = ok_b and gamma_sum(gamma, inter).is_zero()
        ok_c = ok_c and gamma_sum(gamma, wedge_j) == hodge(gamma).scale(-2)
    out["gamma27-contraction-vanishes"] = ok_b
    out["gamma27-wedge-is-minus-2-star"] = ok_c

    ok_rho = all(so_action(contract(w3, z), w3) == contract(sw3, z).scale(-3)
                 for z in range(1, 8))
    out["two-form-action-constant-minus-3"] = ok_rho

    ok_g1 = all(inner(contract(w3, i), contract(w3, j)) == (3 if i == j else 0)
                for i in range(1, 8) for j in range(1, 8))
    ok_g2 = all(inner(contract(sw3, i), contract(sw3, j)) == (4 if i == j else 0)
                for i in range(1, 8) for j in range(1, 8))
    out["gram-3-delta"] = ok_g1
    out["gram-4-delta"] = ok_g2
    return out


def tbeta_form(beta_form: Form) -> Form:
    """The vector-type torsion contribution, from its two-term definition.

    T_beta(X,Y,Z) = (3/8)(pr_m(beta^Y)(X,Z) - pr_m(beta^X)(Y,Z))
                    + (1/8)(g(beta,Y) g(X,Z) - g(beta,X) g(Y,Z));
    total skewness of the table is verified, not assumed.
    """
    ein = Tensor.einsum
    beta, g = Tensor.of_form(beta_form), Tensor.identity(7)
    # prm[x, y, z] = pr_m(beta ^ e_x)(e_y, e_z)
    prm = Tensor.of_forms([pr_m(wedge(beta_form, Form.basis_vector(7, x)))
                           for x in range(1, 8)])
    table = ((ein("yxz->xyz", prm) - prm) * Q(3, 8)
             + (ein("y,xz->xyz", beta, g) - ein("x,yz->xyz", beta, g)) * Q(1, 8))
    if any(ein(spec, table) != -table for spec in ("yxz->xyz", "xzy->xyz", "zyx->xyz")):
        raise StructureError("vector-type torsion table is not skew")
    return table.to_form()


# ---------------------------------------------------------------------------
# nearly-parallel identity pack
# ---------------------------------------------------------------------------

def nearly_parallel_identities(lam) -> dict:
    """Pointwise identities of the constant-scaling class at parameter lambda.

    The structure equations d w3 = -lambda *w3, T = -(lambda/6) w3,
    dT = (lambda^2/6) *w3 are inputs; everything else is verified exactly.
    """
    lam = Q(lam)
    w3 = canonical_omega3()
    sw3 = hodge(w3)
    t = w3.scale(-lam / 6)
    dt = sw3.scale(lam * lam / 6)
    ttc = tt_contraction(t)
    out = {}
    out["quarter-tt-contraction"] = all(
        Q(1, 4) * ttc[i][j] == (Q(3, 72) * lam * lam if i == j else 0)
        for i in range(7) for j in range(7))
    out["half-dt-contraction"] = all(
        Q(1, 2) * inner(contract(dt, i + 1), contract(sw3, j + 1))
        == (Q(24, 72) * lam * lam if i == j else 0)
        for i in range(7) for j in range(7))
    ric_g = [[Q(27, 72) * lam * lam if i == j else Q(0) for j in range(7)]
             for i in range(7)]
    # string-equation balance: Ric^g - TT/4 - (dT contraction)/2 = 0 with
    # parallel coclosed torsion
    out["ricci-balance"] = all(
        ric_g[i][j] - Q(1, 4) * ttc[i][j]
        - Q(1, 2) * inner(contract(dt, i + 1), contract(sw3, j + 1)) == 0
        for i in range(7) for j in range(7))
    tstar = t.scale(3)
    ttc_star = tt_contraction(tstar)
    out["string-equation-with-3t"] = all(
        ric_g[i][j] - Q(1, 4) * ttc_star[i][j] == 0
        for i in range(7) for j in range(7))
    out["two-sigma-equals-dt"] = sigma_t(t).scale(2) == dt
    return out


def ricci_flat_conditions(s: G2Structure, t: Form) -> dict:
    """The equivalent vanishing conditions for the characteristic Ricci tensor.

    Reports each condition separately plus their mutual consistency; for the
    coclosed class they must all hold or all fail together.
    """
    model = s.model
    cls = s.torsion_class
    if any(cls.beta):
        raise StructureError("conditions stated for coclosed structures only")
    conn = with_torsion(model, t)
    table = curvature(conn)
    dt = d_form(model, t)
    delta_t = codiff(model, t)
    dw3 = d_form(model, s.omega3)
    cubic = d_form(model, hodge(dw3)) + dw3.scale(Q(7, 6) * cls.lam)
    wedge_id = wedge(hodge(dw3) + s.omega3.scale(Q(7, 6) * cls.lam), dw3)
    conditions = {
        "ricci-vanishes": all(x == 0 for row in table.ric for x in row),
        "torsion-closed": dt.is_zero(),
        "torsion-coclosed": delta_t.is_zero(),
        "cubic-equation": cubic.is_zero(),
    }
    conditions["consistent"] = (conditions["ricci-vanishes"]
                                == (conditions["torsion-closed"]
                                    and conditions["torsion-coclosed"])
                                == conditions["cubic-equation"])
    conditions["wedge-identity-when-flat"] = (not conditions["ricci-vanishes"]) \
        or wedge_id.is_zero()
    return conditions
