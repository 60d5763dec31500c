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
from .forms import Form, all_blades, contract, hodge, inner, interior, sigma_t, wedge
from .liegeom import (ConnectionData, LieModel, SkewTorsionStructure, codiff, d_form,
                      tt_contraction)
from .linalg import Tensor, slot_sum

Q = Fraction


@lru_cache(maxsize=None)
def canonical_omega3() -> Form:
    """The canonical 3-form, built once and shared: its numerators are read-only."""
    f = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    w3 = (f(1, 2, 7) + f(1, 3, 5) - f(1, 4, 6) - f(2, 3, 6) - f(2, 4, 5)
          + f(3, 4, 7) + f(5, 6, 7))
    w3.num.flags.writeable = False
    return w3


@lru_cache(maxsize=None)
def _star_omega3() -> Form:
    """*w3 of the canonical 3-form, built once and shared: its numerators are read-only."""
    sw3 = hodge(canonical_omega3())
    sw3.num.flags.writeable = False
    return sw3


class G2Structure(SkewTorsionStructure):
    """A 7-dimensional model carrying the canonical positive 3-form (an adapted frame)."""

    kind = "g2"

    def __init__(self, model: LieModel):
        if model.n != 7:
            raise DegreeError("these structures live on 7-dimensional frames")
        self.model = model
        self.omega3 = canonical_omega3()
        self.star_omega3 = _star_omega3()

    @cached_property
    def d_omega3(self) -> Form:
        """d w3 on the model, computed once per structure."""
        return d_form(self.model, self.omega3)

    @cached_property
    def torsion_class(self) -> "TorsionClass":
        """The intrinsic-derivative components, classified once per structure."""
        return classify(self)

    def _torsion(self) -> Form:
        return torsion_form(self)


@lru_cache(maxsize=None)
def _projectors(degree: int):
    """The orthogonal projections onto the 7-part of 2-forms, or onto the scalar and
    7-parts of 3-forms, as exact matrices sum_k v_k v_k^T / |v_k|^2 over the
    e_i -| w3, or over w3 and over the e_i -| *w3."""
    w3 = canonical_omega3()
    spans = ([[contract(w3, i) for i in range(1, 8)]] if degree == 2
             else [[w3], [contract(_star_omega3(), i) for i in range(1, 8)]])
    outer = [[Tensor.einsum("i,j->ij", Tensor(v.num, v.den), Tensor(v.num, v.den))
              * (1 / inner(v, v)) for v in span] for span in spans]
    return [sum(parts[1:], parts[0]) for parts in outer]


def _parts(a: Form):
    """The projections of `a` by `_projectors`."""
    images = (Tensor.einsum("ij,j->i", p, Tensor(a.num, a.den, a.bound))
              for p in _projectors(a.degree))
    return [Form.of_numerators(7, a.degree, x.num, x.den, x.bound) for x in images]


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
        self.beta = beta                # Form, degree 1
        self.gamma27 = gamma27          # Form, degree 3, traceless part
        self.obstruction14 = obstruction14  # Form, degree 2; zero iff connection exists

    def admits_connection(self):
        return self.obstruction14.is_zero()

    def as_dict(self):
        from .modelfile import form_to_pairs
        return {"lambda": str(self.lam),
                "beta": [str(x) for x in self.beta.vector_components()],
                "gamma27": form_to_pairs(self.gamma27),
                "obstruction14": form_to_pairs(self.obstruction14)}


@lru_cache(maxsize=None)
def _dense():
    """The dense tensors W[i, j, k] of w3 and S[i, j, k, l] of *w3."""
    w3 = canonical_omega3()
    return Tensor.of_form(w3), Tensor.of_form(_star_omega3())


def classify(s: G2Structure) -> TorsionClass:
    """Recover (lambda, beta, gamma27, obstruction) from the Riemannian derivative.

    With N[i] = nabla^g_{e_i} w3: lambda = -(1/7)(d w3, *w3); beta comes from
    delta(w3) = -(beta -| w3), delta(w3) = -N[i, i] summed over i, as
    beta_i = -(1/6) delta(w3)_jk W_ijk; gamma27 = *d w3 + lambda w3 - (3/4) *(beta ^ w3).
    The coefficient matrix gamma of N[i] = -3 (Z_i -| *w3) is
    gamma[i, j] = (Z_i)_j = -(1/72) N_iabc S_jabc, and the obstruction is
    the 14-part of its skew component.
    """
    ein = Tensor.einsum
    w3 = s.omega3
    big_w, big_s = _dense()
    dw3 = s.d_omega3
    lam = Q(-1, 7) * inner(dw3, s.star_omega3)
    nab = s.model.levi_civita.nabla(big_w)
    beta = (ein("jjab,iab->i", nab, big_w) * Q(1, 6)).to_form()
    gamma27 = hodge(dw3) + w3 * lam - hodge(wedge(beta, w3)) * Q(3, 4)

    gamma = ein("iabc,jabc->ij", nab, big_s) * Q(-1, 72)
    # exactness guard: the derivative must lie in the 7-dimensional orbit part
    if ein("ij,jabc->iabc", gamma * -3, big_s) != nab:
        raise StructureError("derivative of the 3-form left the vector-type orbit")
    obstruction14 = project2((gamma - ein("ij->ji", gamma)).to_form())[1]
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
    w3 = s.omega3
    dw3 = s.d_omega3
    return (w3 * (Q(1, 6) * inner(dw3, s.star_omega3)) - hodge(dw3)
            + hodge(wedge(cls.beta, w3)))


def ricci_via_dt(conn: ConnectionData) -> Tensor:
    """Ricci tensor of a 7-dimensional torsion connection from the contraction formula.

    Ric(e_i) = (1/2) sum_j (e_i -| dT + 2 nabla_{e_i} T, e_j -| *w3) e_j,
    that is (1/12) (dT + 2 nabla T)_iabc S_jabc.
    """
    dt = Tensor.of_form(conn.dt)
    return Tensor.einsum("iabc,jabc->ij", dt + conn.nabla_t * 2, _dense()[1]) * Q(1, 12)


def torsion_component_identity(s: G2Structure) -> bool:
    """T = -(lambda/6) w3 - gamma27 - (1/4)(beta -| *w3) as an exact identity."""
    cls = s.torsion_class
    rhs = (s.omega3 * (-cls.lam / 6) - cls.gamma27
           - interior(cls.beta, s.star_omega3) * Q(1, 4))
    return s.torsion == rhs


def dw3_decomposition_identity(s: G2Structure) -> bool:
    """d w3 = -lambda (*w3) + *gamma27 + (3/4)(beta ^ w3) on the model."""
    cls = s.torsion_class
    rhs = (s.star_omega3 * -cls.lam + hodge(cls.gamma27)
           + wedge(cls.beta, s.omega3) * Q(3, 4))
    return s.d_omega3 == rhs


def codiff_identity(s: G2Structure) -> bool:
    """delta(w3) = -(beta -| w3)."""
    return codiff(s.model.levi_civita, s.omega3) == -interior(s.torsion_class.beta, s.omega3)


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


def _wedge_sums(c: Tensor) -> list:
    """The 4-forms sum_ij c[k, i, j] e_j ^ (e_i -| *w3), one per k."""
    star = [contract(_star_omega3(), i) for i in range(1, 8)]
    return [sum((wedge(row.to_form(), s) for row, s in zip(ck, star)), Form.zero(7, 4))
            for ck in c]


def derivation_constant_identities():
    """Residuals of the displayed contraction constants; all must be zero.

    Keys name the identity; values are True/False (exact equality of tensors
    or forms).  A family of vector or traceless types enters as its
    coefficients c[k, i, j] = (part_k(e_j), e_i -| w3), with part_k(e_j) =
    beta_k ^ e_j or e_j -| gamma_k, and is summed against e_i -| *w3 by
    contraction, sum_ij c e_j -| (e_i -| *w3), and by wedge,
    sum_ij c e_j ^ (e_i -| *w3).
    """
    ein = Tensor.einsum
    w3 = canonical_omega3()
    big_w, big_s = _dense()
    unit = Tensor.identity(7)
    out = {}

    # beta = e_b for all seven b at once: (e_b ^ e_j, e_i -| w3) = W[i, b, j]
    c_beta = ein("ibj->bij", big_w)
    vectors = [Form.blade(7, b) for b in range(1, 8)]
    out["beta-contraction-is-minus-4"] = ein("kij,ijxy->kxy", c_beta, big_s) == big_w * -4
    out["beta-wedge-is-minus-3"] = _wedge_sums(c_beta) == [wedge(v, w3) * -3
                                                           for v in vectors]
    out["star-beta-wedge"] = (Tensor.of_forms([hodge(wedge(v, w3)) for v in vectors])
                              == -big_s)
    out["t-beta-is-quarter-contraction"] = (Tensor.of_forms([tbeta_form(v) for v in vectors])
                                            == big_s * Q(-1, 4))

    span = spanning_27()
    c_gamma = ein("kjab,iab->kij", Tensor.of_forms(span), big_w) * Q(1, 2)
    out["gamma27-contraction-vanishes"] = ein("kij,ijxy->kxy", c_gamma, big_s).is_zero()
    out["gamma27-wedge-is-minus-2-star"] = _wedge_sums(c_gamma) == [hodge(g) * -2
                                                                    for g in span]

    out["two-form-action-constant-minus-3"] = (
        slot_sum(big_w, big_w, 3) == big_s * -3)
    out["gram-3-delta"] = ein("iab,jab->ij", big_w, big_w) * Q(1, 2) == unit * 3
    out["gram-4-delta"] = ein("iabc,jabc->ij", big_s, big_s) * Q(1, 6) == unit * 4
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
    prm = Tensor.of_forms([pr_m(wedge(beta_form, Form.blade(7, x)))
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
    t = w3 * (-lam / 6)
    dt = _star_omega3() * (lam * lam / 6)
    unit = Tensor.identity(7)
    quarter_tt = tt_contraction(t) * Q(1, 4)
    # (1/2)(e_i -| dT, e_j -| *w3)
    half_dt = Tensor.einsum("iabc,jabc->ij", Tensor.of_form(dt), _dense()[1]) * Q(1, 12)
    ric_g = unit * (Q(27, 72) * lam * lam)
    out = {}
    out["quarter-tt-contraction"] = quarter_tt == unit * (Q(3, 72) * lam * lam)
    out["half-dt-contraction"] = half_dt == unit * (Q(24, 72) * lam * lam)
    # string-equation balance: Ric^g - TT/4 - (dT contraction)/2 = 0 with
    # parallel coclosed torsion
    out["ricci-balance"] = (ric_g - quarter_tt - half_dt).is_zero()
    out["string-equation-with-3t"] = ric_g == tt_contraction(t * 3) * Q(1, 4)
    out["two-sigma-equals-dt"] = sigma_t(t) * 2 == dt
    return out


def ricci_flat_conditions(s: G2Structure) -> dict:
    """The equivalent vanishing conditions for the characteristic Ricci tensor.

    Reports each condition separately plus their mutual consistency; for the
    coclosed class they must all hold or all fail together.
    """
    model = s.model
    cls = s.torsion_class
    if not cls.beta.is_zero():
        raise StructureError("conditions stated for coclosed structures only")
    conn = s.connection
    dw3 = s.d_omega3
    cubic = d_form(model, hodge(dw3)) + dw3 * (Q(7, 6) * cls.lam)
    wedge_id = wedge(hodge(dw3) + s.omega3 * (Q(7, 6) * cls.lam), dw3)
    conditions = {
        "ricci-vanishes": conn.curvature.ric.is_zero(),
        "torsion-closed": conn.dt.is_zero(),
        "torsion-coclosed": conn.delta_t.is_zero(),
        "cubic-equation": cubic.is_zero(),
    }
    conditions["consistent"] = (conditions["ricci-vanishes"]
                                == (conditions["torsion-closed"]
                                    and conditions["torsion-coclosed"])
                                == conditions["cubic-equation"])
    conditions["wedge-identity-when-flat"] = (not conditions["ricci-vanishes"]) \
        or wedge_id.is_zero()
    return conditions
