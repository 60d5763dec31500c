from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

import pytest

from skewtor import acskit
from skewtor.acskit import (AlmostContact, AlmostHermitian,
                            contact_general_identities, contact_torsion,
                            half_module_endomorphism_spectrum,
                            hermitian_torsion, holonomy_reduction_residual,
                            nearly_kaehler_identities, nijenhuis,
                            nijenhuis_gradient_identities,
                            nijenhuis_xi_identities, pullback3,
                            ricci_form_package, sasakian_ricci_package,
                            structure_parallel_residuals, tanno_deform,
                            _uniqueness_response)
from skewtor.errors import NoSkewConnection, StructureError
from skewtor.forms import Form, sigma_t, wedge
from skewtor.liegeom import LieModel, codiff, curvature, d_form, levi_civita, with_torsion
from skewtor.linalg import Tensor
from skewtor.modelfile import load_file
from skewtor.registry import registry
from structure_reference import standard_j_matrix, standard_phi_matrix


def contact(name):
    s = registry()[name].structure
    assert isinstance(s, AlmostContact)
    return s


def hermitian(name):
    s = registry()[name].structure
    assert isinstance(s, AlmostHermitian)
    return s


def fixture(name):
    """The structure of the test model file tests/models/<name>.json, read by the loader."""
    return load_file(str(Path(__file__).parent / "models" / f"{name}.json")).structure


def test_killing_test_from_brackets_matches_the_connection():
    # xi_is_killing reads ad_xi; it agrees with the skewness of K = nabla^g xi on
    # every registry structure and on a homothety model, whose xi is not Killing
    # while its Nijenhuis tensor is skew, so the existence test rejects it for xi
    homothety = LieModel(5, [Form(5, 2, {(i, 5): Q(1)}) for i in range(1, 5)]
                         + [Form.zero(5, 2)], name="homothety5")
    h = AlmostContact(homothety, 5, standard_phi_matrix(5))
    structures = [e.structure for e in registry().values()
                  if isinstance(e.structure, AlmostContact)] + [h]
    for s in structures:
        k = s.killing_matrix()
        assert s.xi_is_killing() == (k == -Tensor.einsum("ij->ji", k)), s.model.name
    assert h.nijenhuis.totally_skew and not h.xi_is_killing()
    with pytest.raises(NoSkewConnection) as err:
        h.torsion
    assert err.value.reason == "xi-not-killing"


def test_structure_invariants_enforced():
    e = registry()["heis5"]
    bad_phi = standard_phi_matrix(5)
    bad_phi[0][1] = Q(2)
    with pytest.raises(StructureError):
        AlmostContact(e.model, 5, bad_phi)
    # eta is the coframe dual of the Reeb vector, so an index outside the frame has none
    for xi_index in (0, 6):
        with pytest.raises(StructureError, match="outside 1..5"):
            AlmostContact(e.model, xi_index, standard_phi_matrix(5))
    assert e.structure.eta == Form.blade(5, 5)
    bad_j = standard_j_matrix(6)
    bad_j[0][1] = Q(0)
    with pytest.raises(StructureError):
        AlmostHermitian(registry()["abelian6"].model, bad_j)


def test_sasakian_fixture():
    s = contact("heis5")
    assert s.is_contact_metric()
    assert s.xi_is_killing()
    assert nijenhuis(s).is_zero()
    t = contact_torsion(s)
    assert t == wedge(s.eta, s.d_eta)
    assert structure_parallel_residuals(s) == 0
    conn = with_torsion(s.model, t)
    assert conn.nabla(Tensor.of_form(t)).is_zero()
    assert codiff(levi_civita(s.model), t).is_zero()
    assert sigma_t(t) * 2 == d_form(s.model, t) == \
        wedge(s.d_eta, s.d_eta)
    assert curvature(conn).ric_diag() == [Q(-4)] * 4 + [Q(0)]
    assert curvature(levi_civita(s.model)).ric_diag() == [Q(-2)] * 4 + [Q(4)]


def test_general_identities_on_all_contact_models():
    for name in ("heis5", "heis3x2", "twist5", "abelian5", "cm5twist",
                 "su2su2xr"):
        s = contact(name)
        gi = contact_general_identities(s)
        assert all(v == 0 for v in gi.values()), (name, gi)
        pi = nijenhuis_gradient_identities(s)
        assert all(v == 0 for v in pi.values()), (name, pi)


def test_closed_fundamental_form_forces_normality():
    for name in ("heis5", "heis3x2", "abelian5"):
        s = contact(name)
        if d_form(s.model, s.fundamental_form()).is_zero():
            assert nijenhuis(s).is_zero()


def test_contact_metric_branch():
    # contact metric + admissible = Sasakian; the twisted fixture must fail
    s = contact("cm5twist")
    assert s.is_contact_metric()
    assert not nijenhuis(s).totally_skew
    with pytest.raises(NoSkewConnection) as err:
        contact_torsion(s)
    assert err.value.reason == "nijenhuis-not-skew"


def test_normal_branch_torsion_formula():
    for name in ("heis3x2", "twist5"):
        s = contact(name)
        assert nijenhuis(s).is_zero()
        assert s.xi_is_killing()
        assert not s.is_contact_metric()
        t = contact_torsion(s)
        df = d_form(s.model, s.fundamental_form())
        want = wedge(s.eta, s.d_eta) - pullback3(df, s.phi)
        assert t == want
        assert structure_parallel_residuals(s) == 0
    assert not (-pullback3(d_form(contact("twist5").model,
                                  contact("twist5").fundamental_form()),
                           contact("twist5").phi)).is_zero()


def test_skew_nonzero_nijenhuis_contact_fixture():
    s = contact("su2su2xr")
    nij = nijenhuis(s)
    assert nij.totally_skew and not nij.is_zero()
    assert s.xi_is_killing()
    t = contact_torsion(s)
    assert structure_parallel_residuals(s) == 0
    lem = nijenhuis_xi_identities(s)
    assert lem["chain-residual"] == 0 and lem["reeb-geodesic"] == 0


def test_torsion_uniqueness_certificates():
    from skewtor.acskit import torsion_uniqueness_certificate
    for name in ("heis5", "heis3x2", "twist5", "su2su2xr"):
        assert torsion_uniqueness_certificate(contact(name)), name
    for name in ("abelian6", "solv6", "su2su2"):
        assert torsion_uniqueness_certificate(hermitian(name)), name


def test_torsion_uniqueness_certificate_refuses_a_rank_deficient_response(monkeypatch):
    # a response whose last column repeats its first has a kernel
    response = acskit._uniqueness_response

    def planted(s):
        m = response(s)
        num = m.num.copy()
        num[:, -1] = num[:, 0]
        return Tensor(num, m.den)

    monkeypatch.setattr(acskit, "_uniqueness_response", planted)
    assert not acskit.torsion_uniqueness_certificate(contact("heis5"))
    assert not acskit.torsion_uniqueness_certificate(hermitian("solv6"))


def _response_by_loops(s):
    """Reference response matrix: the per-entry Fraction loops over dT = e_b."""
    n = s.model.n
    phi = s.phi
    eta = s.eta.vector_components() if isinstance(s, AlmostContact) else None
    columns = []
    for b in combinations(range(1, n + 1), 3):
        dt = Form(n, 3, {b: 1})
        rows = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows.append(sum(phi[l][j] * dt.eval(i + 1, l + 1, k + 1)
                                    - dt.eval(i + 1, j + 1, l + 1) * phi[k][l]
                                    for l in range(n)) / 2)
            if eta is not None:
                # (nabla'_i eta)(e_j) = -(1/2) sum_l dT(i, j, l) eta[l], as nabla_{e_i} e^j =
                # sum_k omega_ijk e^k; the sign of a row leaves the certificate's M^T M as it is
                for j in range(n):
                    rows.append(-sum(dt.eval(i + 1, j + 1, l + 1) * eta[l]
                                     for l in range(n)) / 2)
        columns.append(rows)
    return [list(row) for row in zip(*columns)]


def _rotated_contact(name, a=2, b=1):
    """A contact fixture with phi conjugated by the rational rotation
    ((a^2 - b^2) / c, 2ab / c), c = a^2 + b^2, in e1, e3: (3/5, 4/5) by default."""
    s = contact(name)
    n, c = s.n, a * a + b * b
    cos, sin = Q(a * a - b * b, c), Q(2 * a * b, c)
    r = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    r[0][0], r[0][2], r[2][0], r[2][2] = cos, -sin, sin, cos
    phi = [[sum(r[i][a] * s.phi[a][b] * r[j][b] for a in range(n) for b in range(n))
            for j in range(n)] for i in range(n)]
    return AlmostContact(s.model, s.xi_index, phi)


@pytest.mark.parametrize("make, name, scale", [
    (contact, "heis5", 2), (_rotated_contact, "abelian5", 10), (hermitian, "solv6", 2)])
def test_uniqueness_response_matches_fraction_loops(make, name, scale):
    # the response is the loop matrix times 2, over L = scale / 2, which clears
    # phi and eta: its numerators are the loop matrix times 2 L
    s = make(name)
    response = _uniqueness_response(s)
    assert 2 * response.den == scale
    ints = response.num.tolist()
    assert [[Q(x, scale) for x in row] for row in ints] == _response_by_loops(s)


def test_uniqueness_response_with_a_denominator_past_int64():
    # phi's denominator 2^65 + 2^33 + 1 is past 2^63, and so are its numerators
    s = _rotated_contact("heis5", 2 ** 32 + 1, 2 ** 32)
    assert s.phi.den >= 2 ** 63 and s.phi.num.dtype == object
    response = _uniqueness_response(s)
    assert response.den == s.phi.den
    ints = response.num.tolist()
    assert [[Q(x, 2 * s.phi.den) for x in row] for row in ints] == _response_by_loops(s)
    assert acskit.torsion_uniqueness_certificate(s) == acskit.torsion_uniqueness_certificate(
        contact("heis5"))


def test_xi_identities_on_admissible_models():
    for name in ("heis5", "heis3x2", "twist5", "abelian5"):
        lem = nijenhuis_xi_identities(contact(name))
        assert lem["chain-residual"] == 0
        assert lem["reeb-geodesic"] == 0


def test_ricci_form_package_sasakian_values():
    s = contact("heis5")
    t = contact_torsion(s)
    rho, one_form, lam = ricci_form_package(s)
    f = s.fundamental_form()
    assert all(lam[x][y] == -16 * f.eval(x + 1, y + 1)
               for x in range(5) for y in range(5))
    hol = holonomy_reduction_residual(s)
    assert hol["identity-residual"] == 0
    # the parallel spinors here are the kernel type, not the extreme type the
    # trace-form criterion detects, so rho does not vanish on this model
    assert not hol["rho-vanishes"]


def test_prop91_residual_zero_on_contact_models():
    for name in ("heis5", "heis3x2", "twist5", "abelian5", "su2su2xr"):
        s = contact(name)
        t = contact_torsion(s)
        hol = holonomy_reduction_residual(s)
        assert hol["identity-residual"] == 0, name


def test_sasakian_ricci_package():
    pack = sasakian_ricci_package(contact("heis5"))
    assert pack["lambda-is-16(1-k)F"]
    assert pack["one-form-parallel"]
    assert pack["tt-contraction"]
    assert pack["conditions-equivalent"]
    assert pack["integrability-scale"] == 4
    assert pack["matches-4(k-1)"]
    # this model carries the kernel-type spinors, not the rank-one type
    assert not pack["ricci-condition-holds"]
    assert not pack["riemannian-condition-holds"]


def test_tanno_deformation():
    s = contact("heis5")
    same = tanno_deform(s, 1)
    assert same.model.d_coframe == s.model.d_coframe
    deformed = tanno_deform(s, Q(4, 3))
    assert deformed.is_contact_metric()
    t = contact_torsion(deformed)
    assert t == wedge(deformed.eta, deformed.d_eta)
    with pytest.raises(StructureError):
        tanno_deform(s, -1)
    with pytest.raises(StructureError):
        tanno_deform(contact("twist5"), Q(4, 3))  # not Sasakian


def test_tanno_rejects_non_sasakian():
    # normal + Killing but 2F != d(eta): the deformation contract rejects it
    from skewtor.liegeom import LieModel
    d = [Form(5, 2), Form(5, 2), Form(5, 2), Form(5, 2, {(1, 2): Q(1)}),
         Form(5, 2, {(1, 2): Q(2)})]
    model = LieModel(5, d, name="normal-twist")
    s = AlmostContact(model, 5, standard_phi_matrix(5))
    assert nijenhuis(s).is_zero() and s.xi_is_killing()
    with pytest.raises(StructureError):
        tanno_deform(s, Q(4, 3))


# ---------------------------------------------------------------------------
# fixtures on which every term of the contact and hermitian identities is
# nonzero: on the registry's models some terms vanish, so their signs go
# unchecked there
# ---------------------------------------------------------------------------

def test_hermitian_ricci_form_identity_with_a_lee_form():
    # Thm 10.5 with a nonzero Lee form that is not parallel.  T = -2 e2^e3^e4
    # and J e1 = -e2, J e3 = -e4, so theta(e1) = -(1/2) sum_i T(J e1, e_i, J e_i)
    # = (1/2) (T(e2, e3, -e4) + T(e2, e4, e3)) = 2
    h = fixture("hermitian4")
    assert nijenhuis(h).is_zero()
    assert h.torsion == Form(4, 3, {(2, 3, 4): Q(-2)})
    _, theta, _ = ricci_form_package(h)
    assert theta == Tensor.of([2, 0, 0, 0])
    assert not h.connection.nabla(theta).is_zero()
    assert holonomy_reduction_residual(h)["identity-residual"] == 0


def test_contact_ricci_form_identity_with_a_non_parallel_one_form():
    # Prop 9.1 on a normal structure, xi Killing, whose one-form
    # omega(X) = -(1/2) sum_i T(X, e_i, phi e_i) is -4 e^2 + 2 e^3 for
    # T = 2 e1^e2^e3 - 4 e2^e3^e4, with (nabla_X omega)(Y) not zero
    s = fixture("contact5a")
    assert nijenhuis(s).is_zero() and s.xi_is_killing()
    assert s.torsion == Form(5, 3, {(1, 2, 3): Q(2), (2, 3, 4): Q(-4)})
    _, omega, _ = ricci_form_package(s)
    assert omega == Tensor.of([0, -4, 2, 0, 0])
    assert not s.connection.nabla(omega).is_zero()
    assert holonomy_reduction_residual(s)["identity-residual"] == 0


def test_reeb_chain_and_mixed_nijenhuis_identity_with_xi_hook_n_nonzero():
    # Lemma 8.3: the chain N(phi X, Y, xi) = N(X, phi Y, xi) = N2(X, Y) = ...
    # has a nonzero common value here, and the eta(X) N(xi, phi Y, phi Z) term
    # of the mixed identity is nonzero
    s = fixture("contact5b")
    nij = nijenhuis(s)
    assert nij.totally_skew and not nij.is_zero() and s.xi_is_killing()
    lem = nijenhuis_xi_identities(s)
    assert lem == {"chain-residual": 0, "reeb-geodesic": 0, "common-nonzero": True}
    assert all(v == 0 for v in contact_general_identities(s).values())


@pytest.mark.parametrize("a2", [Q(4, 3), Q(4), Q(1, 9)])
def test_tanno_deformation_of_a_three_dimensional_sasakian_model(a2):
    # The D-homothetic deformation with constant a is eta' = a eta,
    # g' = a g + a(a - 1) eta (x) eta, phi' = phi; its orthonormal coframe is
    # f^1 = sqrt(a) e^1, f^2 = sqrt(a) e^2, f^3 = a e^3.  From de1 = e2^e3,
    # de2 = -e1^e3 and de3 = 2 e1^e2:
    #   df^1 = sqrt(a) e^2^e^3 = f^2^f^3 / a,  df^2 = -f^1^f^3 / a,
    #   df^3 = 2a e^1^e^2 = 2 f^1^f^2.
    # `tanno_deform(s, a2)` is this deformation with a = 1 / a2, so the
    # deformed model has de1 = a2 e2^e3, de2 = -a2 e1^e3 and de3 = 2 e1^e2.
    # In dimension 3 the e^3 terms of de1 and de2 are allowed by the Jacobi
    # identity, so the weight exponent of the deformation shows
    s = fixture("sasakian3")
    assert s.torsion == wedge(s.eta, s.d_eta)
    deformed = tanno_deform(s, a2)
    assert deformed.model.d_coframe == [Form(3, 2, {(2, 3): a2}), Form(3, 2, {(1, 3): -a2}),
                                        Form(3, 2, {(1, 2): Q(2)})]
    assert deformed.is_contact_metric()
    assert deformed.torsion == wedge(deformed.eta, deformed.d_eta)


def test_hermitian_fixtures():
    assert hermitian_torsion(hermitian("abelian6")).is_zero()
    h = hermitian("solv6")
    assert nijenhuis(h).is_zero()
    t = hermitian_torsion(h)
    assert not t.is_zero()
    assert structure_parallel_residuals(h) == 0
    hol = holonomy_reduction_residual(h)
    assert hol["identity-residual"] == 0


def test_almost_kaehler_rejected():
    h = hermitian("kt4")
    assert d_form(h.model, h.fundamental_form()).is_zero()
    nij = nijenhuis(h)
    assert not nij.is_zero() and not nij.totally_skew
    with pytest.raises(NoSkewConnection) as err:
        hermitian_torsion(h)
    assert err.value.reason == "nijenhuis-not-skew"


def test_compact_group_hermitian_fixture():
    h = hermitian("su2su2")
    nij = nijenhuis(h)
    assert nij.totally_skew and not nij.is_zero()
    t = hermitian_torsion(h)
    e = lambda *ix, c=1: Form.blade(6, *ix, coeff=c)
    assert t == e(1, 2, 3, c=-2) + e(4, 5, 6, c=-2)
    assert structure_parallel_residuals(h) == 0
    conn = with_torsion(h.model, t)
    # parallel and coclosed torsion, like the nearly Kaehler class
    assert conn.nabla(Tensor.of_form(t)).is_zero()
    assert codiff(levi_civita(h.model), t).is_zero()
    hol = holonomy_reduction_residual(h)
    assert hol["identity-residual"] == 0
    assert hol["rho-vanishes"]


def test_nearly_kaehler_identity_pack():
    for a in (0, 1, 2, Q(5, 3)):
        pack = nearly_kaehler_identities(a)
        assert all(pack.values()), (a, pack)


def test_half_module_spectra():
    for a in (1, 3):
        plus, minus = half_module_endomorphism_spectrum(a)
        assert plus == [Q(0), 4 * Q(a), 4 * Q(a), 4 * Q(a)]
        assert minus == plus
