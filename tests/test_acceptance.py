"""Acceptance gate: one test per criterion, every comparison exact (tolerance 0).

Each test prints a single CRITERION-nn PASS line on success (pytest -s shows
them; a failure prints FAIL through the assertion).  The same statements are
reachable through `skewtor verify all`.
"""

import random
from fractions import Fraction as Q

import pytest

from skewtor import acskit, clifford, equivar, g2
from skewtor.forms import Form, contract, hodge, random_form, sigma_t, wedge
from skewtor.errors import NoSkewConnection
from skewtor.g2 import canonical_omega3
from skewtor.liegeom import (codiff, curvature, curvature_identity_residuals, d_form,
                             levi_civita, nabla_form, tt_contraction, with_torsion)
from skewtor.linalg import GaussTensor
from skewtor.registry import registry

W3 = canonical_omega3()
SW3 = hodge(W3)
E = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)


def _line(num, text):
    print(f"CRITERION-{num:02d} PASS  {text}")


def _g2_torsion(name):
    return registry()[name].structure.torsion


def test_c01_heis7_tables():
    model = registry()["heis7"].model
    dw3 = d_form(model, W3)
    assert dw3 == E(1, 2, 3, 4) + E(2, 4, 6, 7) + E(1, 2, 5, 6) - E(2, 3, 5, 7)
    t = _g2_torsion("heis7")
    assert t == -(E(5, 6, 7) - E(1, 3, 5) + E(3, 4, 7) + E(1, 4, 6))
    assert d_form(model, t) == E(1, 3, 6, 7, c=-4)
    table = curvature(with_torsion(model, t))
    assert table.ric_diag() == [Q(-2), Q(0), Q(-2), Q(0), Q(0), Q(-2), Q(-2)]
    assert all(table.ric[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    assert table.scal == -8
    ttc = tt_contraction(t)
    assert [ttc[i][i] for i in range(7)] == [Q(4), Q(0), Q(4), Q(4), Q(4),
                                             Q(4), Q(4)]
    assert all(ttc[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    assert curvature(levi_civita(model)).ric_diag() == \
        [Q(-1), Q(0), Q(-1), Q(1), Q(1), Q(-1), Q(-1)]
    _line(1, "heis7: d w3, T, dT, Ric, Scal, TT, Riemannian Ric all verbatim")


def test_c02_heis7_spinor_side():
    model = registry()["heis7"].model
    t = _g2_torsion("heis7")
    dt = d_form(model, t)
    sig = sigma_t(t)
    m1 = clifford.eigen_report(clifford.act_form(dt * Q(1, 4)
                                                 + sig * Q(1, 2)))
    m2 = clifford.eigen_report(clifford.act_form(dt * Q(3, 4)
                                                 - sig * Q(1, 2)))
    assert m1.multiset() == sorted([Q(2), Q(-4), Q(2), Q(0), Q(2), Q(0), Q(2), Q(-4)])
    assert m2.multiset() == sorted([Q(2), Q(0), Q(2), Q(-4), Q(2), Q(-4), Q(2), Q(0)])
    basis = with_torsion(model, t).spinors.parallel
    assert len(basis) == 4
    tm = clifford.act_form(t)
    assert all((tm @ psi).is_zero() for psi in basis)
    _line(2, "heis7: eigenvalue multisets exact; 4 parallel spinors killed by T")


def test_c03_solv7_tables():
    model = registry()["solv7"].model
    assert codiff(levi_civita(model), W3).is_zero()
    t = _g2_torsion("solv7")
    assert t == E(2, 5, 6, c=2) - E(2, 3, 4, c=2)
    dt = d_form(model, t)
    assert dt == E(1, 2, 5, 6, c=-4) + E(1, 2, 3, 4, c=-4)
    assert curvature(with_torsion(model, t)).scal == -16
    sig = sigma_t(t)
    m1 = clifford.eigen_report(clifford.act_form(dt * Q(1, 4)
                                                 + sig * Q(1, 2)))
    m2 = clifford.eigen_report(clifford.act_form(dt * Q(3, 4)
                                                 - sig * Q(1, 2)))
    assert m1.multiset() == sorted([Q(4), Q(4), Q(-2), Q(-2), Q(-2), Q(-2),
                                    Q(0), Q(0)])
    assert m2.multiset() == sorted([Q(4), Q(4), Q(2), Q(2), Q(2), Q(2),
                                    Q(-8), Q(-8)])
    basis = with_torsion(model, t).spinors.parallel
    assert len(basis) == 2
    tm = clifford.act_form(t)
    assert all((tm @ psi).is_zero() for psi in basis)
    _line(3, "solv7: coclosed w3; T, dT, Scal, multisets; 2 parallel spinors")


def test_c04_curvature_identity_suite():
    from skewtor.suites import admissible_models
    count = 0
    for name, s in admissible_models():
        res = curvature_identity_residuals(s.connection)
        assert all(v == 0 for v in res.values()), (name, res)
        count += 1
    assert count >= 8
    _line(4, f"all six curvature-torsion identities exact on {count} "
             "model/torsion pairs")


def test_c05_operator_identities():
    from skewtor.suites import admissible_models
    names = dict(admissible_models())
    for name in ("heis5", "heis7", "solv7", "abelian5", "abelian6", "abelian7"):
        spin = names[name].connection.spinors
        assert spin.square_residual().is_zero(), name
        assert spin.anticommutator_residual().is_zero(), name
    _line(5, "Dirac-square and anticommutator identities are zero matrices")


def test_c06_equivariant_machinery():
    rc = equivar.rank_certificates()
    assert rc["phi-injective"]
    assert rc["psi-14-dimension"] and rc["images-meet-trivially"]
    assert rc["scalar-image-contained"] and rc["traceless-image-contained"]
    assert equivar.sigma0_constant() == Q(2, 3)
    assert equivar.casimir_decompose("r7_m").dims_by_label() == \
        {"1": (1, 1), "7": (7, 1), "14": (14, 1), "27": (27, 1)}
    assert equivar.casimir_decompose("r7_g2").dims_by_label() == \
        {"7": (7, 1), "27": (27, 1), "64": (64, 1)}
    assert equivar.casimir_decompose("r7_s2").dims_by_label() == \
        {"7": (14, 2), "14": (14, 1), "27": (27, 1), "64": (64, 1), "77": (77, 1)}
    _line(6, "rank 98 injectivity, trivial 14-intersection, 2/3 constant, "
             "three isotypic lists")


def test_c07_contraction_constants():
    cons = g2.derivation_constant_identities()
    for key in ("beta-contraction-is-minus-4", "gamma27-wedge-is-minus-2-star",
                "beta-wedge-is-minus-3", "t-beta-is-quarter-contraction",
                "star-beta-wedge", "two-form-action-constant-minus-3",
                "gram-3-delta", "gram-4-delta", "gamma27-contraction-vanishes"):
        assert cons[key], key
    _line(7, "-4 / -2 / -3 contractions, T_beta, *(beta^w3), -3 action, "
             "Gram 3-delta and 4-delta")


def test_c08_torsion_contract_and_ricci_oracle():
    for name in ("heis7", "solv7", "abelian7"):
        s = g2.G2Structure(registry()[name].model)
        t = g2.torsion_form(s)
        conn = with_torsion(s.model, t)
        assert all(nabla_form(conn, i, W3).is_zero() for i in range(1, 8)), name
        assert g2.ricci_via_dt(conn) == curvature(conn).ric, name
    _line(8, "torsion makes w3 parallel; contraction Ricci equals curvature "
             "Ricci entrywise")


def test_c09_spinor_identities():
    spectrum = clifford.eigen_report(clifford.act_form(W3))
    assert spectrum.pairs == [(Q(-7), 1), (Q(1), 7)]
    from skewtor.linalg import nullspace
    shifted = clifford.act_form(W3) + GaussTensor.identity(8) * 7
    (psi0,) = nullspace(shifted)
    for i in range(1, 8):
        lhs = clifford.act_form(contract(SW3, i)) @ psi0
        rhs = clifford.act_form(Form.basis_vector(7, i)) @ psi0
        assert lhs == rhs * 4
    pack = g2.nearly_parallel_identities(6)
    assert pack["quarter-tt-contraction"]      # (3/72) lambda^2 delta
    assert pack["half-dt-contraction"]         # (24/72) lambda^2 delta
    assert pack["string-equation-with-3t"]     # residual zero with T* = 3T
    _line(9, "w3 psi0 = -7 psi0 with 4X-contraction; scaling-class constants "
             "at lambda = 6; 3T string equation")


def test_c10_sasakian_package():
    s = registry()["heis5"].structure
    t = acskit.contact_torsion(s)
    assert t == wedge(s.eta, s.d_eta)
    assert sigma_t(t) * 2 == d_form(s.model, t) == \
        wedge(s.d_eta, s.d_eta)
    conn = with_torsion(s.model, t)
    assert all(nabla_form(conn, i, t).is_zero() for i in range(1, 6))
    assert codiff(levi_civita(s.model), t).is_zero()
    assert curvature(conn).ric_diag() == [Q(-4)] * 4 + [Q(0)]
    assert curvature(levi_civita(s.model)).ric_diag() == [Q(-2)] * 4 + [Q(4)]
    assert clifford.eigen_report(clifford.act_form(t)).multiset() == \
        [Q(-4), Q(0), Q(0), Q(4)]
    rng = random.Random(2024)
    for _ in range(200):
        t3 = random_form(5, 3, rng, span=4)
        x1 = random_form(5, 1, rng, span=4)
        endo = clifford.act_form([t3, x1])
        for which in ("plus", "minus"):
            member = (endo @ clifford.spinor_5d(which)).is_zero()
            assert member == clifford.kernel_conditions_5d(t3, x1, which)
    hol = acskit.holonomy_reduction_residual(s)
    assert hol["identity-residual"] == 0
    sas = acskit.sasakian_ricci_package(s)
    assert sas["lambda-is-16(1-k)F"] and sas["tt-contraction"]
    assert sas["conditions-equivalent"]
    assert sas["integrability-scale"] == 4 and sas["matches-4(k-1)"]
    _line(10, "Sasakian 5-frame: torsion, spectra, Ricci tables, 200-sample "
              "kernel conditions, Ricci-form identity, scale 4 consistency")


def test_c11_contact_hermitian_suites():
    for name in ("heis5", "heis3x2", "twist5", "abelian5", "su2su2xr"):
        s = registry()[name].structure
        gi = acskit.contact_general_identities(s)
        assert all(v == 0 for v in gi.values()), name
        pi = acskit.nijenhuis_gradient_identities(s)
        assert all(v == 0 for v in pi.values()), name
        lem = acskit.nijenhuis_xi_identities(s)
        assert lem["chain-residual"] == 0 and lem["reeb-geodesic"] == 0
    # branch behavior
    s = registry()["heis5"].structure
    assert acskit.contact_torsion(s) == wedge(s.eta, s.d_eta)
    h = registry()["kt4"].structure
    with pytest.raises(NoSkewConnection):
        acskit.hermitian_torsion(h)
    for name in ("solv6", "su2su2", "abelian6"):
        h = registry()[name].structure
        t = acskit.hermitian_torsion(h)
        assert acskit.structure_parallel_residuals(h) == 0, name
    pack = acskit.nearly_kaehler_identities(1)
    assert all(pack.values()), pack
    plus, minus = acskit.half_module_endomorphism_spectrum(1)
    assert plus == [Q(0), Q(4), Q(4), Q(4)] == minus
    assert pack["ricci-from-dt-contraction"]
    _line(11, "five pre-existence identities, branch behavior, hermitian "
              "parallelism, scaling-class pack at a = 1, half-module "
              "multisets, contraction reduction")


def test_c12_out_of_scope_skip_listed(all_report):
    report = all_report
    skips = {c.anchor: c for c in report.checks if c.status == "SKIP"}
    for anchor in ("Thm 3.4", "Thm 5.3", "Thm 5.6", "Thm 10.8", "Cor 6.3",
                   "Cor 6.6", "Remark 5.5"):
        assert anchor in skips, anchor
    assert report.ok
    _line(12, f"out-of-scope statements SKIP-listed with anchors; "
              f"verify-all green ({report.counts()})")
