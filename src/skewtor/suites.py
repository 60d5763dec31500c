"""Verification suites: every displayed identity, constant and table as a Check.

Each suite function returns a Report; `run_suite` dispatches by name.  Checks
carry anchors into the source text so SKIPped global statements are visible
rather than silently absent.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import acskit, clifford, equivar, g2
from .forms import (Form, all_blades, contract, hodge, inner, random_form, sigma_t,
                    sigma_t_quadratic, volume_form, wedge)
from .errors import NoSkewConnection
from .liegeom import (SkewTorsionStructure, codiff, curvature_identity_residuals,
                      tt_contraction, with_torsion)
from .linalg import GaussTensor, Tensor, certified_spectrum
from .registry import registry
from .reporting import Report, check, merge, skip

Q = Fraction


def _registered(cls):
    """(name, structure) for every registered model whose structure is a `cls`, by name."""
    return [(name, entry.structure) for name, entry in sorted(registry().items())
            if isinstance(entry.structure, cls)]


def _diag(*values) -> Tensor:
    """The diagonal matrix of the given rationals."""
    return Tensor.of(np.diag(np.array(values, dtype=object)))


def _unit_blades(n, degree):
    """The blades of one degree on R^n: a linear identity holds once it holds on each."""
    return [Form.blade(n, *b) for b in all_blades(n, degree)]


def admissible_models():
    """(name, structure) for every registered structure with a connection with skew torsion."""
    return [(name, s) for name, s in _registered(SkewTorsionStructure) if s.admits_connection()]


# ---------------------------------------------------------------------------

def suite_exterior() -> Report:
    checks = []
    e = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    checks.append(check("exterior.wedge.basis", "frame conventions",
                        wedge(e(1), e(2)) == e(1, 2), provenance="trivial"))
    de = Form.blade(5, 1, 2, coeff=2) + Form.blade(5, 3, 4, coeff=2)
    checks.append(check("exterior.wedge.deta-squared", "Prop 7.1",
                        wedge(de, de) == Form.blade(5, 1, 2, 3, 4, coeff=8),
                        value=wedge(de, de), expected="8*e1^e2^e3^e4",
                        provenance="stated"))
    w3 = g2.canonical_omega3()
    checks.append(check("exterior.wedge.odd-square", "graded commutativity",
                        wedge(w3, w3).is_zero(), provenance="trivial"))
    checks.append(check("exterior.interior.basis", "notation",
                        contract(e(1, 2), 1) == e(2), provenance="trivial"))
    eta5 = Form.blade(5, 5)
    checks.append(check("exterior.interior.eta-wedge", "contact conventions",
                        contract(wedge(eta5, de), 5) == de, provenance="derived"))
    checks.append(check("exterior.interior.omega3", "canonical 3-form",
                        contract(w3, 1) == e(2, 7) + e(3, 5) - e(4, 6),
                        value=contract(w3, 1), expected="e2^e7 + e3^e5 - e4^e6",
                        provenance="stated"))
    checks.append(check("exterior.hodge.volume", "orientation",
                        hodge(Form.scalar(7, 1)) == volume_form(7),
                        provenance="trivial"))
    ok = all(hodge(hodge(a)) == a * (Q(-1) ** (p * (nn - p)))
             for nn in range(2, 9) for p in range(nn + 1) for a in _unit_blades(nn, p))
    checks.append(check("exterior.hodge.involution", "star conventions", ok,
                        provenance="trivial"))
    sw3 = hodge(w3)
    ok4 = all(inner(contract(sw3, i), contract(sw3, i)) == 4 for i in range(1, 8))
    checks.append(check("exterior.hodge.star-omega3-gram", "4-form normalization", ok4,
                        expected="(X -| *w3, X -| *w3) = 4", provenance="derived"))
    checks.append(check("exterior.inner.unit-blade", "pairing",
                        inner(e(1, 2), e(1, 2)) == 1, provenance="trivial"))
    checks.append(check("exterior.inner.omega3-norm", "pi^3_1 coefficient",
                        inner(w3, w3) == 7, value=inner(w3, w3), expected=7,
                        provenance="derived"))
    dw3_heis = registry()["heis7"].structure.d_omega3
    checks.append(check("exterior.inner.pure-type", "pure 27-type model",
                        inner(dw3_heis, sw3) == 0, provenance="stated"))
    checks.append(check("exterior.sigma.decomposable", "torsion 4-form",
                        sigma_t(e(1, 2, 3)).is_zero(), provenance="trivial"))
    t5 = wedge(eta5, de)
    checks.append(check("exterior.sigma.contact", "Prop 7.1",
                        sigma_t(t5) == Form.blade(5, 1, 2, 3, 4, coeff=4)
                        and sigma_t(t5) * 2 == wedge(de, de),
                        provenance="stated"))
    rng = random.Random(11)
    ok_q = all(sigma_t(a) == sigma_t_quadratic(a)
               for a in (random_form(nn, 3, rng) for nn in (5, 6, 7, 8)))
    checks.append(check("exterior.sigma.two-definitions", "quadratic vs contraction form",
                        ok_q, provenance="derived"))
    blades6 = _unit_blades(6, 2)
    checks.append(check("exterior.inner.wedge-volume", "(a,b) vol = a ^ *b",
                        all(wedge(a, hodge(b)) == volume_form(6) * inner(a, b)
                            for a in blades6 for b in blades6),
                        provenance="derived"))
    return Report("exterior", checks)


def suite_clifford() -> Report:
    checks = []
    ok = True
    for n in range(2, 9):
        gammas = [clifford.act_form(Form.blade(n, i)) for i in range(1, n + 1)]
        minus_two = GaussTensor.identity(len(gammas[0])) * -2
        for i in range(n):
            for j in range(i, n):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                if not (anti == minus_two if i == j else anti.is_zero()):
                    ok = False
    checks.append(check("clifford.relations", "defining relations", ok,
                        provenance="trivial"))
    w3 = g2.canonical_omega3()
    action = clifford.act_form(w3)
    spectrum = certified_spectrum(action, [-7, 1])
    minus7 = _minus7_spinors(action)
    checks.append(check("clifford.omega3-spectrum", "Thm 5.1 spinor normalization",
                        spectrum == [(-7, 1), (1, 7)] and len(minus7) == 1, value=spectrum,
                        expected="[-7 x1, +1 x7]", provenance="stated"))
    sw3 = hodge(w3)
    ok4 = len(minus7) > 0 and all(
        clifford.act_form(contract(sw3, i)) @ minus7[0]
        == clifford.act_form(Form.blade(7, i)) @ minus7[0] * 4 for i in range(1, 8))
    checks.append(check("clifford.contraction-action", "(X -| *w3) psi = 4 X psi",
                        ok4, provenance="stated"))
    eta = Form.blade(5, 5)
    de = Form.blade(5, 1, 2, coeff=2) + Form.blade(5, 3, 4, coeff=2)
    spec5 = certified_spectrum(clifford.act_form(wedge(eta, de)), [-4, 0, 4])
    checks.append(check("clifford.contact-spectrum", "contact 3-form eigenvalues",
                        spec5 == [(-4, 1), (0, 2), (4, 1)], value=spec5, expected="(-4, 0, 0, 4)",
                        provenance="stated"))
    checks.append(check("clifford.identity-spectrum", "spectrum bookkeeping",
                        certified_spectrum(GaussTensor.identity(8), [1]) == [(1, 8)],
                        provenance="trivial"))
    checks.append(check("clifford.empty-kernel", "common kernel conventions",
                        len(clifford.common_kernel([GaussTensor.identity(8) * 0])) == 8,
                        provenance="trivial"))
    ok_kc = all(clifford.kernel_conditions_are_membership(which) for which in ("plus", "minus"))
    checks.append(check("clifford.kernel-conditions", "Lemmas 7.2 / 7.5",
                        ok_kc, expected="closed form = direct membership",
                        provenance="stated"))
    t0 = Form(5, 3, {(2, 3, 4): Q(1)})
    x_minus = Form(5, 1, {(1,): Q(-1)})
    x_plus = Form(5, 1, {(1,): Q(1)})
    checks.append(check("clifford.kernel-sample-plus", "Lemma 7.2 sample",
                        clifford.kernel_conditions_5d(t0, x_minus, "plus")
                        and not clifford.kernel_conditions_5d(t0, x_plus, "plus"),
                        provenance="stated"))
    checks.append(check("clifford.kernel-sample-minus", "Lemma 7.5 sample",
                        clifford.kernel_conditions_5d(t0, x_plus, "minus")
                        and not clifford.kernel_conditions_5d(t0, x_minus, "minus"),
                        provenance="stated"))
    plus, minus = acskit.half_module_endomorphism_spectrum(1)
    checks.append(check("clifford.half-module-spectrum", "Lemma 10.7",
                        plus == [Q(0), Q(4), Q(4), Q(4)] == minus,
                        expected="(0, 4, 4, 4) per half module",
                        provenance="stated"))
    return Report("clifford", checks)


def _minus7_spinors(action):
    """The -7 eigenspace of the w3 action on Delta_7, as the rows of a GaussTensor."""
    return clifford.common_kernel([action + GaussTensor.identity(8) * 7])


def suite_section2() -> Report:
    checks = []
    abelian5 = registry()["abelian5"].model
    res = curvature_identity_residuals(with_torsion(abelian5, Form(5, 3, {(1, 2, 3): Q(1)})))
    checks.append(check("section2.abelian-decomposable", "flat sanity case",
                        all(v == 0 for v in res.values()), value=res,
                        provenance="trivial"))
    for name, s in admissible_models():
        if s.torsion.is_zero():
            continue
        res = curvature_identity_residuals(s.connection)
        for key, val in res.items():
            checks.append(check(f"section2.{name}.{key}",
                                "curvature-torsion identities",
                                val == 0, value=val, expected=0,
                                provenance="derived"))
    return Report("section2", checks)


def suite_slformula() -> Report:
    checks = []
    for name, s in admissible_models():
        spin = s.connection.spinors
        checks.append(check(f"slformula.{name}.square", "Thm 3.1",
                            spin.square_residual().is_zero(), expected="zero matrix",
                            provenance="stated"))
        checks.append(check(f"slformula.{name}.anticommutator", "Thm 3.3",
                            spin.anticommutator_residual().is_zero(),
                            expected="zero matrix", provenance="stated"))
        basis, residuals = spin.field_equations()
        flat = all(first.is_zero() and all(r.is_zero() for r in second)
                   for first, second in residuals)
        checks.append(check(f"slformula.{name}.parallel-field-equations",
                            "Cor 3.2", flat,
                            value=f"{len(basis)} parallel spinors",
                            provenance="stated"))
    checks.append(skip("slformula.vanishing-theorem", "Thm 3.4",
                       "compact vanishing statement; pointwise ingredients "
                       "verified in this suite"))
    return Report("slformula", checks)


def suite_g2() -> Report:
    checks = []
    cons = g2.derivation_constant_identities()
    for key, ok in cons.items():
        checks.append(check(f"g2.constants.{key}", "derivation constants",
                            ok, provenance="stated"))
    w3 = g2.canonical_omega3()
    ok2 = True
    for a in _unit_blades(7, 2):
        p7, p14 = g2.project2(a)
        ok2 = (ok2 and hodge(wedge(w3, p7)) == p7 * 2 and hodge(wedge(w3, p14)) == -p14
               and p7 + p14 == a)
    checks.append(check("g2.project2.eigen", "2-form type split", ok2, provenance="derived"))
    checks.append(check("g2.project2.vector-type", "X -| w3 is pure 7-type",
                        g2.project2(contract(w3, 3))[1].is_zero(),
                        provenance="trivial"))
    checks.append(check("g2.project2.algebra-type", "algebra equations",
                        g2.project2(Form.blade(7, 1, 2) - Form.blade(7, 3, 4))[0].is_zero(),
                        provenance="derived"))
    ok3 = True
    for b in _unit_blades(7, 3):
        p1, p7, p27 = g2.project3(b)
        ok3 = (ok3 and p1 + p7 + p27 == b and wedge(p27, w3).is_zero()
               and wedge(p27, hodge(w3)).is_zero())
    checks.append(check("g2.project3.sum", "3-form type split", ok3, provenance="derived"))
    for name, s in _registered(g2.G2Structure):
        cls = s.torsion_class
        checks.append(check(f"g2.{name}.classify", "type components",
                            cls.admits_connection()
                            and wedge(cls.gamma27, w3).is_zero()
                            and wedge(cls.gamma27, hodge(w3)).is_zero(),
                            value=cls.as_dict(), provenance="derived"))
        checks.append(check(f"g2.{name}.cocalibrated", "coclosed 3-form",
                            codiff(s.model.levi_civita, w3).is_zero() == cls.beta.is_zero(),
                            provenance="stated"))
        conn = s.connection
        checks.append(check(f"g2.{name}.parallel", "Thm 4.7 / Thm 4.8 contract",
                            conn.nabla(Tensor.of_form(w3)).is_zero(),
                            expected="nabla w3 = 0", provenance="stated"))
        checks.append(check(f"g2.{name}.torsion-components", "torsion split",
                            g2.torsion_component_identity(s), provenance="stated"))
        checks.append(check(f"g2.{name}.dw3-split", "derivative split",
                            g2.dw3_decomposition_identity(s)
                            and g2.codiff_identity(s), provenance="stated"))
        checks.append(check(f"g2.{name}.ricci-cross-oracle", "Thm 5.1",
                            g2.ricci_via_dt(conn) == conn.curvature.ric, provenance="stated"))
        if cls.beta.is_zero():
            cond = g2.ricci_flat_conditions(s)
            checks.append(check(f"g2.{name}.flatness-conditions", "Thm 5.4",
                                cond["consistent"]
                                and cond["wedge-identity-when-flat"],
                                value=cond, provenance="stated"))
    for lam in (0, 6, Q(3, 2)):
        pack = g2.nearly_parallel_identities(lam)
        checks.append(check(f"g2.nearly-parallel.{lam}", "Example 5.2 / string equation",
                            all(pack.values()), value=pack, provenance="stated"))
    checks.append(skip("g2.dirac-eigenvalue-bound", "Thm 5.3",
                       "integral eigenvalue estimate"))
    checks.append(skip("g2.harmonic-vanishing", "Thm 5.6",
                       "compact vanishing statement"))
    checks.append(skip("g2.topology-obstruction", "Remark 5.5",
                       "cohomological obstruction"))
    return Report("g2", checks)


def suite_equivariant() -> Report:
    checks = []
    sp = equivar.spaces()
    checks.append(check("equivariant.algebra-dimension", "algebra equations",
                        len(sp.algebra.basis) == 14, value=len(sp.algebra.basis),
                        expected=14, provenance="stated"))
    checks.append(check("equivariant.algebra-closure", "bracket closure",
                        all(sp.algebra.closure_residuals()), provenance="derived"))
    checks.append(check("equivariant.sample-membership", "algebra sample",
                        g2.pr_m(Form.blade(7, 1, 2) - Form.blade(7, 3, 4)).is_zero(),
                        provenance="derived"))
    gram = Tensor.einsum("kab,jab->kj", sp.units["m"], sp.algebra.units)
    checks.append(check("equivariant.complement-orthogonal", "m vs algebra",
                        gram.is_zero(), provenance="trivial"))
    m_sample = contract(g2.canonical_omega3(), 1)
    checks.append(check("equivariant.m-projection", "projection formula",
                        g2.pr_m(m_sample) == m_sample
                        and g2.pr_m(g2.pr_g2(Form.blade(7, 1, 2))).is_zero(),
                        provenance="derived"))
    rc = equivar.rank_certificates()
    checks.append(check("equivariant.phi-injective", "Prop 4.2",
                        rc["phi-injective"], expected="rank 98",
                        provenance="stated"))
    checks.append(check("equivariant.images-meet-trivially", "Cor 4.5(2)",
                        rc["images-meet-trivially"] and rc["psi-14-dimension"],
                        provenance="stated"))
    checks.append(check("equivariant.scalar-image", "Cor 4.5(1) scalar part",
                        rc["scalar-block-dimension"] and rc["scalar-image-contained"]
                        and rc["scalar-image-solution-zero"],
                        expected="contained with zero solution",
                        provenance="stated"))
    checks.append(check("equivariant.traceless-image", "Cor 4.5(1) 27-part",
                        rc["traceless-block-dimension"] and rc["traceless-image-contained"],
                        provenance="stated"))
    sigma0 = equivar.sigma0_constant()
    checks.append(check("equivariant.sigma0-constant", "Prop 4.6",
                        sigma0 == Q(2, 3), value=sigma0, expected="2/3",
                        provenance="stated"))
    checks.append(check("equivariant.sigma-solution", "closed-form connection map",
                        equivar.sigma_solution_identity(), provenance="stated"))
    targets = {
        "r7_m": {"1": (1, 1), "7": (7, 1), "14": (14, 1), "27": (27, 1)},
        "r7_g2": {"7": (7, 1), "27": (27, 1), "64": (64, 1)},
        "r7_s2": {"7": (14, 2), "14": (14, 1), "27": (27, 1),
                  "64": (64, 1), "77": (77, 1)},
    }
    for space, want in targets.items():
        got = equivar.casimir_decompose(space)
        checks.append(check(f"equivariant.decompose.{space}", "Prop 4.4",
                            got == want, value=got, expected=want,
                            provenance="stated"))
    checks.append(check("equivariant.decompose.two-forms", "2-form split",
                        equivar.casimir_decompose("lambda2") == {"7": (7, 1), "14": (14, 1)},
                        provenance="stated"))
    checks.append(check("equivariant.equivariance", "map equivariance",
                        equivar.equivariance_residual_zero(), provenance="derived"))
    return Report("equivariant", checks)


def suite_contact() -> Report:
    checks = []
    for name, s in _registered(acskit.AlmostContact):
        gi = acskit.contact_general_identities(s)
        checks.append(check(f"contact.{name}.general-identities",
                            "pre-existence identities",
                            all(v == 0 for v in gi.values()), value=gi,
                            provenance="stated"))
        pi = acskit.nijenhuis_gradient_identities(s)
        checks.append(check(f"contact.{name}.gradient-identities", "Prop 8.1",
                            all(v == 0 for v in pi.values()), value=pi,
                            provenance="stated"))
        nij = s.nijenhuis
        if s.d_fundamental.is_zero():
            checks.append(check(f"contact.{name}.closed-form-normal",
                                "Thm 8.4 preamble: dF = 0 forces N = 0",
                                (not nij.totally_skew) or nij.is_zero(),
                                provenance="stated"))
        try:
            t = s.torsion
        except NoSkewConnection as err:
            checks.append(check(f"contact.{name}.connection-rejected",
                                "Thm 8.2 existence",
                                err.reason in ("nijenhuis-not-skew",
                                               "xi-not-killing"),
                                value=err.reason, provenance="stated"))
            continue
        checks.append(check(f"contact.{name}.structure-parallel", "Thm 8.2",
                            acskit.structure_parallel_residuals(s) == 0,
                            expected="nabla eta = nabla phi = 0",
                            provenance="stated"))
        checks.append(check(f"contact.{name}.uniqueness", "Thm 8.2 uniqueness",
                            acskit.torsion_uniqueness_certificate(s),
                            expected="parallelism system has full rank",
                            provenance="stated"))
        lem = acskit.nijenhuis_xi_identities(s)
        checks.append(check(f"contact.{name}.xi-identities", "Lemma 8.3",
                            lem["chain-residual"] == 0 and lem["reeb-geodesic"] == 0,
                            value=lem, provenance="stated"))
        hol = acskit.holonomy_reduction_residual(s)
        checks.append(check(f"contact.{name}.ricci-form-identity", "Prop 9.1",
                            hol["identity-residual"] == 0, value=hol,
                            provenance="stated"))
        if s.is_contact_metric():
            checks.append(check(f"contact.{name}.sasakian-torsion", "Thm 8.4(1)",
                                t == wedge(s.eta, s.d_eta),
                                expected="T = eta ^ d eta", provenance="stated"))
            conn = s.connection
            checks.append(check(f"contact.{name}.torsion-parallel", "Prop 7.1",
                                conn.nabla_t.is_zero() and conn.delta_t.is_zero(),
                                provenance="stated"))
            checks.append(check(f"contact.{name}.sigma-dt", "Prop 7.1",
                                sigma_t(t) * 2 == conn.dt
                                == wedge(s.d_eta, s.d_eta),
                                provenance="stated"))
            sas = acskit.sasakian_ricci_package(s)
            checks.append(check(f"contact.{name}.sasakian-package", "Thm 9.2",
                                sas["lambda-is-16(1-k)F"] and sas["tt-contraction"]
                                and sas["one-form-parallel"]
                                and sas["conditions-equivalent"]
                                and sas["matches-4(k-1)"],
                                value=sas, provenance="stated"))
        elif nij.is_zero():
            want = wedge(s.eta, s.d_eta) + (-acskit.pullback3(s.d_fundamental, s.phi))
            checks.append(check(f"contact.{name}.normal-torsion", "Thm 8.4(2)",
                                t == want, expected="T = eta ^ d eta + d^phi F",
                                provenance="stated"))
    s5 = registry()["heis5"].structure
    table = s5.connection.curvature
    checks.append(check("contact.heis5.ricci", "contact example tables",
                        table.ric_diag() == [Q(-4)] * 4 + [Q(0)]
                        and s5.model.levi_civita.curvature.ric_diag()
                        == [Q(-2)] * 4 + [Q(4)],
                        value=table.ric_diag(),
                        expected="diag(-4,-4,-4,-4,0)", provenance="stated"))
    deformed = acskit.tanno_deform(s5, Q(4, 3))
    checks.append(check("contact.heis5.tanno", "deformation (Remark 9.3)",
                        deformed.is_contact_metric()
                        and deformed.torsion == wedge(deformed.eta, deformed.d_eta),
                        expected="deformed structure stays Sasakian",
                        provenance="derived"))
    ident = acskit.tanno_deform(s5, 1)
    checks.append(check("contact.heis5.tanno-identity", "unit parameter",
                        ident.model.d_coframe == s5.model.d_coframe,
                        provenance="trivial"))
    return Report("contact", checks)


def suite_hermitian() -> Report:
    checks = []
    for name, h in _registered(acskit.AlmostHermitian):
        try:
            conn = h.connection
        except NoSkewConnection as err:
            almost_kaehler = h.d_fundamental.is_zero()
            checks.append(check(f"hermitian.{name}.connection-rejected",
                                "Cor 10.2" if almost_kaehler else "Thm 10.1",
                                err.reason == "nijenhuis-not-skew",
                                value=err.reason, provenance="stated"))
            continue
        checks.append(check(f"hermitian.{name}.structure-parallel", "Thm 10.1",
                            acskit.structure_parallel_residuals(h) == 0,
                            expected="nabla J = 0", provenance="stated"))
        checks.append(check(f"hermitian.{name}.uniqueness", "Thm 10.1 uniqueness",
                            acskit.torsion_uniqueness_certificate(h),
                            expected="parallelism system has full rank",
                            provenance="stated"))
        hol = acskit.holonomy_reduction_residual(h)
        checks.append(check(f"hermitian.{name}.ricci-form-identity", "Thm 10.5 identity",
                            hol["identity-residual"] == 0, value=hol, provenance="stated"))
        if not h.nijenhuis.is_zero():
            checks.append(check(f"hermitian.{name}.torsion-parallel", "Cor 10.3 analogue",
                                conn.nabla_t.is_zero() and conn.delta_t.is_zero(),
                                provenance="derived"))
    for a in (1, 2, Q(1, 3)):
        pack = acskit.nearly_kaehler_identities(a)
        checks.append(check(f"hermitian.nearly-kaehler.{a}", "Prop 10.4 / Cor 10.6",
                            all(pack.values()), value=pack, provenance="stated"))
    plus, minus = acskit.half_module_endomorphism_spectrum(1)
    checks.append(check("hermitian.half-module-spectrum", "Lemma 10.7",
                        plus == [Q(0), Q(4), Q(4), Q(4)] == minus,
                        value=[plus, minus], expected="(0,4,4,4) twice",
                        provenance="stated"))
    checks.append(skip("hermitian.parallel-spinor-count", "Thm 10.8",
                       "global two-spinor statement; no rational invariant "
                       "strictly nearly Kaehler model exists in the registry"))
    return Report("hermitian", checks)


def _spinor_endo_forms(conn):
    """The 4-forms dT/4 + sigma^T/2 and 3 dT/4 - sigma^T/2 of Lemmas 6.1 and 6.4."""
    sig = sigma_t(conn.torsion)
    return conn.dt * Q(1, 4) + sig * Q(1, 2), conn.dt * Q(3, 4) - sig * Q(1, 2)


def suite_examples() -> Report:
    checks = []
    w3 = g2.canonical_omega3()
    e = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)

    heis7 = registry()["heis7"].model
    dw3 = registry()["heis7"].structure.d_omega3
    checks.append(check("examples.heis7.dw3", "worked example tables",
                        dw3 == e(1, 2, 3, 4) + e(2, 4, 6, 7) + e(1, 2, 5, 6)
                        - e(2, 3, 5, 7), value=dw3, provenance="stated"))
    conn7 = registry()["heis7"].structure.connection
    t7 = conn7.torsion
    t_expected = -(e(5, 6, 7) - e(1, 3, 5) + e(3, 4, 7) + e(1, 4, 6))
    checks.append(check("examples.heis7.torsion", "worked example tables",
                        t7 == t_expected, value=t7, provenance="stated"))
    dt7 = conn7.dt
    checks.append(check("examples.heis7.dt", "worked example tables",
                        dt7 == e(1, 3, 6, 7, c=-4), value=dt7,
                        expected="-4 e1^e3^e6^e7", provenance="stated"))
    tab7 = conn7.curvature
    checks.append(check("examples.heis7.ricci", "worked example tables",
                        tab7.ric == _diag(-2, 0, -2, 0, 0, -2, -2),
                        value=tab7.ric_diag(),
                        expected="diag(-2,0,-2,0,0,-2,-2)", provenance="stated"))
    checks.append(check("examples.heis7.scal", "worked example tables",
                        tab7.scal == -8, value=tab7.scal, expected=-8,
                        provenance="stated"))
    ttc = tt_contraction(t7)
    checks.append(check("examples.heis7.tt", "worked example tables",
                        ttc == _diag(4, 0, 4, 4, 4, 4, 4),
                        expected="diag(4,0,4,4,4,4,4)", provenance="stated"))
    tabg7 = heis7.levi_civita.curvature
    checks.append(check("examples.heis7.riemannian-ricci", "worked example tables",
                        tabg7.ric_diag() == [Q(-1), Q(0), Q(-1), Q(1), Q(1),
                                             Q(-1), Q(-1)],
                        value=tabg7.ric_diag(),
                        expected="diag(-1,0,-1,1,1,-1,-1)", provenance="stated"))
    four7 = _spinor_endo_forms(conn7)
    e61 = [certified_spectrum(clifford.act_form(f), [-4, 0, 2]) for f in four7]
    checks.append(check("examples.heis7.spinor-endos", "Lemma 6.1",
                        e61 == [[(-4, 2), (0, 2), (2, 4)]] * 2, value=e61,
                        expected="(2,-4,2,0,2,0,2,-4) twice as multisets",
                        provenance="stated"))
    checks.append(check("examples.heis7.four-forms", "worked example tables",
                        four7 == (e(1, 3, 6, 7, c=-2) + e(3, 4, 5, 6) - e(1, 4, 5, 7),
                                  e(1, 3, 6, 7, c=-2) - e(3, 4, 5, 6) + e(1, 4, 5, 7)),
                        expected="both displayed 4-forms verbatim",
                        provenance="stated"))
    basis7 = conn7.spinors.parallel
    tm7 = clifford.act_form(t7)
    checks.append(check("examples.heis7.parallel-spinors", "Cor 6.2",
                        len(basis7) == 4
                        and all((tm7 @ psi).is_zero() for psi in basis7),
                        value=len(basis7), expected=4, provenance="stated"))
    checks.append(skip("examples.heis7.harmonic-bound", "Cor 6.3",
                       "compact quotient estimate"))

    solv7 = registry()["solv7"].model
    checks.append(check("examples.solv7.cocalibrated", "worked example tables",
                        codiff(solv7.levi_civita, w3).is_zero(),
                        expected="delta(w3) = 0", provenance="stated"))
    dw3s = registry()["solv7"].structure.d_omega3
    checks.append(check("examples.solv7.dw3", "worked example tables",
                        dw3s == e(1, 3, 4, 7, c=2) - e(1, 5, 6, 7, c=2),
                        value=dw3s, provenance="stated"))
    conn7b = registry()["solv7"].structure.connection
    t7b = conn7b.torsion
    checks.append(check("examples.solv7.torsion", "worked example tables",
                        t7b == e(2, 5, 6, c=2) - e(2, 3, 4, c=2),
                        value=t7b, expected="2 e2^e5^e6 - 2 e2^e3^e4",
                        provenance="stated"))
    dt7b = conn7b.dt
    checks.append(check("examples.solv7.dt", "worked example tables",
                        dt7b == e(1, 2, 5, 6, c=-4) + e(1, 2, 3, 4, c=-4),
                        value=dt7b, provenance="stated"))
    checks.append(check("examples.solv7.scal", "worked example tables",
                        conn7b.curvature.scal == -16,
                        value=conn7b.curvature.scal, expected=-16,
                        provenance="stated"))
    four7b = _spinor_endo_forms(conn7b)
    e64 = [certified_spectrum(clifford.act_form(f), values)
           for f, values in zip(four7b, ([-2, 0, 4], [-8, 2, 4]))]
    checks.append(check("examples.solv7.spinor-endos", "Lemma 6.4",
                        e64 == [[(-2, 4), (0, 2), (4, 2)], [(-8, 2), (2, 4), (4, 2)]], value=e64,
                        provenance="stated"))
    checks.append(check("examples.solv7.four-forms", "worked example tables",
                        four7b == (e(1, 2, 5, 6, c=-1) + e(1, 2, 3, 4, c=-1)
                                   + e(3, 4, 5, 6, c=-2),
                                   e(1, 2, 5, 6, c=-3) + e(1, 2, 3, 4, c=-3)
                                   + e(3, 4, 5, 6, c=2)),
                        expected="both displayed 4-forms verbatim",
                        provenance="stated"))
    basis7b = conn7b.spinors.parallel
    tm7b = clifford.act_form(t7b)
    checks.append(check("examples.solv7.parallel-spinors", "Cor 6.5",
                        len(basis7b) == 2
                        and all((tm7b @ psi).is_zero() for psi in basis7b),
                        value=len(basis7b), expected=2, provenance="stated"))
    checks.append(skip("examples.solv7.harmonic-bound", "Cor 6.6",
                       "compact quotient estimate"))

    conn5 = registry()["heis5"].structure.connection
    t5 = conn5.torsion
    spec5 = certified_spectrum(clifford.act_form(t5), [-4, 0, 4])
    checks.append(check("examples.heis5.spinor-spectrum", "contact eigenvalues",
                        spec5 == [(-4, 1), (0, 2), (4, 1)], value=spec5, expected="(-4,0,0,4)",
                        provenance="stated"))
    basis5 = conn5.spinors.parallel
    checks.append(check("examples.heis5.parallel-spinors",
                        "Example 7.7 kernel-type spinors",
                        len(basis5) == 2, value=len(basis5), expected=2,
                        provenance="derived"))
    checks.append(check("examples.heis5.ricci", "contact example tables",
                        conn5.curvature.ric_diag() == [Q(-4)] * 4 + [Q(0)],
                        expected="diag(-4,-4,-4,-4,0)", provenance="stated"))
    return Report("examples", checks)


# the suites in report order: `run_suite("all")` runs them in this order
SUITES = {
    "exterior": suite_exterior,
    "clifford": suite_clifford,
    "section2": suite_section2,
    "slformula": suite_slformula,
    "g2": suite_g2,
    "equivariant": suite_equivariant,
    "contact": suite_contact,
    "hermitian": suite_hermitian,
    "examples": suite_examples,
}


def run_suite(name: str) -> Report:
    if name == "all":
        return merge("all", [suite() for suite in SUITES.values()])
    return SUITES[name]()
