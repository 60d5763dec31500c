from fractions import Fraction as Q
from itertools import combinations
from math import lcm

import numpy as np
import pytest

from skewtor import equivar
from skewtor.equivar import (casimir_decompose, casimir_spectrum,
                             full_column_rank_certificate,
                             isotypic_basis_r7_m, phi_matrix, psi_matrix,
                             rank_certificates, sigma0_constant,
                             sigma_solution_identity, spaces)
from skewtor.forms import Form, contract, so_action
from skewtor.errors import StructureError
from skewtor.g2 import canonical_omega3
from skewtor.linalg import Tensor, rank_mod_p, _PRIMES

import equivar_reference
from cq_reference import poly_mul


@pytest.fixture(scope="module")
def sp():
    return spaces()


def bracket_2forms(a, b):
    """Commutator of two 2-forms under their skew-endomorphism identification.

    The endomorphism of a 2-form is the transpose of its tensor, so the
    tensor of [A, B] is b a - a b for the tensors a, b of the two forms.
    """
    ta, tb = Tensor.of_form(a), Tensor.of_form(b)
    return (Tensor.einsum("ik,kj->ij", tb, ta) - Tensor.einsum("ik,kj->ij", ta, tb)).to_form()


def endo_of_2form(alpha):
    """Matrix A with A e_u = sum_v alpha(u, v) e_v, i.e. g(A u, v) = alpha(u, v)."""
    n = alpha.n
    return [[alpha.eval(u + 1, v + 1) for u in range(n)] for v in range(n)]


def test_algebra_dimension_and_closure(sp):
    assert len(sp.algebra.basis) == 14
    assert all(sp.algebra.closure_residuals())
    w3 = canonical_omega3()
    for xi in sp.algebra.basis:
        assert so_action(xi, w3).is_zero()


def test_algebra_membership_samples(sp):
    assert sp.algebra.coordinates(Form.blade(7, 1, 2) - Form.blade(7, 3, 4)) \
        is not None
    assert sp.algebra.coordinates(contract(canonical_omega3(), 1)) is None


def test_bracket_consistency_with_derivation(sp):
    # ad and the derivation action agree on 2-forms
    xi = sp.algebra.basis[2]
    mu = Form.blade(7, 2, 5)
    assert bracket_2forms(xi, mu) == so_action(xi, mu)


def test_complement_equivariance(sp):
    # [xi, Z -| w3] = (A_xi Z) -| w3 for algebra elements xi
    w3 = canonical_omega3()
    for xi in sp.algebra.basis[:3]:
        a = endo_of_2form(xi)
        for k in range(1, 8):
            br = bracket_2forms(xi, contract(w3, k))
            image = Form(7, 2)
            for v in range(7):
                if a[v][k - 1]:
                    image = image + contract(w3, v + 1) * (a[v][k - 1])
            assert br == image


def test_calibration_values(sp):
    calib = sp.calibration
    assert calib["1"] == 0
    assert len({calib["1"], calib["7"], calib["14"], calib["27"]}) == 4


def test_casimir_spectra_and_decompositions():
    assert casimir_decompose("lambda2").dims_by_label() == \
        {"7": (7, 1), "14": (14, 1)}
    assert casimir_decompose("lambda3").dims_by_label() == \
        {"1": (1, 1), "7": (7, 1), "27": (27, 1)}
    assert casimir_decompose("lambda4").dims_by_label() == \
        {"1": (1, 1), "7": (7, 1), "27": (27, 1)}
    assert casimir_decompose("r7_m").dims_by_label() == \
        {"1": (1, 1), "7": (7, 1), "14": (14, 1), "27": (27, 1)}
    assert casimir_decompose("r7_g2").dims_by_label() == \
        {"7": (7, 1), "27": (27, 1), "64": (64, 1)}
    assert casimir_decompose("r7_s2").dims_by_label() == \
        {"7": (14, 2), "14": (14, 1), "27": (27, 1), "64": (64, 1), "77": (77, 1)}


def test_casimir_64_eigenvalue_cross_check():
    pairs_g2, scale_g2 = casimir_spectrum("r7_g2")
    pairs_s2, scale_s2 = casimir_spectrum("r7_s2")
    val64_g2 = next(v for v, d in pairs_g2 if d == 64)
    val64_s2 = next(v for v, d in pairs_s2 if d == 64)
    assert val64_g2 == val64_s2


def test_casimir_spectrum_refuses_all_but_simple_integral_roots(sp, monkeypatch):
    # the lambda1 Casimir is lam Id, so (x - lam) f annihilates it for every
    # f: only the root guard, not the certificate, can refuse a candidate
    cmat, scale = sp.casimir("lambda1")
    lam = cmat[0][0]
    root = [Q(1), Q(-lam)]

    def spectrum(f):
        poly = poly_mul(root, f)
        monkeypatch.setattr(equivar, "krylov_min_poly", lambda matvec, v: poly)
        return casimir_spectrum("lambda1")

    assert spectrum([Q(1), Q(0)])[0] == [(Q(lam, scale), 7)]
    # a repeated root, a non-integral root, an irreducible factor
    for f in (root, [Q(1), Q(-1, 2)], [Q(1), Q(0), Q(1)]):
        with pytest.raises(StructureError, match="simple roots"):
            spectrum(f)


def test_casimir_spectrum_adds_vectors_until_certified(sp, monkeypatch):
    # a vector orthogonal to every eigenspace but the first shows only part of
    # the spectrum: the roots of later vectors join it until the certificate
    # passes, and twelve vectors that never certify are an error
    cmat, scale = sp.casimir("lambda1")
    lam = cmat[0][0]
    polys = [[Q(1)], [Q(1)], [Q(1), Q(-lam)]]
    calls = []

    def stub(matvec, v):
        calls.append(v)
        return polys[min(len(calls), len(polys)) - 1]

    monkeypatch.setattr(equivar, "krylov_min_poly", stub)
    assert casimir_spectrum("lambda1")[0] == [(Q(lam, scale), 7)]
    assert len(calls) == 3 and len({tuple(v) for v in calls}) == 3
    polys[-1] = [Q(1)]
    calls.clear()
    with pytest.raises(StructureError, match="failed certification"):
        casimir_spectrum("lambda1")
    assert len(calls) == 12


def test_map_shapes(sp):
    phi = phi_matrix()
    psi = psi_matrix()
    assert len(phi) == 196 and len(phi[0]) == 98
    assert len(psi) == 196 and len(psi[0]) == 49


def test_rank_certificates():
    rc = rank_certificates()
    assert rc["phi-injective"]
    assert rc["psi-14-dimension"]
    assert rc["images-meet-trivially"]
    assert rc["scalar-block-dimension"] and rc["traceless-block-dimension"]
    assert rc["scalar-image-contained"] and rc["scalar-image-solution-zero"]
    assert rc["traceless-image-contained"]


def test_isotypic_bases_exact(sp):
    basis14 = isotypic_basis_r7_m("14")
    assert len(basis14) == 14
    cmat, scale = sp.casimir("r7_m")
    lam = sp.calibration["14"] * scale
    for v in basis14:
        image = [sum(Q(cmat[i][j]) * v[j] for j in range(49)) for i in range(49)]
        assert image == [lam * x for x in v]


def test_sigma0_constant_value():
    assert sigma0_constant() == Q(2, 3)


def test_sigma_solution_identity_holds():
    assert sigma_solution_identity()


SPACES = ("lambda1", "lambda2", "lambda3", "lambda4", "r7_m", "r7_g2", "r7_s2")


def _common_scale(gens):
    """The actions as integer matrices M_a over one denominator D: rho_a = M_a / D."""
    den = lcm(*(d for _, d in gens))
    return [rho * (den // d) for rho, d in gens], den


@pytest.fixture(scope="module")
def brackets(sp):
    """[xi_a, xi_b] = sum_c (p_c / q) xi_c for all 91 pairs a < b, as (a, b, p, q)."""
    basis = sp.algebra.basis
    out = []
    for a in range(14):
        for b in range(a + 1, 14):
            coords = sp.algebra.coordinates(bracket_2forms(basis[a], basis[b]))
            assert coords is not None
            q = lcm(*(c.denominator for c in coords))
            out.append((a, b, [int(c * q) for c in coords], q))
    return out


@pytest.mark.parametrize("space", ["lambda2", "lambda3", "r7_m", "r7_g2", "r7_s2"])
def test_integer_actions_are_homomorphisms(sp, brackets, space):
    # rho([xi_a, xi_b]) = [rho(xi_a), rho(xi_b)]: q [M_a, M_b] = D sum_c p_c M_c
    mats, den = _common_scale(list(sp.generators(space)))
    for a, b, p, q in brackets:
        lhs = mats[a] @ mats[b] - mats[b] @ mats[a]
        rhs = sum(pc * m for pc, m in zip(p, mats))
        assert np.array_equal(q * lhs, den * rhs), (space, a, b)


@pytest.mark.parametrize("space", SPACES)
def test_casimir_commutes_with_every_generator(sp, space):
    cmat = np.array(sp.casimir(space)[0], dtype=np.int64)
    for rho, _ in sp.generators(space):
        assert np.array_equal(cmat @ rho, rho @ cmat), space


@pytest.mark.parametrize("degree", [2, 3])
def test_form_casimirs_match_so_action_assembly(sp, degree):
    # Casimir = sum_a rho_a^2 / |xi_a|^2 with rho_a read off so_action on
    # the basis blades, compared as fractions with the integer kernel's C' / L
    blades = list(combinations(range(1, 8), degree))
    total = [[Q(0)] * len(blades) for _ in blades]
    for xi, norm in zip(sp.algebra.basis, sp.algebra.norms):
        images = [so_action(xi, Form(7, degree, {b: 1})) for b in blades]
        rho = np.array([[int(img.terms.get(r, 0)) for img in images] for r in blades],
                       dtype=np.int64)
        sq = (rho @ rho).tolist()
        for i in range(len(blades)):
            for j in range(len(blades)):
                total[i][j] += Q(sq[i][j]) / norm
    cmat, scale = sp.casimir(f"lambda{degree}")
    assert [[Q(x, scale) for x in row] for row in cmat] == total


@pytest.mark.parametrize("target", SPACES + ("closure", "phi", "psi"))
def test_engine_matches_loop_reference(sp, target):
    # every action, in order, with its denominator, the closure flags and the
    # two maps equal the per-module loop constructions exactly
    basis = sp.algebra.basis
    if target == "closure":
        assert sp.algebra.closure_residuals() == equivar_reference.closure_residuals(basis)
    elif target in ("phi", "psi"):
        got = phi_matrix() if target == "phi" else psi_matrix()
        want = equivar_reference.map_matrix(basis if target == "phi" else sp.m_basis)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    else:
        got = list(sp.generators(target))
        want = equivar_reference.generators(target, basis, sp.m_basis)
        assert len(got) == len(want) == 14
        for (rho, d), (ref_rho, ref_d) in zip(got, want):
            assert d == ref_d and rho.dtype == np.int64 and np.array_equal(rho, ref_rho)


def test_action_outside_the_module_is_refused(sp, monkeypatch):
    # seven unit blades of Lambda^2 span no submodule: the closure flags say
    # so, and an r7 module built on them raises
    part = sp.units["lambda2"][:7]
    assert not all(equivar._module_action(sp.algebra.units[0], part)[2])
    monkeypatch.setitem(sp.units, "m", part)
    with pytest.raises(StructureError, match="left the module"):
        list(sp.generators("r7_m"))


def test_full_column_rank_certificate_falls_back_to_exact_rank():
    # a column divisible by the three certificate primes vanishes mod each of
    # them, so only the exact elimination can certify the full rank
    big = _PRIMES[0] * _PRIMES[1] * _PRIMES[2]
    matrix = [[big, 0, 0], [0, 1, 0], [0, 0, 1], [big, 1, 1]]
    assert all(rank_mod_p(matrix, p) == 2 for p in _PRIMES[:3])
    assert full_column_rank_certificate(matrix)


def test_full_column_rank_certificate_refuses_rank_deficient():
    matrix = [[1, 0, 1], [0, 1, 1], [2, 3, 5], [4, -1, 3]]
    assert not full_column_rank_certificate(matrix)
