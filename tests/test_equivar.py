from fractions import Fraction as Q
from itertools import combinations
from math import isqrt, lcm

import numpy as np
import pytest

from skewtor import equivar
from skewtor.equivar import (casimir_decompose, casimir_spectrum, isotypic_basis_r7_m,
                             rank_certificates, sigma0_constant,
                             sigma_solution_identity, spaces)
from skewtor.forms import Form, contract, dense
from skewtor.errors import StructureError
from skewtor.g2 import canonical_omega3
from skewtor.linalg import Tensor

import equivar_reference
from cq_reference import poly_mul
from forms_reference import so_action


@pytest.fixture(scope="module")
def sp():
    return spaces()


@pytest.fixture
def lambda4(sp, monkeypatch):
    """Lambda^4 (its unit blades) as a base module of the shared Spaces, for one test.

    No suite reads Lambda^4, so `Spaces` does not hold it; its table and
    Casimir are dropped again after the test.
    """
    monkeypatch.setitem(sp.units, "lambda4", dense(np.eye(35, dtype=np.int64), 7, 4))
    yield
    for built in (sp._tables, sp._cache):
        built.pop("lambda4", None)


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


def test_casimir_spectra_and_decompositions(lambda4):
    assert casimir_decompose("lambda2") == \
        {"7": (7, 1), "14": (14, 1)}
    assert casimir_decompose("lambda3") == \
        {"1": (1, 1), "7": (7, 1), "27": (27, 1)}
    assert casimir_decompose("lambda4") == \
        {"1": (1, 1), "7": (7, 1), "27": (27, 1)}
    assert casimir_decompose("r7_m") == \
        {"1": (1, 1), "7": (7, 1), "14": (14, 1), "27": (27, 1)}
    assert casimir_decompose("r7_g2") == \
        {"7": (7, 1), "27": (27, 1), "64": (64, 1)}
    assert casimir_decompose("r7_s2") == \
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
    lam = int(cmat[0][0])
    root = [1, -lam]

    def spectrum(f):
        poly = poly_mul(root, f)
        monkeypatch.setattr(equivar, "krylov_min_poly", lambda matrix, v: poly)
        return casimir_spectrum("lambda1")

    assert spectrum([1, 0])[0] == [(Q(lam, scale), 7)]
    # a repeated root, an irreducible factor
    for f in (root, [1, 0, 1]):
        with pytest.raises(StructureError, match="simple roots"):
            spectrum(f)


def test_casimir_spectrum_adds_vectors_until_certified(sp, monkeypatch):
    # a vector orthogonal to every eigenspace but the first shows only part of
    # the spectrum: the roots of later vectors join it until the product
    # chain vanishes, and the ramp and the seven unit vectors that never
    # certify are an error; the chain runs only when the roots grow
    cmat, scale = sp.casimir("lambda1")
    lam = int(cmat[0][0])
    polys = [[1], [1], [1, -lam]]
    calls, certified = [], []
    chain = equivar.certified_eigenspace_dims

    def stub(matrix, v):
        calls.append(v)
        return polys[min(len(calls), len(polys)) - 1]

    monkeypatch.setattr(equivar, "krylov_min_poly", stub)
    monkeypatch.setattr(equivar, "certified_eigenspace_dims",
                        lambda matrix, roots: certified.append(roots) or chain(matrix, roots))
    assert casimir_spectrum("lambda1")[0] == [(Q(lam, scale), 7)]
    # the ramp first, then the unit vectors in order
    assert calls == [[1, 2, 3, 4, 5, 6, 7], [1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]
    assert certified == [[lam]]
    polys[-1] = [1]
    calls.clear()
    certified.clear()
    with pytest.raises(StructureError, match="failed certification"):
        casimir_spectrum("lambda1")
    assert len(calls) == 8 and certified == []


def test_map_shapes(sp):
    phi, psi = sp.phi, sp.psi
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
def test_casimir_commutes_with_every_generator(sp, lambda4, space):
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
def test_engine_matches_loop_reference(sp, lambda4, target):
    # every action, in order, with its denominator, the closure flags and the
    # two maps equal the per-module loop constructions exactly
    basis = sp.algebra.basis
    if target == "closure":
        assert sp.algebra.closure_residuals() == equivar_reference.closure_residuals(basis)
    elif target in ("phi", "psi"):
        got = sp.phi if target == "phi" else sp.psi
        want = equivar_reference.map_matrix(basis if target == "phi" else sp.m_basis)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    else:
        got = list(sp.generators(target))
        want = equivar_reference.generators(target, basis, sp.m_basis)
        assert len(got) == len(want) == 14
        for (rho, d), (ref_rho, ref_d) in zip(got, want):
            assert d == ref_d and rho.dtype == np.int64 and np.array_equal(rho, ref_rho)


def test_action_outside_the_module_is_refused():
    # seven unit blades of Lambda^2 span no submodule: the closure flags say
    # so, and an r7 module built on them raises (on a fresh Spaces, whose
    # table of m is not built yet)
    fresh = equivar.Spaces()
    part = fresh.units["lambda2"][:7]
    assert not all(equivar._module_action(fresh.algebra.units[0], part)[2])
    fresh.units["m"] = part
    with pytest.raises(StructureError, match="left the module"):
        list(fresh.generators("r7_m"))


@pytest.mark.parametrize("scale", [isqrt((2 ** 63 - 1) // 7), 3 << 30, 1 << 32, 1 << 40])
def test_scaled_units_give_the_same_actions(sp, scale):
    # scaled units span the same module, so every action is the unscaled one.
    # |U_j|^2 of the Lambda^1 units is scale^2 and their stack has 7 columns:
    # the first scale is the largest with 7 scale^2 in int64; past it |U_j|^2
    # wrapped in int64 (to -8070450532247928832 at 3 * 2^30, which refused the
    # action as not closed, and to 0 at 2^32, which divided by zero)
    units = sp.units["lambda1"]
    for alpha in sp.algebra.units:
        rho, d, closed = equivar._module_action(alpha, units)
        big_rho, big_d, big_closed = equivar._module_action(alpha, units * scale)
        assert all(closed) and big_closed == closed
        assert big_d == d and big_rho.tolist() == rho.tolist()


def test_unit_scales_past_int64_give_the_conjugated_actions(sp):
    # U_c = p_c e_c for the seven largest primes below 2^20: the action is conjugated
    # by diag(p), rho[j, c] / d = rho0[j, c] p_c / (d0 p_j).  |U_j|^2 and the
    # projections stay in int64, but the common denominator d (80 or 120
    # bits) leaves it (np.lcm wrapped it there)
    primes = np.array([1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447])
    units = sp.units["lambda1"] * primes[:, None]
    for alpha in sp.algebra.units:
        rho0, d0, _ = equivar._module_action(alpha, sp.units["lambda1"])
        rho, d, closed = equivar._module_action(alpha, units)
        assert all(closed) and d >= 2 ** 63
        assert [[Q(int(x), d) for x in row] for row in rho] == \
            [[Q(int(rho0[j, c]) * int(primes[c]), d0 * int(primes[j])) for c in range(7)]
             for j in range(7)]


def test_tensor_action_past_int64():
    # d (a (x) 1) + 1 (x) rho with d max|a| + max|rho| past 2^63 runs on Python integers
    a = np.array([[0, 2], [-2, 0]], dtype=np.int64)
    rho = np.array([[1, -3], [3, 1]], dtype=np.int64)
    for d in (2 ** 61, 2 ** 62):
        got = equivar._tensor_action(a, rho, d)
        want = [[d * int(a[i // 2, j // 2]) * (i % 2 == j % 2)
                 + int(rho[i % 2, j % 2]) * (i // 2 == j // 2) for j in range(4)]
                for i in range(4)]
        assert got.tolist() == want


def _planted(monkeypatch, matrix, space="lambda1", scale=1):
    """casimir_spectrum(space) on a fresh Spaces whose Casimir there is matrix / scale."""
    fresh = equivar.Spaces()
    fresh._cache[space] = (np.array(matrix, dtype=np.int64), scale)
    monkeypatch.setattr(equivar, "_SPACES", fresh)
    return casimir_spectrum(space)[0]


def test_casimir_spectrum_reads_past_an_eigenvector_ramp(monkeypatch):
    # the ramp (1, 2) is an eigenvector of eigenvalue 1, whose root alone
    # fails the certificate; e_1 adds the root 2, and the search certifies
    assert _planted(monkeypatch, [[1, 0], [-2, 2]]) == [(1, 1), (2, 1)]


@pytest.mark.parametrize("matrix", [[[3, 1], [0, 3]], [[0, 1], [2, 0]]])
def test_casimir_spectrum_refuses_a_jordan_block_and_irrational_roots(monkeypatch, matrix):
    # (x - 3)^2 has a repeated root, x^2 - 2 no rational one
    with pytest.raises(StructureError, match="simple roots"):
        _planted(monkeypatch, matrix)


def test_casimir_decompose_refuses_an_unmatched_block(monkeypatch):
    # a planted lambda4 Casimir (the calibration reads lambda1..lambda3 only):
    # a block of the calibrated "7" scalar and dimension 14 is two copies of
    # the 7, and a block of no calibrated scalar and dimension 2 is refused
    seven = spaces().calibration["7"]
    num, den = seven.numerator, seven.denominator
    assert _planted(monkeypatch, np.eye(14, dtype=np.int64) * num, "lambda4", den) \
        == [(seven, 14)]
    assert casimir_decompose("lambda4") == {"7": (14, 2)}
    _planted(monkeypatch, np.diag([num] * 14 + [num + 1] * 2), "lambda4", den)
    with pytest.raises(StructureError, match="unmatched isotypic block in lambda4"):
        casimir_decompose("lambda4")


def _planted_certificates(monkeypatch, phi, psi):
    """rank_certificates() on a fresh Spaces whose Phi and Psi are the given integer matrices."""
    fresh = equivar.Spaces()
    fresh.phi, fresh.psi = np.asarray(phi, dtype=np.int64), np.asarray(psi, dtype=np.int64)
    monkeypatch.setattr(equivar, "_SPACES", fresh)
    return rank_certificates()


def test_rank_certificates_refuse_a_repeated_phi_column(sp, monkeypatch):
    phi = sp.phi.copy()
    phi[:, 1] = phi[:, 0]
    rc = _planted_certificates(monkeypatch, phi, sp.psi)
    assert not rc["phi-injective"] and not rc["images-meet-trivially"]


def test_rank_certificates_read_psi_inside_the_image_of_phi(sp, monkeypatch):
    # Psi = Phi X maps every isotypic block into Im(Phi): the 14-type image
    # meets it, both containments hold, and the scalar image Phi X b1 is not
    # zero because X b1 is not
    x = np.random.default_rng(0).integers(-2, 3, size=(98, 49))
    assert (x @ isotypic_basis_r7_m("1").num[0]).any()
    rc = _planted_certificates(monkeypatch, sp.phi, sp.phi @ x)
    assert rc["phi-injective"] and not rc["images-meet-trivially"]
    assert rc["scalar-image-contained"] and rc["traceless-image-contained"]
    assert not rc["scalar-image-solution-zero"]


def test_rank_certificates_refuse_a_generic_psi(sp, monkeypatch):
    psi = np.random.default_rng(1).integers(-3, 4, size=(196, 49))
    rc = _planted_certificates(monkeypatch, sp.phi, psi)
    assert rc["phi-injective"] and not rc["traceless-image-contained"]
