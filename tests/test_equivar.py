import time
from fractions import Fraction as Q
from itertools import combinations
from math import isqrt, lcm

import numpy as np
import pytest

from skewtor import equivar, suites
from skewtor.equivar import (G2_IRREPS, casimir_decompose, casimir_spectrum, g2_irreps,
                             isotypic_basis_r7_m, rank_certificates, sigma0_constant,
                             sigma_solution_identity, spaces)
from skewtor.forms import Form, contract, dense, inner
from skewtor.errors import StructureError
from skewtor.g2 import canonical_omega3, project3
from skewtor.linalg import GaussTensor, Tensor, charpoly, nullspace, rank

import equivar_reference
from cq_reference import poly_mul
from exact_reference import holds
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
    monkeypatch.setitem(sp.units, "lambda4", Tensor(dense(np.eye(35, dtype=np.int64), 7, 4)))
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
    basis = sp.algebra.basis
    assert equivar_reference.coordinates(basis, Form.blade(7, 1, 2) - Form.blade(7, 3, 4)) \
        is not None
    assert equivar_reference.coordinates(basis, contract(canonical_omega3(), 1)) is None


def test_formula_basis_is_the_gram_schmidt_basis(sp):
    # the block formula gives the Gram-Schmidt basis of the kernel up to sign
    # and order: the same 14 forms, seven of norm 2 and seven of norm 6
    reference = equivar_reference.gram_schmidt_basis()

    def signed(forms):
        return sorted(max(tuple(f.num.tolist()), tuple((-f).num.tolist())) for f in forms)

    assert signed(sp.algebra.basis) == signed(reference)
    assert sorted(sp.algebra.norms) == sorted(inner(x, x) for x in reference) \
        == [2] * 7 + [6] * 7


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


# V(a, b): label, dimension (Fulton & Harris, Lecture 22) and Casimir ratio to the 7
FULTON_HARRIS = [("1", 1, 0), ("7", 7, 1), ("14", 14, 2), ("27", 27, Q(7, 3)),
                 ("64", 64, Q(7, 2)), ("77", 77, 4), ("77'", 77, 5), ("189", 189, Q(16, 3)),
                 ("182", 182, 6)]


def test_weight_table_matches_fulton_harris():
    assert G2_IRREPS == g2_irreps(196) == FULTON_HARRIS
    assert len({ratio for _, _, ratio in G2_IRREPS}) == len(G2_IRREPS)
    # V(7, 0) (dimension 1254) and V(0, 4) (748) share the Casimir ratio 14
    assert g2_irreps(1253)[-1] == ("748", 748, 14)
    with pytest.raises(ValueError, match="share a Casimir value"):
        g2_irreps(1254)


def test_calibration_values(sp):
    calib = sp.calibration
    seven = calib["7"]
    assert seven < 0 and calib["1"] == 0
    assert dict(calib) == {label: seven * ratio for label, _, ratio in FULTON_HARRIS}


def test_casimir_acts_by_the_table_values_on_probes(sp):
    # the computed Casimirs kill w3, act on the first algebra element as 2 C(7)
    # and on the 27-part of e123 as 7/3 C(7)
    seven = sp.calibration["7"]
    probes = [("lambda3", canonical_omega3(), 0), ("lambda2", sp.algebra.basis[0], 2),
              ("lambda3", project3(Form.blade(7, 1, 2, 3))[2], Q(7, 3))]
    for space, probe, ratio in probes:
        v = Tensor(probe.num, probe.den)
        assert not v.is_zero()
        assert Tensor.einsum("ij,j->i", sp.casimir(space), v) == v * (seven * ratio)


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
    pairs_g2 = casimir_spectrum("r7_g2")
    pairs_s2 = casimir_spectrum("r7_s2")
    val64_g2 = next(v for v, d in pairs_g2 if d == 64)
    val64_s2 = next(v for v, d in pairs_s2 if d == 64)
    assert val64_g2 == val64_s2


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


def _equivariant_statuses():
    return {c.id: c.status for c in suites.suite_equivariant().checks}


def test_partial_isotypic_bases_fail_cor_4_5_1(monkeypatch):
    # a 27-part short of 3 rows and an empty 1-part still lie in their
    # eigenspaces and in Im(Phi); only their sizes show that they do not span
    # the isotypic blocks, and both checks of Cor 4.5(1) read them
    basis = equivar.isotypic_basis_r7_m
    cut = {"27": 3, "1": 1}
    monkeypatch.setattr(equivar, "isotypic_basis_r7_m",
                        lambda label: basis(label)[:len(basis(label)) - cut.get(label, 0)])
    rc = rank_certificates()
    assert not rc["scalar-block-dimension"] and not rc["traceless-block-dimension"]
    statuses = _equivariant_statuses()
    assert statuses["equivariant.scalar-image"] == "FAIL"
    assert statuses["equivariant.traceless-image"] == "FAIL"


def test_every_rank_certificate_enters_a_check(monkeypatch):
    rc = rank_certificates()
    assert all(rc.values()) and "FAIL" not in _equivariant_statuses().values()
    for claim in rc:
        monkeypatch.setattr(equivar, "rank_certificates", lambda claim=claim: {**rc, claim: False})
        assert "FAIL" in _equivariant_statuses().values(), claim


def test_complement_orthogonal_reads_the_gram_block(sp, monkeypatch):
    # m and the algebra are orthogonal: a unit of m with a g2 part fails the check
    sp.casimir("r7_m")      # the cached tables are built from the true units
    units = sp.units["m"].num.copy()
    units[0] += sp.algebra.units.num[0]
    monkeypatch.setitem(sp.units, "m", Tensor(units))
    assert _equivariant_statuses()["equivariant.complement-orthogonal"] == "FAIL"


def test_isotypic_bases_exact(sp):
    # each formula part spans the whole eigenspace of the Casimir at its calibrated value
    cas = sp.casimir("r7_m")
    assert sp.calibration["14"] == 2 * sp.calibration["7"]
    for label, dim in (("1", 1), ("7", 7), ("14", 14), ("27", 27)):
        basis = isotypic_basis_r7_m(label)
        assert basis.num.shape == (dim, 49) and basis.num.dtype == np.int64 and basis.den == 1
        kernel = nullspace(cas - Tensor.identity(49) * sp.calibration[label])
        assert len(kernel) == rank(basis) == rank(np.vstack([basis.num, kernel.num])) == dim


def test_isotypic_basis_refuses_a_part_off_its_eigenspace(sp, monkeypatch):
    # C + v v^T for the symmetric unit v = E_12 + E_21 acts as C on the
    # 1-, 7- and 14-parts (v is traceless and symmetric, so orthogonal to
    # them) but moves v alone in the 27-part
    cas = sp.casimir("r7_m")
    v = np.zeros((7, 7), dtype=np.int64)
    v[0, 1] = v[1, 0] = 1
    _planted(monkeypatch, cas.num + cas.den * np.outer(v, v), "r7_m", cas.den)
    for label in ("1", "7", "14"):
        assert len(isotypic_basis_r7_m(label)) == int(label)
    with pytest.raises(StructureError, match="the 27-part .* is not an eigenspace"):
        isotypic_basis_r7_m("27")


def test_sigma0_constant_value():
    assert sigma0_constant() == Q(2, 3)


def test_sigma_solution_identity_holds():
    assert sigma_solution_identity()


SPACES = ("lambda1", "lambda2", "lambda3", "lambda4", "r7_m", "r7_g2", "r7_s2")


def _common_scale(gens):
    """The actions as integer matrices M_a over one denominator D: rho_a = M_a / D."""
    den = lcm(*(rho.den for rho in gens))
    return [rho.num * (den // rho.den) for rho in gens], den


@pytest.fixture(scope="module")
def brackets(sp):
    """[xi_a, xi_b] = sum_c (p_c / q) xi_c for all 91 pairs a < b, as (a, b, p, q)."""
    basis = sp.algebra.basis
    out = []
    for a in range(14):
        for b in range(a + 1, 14):
            coords = equivar_reference.coordinates(basis, bracket_2forms(basis[a], basis[b]))
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
    cmat = np.array(sp.casimir(space).num, dtype=np.int64)
    for rho in sp.generators(space):
        assert np.array_equal(cmat @ rho.num, rho.num @ cmat), space


@pytest.mark.parametrize("degree", [2, 3])
def test_form_casimirs_match_so_action_assembly(sp, degree):
    # Casimir = sum_a rho_a^2 / |xi_a|^2 with rho_a read off so_action on
    # the basis blades, compared as fractions with the engine's Casimir
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
    cas = sp.casimir(f"lambda{degree}")
    assert [[Q(x, cas.den) for x in row] for row in cas.num.tolist()] == total


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
        assert got.den == 1 and got.num.dtype == np.int64 and np.array_equal(got.num, want)
    else:
        got = list(sp.generators(target))
        want = equivar_reference.generators(target, basis, sp.m_basis)
        assert len(got) == len(want) == 14
        for rho, (ref_rho, ref_d) in zip(got, want):
            assert rho.den == ref_d and rho.num.dtype == np.int64
            assert np.array_equal(rho.num, ref_rho)


def test_action_outside_the_module_is_refused():
    # seven unit blades of Lambda^2 span no submodule: the closure flags say
    # so, and an r7 module built on them raises (on a fresh Spaces, whose
    # table of m is not built yet)
    fresh = equivar.Spaces()
    part = fresh.units["lambda2"][:7]
    assert not all(equivar._module_action(fresh.algebra.units[0], part)[1])
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
        rho, closed = equivar._module_action(alpha, units)
        big_rho, big_closed = equivar._module_action(alpha, units * scale)
        assert all(closed) and big_closed == closed
        assert big_rho.den == rho.den and big_rho.num.tolist() == rho.num.tolist()
        assert holds(big_rho)


def test_unit_scales_past_int64_give_the_conjugated_actions(sp):
    # U_c = p_c e_c for the seven largest primes below 2^20: the action is conjugated
    # by diag(p), rho[j, c] / d = rho0[j, c] p_c / (d0 p_j).  |U_j|^2 and the
    # projections stay in int64, but the common denominator d (80 or 120
    # bits) leaves it (np.lcm wrapped it there)
    primes = np.array([1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447])
    units = Tensor(sp.units["lambda1"].num * primes[:, None])
    for alpha in sp.algebra.units:
        rho0, _ = equivar._module_action(alpha, sp.units["lambda1"])
        rho, closed = equivar._module_action(alpha, units)
        assert all(closed) and rho.den >= 2 ** 63 and holds(rho)
        assert [[Q(int(x), rho.den) for x in row] for row in rho.num.tolist()] == \
            [[Q(int(rho0.num[j, c]) * int(primes[c]), rho0.den * int(primes[j]))
              for c in range(7)] for j in range(7)]


def test_tensor_action_past_int64():
    # a (x) 1 + 1 (x) rho / d has the numerators d (a (x) 1) + 1 (x) rho over d;
    # with d max|a| + max|rho| past 2^62 its bound says so, and the sum runs
    # on Python integers
    a = np.array([[0, 2], [-2, 0]], dtype=np.int64)
    rho = np.array([[1, -3], [3, 1]], dtype=np.int64)
    for d in (2 ** 61, 2 ** 62):
        got = equivar._tensor_action(Tensor(a), Tensor(rho, d))
        want = [[d * int(a[i // 2, j // 2]) * (i % 2 == j % 2)
                 + int(rho[i % 2, j % 2]) * (i // 2 == j // 2) for j in range(4)]
                for i in range(4)]
        assert got.den == d and got.num.tolist() == want and holds(got)


@pytest.mark.parametrize("space", ["lambda1", "lambda2", "lambda3", "s2", "r7_m"])
def test_casimir_spectrum_multiplies_back_to_the_charpoly(sp, space):
    # two routes to one spectrum: the product chain over the weight table and
    # the multi-modular characteristic polynomial of the Casimir's numerators
    cas = sp.casimir(space)
    pairs = casimir_spectrum(space)
    want = [1]
    for value, dim in pairs:
        for _ in range(dim):
            want = poly_mul(want, [1, -int(value * cas.den)])
    coeffs = charpoly(GaussTensor.of_parts(cas.num, np.zeros_like(cas.num)))
    assert coeffs == GaussTensor.of_parts(want, [0] * len(want))


def _planted(monkeypatch, matrix, space="lambda4", scale=1):
    """A fresh shared Spaces whose Casimir on space is matrix / scale.

    The calibration reads the lambda1 Casimir alone, so planting elsewhere
    leaves C(7) as computed.
    """
    fresh = equivar.Spaces()
    fresh._cache[space] = Tensor(np.array(matrix, dtype=np.int64), scale)
    monkeypatch.setattr(equivar, "spaces", lambda: fresh)
    return fresh


def _blocks(*blocks):
    """A diagonal Casimir (scale 1) with `dim` eigenvalues ratio * C(7) for each (ratio, dim)."""
    seven = int(spaces().calibration["7"])
    return np.diag([int(ratio * seven) for ratio, dim in blocks for _ in range(dim)])


@pytest.mark.parametrize("matrix", [np.eye(7, k=1, dtype=np.int64).tolist(), [[0, 1], [2, 0]]])
def test_casimir_spectrum_refuses_a_jordan_block_and_irrational_roots(monkeypatch, matrix):
    # C(7) I + matrix: a Jordan block at C(7), a table value, and the roots
    # C(7) +- sqrt(2), which are not rational
    seven = int(spaces().calibration["7"])
    _planted(monkeypatch, seven * np.eye(len(matrix), dtype=np.int64) + matrix)
    with pytest.raises(StructureError, match="not diagonalizable"):
        casimir_spectrum("lambda4")


@pytest.mark.parametrize("extra", [[], [(1, 14)]])
def test_casimir_decompose_refuses_a_64_block_at_the_value_of_77prime(monkeypatch, extra):
    # alone, the 64-block is no eigenspace of a candidate (77' is larger than
    # the module); beside two 7s, 77' does not divide it
    _planted(monkeypatch, _blocks((5, 64), *extra))
    with pytest.raises(StructureError, match="not diagonalizable|unmatched isotypic block"):
        casimir_decompose("lambda4")


def test_casimir_spectrum_refuses_a_77_block_off_the_table(monkeypatch):
    _planted(monkeypatch, _blocks((11, 77)))
    with pytest.raises(StructureError, match="not diagonalizable"):
        casimir_decompose("lambda4")


def test_casimir_decompose_labels_a_77_block_by_its_value(monkeypatch):
    _planted(monkeypatch, _blocks((5, 77)))
    assert casimir_decompose("lambda4") == {"77'": (77, 1)}
    _planted(monkeypatch, _blocks((4, 77)))
    assert casimir_decompose("lambda4") == {"77": (77, 1)}


@pytest.mark.parametrize("n", [70, 98])
def test_casimir_spectrum_refuses_a_random_casimir_quickly(monkeypatch, n):
    # a symmetric integer matrix with entries -6..6 is diagonalizable, but its
    # eigenvalues are no Casimir values: one chain refuses it
    upper = np.triu(np.random.default_rng(n).integers(-6, 7, size=(n, n)))
    # the calibration is read outside the timed region
    assert _planted(monkeypatch, upper + np.triu(upper, 1).T).calibration["7"]
    start = time.process_time()
    with pytest.raises(StructureError, match="not diagonalizable"):
        casimir_spectrum("lambda4")
    assert time.process_time() - start < 1


def test_casimir_decompose_refuses_an_unmatched_block(monkeypatch):
    # a block of the calibrated "7" scalar and dimension 14 is two copies of
    # the 7, and one of dimension 13 is refused
    seven = spaces().calibration["7"]
    num, den = seven.numerator, seven.denominator
    _planted(monkeypatch, np.eye(14, dtype=np.int64) * num, scale=den)
    assert casimir_spectrum("lambda4") == [(seven, 14)]
    assert casimir_decompose("lambda4") == {"7": (14, 2)}
    _planted(monkeypatch, np.diag([num] * 13 + [0]), scale=den)
    with pytest.raises(StructureError, match="unmatched isotypic block in lambda4"):
        casimir_decompose("lambda4")


def test_calibration_refuses_a_casimir_not_scalar_on_the_vector_module(monkeypatch):
    # C(7) on six vectors and 0 on the seventh is no multiple of the identity:
    # no C(7) can be read from it, and the calibration, read first by every
    # decomposition, refuses it
    seven = spaces().calibration["7"]
    fresh = _planted(monkeypatch, np.diag([seven.numerator] * 6 + [0]), "lambda1",
                     seven.denominator)
    with pytest.raises(StructureError, match="Casimir is not scalar on the vector module"):
        fresh.calibration
    with pytest.raises(StructureError, match="Casimir is not scalar on the vector module"):
        casimir_decompose("lambda2")


def _planted_certificates(monkeypatch, phi, psi):
    """rank_certificates() on a fresh Spaces whose Phi and Psi are the given integer matrices."""
    fresh = equivar.Spaces()
    fresh.phi, fresh.psi = (Tensor(np.asarray(x, dtype=np.int64)) for x in (phi, psi))
    monkeypatch.setattr(equivar, "spaces", lambda: fresh)
    return rank_certificates()


def test_rank_certificates_refuse_a_repeated_phi_column(sp, monkeypatch):
    phi = sp.phi.num.copy()
    phi[:, 1] = phi[:, 0]
    rc = _planted_certificates(monkeypatch, phi, sp.psi.num)
    assert not rc["phi-injective"] and not rc["images-meet-trivially"]


def test_rank_certificates_read_psi_inside_the_image_of_phi(sp, monkeypatch):
    # Psi = Phi X maps every isotypic block into Im(Phi): the 14-type image
    # meets it, both containments hold, and the scalar image Phi X b1 is not
    # zero because X b1 is not
    x = np.random.default_rng(0).integers(-2, 3, size=(98, 49))
    assert (x @ isotypic_basis_r7_m("1").num[0]).any()
    rc = _planted_certificates(monkeypatch, sp.phi.num, sp.phi.num @ x)
    assert rc["phi-injective"] and not rc["images-meet-trivially"]
    assert rc["scalar-image-contained"] and rc["traceless-image-contained"]
    assert not rc["scalar-image-solution-zero"]


def test_rank_certificates_refuse_a_generic_psi(sp, monkeypatch):
    psi = np.random.default_rng(1).integers(-3, 4, size=(196, 49))
    rc = _planted_certificates(monkeypatch, sp.phi.num, psi)
    assert rc["phi-injective"] and not rc["traceless-image-contained"]
