import random
from fractions import Fraction as Q

import pytest

from skewtor import g2
from skewtor.errors import NoSkewConnection
from skewtor.forms import Form, contract, hodge, inner, random_form, wedge
from skewtor.g2 import (G2Structure, _wedge_sums, canonical_omega3, classify,
                        codiff_identity, derivation_constant_identities,
                        dw3_decomposition_identity, nearly_parallel_identities,
                        pr_g2, pr_m, project2, project3, ricci_flat_conditions,
                        ricci_via_dt, spanning_27, tbeta_form,
                        torsion_component_identity, torsion_form)
from skewtor.liegeom import LieModel, curvature, d_form, with_torsion
from skewtor.linalg import Tensor
from skewtor.registry import registry

from g2_reference import (classify_by_loops, constant_identities_by_loops,
                          contraction_sums, ricci_by_loops)


W3 = canonical_omega3()
SW3 = hodge(W3)


def test_star_omega3_is_built_once_and_read_only(monkeypatch):
    # every G2 load shares the one *w3: loading models builds no Hodge star
    star = G2Structure(registry()["heis7"].model).star_omega3
    assert star == hodge(W3) and not star.num.flags.writeable
    calls = []
    monkeypatch.setattr(g2, "hodge", lambda f: calls.append(f) or hodge(f))
    for name in ("heis7", "solv7"):
        assert G2Structure(registry()[name].model).star_omega3 is star
    assert not calls


def test_project2_properties():
    rng = random.Random(4)
    for _ in range(3):
        a = random_form(7, 2, rng)
        p7, p14 = project2(a)
        assert p7 + p14 == a
        assert hodge(wedge(W3, p7)) == p7 * 2
        assert hodge(wedge(W3, p14)) == -p14
        assert project2(p7)[0] == p7 and project2(p7)[1].is_zero()
        assert project2(p14)[1] == p14 and project2(p14)[0].is_zero()
        assert inner(p7, p14) == 0
    for i in range(1, 8):
        assert project2(contract(W3, i))[1].is_zero()
    assert project2(Form.blade(7, 1, 2) - Form.blade(7, 3, 4))[0].is_zero()


def test_project3_properties():
    rng = random.Random(5)
    a = random_form(7, 3, rng)
    p1, p7, p27 = project3(a)
    assert p1 + p7 + p27 == a
    assert wedge(p27, W3).is_zero() and wedge(p27, SW3).is_zero()
    assert inner(p1, p7) == 0 and inner(p1, p27) == 0 and inner(p7, p27) == 0
    assert project3(W3) == (W3, Form(7, 3), Form(7, 3))
    b = contract(SW3, 1)
    assert project3(b) == (Form(7, 3), b, Form(7, 3))
    t_heis = torsion_form(G2Structure(registry()["heis7"].model))
    p1h, p7h, _ = project3(t_heis)
    assert p1h.is_zero() and p7h.is_zero()


def test_pr_m_pr_g2_complementary():
    rng = random.Random(6)
    a = random_form(7, 2, rng)
    assert pr_m(a) + pr_g2(a) == a
    assert pr_m(pr_m(a)) == pr_m(a)
    assert pr_g2(pr_m(a)).is_zero()


@pytest.mark.parametrize("name,pure27", [("heis7", True), ("solv7", True),
                                         ("abelian7", False)])
def test_classify_and_torsion_contract(name, pure27):
    s = G2Structure(registry()[name].model)
    cls = classify(s)
    assert cls.admits_connection()
    assert cls.lam == 0
    assert cls.beta.is_zero()
    assert cls.gamma27.is_zero() != pure27
    assert wedge(cls.gamma27, W3).is_zero()
    assert wedge(cls.gamma27, SW3).is_zero()
    t = torsion_form(s)
    conn = with_torsion(s.model, t)
    assert conn.nabla(Tensor.of_form(W3)).is_zero()
    assert torsion_component_identity(s)
    assert dw3_decomposition_identity(s)
    assert codiff_identity(s)


def test_vector_type_model():
    s = G2Structure(registry()["hyper7"].model)
    cls = classify(s)
    assert cls.admits_connection()
    assert cls.lam == 0
    assert cls.beta.vector_components() == [Q(0)] * 6 + [Q(-4)]
    assert cls.gamma27.is_zero()
    t = torsion_form(s)
    # pure vector type: T = -(1/4)(beta -| *w3)
    from skewtor.forms import interior
    assert t == interior(cls.beta, SW3) * Q(-1, 4)
    conn = with_torsion(s.model, t)
    assert conn.nabla(Tensor.of_form(W3)).is_zero()
    assert ricci_via_dt(conn) == curvature(conn).ric
    assert torsion_component_identity(s)
    assert dw3_decomposition_identity(s) and codiff_identity(s)


def test_nonzero_scaling_component_model():
    d = [Form(7, 2)] * 6 + [Form(7, 2, {(1, 2): Q(1)})]
    s = G2Structure(LieModel(7, d, name="scaled"))
    cls = classify(s)
    assert cls.admits_connection()
    assert cls.lam == Q(-2, 7)
    assert cls.beta.is_zero()
    t = torsion_form(s)
    conn = with_torsion(s.model, t)
    assert conn.nabla(Tensor.of_form(W3)).is_zero()
    assert torsion_component_identity(s)
    assert ricci_via_dt(conn) == curvature(conn).ric


def test_mixed_weight_model_is_obstructed():
    d = [Form(7, 2, {(i, 7): Q(w)}) for i, w in zip(range(1, 7),
                                                    (1, 1, 2, 2, 3, 3))] \
        + [Form(7, 2)]
    s = G2Structure(LieModel(7, d, name="mixed"))
    assert not classify(s).admits_connection()
    with pytest.raises(NoSkewConnection):
        torsion_form(s)


def test_obstructed_structure_raises():
    d = [Form(7, 2)] * 6 + [Form(7, 2, {(1, 3): Q(1)})]
    model = LieModel(7, d, name="obstructed")
    s = G2Structure(model)
    cls = classify(s)
    assert not cls.admits_connection()
    with pytest.raises(NoSkewConnection) as err:
        torsion_form(s)
    assert err.value.reason == "two-form-component"


def test_torsion_values():
    e = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    t_heis = torsion_form(G2Structure(registry()["heis7"].model))
    assert t_heis == -(e(5, 6, 7) - e(1, 3, 5) + e(3, 4, 7) + e(1, 4, 6))
    t_solv = torsion_form(G2Structure(registry()["solv7"].model))
    assert t_solv == e(2, 5, 6, c=2) - e(2, 3, 4, c=2)
    assert torsion_form(G2Structure(registry()["abelian7"].model)).is_zero()


@pytest.mark.parametrize("name", ["heis7", "solv7", "abelian7"])
def test_ricci_cross_oracle(name):
    s = G2Structure(registry()[name].model)
    t = torsion_form(s)
    table = curvature(with_torsion(s.model, t))
    assert ricci_via_dt(with_torsion(s.model, t)) == table.ric


def test_heis7_ricci_value():
    s = G2Structure(registry()["heis7"].model)
    rv = ricci_via_dt(with_torsion(s.model, torsion_form(s)))
    assert [rv[i][i] for i in range(7)] == [Q(-2), Q(0), Q(-2), Q(0), Q(0),
                                            Q(-2), Q(-2)]


def test_nearly_parallel_identity_pack():
    for lam in (0, 6, Q(1, 2), -3):
        pack = nearly_parallel_identities(lam)
        assert all(pack.values()), (lam, pack)
    # the quoted factor-of-7 mismatch does not occur under the implemented
    # normalization: 6T = -(lambda) w3 = (1/7)(d w3, *w3) w3
    lam = Q(6)
    t = W3 * (-lam / 6)
    dw3 = SW3 * -lam
    assert t * 6 == W3 * (Q(1, 7) * inner(dw3, SW3))


def test_constant_identities_all_hold():
    assert all(derivation_constant_identities().values())


def test_tbeta_matches_contraction():
    for b in range(1, 8):
        beta = Form.blade(7, b)
        assert tbeta_form(beta) == contract(SW3, b) * Q(-1, 4)


def test_spanning_27_rank():
    from skewtor.forms import all_blades
    from skewtor.linalg import rank
    span = spanning_27()
    blades = list(all_blades(7, 3))
    matrix = [[f.terms.get(b, Q(0)) for b in blades] for f in span]
    assert rank(matrix) == 27


def test_displayed_four_forms_verbatim():
    from skewtor.forms import sigma_t
    E = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    heis = registry()["heis7"].model
    t = torsion_form(G2Structure(heis))
    dt, sig = d_form(heis, t), sigma_t(t)
    assert dt * Q(1, 4) + sig * Q(1, 2) == \
        E(1, 3, 6, 7, c=-2) + E(3, 4, 5, 6) - E(1, 4, 5, 7)
    assert dt * Q(3, 4) - sig * Q(1, 2) == \
        E(1, 3, 6, 7, c=-2) - E(3, 4, 5, 6) + E(1, 4, 5, 7)
    solv = registry()["solv7"].model
    t = torsion_form(G2Structure(solv))
    dt, sig = d_form(solv, t), sigma_t(t)
    assert dt * Q(1, 4) + sig * Q(1, 2) == \
        E(1, 2, 5, 6, c=-1) + E(1, 2, 3, 4, c=-1) + E(3, 4, 5, 6, c=-2)
    assert dt * Q(3, 4) - sig * Q(1, 2) == \
        E(1, 2, 5, 6, c=-3) + E(1, 2, 3, 4, c=-3) + E(3, 4, 5, 6, c=2)


def test_ricci_flat_conditions_consistency():
    for name in ("heis7", "solv7", "abelian7"):
        s = G2Structure(registry()[name].model)
        t = torsion_form(s)
        cond = ricci_flat_conditions(s)
        assert cond["consistent"], (name, cond)
        assert cond["wedge-identity-when-flat"]
        if name == "abelian7":
            assert cond["ricci-vanishes"]
        else:
            assert not cond["ricci-vanishes"]
    heis = G2Structure(registry()["heis7"].model)
    t = torsion_form(heis)
    e = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    assert d_form(heis.model, t) == e(1, 3, 6, 7, c=-4)


# ---------------------------------------------------------------------------
# the dense contractions against the per-entry Fraction loops they replaced
# ---------------------------------------------------------------------------

def _scaled(model, c):
    """The rational homothety de_i -> c de_i; d^2 = 0 is quadratic, so Jacobi still holds."""
    return LieModel(7, [d * c for d in model.d_coframe], name=f"{model.name}*{c}")


_OBSTRUCTED = {
    "mixed": [Form(7, 2, {(i, 7): Q(w)}) for i, w in zip(range(1, 7), (1, 1, 2, 2, 3, 3))]
    + [Form(7, 2)],
    "obstructed": [Form(7, 2)] * 6 + [Form(7, 2, {(1, 3): Q(1)})],
}


@pytest.mark.parametrize("c", [1, 2, -1, Q(1, 3)])
@pytest.mark.parametrize("name", ["abelian7", "heis7", "hyper7", "solv7", "mixed", "obstructed"])
def test_classify_and_ricci_match_fraction_loops(name, c):
    base = (LieModel(7, _OBSTRUCTED[name], name=name) if name in _OBSTRUCTED
            else registry()[name].model)
    s = G2Structure(_scaled(base, c))
    lam, beta, gamma, obstruction = classify_by_loops(s)
    cls = classify(s)
    assert cls.lam == lam
    assert cls.beta.vector_components() == beta
    assert cls.obstruction14 == obstruction
    assert cls.admits_connection() == (name not in _OBSTRUCTED)
    assert cls.gamma27 == (hodge(d_form(s.model, W3)) + W3 * lam
                           - hodge(wedge(Form.of_rationals(7, 1, beta), W3)) * Q(3, 4))
    # the contraction formula entry for entry, also off the characteristic torsion,
    # where the table is not symmetric
    torsions = [torsion_form(s)] if cls.admits_connection() else []
    for t in torsions + [random_form(7, 3, random.Random(7))]:
        assert ricci_via_dt(with_torsion(s.model, t)) == ricci_by_loops(s, t)


def test_constant_identities_match_fraction_loops():
    assert derivation_constant_identities() == constant_identities_by_loops()
    # the wedge sums, family member by family member
    w = Tensor.of_form(W3)
    sums = [contraction_sums(lambda j, b=b: wedge(Form.blade(7, b),
                                                 Form.blade(7, j)))[1]
            for b in range(1, 8)]
    assert _wedge_sums(Tensor.einsum("ibj->bij", w)) == sums
    span = spanning_27()
    c_gamma = Tensor.einsum("kjab,iab->kij", Tensor.of_forms(span), w) * Q(1, 2)
    assert _wedge_sums(c_gamma) == [contraction_sums(lambda j, g=g: contract(g, j))[1]
                                    for g in span]
