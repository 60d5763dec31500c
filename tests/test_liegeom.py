import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, seed, settings, strategies as st

from skewtor.clifford import act_form, common_kernel
from skewtor.errors import DegreeError, DimensionMismatch, NoSkewConnection, StructureError
from skewtor.forms import Form, contract, hodge, random_form, sigma_t, wedge
from skewtor.g2 import canonical_omega3, project2, project3
from skewtor.liegeom import (ConnectionData, LieModel, SkewTorsionStructure, codiff, curvature,
                             curvature_identity_residuals,
                             d_form, lc_trace_vector, levi_civita, tt_contraction,
                             with_torsion)
from skewtor.linalg import GaussTensor, Tensor
from skewtor.registry import registry

from cq_reference import gamma_matrices, parts as cq_parts
from forms_reference import d_squared, nabla_form


@pytest.fixture(scope="module")
def heis7():
    return registry()["heis7"].model


@pytest.fixture(scope="module")
def solv7():
    return registry()["solv7"].model


@pytest.fixture(scope="module")
def heis5():
    return registry()["heis5"].model


@pytest.fixture(scope="module")
def aff4():
    """A 4-dimensional model that is not unimodular: its trace vector is -e_1."""
    return LieModel(4, [Form(4, 2), Form(4, 2, {(1, 2): Q(1)}), Form(4, 2),
                        Form(4, 2, {(1, 3): Q(-1)})], name="aff4")


def test_jacobi_enforced():
    # d(de4) = -e1 ^ de5 = -2 e1^e3^e4 != 0
    bad = [Form(5, 2), Form(5, 2), Form(5, 2),
           Form(5, 2, {(1, 5): Q(1)}),
           Form(5, 2, {(1, 2): Q(2), (3, 4): Q(2)})]
    with pytest.raises(StructureError):
        LieModel(5, bad, name="bad")


def test_jacobi_zero_on_registry():
    for entry in registry().values():
        n = entry.model.n
        residuals = entry.model.jacobi_residuals()
        assert residuals.num.shape == (n,) * 4 and residuals.is_zero()


@st.composite
def coframes(draw):
    """Structure 2-forms de_1 .. de_n, n in 3..8, with a few small integer terms in all: sparse
    enough that d^2 = 0 holds for many of them."""
    n = draw(st.integers(3, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    terms = draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from(pairs),
                                    st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=5))
    d_coframe = [{} for _ in range(n)]
    for k, blade, c in terms:
        d_coframe[k - 1][blade] = c
    return [Form(n, 2, d) for d in d_coframe]


def test_jacobi_tensor_decides_as_the_per_form_check():
    closed_outcomes = []

    @seed(38)
    @settings(max_examples=300, deadline=None, database=None)
    @given(d_coframe=coframes())
    def decide(d_coframe):
        closed = all(r.is_zero() for r in d_squared(d_coframe))
        try:
            model = LieModel(len(d_coframe), d_coframe)
        except StructureError as err:
            assert not closed and "violate d^2 = 0" in str(err)
        else:
            assert closed and model.jacobi_residuals().is_zero()
        closed_outcomes.append(closed)

    decide()
    assert set(closed_outcomes) == {True, False}


def test_structure_constant_recovery(heis7):
    # de4 = e1^e6 + e3^e7 corresponds to [e1,e6] = -e4, [e3,e7] = -e4
    assert heis7.c[0, 5, 3] == -1
    assert heis7.c[2, 6, 3] == -1
    assert heis7.c[5, 0, 3] == 1


def test_d_matches_registry_values(heis7):
    w3 = canonical_omega3()
    dw3 = d_form(heis7, w3)
    e = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    assert dw3 == e(1, 2, 3, 4) + e(2, 4, 6, 7) + e(1, 2, 5, 6) - e(2, 3, 5, 7)
    assert d_form(heis7, Form.blade(7, 4)) == e(1, 6) + e(3, 7)
    assert d_form(heis7, Form.scalar(7, 5)).is_zero()


def _d_via_connection(model, a):
    """d(a) = sum_i e_i ^ nabla^g_{e_i} a, the reference for the CE differential."""
    n, nab = model.n, model.levi_civita.nabla(Tensor.of_form(a))
    return sum((wedge(Form.blade(n, i), nab[i - 1].to_form()) for i in range(1, n + 1)),
               Form.zero(n, a.degree + 1))


def _torsion_table(conn):
    """T(e_i,e_j) - (nabla_i e_j - nabla_j e_i - [e_i,e_j]) sanity table, from omega and c."""
    return conn.omega - Tensor.einsum("jik->ijk", conn.omega) - conn.model.c


def test_d_squared_zero_and_connection_route(heis7, solv7, heis5):
    rng = random.Random(17)
    for model in (heis7, solv7, heis5):
        for degree in (1, 2, 3):
            a = random_form(model.n, degree, rng, span=3)
            assert d_form(model, d_form(model, a)).is_zero()
            assert _d_via_connection(model, a) == d_form(model, a)


def test_d_is_an_antiderivation(heis7, solv7, heis5):
    rng = random.Random(31)
    for model in (heis7, solv7, heis5):
        n = model.n
        conn = with_torsion(model, random_form(n, 3, rng, span=3))
        for p_deg in (1, 2):
            for q_deg in (1, 2):
                a = random_form(n, p_deg, rng, span=3)
                b = random_form(n, q_deg, rng, span=3)
                lhs = d_form(model, wedge(a, b))
                rhs = wedge(d_form(model, a), b) \
                    + wedge(a, d_form(model, b)) * (Q(-1) ** p_deg)
                assert lhs == rhs
                # nabla_{e_i} under a torsion connection is an even derivation
                nab_ab, nab_a, nab_b = (conn.nabla(Tensor.of_form(x)) for x in (wedge(a, b), a, b))
                for i in range(n):
                    assert nab_ab[i].to_form() == \
                        wedge(nab_a[i].to_form(), b) + wedge(a, nab_b[i].to_form())


def test_codiff_examples(heis7, solv7, heis5):
    w3 = canonical_omega3()
    assert codiff(levi_civita(solv7), w3).is_zero()
    eta = Form.blade(5, 5)
    t = wedge(eta, d_form(heis5, eta))
    assert codiff(levi_civita(heis5), t).is_zero()
    assert codiff(levi_civita(heis5), Form.scalar(5, 3)).is_zero()


def test_codiff_against_hodge_composite(heis7, solv7, heis5, aff4):
    # delta = (-1)^(n(p+1)+1) * d * on p-forms of an oriented n-frame; off the
    # unimodular class delta of a 1-form need not vanish: delta e^1 = -1 on aff4
    assert codiff(levi_civita(aff4), Form.blade(4, 1)) == Form.scalar(4, -1)
    rng = random.Random(23)
    for model in (heis5, heis7, solv7, aff4):
        n = model.n
        for p in (1, 2, 3):
            a = random_form(n, p, rng, span=3)
            sign = Q(-1) ** (n * (p + 1) + 1)
            composite = hodge(d_form(model, hodge(a))) * sign
            assert codiff(levi_civita(model), a) == composite


def test_levi_civita_properties(heis5):
    lc = levi_civita(heis5)
    n = heis5.n
    # metric: skew in last two arguments (constructor enforces, but recheck)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert lc.omega[i][j][k] == -lc.omega[i][k][j]
    # torsion-free: nabla_i e_j - nabla_j e_i = [e_i, e_j]
    assert _torsion_table(lc).is_zero()
    # the worked value nabla_{e1} e2 = -e5
    assert lc.nabla(Tensor.of([Q(1) if k == 1 else Q(0) for k in range(n)]))[0] == \
        [Q(0), Q(0), Q(0), Q(0), Q(-1)]


@pytest.mark.parametrize("read", [
    lambda lc: lc.dt, lambda lc: lc.delta_t, lambda lc: lc.nabla_t,
    curvature_identity_residuals, lambda lc: lc.spinors.square_residual(),
    lambda lc: lc.spinors.anticommutator_residual(), lambda lc: lc.spinors.field_equations()],
    ids=["dt", "delta_t", "nabla_t", "curvature_identity_residuals", "SpinorData",
         "SpinorData.anticommutator", "SpinorData.field_equations"])
def test_torsion_tables_of_levi_civita_raise(read):
    # the Levi-Civita connection has no torsion form to read
    with pytest.raises(StructureError, match="no torsion form"):
        read(registry()["heis5"].model.levi_civita)


def test_spinor_side_of_levi_civita(heis5):
    # the spin connection, Dirac operator and parallel spinors need no torsion;
    # a Levi-Civita parallel spinor forces Ric = 0, and heis5 has Ric != 0
    spin = heis5.levi_civita.spinors
    assert spin is heis5.levi_civita.spinors
    assert len(spin.lams) == 5 and len(spin.dirac) == 4
    assert len(spin.parallel) == 0


def test_dirac_operator_is_the_sum_of_gamma_spin_connection_products():
    # the reference D = sum_i Gamma_i Lambda_i, with the Kronecker gamma matrices, on
    # the Levi-Civita connection of every registry model and the characteristic
    # connection of every structure that admits one
    connections = []
    for name, entry in registry().items():
        connections.append((name, entry.model.levi_civita))
        structure = entry.structure
        if isinstance(structure, SkewTorsionStructure) and structure.admits_connection():
            connections.append((name, structure.connection))
    assert len(connections) == 26
    for name, conn in connections:
        spin = conn.spinors
        gammas = [GaussTensor.of_parts(*cq_parts(g)) for g in gamma_matrices(conn.model.n)]
        products = [g @ lam for g, lam in zip(gammas, spin.lams)]
        assert spin.dirac == sum(products[1:], products[0]), name


def test_levi_civita_uniqueness(heis7):
    # adding any nonzero metric-compatible perturbation breaks torsion-freeness
    lc = levi_civita(heis7)
    t = Form(7, 3, {(1, 2, 3): Q(1)})
    conn = with_torsion(heis7, t)
    assert not _torsion_table(conn).is_zero()


def test_abelian_trivial():
    model = registry()["abelian7"].model
    lc = levi_civita(model)
    assert all(x == 0 for plane in lc.omega for row in plane for x in row)
    assert curvature(lc).scal == 0


def test_with_torsion_validation(heis5):
    with pytest.raises(DegreeError):
        with_torsion(heis5, Form(5, 2, {(1, 2): Q(1)}))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Tensor.of_forms([Form.blade(3, 1), Form.blade(4, 1)]),
     DimensionMismatch, "forms of different dimension"),
    (lambda: Tensor.of_forms([Form.blade(3, 1), Form.blade(3, 1, 2)]),
     DegreeError, "forms of different degree"),
    (lambda: project2(canonical_omega3()), DegreeError, "project2 expects a 2-form on the 7-frame"),
    (lambda: project3(Form.blade(7, 1, 2)), DegreeError, "project3 expects a 3-form on the 7-frame"),
    (lambda: common_kernel([GaussTensor.identity(2), GaussTensor.identity(4)]),
     DimensionMismatch, "spin endomorphism sizes differ"),
    (lambda: ConnectionData(registry()["heis5"].model, Tensor.of([[[1] * 5] * 5] * 5)),
     StructureError, "connection is not metric"),
    (lambda: with_torsion(registry()["heis5"].model, canonical_omega3()),
     DimensionMismatch, "torsion does not live on this model"),
    (lambda: d_form(registry()["heis5"].model, Form.blade(7, 1)),
     DimensionMismatch, "form does not live on this model"),
    (lambda: Form.blade(3, 1, 4), ValueError, "blade (1, 4) not in 1..3"),
    (lambda: contract(Form.blade(3, 1, 2), 4), ValueError, "contraction index 4 outside 1..3"),
    (lambda: contract(Form.blade(3, 1, 2), 0), ValueError, "contraction index 0 outside 1..3"),
    (lambda: hodge(Form.zero(3, 4)), DegreeError, "degree 4 out of range for dimension 3"),
], ids=["of-forms-mixed-n", "of-forms-mixed-degree", "project2-of-a-3-form",
        "project3-of-a-2-form", "common-kernel-mixed-sizes", "non-metric-omega",
        "with-torsion-of-another-dimension", "d-form-of-another-dimension", "blade-index-above-n",
        "contract-index-above-n", "contract-index-zero", "hodge-degree-above-n"])
def test_public_guards_refuse_with_their_messages(call, error, message):
    # the guards of the exact layer's public entry points, which no other
    # test and no registry model reaches
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_curvature_symmetries(heis7):
    w3 = canonical_omega3()
    dw3 = d_form(heis7, w3)
    t = -hodge(dw3)
    table = curvature(with_torsion(heis7, t))
    n = 7
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert table.r[i][j][k][l] == -table.r[j][i][k][l]
                    assert table.r[i][j][k][l] == -table.r[i][j][l][k]
    assert table.scal == sum(table.r[i][j][j][i] for i in range(n) for j in range(n))


def test_heis7_tables(heis7):
    w3 = canonical_omega3()
    t = -hodge(d_form(heis7, w3))
    conn = with_torsion(heis7, t)
    assert conn.nabla(Tensor.of_form(w3)).is_zero()
    table = curvature(conn)
    assert table.ric_diag() == [Q(-2), Q(0), Q(-2), Q(0), Q(0), Q(-2), Q(-2)]
    assert table.scal == -8
    ttc = tt_contraction(t)
    assert [ttc[i][i] for i in range(7)] == [Q(4), Q(0), Q(4), Q(4), Q(4), Q(4), Q(4)]
    assert curvature(levi_civita(heis7)).ric_diag() == \
        [Q(-1), Q(0), Q(-1), Q(1), Q(1), Q(-1), Q(-1)]


def test_trace_vector_computed_not_assumed(solv7, heis7, aff4):
    # every registry model turns out unimodular (trace vector zero) ...
    assert not any(lc_trace_vector(solv7))
    assert not any(lc_trace_vector(heis7))
    # ... but the term is computed, and genuinely matters off that class:
    hyper = LieModel(2, [Form(2, 2), Form(2, 2, {(1, 2): Q(1)})], name="aff2")
    v = lc_trace_vector(hyper)
    assert any(v)
    assert with_torsion(hyper, Form(2, 3)).spinors.square_residual().is_zero()
    # a 4-dim variant where the trace direction carries spin-connection content
    assert lc_trace_vector(aff4) == [Q(-1), Q(0), Q(0), Q(0)]
    t0 = Form(4, 3)
    spin = with_torsion(aff4, t0).spinors
    assert spin.square_residual().is_zero()
    assert spin.anticommutator_residual().is_zero()
    # and a torsion whose codifferential does not vanish: the identity still
    # closes exactly, which pins the 1/2 on the codifferential term
    t1 = Form(4, 3, {(1, 2, 3): Q(1)})
    assert not codiff(levi_civita(aff4), t1).is_zero()
    spin = with_torsion(aff4, t1).spinors
    assert spin.square_residual().is_zero()
    assert spin.anticommutator_residual().is_zero()
    res = curvature_identity_residuals(with_torsion(aff4, t1))
    assert all(v == 0 for v in res.values())
    # dropping the trace term breaks the identity
    conn = with_torsion(aff4, t0)
    lam = conn.spinors.lams
    d2 = conn.spinors.dirac @ conn.spinors.dirac
    lap_no_trace = GaussTensor.identity(4) * 0
    for i in range(4):
        lap_no_trace = lap_no_trace - lam[i] @ lam[i]
    scal = curvature(conn).scal
    rhs = lap_no_trace + GaussTensor.identity(4) * Q(scal, 4)
    assert not (d2 - rhs).is_zero()


def test_section2_identities_zero(heis7, solv7, heis5):
    w3 = canonical_omega3()
    cases = [
        (heis7, -hodge(d_form(heis7, w3))),
        (solv7, -hodge(d_form(solv7, w3))),
        (heis5, wedge(Form.blade(5, 5),
                      d_form(heis5, Form.blade(5, 5)))),
        (registry()["abelian5"].model, Form(5, 3, {(1, 2, 3): Q(1)})),
    ]
    for model, t in cases:
        res = curvature_identity_residuals(with_torsion(model, t))
        assert all(v == 0 for v in res.values()), (model.name, res)


def test_operator_identities_and_parallel_counts(heis7, solv7, heis5):
    w3 = canonical_omega3()
    cases = [
        (heis7, -hodge(d_form(heis7, w3)), 4),
        (solv7, -hodge(d_form(solv7, w3)), 2),
        (heis5, wedge(Form.blade(5, 5),
                      d_form(heis5, Form.blade(5, 5))), 2),
    ]
    for model, t, count in cases:
        spin = with_torsion(model, t).spinors
        assert spin.square_residual().is_zero()
        assert spin.anticommutator_residual().is_zero()
        basis = spin.parallel
        assert len(basis) == count
        tm = act_form(t)
        assert all((tm @ psi).is_zero() for psi in basis)
        _, residuals = spin.field_equations()
        for r1, r2 in residuals:
            assert r1.is_zero()
            assert all(vec.is_zero() for vec in r2)


def test_abelian_operator_identities():
    for name in ("abelian5", "abelian6", "abelian7"):
        model = registry()[name].model
        t = Form(model.n, 3)
        spin = with_torsion(model, t).spinors
        assert spin.square_residual().is_zero()
        assert spin.anticommutator_residual().is_zero()
        assert len(spin.parallel) == 2 ** (model.n // 2)


# ---------------------------------------------------------------------------
# reference implementations: the nested Fraction loops over Form.eval that the
# dense contractions replaced, kept to compare against entry for entry
# ---------------------------------------------------------------------------

def _omega_by_loops(model, t=None):
    """Connection coefficients omega[i][j][k] from the structure 2-forms (and a torsion)."""
    n = model.n
    c = [[[-model.d_coframe[k].eval(i + 1, j + 1) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return [[[Q(c[i][j][k] - c[j][k][i] + c[k][i][j], 2)
              + (Q(1, 2) * t.eval(i + 1, j + 1, k + 1) if t is not None else 0)
              for k in range(n)] for j in range(n)] for i in range(n)], c


def _curvature_by_loops(model, t=None):
    n = model.n
    om, c = _omega_by_loops(model, t)
    r = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for m in range(n):
                    val = Q(0)
                    for l in range(n):
                        val += om[j][k][l] * om[i][l][m] - om[i][k][l] * om[j][l][m]
                        if c[i][j][l]:
                            val -= c[i][j][l] * om[l][k][m]
                    r[i][j][k][m] = val
                    r[j][i][k][m] = -val
    ric = [[sum(r[i][x][y][i] for i in range(n)) for y in range(n)] for x in range(n)]
    scal = sum(r[i][j][j][i] for i in range(n) for j in range(n))
    return r, ric, scal


def _identity_residuals_by_loops(model, t, torsion_tables, lc_tables):
    n = model.n
    conn = with_torsion(model, t)
    dt = d_form(model, t)
    sig = sigma_t(t)
    delta_t = codiff(levi_civita(model), t)
    nab_t = [nabla_form(conn, i, t) for i in range(1, n + 1)]
    rt, rt_ric, _ = torsion_tables
    rg, rg_ric, _ = lc_tables

    def tvec(i, j):
        return [t.eval(i, j, k) for k in range(1, n + 1)]

    res = {k: Q(0) for k in ("torsion-differential", "curvature-comparison",
                             "first-bianchi", "ricci-comparison",
                             "ricci-skew-part", "codifferential-agreement")}
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for z in range(1, n + 1):
                for v in range(1, n + 1):
                    lhs = dt.eval(x, y, z, v)
                    cyc = (nab_t[x - 1].eval(y, z, v) + nab_t[y - 1].eval(z, x, v)
                           + nab_t[z - 1].eval(x, y, v))
                    rhs = cyc - nab_t[v - 1].eval(x, y, z) + 2 * sig.eval(x, y, z, v)
                    res["torsion-differential"] = max(res["torsion-differential"],
                                                      abs(lhs - rhs))
                    g_t = sum(a * b for a, b in zip(tvec(x, y), tvec(z, v)))
                    rhs2 = (rt[x - 1][y - 1][z - 1][v - 1]
                            - Q(1, 2) * nab_t[x - 1].eval(y, z, v)
                            + Q(1, 2) * nab_t[y - 1].eval(x, z, v)
                            - Q(1, 4) * g_t - Q(1, 4) * sig.eval(x, y, z, v))
                    res["curvature-comparison"] = max(
                        res["curvature-comparison"], abs(rg[x - 1][y - 1][z - 1][v - 1] - rhs2))
                    bia = (rt[x - 1][y - 1][z - 1][v - 1] + rt[y - 1][z - 1][x - 1][v - 1]
                           + rt[z - 1][x - 1][y - 1][v - 1])
                    rhs3 = (dt.eval(x, y, z, v) - sig.eval(x, y, z, v)
                            + nab_t[v - 1].eval(x, y, z))
                    res["first-bianchi"] = max(res["first-bianchi"], abs(bia - rhs3))
    for x in range(n):
        for y in range(n):
            ttc = sum(t.eval(x + 1, m, k) * t.eval(y + 1, m, k)
                      for m in range(1, n + 1) for k in range(1, n + 1))
            rhs = (rt_ric[x][y] + Q(1, 2) * delta_t.eval(x + 1, y + 1) + Q(1, 4) * ttc)
            res["ricci-comparison"] = max(res["ricci-comparison"], abs(rg_ric[x][y] - rhs))
            skew = rt_ric[x][y] - rt_ric[y][x] + delta_t.eval(x + 1, y + 1)
            res["ricci-skew-part"] = max(res["ricci-skew-part"], abs(skew))
    diff = delta_t - codiff(conn, t)
    res["codifferential-agreement"] = max((abs(c) for c in diff.terms.values()),
                                          default=Q(0))
    return res


def _torsions(name):
    """The model's characteristic torsion (when it has one) and a seeded random 3-form."""
    entry = registry()[name]
    out = [random_form(entry.model.n, 3, random.Random(name), span=2)]
    try:
        out.append(entry.structure.torsion)
    except NoSkewConnection:
        pass
    return out


@pytest.mark.parametrize("name", sorted(registry()))
def test_dense_tables_match_fraction_loops(name):
    model = registry()[name].model
    n = model.n
    om_lc = _omega_by_loops(model)[0]
    assert lc_trace_vector(model) == [sum(om_lc[i][i][k] for i in range(n))
                                      for k in range(n)]
    lc_tables = _curvature_by_loops(model)
    for t in [None] + _torsions(name):
        conn = levi_civita(model) if t is None else with_torsion(model, t)
        om, c = _omega_by_loops(model, t)
        assert conn.omega == om and model.c == c
        tables = lc_tables if t is None else _curvature_by_loops(model, t)
        table = curvature(conn)
        assert (table.r, table.ric, table.scal) == tables
        if t is not None:
            assert curvature_identity_residuals(with_torsion(model, t)) == \
                _identity_residuals_by_loops(model, t, tables, lc_tables)
            assert tt_contraction(t) == [
                [sum(t.eval(i, m, k) * t.eval(j, m, k) for m in range(1, n + 1)
                     for k in range(1, n + 1)) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
