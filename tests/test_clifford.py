import random
from fractions import Fraction as Q
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from skewtor import clifford
from skewtor.clifford import (act_form, common_kernel,
                              eigen_report, half_module_blocks,
                              kernel_conditions_5d, kernel_conditions_are_membership,
                              spinor_5d)
from skewtor.errors import DimensionMismatch
from skewtor.forms import Form, contract, hodge, random_form, volume_form, wedge
from skewtor.g2 import canonical_omega3
from skewtor.linalg import (GaussTensor, certified_spectrum, charpoly, is_hermitian, nullspace, rank,
                            rational_roots, unscaled)

import cq_reference
import exact_reference
from cq_reference import (CQ, act_form_by_gamma_products, charpoly_by_fractions, entries,
                          gamma_matrices, mat_mul, monomial_of, parts as cq_parts, poly_eval,
                          split_by_sympy)


def gauss(values):
    """The GaussTensor of nested lists of reference CQs (or rationals)."""
    return GaussTensor.of_parts(*cq_parts(values))


def cq(tensor):
    """The reference CQs of a GaussTensor, as nested lists."""
    return entries(tensor.num, tensor.den)


def gammas_of(n):
    """Gamma_1 .. Gamma_n of the program: the actions of the unit vectors."""
    return [act_form(Form.blade(n, i)) for i in range(1, n + 1)]


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_monomials_match_the_kronecker_reference(n):
    reference = gamma_matrices(n)
    assert clifford._generators(n) == tuple(map(monomial_of, reference))
    assert [cq(g) for g in gammas_of(n)] == reference


@pytest.mark.parametrize("n", range(2, 9))
def test_clifford_relations(n):
    gammas, dim = gammas_of(n), 2 ** (n // 2)
    assert len(gammas[0]) == dim
    for i in range(n):
        for j in range(i, n):
            anti = cq(gammas[i] @ gammas[j] + gammas[j] @ gammas[i])
            want = CQ(-2) if i == j else CQ(0)
            assert all(anti[a][b] == (want if a == b else CQ(0))
                       for a in range(dim) for b in range(dim))


@pytest.mark.parametrize("n", (5, 6, 7))
def test_gammas_anti_hermitian(n):
    dim = 2 ** (n // 2)
    for g in map(cq, gammas_of(n)):
        for a in range(dim):
            for b in range(dim):
                assert g[a][b] == -g[b][a].conj()


def test_act_form_reads_the_module_of_its_dimension():
    assert act_form(Form.scalar(5, 1)) == GaussTensor.identity(4)
    reference = gamma_matrices(6)
    assert act_form([Form.blade(6, 1), Form.blade(6, 2)]) == \
        gauss(reference[0]) + gauss(reference[1])
    with pytest.raises(DimensionMismatch):
        act_form([Form.blade(5, 1, 2), Form.blade(7, 1)])
    with pytest.raises(DimensionMismatch):
        act_form(Form.blade(9, 1))
    with pytest.raises(DimensionMismatch):
        half_module_blocks(7, act_form(volume_form(7)))


def test_act_form_algebra_map_on_disjoint_blades():
    a = Form.blade(7, 1, 3)
    b = Form.blade(7, 2, 5, 6)
    lhs = act_form(wedge(a, b))
    rhs = act_form(a) @ act_form(b)
    assert lhs == rhs


@st.composite
def vector_and_form(draw):
    """A unit vector index i and a form of any degree on R^n (n = 2..8).

    Numerators reach past 2^63, so the integer entries leave int64.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    degree = draw(st.integers(min_value=0, max_value=n))
    numerators = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
    coeffs = st.builds(Q, numerators, st.integers(min_value=1, max_value=2 ** 40))
    terms = draw(st.dictionaries(
        st.sampled_from(list(combinations(range(1, n + 1), degree))), coeffs, max_size=6))
    return draw(st.integers(min_value=1, max_value=n)), Form(n, degree, terms)


@seed(37421454391770731680937989246202159579210960564476580652491210375506972295021745343985499041225132765601222868980873)
@settings(max_examples=80, deadline=None)
@given(data=vector_and_form())
@example(data=(3, Form(7, 3, {(1, 2, 4): Q(2 ** 64 + 1, 3), (3, 5, 6): Q(-(2 ** 63) - 5)})))
# e_3 -| a is 0 over the denominator 9223372036893892718, past 2^63
@example(data=(3, Form(3, 1, {(1,): Q(1, 22724474), (2,): Q(1, 405878351107)})))
def test_vector_action_is_wedge_minus_contraction(data):
    # e . a = e ^ a - e -| a for a unit vector e (e . e = -1)
    i, a = data
    e = Form.blade(a.n, i)
    assert act_form(e) @ act_form(a) == act_form([wedge(e, a), -contract(a, i)])


def test_omega3_spectrum_and_normalizations():
    w3 = canonical_omega3()
    report = eigen_report(act_form(w3))
    assert report.pairs == [(Q(-7), 1), (Q(1), 7)]
    assert report.hermitian
    # the simple eigenvector satisfies the contraction identity
    shifted = act_form(w3) + GaussTensor.identity(8) * 7
    (psi0,) = nullspace(shifted)
    sw3 = hodge(w3)
    assert act_form(sw3) @ psi0 == psi0 * -7
    for i in range(1, 8):
        lhs = act_form(contract(sw3, i)) @ psi0
        rhs = act_form(Form.blade(7, i)) @ psi0
        assert lhs == rhs * 4


def test_contact_form_spectrum_dim5():
    eta = Form.blade(5, 5)
    de = Form.blade(5, 1, 2, coeff=2) + Form.blade(5, 3, 4, coeff=2)
    report = eigen_report(act_form(wedge(eta, de)))
    assert report.pairs == [(Q(-4), 1), (Q(0), 2), (Q(4), 1)]


def test_eigen_multiset_invariant_under_conjugation():
    eta = Form.blade(5, 5)
    de = Form.blade(5, 1, 2, coeff=2) + Form.blade(5, 3, 4, coeff=2)
    m = act_form(wedge(eta, de))
    rng = random.Random(3)
    g = [[CQ(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
         for _ in range(4)]
    g[0][0] = g[0][0] + CQ(7)
    cols = cq_reference.solve(g, [[CQ(int(i == j)) for i in range(4)] for j in range(4)])
    ginv = [[col[i] for col in cols] for i in range(4)]
    conj = gauss(g) @ m @ gauss(ginv)
    assert eigen_report(conj).pairs == eigen_report(m).pairs


def test_common_kernel_conventions():
    gammas = gammas_of(5)
    g12 = gammas[0] @ gammas[1]
    g34 = gammas[2] @ gammas[3]
    s = g12 + g34
    ker = common_kernel([s])
    assert len(ker) == 2


def test_kernel_conditions_match_membership():
    rng = random.Random(99)
    for _ in range(200):
        t = random_form(5, 3, rng, span=4)
        x = random_form(5, 1, rng, span=4)
        endo = act_form([t, x])
        for which in ("plus", "minus"):
            member = (endo @ spinor_5d(which)).is_zero()
            assert member == kernel_conditions_5d(t, x, which)


def test_kernel_conditions_are_membership_exactly(monkeypatch):
    assert kernel_conditions_are_membership("plus")
    assert kernel_conditions_are_membership("minus")
    # the rank comparison sees a wrong sign pattern: the other variant's rows
    plus_rows = clifford.kernel_condition_rows("plus")
    monkeypatch.setattr(clifford, "kernel_condition_rows", lambda which: plus_rows)
    assert not kernel_conditions_are_membership("minus")


def test_kernel_conditions_signed_samples():
    t = Form(5, 3, {(2, 3, 4): Q(1)})
    assert kernel_conditions_5d(t, Form(5, 1, {(1,): Q(-1)}), "plus")
    assert not kernel_conditions_5d(t, Form(5, 1, {(1,): Q(1)}), "plus")
    assert kernel_conditions_5d(t, Form(5, 1, {(1,): Q(1)}), "minus")
    assert not kernel_conditions_5d(t, Form(5, 1, {(1,): Q(-1)}), "minus")
    assert kernel_conditions_5d(Form(5, 3), Form(5, 1), "plus")
    assert kernel_conditions_5d(Form(5, 3), Form(5, 1), "minus")


def test_half_module_spectrum_dim6():
    endo = act_form([Form.blade(6, 1, 2, 3, 4) + Form.blade(6, 1, 2, 5, 6)
                     + Form.blade(6, 3, 4, 5, 6), Form.scalar(6, 3)])
    blocks = half_module_blocks(6, endo)
    assert [len(b) for b in blocks] == [4, 4]
    for block in blocks:
        assert eigen_report(block).pairs == [(Q(0), 1), (Q(4), 3)]


@st.composite
def graded_forms(draw):
    """A form on R^n (n = 2..8) with parts of even degrees only, of odd degrees only, or of
    one even and one odd degree."""
    n = draw(st.integers(min_value=2, max_value=8))
    even, odd = range(0, n + 1, 2), range(1, n + 1, 2)
    parity = draw(st.sampled_from(("even", "odd", "mixed")))
    if parity == "mixed":
        degrees = [draw(st.sampled_from(even)), draw(st.sampled_from(odd))]
    else:
        degrees = draw(st.lists(st.sampled_from(even if parity == "even" else odd),
                                min_size=1, max_size=2, unique=True))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return [Form(n, p, draw(st.dictionaries(
        st.sampled_from(list(combinations(range(1, n + 1), p))), coeffs, max_size=5)))
        for p in degrees]


@seed(39)
@settings(max_examples=80, deadline=None)
@given(parts=graded_forms())
@example(parts=[Form.blade(8, 1, 2, 3) * Q(1, 2), Form.blade(8, 4, 5, 6, 7, 8)])
def test_graded_spectrum_matches_the_fraction_reference(parts):
    # det(yI - dA) factored along the half modules, whole and in the report,
    # against the Faddeev-LeVerrier reference over Q(i) and sympy's factorization
    m = act_form(parts)
    reference = [c * m.den ** k for k, c in enumerate(charpoly_by_fractions(cq(m)))]
    graded = clifford._graded_charpoly(m)
    assert type(graded) is GaussTensor and exact_reference.holds(graded)
    assert cq(graded) == reference and cq(charpoly(m)) == reference
    report = eigen_report(m)
    if any(c.im for c in reference):
        assert report.pairs == []
        assert cq(report.residual) == [c * Q(1, m.den ** k) for k, c in enumerate(reference)]
    else:
        pairs, residual = split_by_sympy([c.re for c in reference], m.den)
        assert report.pairs == pairs
        assert (None if report.residual is None else cq(report.residual)) == \
            (None if residual is None else [CQ(c) for c in residual])


@pytest.mark.parametrize("n", (6, 8))
def test_pure_parity_spectra_run_one_charpoly_on_half_blocks(monkeypatch, n):
    calls = []

    def spy(matrix):
        calls.append(matrix.num.shape)
        return charpoly(matrix)

    monkeypatch.setattr(clifford, "charpoly", spy)
    rng = random.Random(n)
    even = [random_form(n, 2, rng, 4), random_form(n, 4, rng, 4), Form.scalar(n, Q(1, 3))]
    odd = [random_form(n, 1, rng, 3), random_form(n, 3, rng, 4)]
    half = 2 ** (n // 2 - 1)
    for parts, shape in ((even, (2, half, half, 2)), (odd, (half, half, 2)),
                         (even + odd, (2 * half, 2 * half, 2))):
        calls.clear()
        m = act_form(parts)
        report = eigen_report(m)
        assert calls == [shape]
        # the same spectrum as the whole matrix's characteristic polynomial
        whole = charpoly(m)
        if whole.im.any():
            assert report.pairs == [] and report.residual == unscaled(whole, m.den)
        else:
            assert (report.pairs, report.residual) == rational_roots(whole.re.tolist(), m.den)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_half_spinor_bases_are_the_volume_eigenspaces(n):
    # the reference volume element acts on the first half module by +i and on
    # the second by -i where it squares to -1 (n = 2 mod 4), by +1 and -1
    # where it squares to +1 (n = 0 mod 4); each half holds half the spinors
    volume = act_form(volume_form(n))
    assert volume == gauss(reduce(mat_mul, gamma_matrices(n)))
    eye = GaussTensor.identity(2 ** (n // 2 - 1))
    phase = GaussTensor.of_parts(0 * eye.re, eye.re) if n % 4 == 2 else eye
    assert half_module_blocks(n, volume) == (phase, -phase)


def test_half_module_blocks_split_the_two_forms_dim4():
    # e12 + e34 = Gamma_1 Gamma_2 (1 - vol) vanishes on the +1 half module and
    # squares to -4 on the -1 half; e12 - e34 = Gamma_1 Gamma_2 (1 + vol) the
    # other way round
    for sign, zero_half in ((1, 0), (-1, 1)):
        endo = act_form(Form.blade(4, 1, 2) + Form.blade(4, 3, 4) * sign)
        blocks = half_module_blocks(4, endo)
        assert [b.num.shape for b in blocks] == [(2, 2, 2)] * 2
        other = blocks[1 - zero_half]
        assert blocks[zero_half].is_zero() and other @ other == GaussTensor.identity(2) * -4


def test_half_module_blocks_refuse_an_action_that_swaps_the_halves():
    # an odd form anticommutes with the volume element and swaps the half modules
    for parts in ([Form.blade(6, 1)], [Form.blade(6, 2, 4, 5), Form.scalar(6, 1)]):
        with pytest.raises(ValueError, match="half modules"):
            half_module_blocks(6, act_form(parts))
    for n in (4, 6, 8):
        with pytest.raises(ValueError, match="half modules"):
            half_module_blocks(n, act_form([Form.blade(n, 2, 3, 4), Form.scalar(n, 1)]))
        # so does one entry between the halves of an even form's action
        plus, minus = clifford._half_rows(n)
        endo = act_form(Form.blade(n, 1, 2)).num.copy()
        endo[plus[0], minus[-1], 1] = 1
        with pytest.raises(ValueError, match="half modules"):
            half_module_blocks(n, GaussTensor(endo))
        # a matrix of another module's size is refused, not split
        with pytest.raises(DimensionMismatch):
            half_module_blocks(n, act_form(Form.blade(n - 2, 1, 2)))


def test_hermiticity_tracks_degree_mod_four():
    # blade actions are hermitian exactly for degrees 0, 3 mod 4
    from skewtor.linalg import is_hermitian
    degree_forms = {
        1: Form.blade(7, 2),
        2: Form.blade(7, 1, 4),
        3: Form.blade(7, 1, 2, 3),
        4: Form.blade(7, 2, 3, 5, 7),
    }
    for degree, form in degree_forms.items():
        hermitian = is_hermitian(act_form(form))
        assert hermitian == (degree % 4 in (0, 3))
    assert eigen_report(act_form(Form.blade(7, 1, 2))).hermitian is False


def test_inhomogeneous_action_adds_scalar():
    scalar_only = cq(act_form(Form.scalar(6, Q(5, 2))))
    assert all(scalar_only[i][j] == (CQ(Q(5, 2)) if i == j else CQ(0))
               for i in range(8) for j in range(8))


@st.composite
def mixed_forms(draw):
    """A form on R^n (n = 2..8) as one to three homogeneous parts of distinct degrees."""
    n = draw(st.integers(min_value=2, max_value=8))
    degrees = draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1,
                            max_size=3, unique=True))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return [Form(n, p, draw(st.dictionaries(
        st.sampled_from(list(combinations(range(1, n + 1), p))), coeffs, max_size=5)))
        for p in degrees]


# The seed is the one Hypothesis derived from this test's source under
# derandomize=True when it was pinned: restating the test keeps its examples.
@seed(21273674255207588328351241184877874773091135051373202008041478824539928768540683912256443487548733814141438981973875)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(parts=mixed_forms())
def test_monomial_action_and_integer_charpoly_match_references(parts):
    dim = 2 ** (parts[0].n // 2)
    m = act_form(parts)
    assert m == gauss(act_form_by_gamma_products(parts))
    entries_m = cq(m)
    # charpoly holds the integer coefficients of det(yI - dA), d the denominator
    coeffs = charpoly(m)
    assert type(coeffs) is GaussTensor and coeffs.den == 1
    assert exact_reference.holds(coeffs)
    assert cq(coeffs) == [c * m.den ** k for k, c in enumerate(charpoly_by_fractions(entries_m))]
    real = [[x.re + 2 * x.im for x in row] for row in entries_m]
    real_m = gauss(real)
    coeffs = charpoly(real_m)
    assert exact_reference.holds(coeffs) and not coeffs.im.any()
    assert coeffs.re.tolist() == \
        [c * real_m.den ** k for k, c in enumerate(charpoly_by_fractions(real))]
    assert is_hermitian(m) == all(entries_m[i][j] == entries_m[j][i].conj()
                                  for i in range(dim) for j in range(dim))


@seed(132201020621178586229568842416189121039823025774724847323568624345371957345231448037844313740226698726300878976655)
@settings(max_examples=60, deadline=None)
@given(parts=mixed_forms())
def test_multiplicities_and_residual_fill_the_module(parts):
    dim = 2 ** (parts[0].n // 2)
    m = act_form(parts)
    report = eigen_report(m)
    residual_degree = 0 if report.residual is None else len(report.residual) - 1
    assert sum(mult for _, mult in report.pairs) + residual_degree == dim
    # each reported eigenvalue is a root of the reference characteristic polynomial
    reference = charpoly_by_fractions(cq(m))
    assert all(not poly_eval(reference, CQ(value)) for value, _ in report.pairs)


@st.composite
def hermitian_forms(draw):
    """One to three blades of the degrees 0, 3, 4, 7 and 8 on R^n (n = 2..8), which act
    Hermitian, so their spectra are real and often split over Q."""
    n = draw(st.integers(min_value=2, max_value=8))
    degrees = [p for p in (0, 3, 4, 7, 8) if p <= n]
    blades = [b for p in degrees for b in combinations(range(1, n + 1), p)]
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(blades), coeffs, min_size=1, max_size=3))
    return [Form(n, p, {b: c for b, c in terms.items() if len(b) == p}) for p in degrees]


@seed(9617670182178257612744311252069232332125108722593917123898080118999098349261270238449260425263398957176353820560498)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(parts=st.one_of(hermitian_forms(), mixed_forms()))
@example(parts=[Form.blade(4, 1), Form.blade(4, 2, 3, 4)])     # nilpotent
def test_chain_certifies_exactly_the_pairs_that_charpoly_finds(parts):
    # cross-route oracle: where charpoly and rational_roots split the spectrum
    # over Q, the product chain on the values they found certifies their pairs
    # whenever the eigenspaces fill the module, and refuses the values otherwise
    m = act_form(parts)
    report = eigen_report(m)
    assume(report.residual is None)
    values = [v for v, _ in report.pairs]
    eye = GaussTensor.identity(len(m))
    diagonalizable = sum(len(m) - rank(m - eye * v) for v in values) == len(m)
    pairs = certified_spectrum(m, values)
    assert pairs == (report.pairs if diagonalizable else None)
    if pairs is None:
        return
    # the counts fill the module, so a multiplicity moved from one value to
    # another is not what is certified
    assert sum(count for _, count in pairs) == len(m)
    if len(pairs) > 1:
        (v0, m0), (v1, m1), *rest = pairs
        assert pairs != [(v0, m0 - 1), (v1, m1 + 1)] + rest
    # one value shifted off the spectrum, onto or off the lattice 1/d Z, is refused
    for step in (1, Q(1, 2 * m.den)):
        shifted = values[:-1] + [values[-1] + step]
        assert certified_spectrum(m, shifted) is None
