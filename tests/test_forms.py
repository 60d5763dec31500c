import random
from fractions import Fraction as Q
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import forms_reference as ref
from skewtor.errors import DegreeError, DimensionMismatch
from skewtor.formexpr import render_form
from skewtor.forms import (Form, _wedge_table, contract, dense, derivation, hodge, inner,
                           interior, random_form, sigma_t, sigma_t_quadratic, so_action,
                           volume_form, wedge)
from skewtor.g2 import canonical_omega3


def blade(n, *ix, c=1):
    return Form.blade(n, *ix, coeff=c)


def test_wedge_basis_case():
    assert wedge(blade(7, 1), blade(7, 2)) == blade(7, 1, 2)
    assert wedge(blade(7, 2), blade(7, 1)) == blade(7, 1, 2, c=-1)


def test_wedge_deta_squared():
    de = blade(5, 1, 2, c=2) + blade(5, 3, 4, c=2)
    assert wedge(de, de) == blade(5, 1, 2, 3, 4, c=8)


def test_wedge_odd_degree_square_vanishes():
    w3 = canonical_omega3()
    assert wedge(w3, w3).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(blade(5, 1), blade(7, 1))


def test_interior_basis_cases():
    assert contract(blade(7, 1, 2), 1) == blade(7, 2)
    assert contract(blade(7, 1, 2), 2) == blade(7, 1, c=-1)
    assert interior(blade(7, 3), Form.scalar(7, 5)).is_zero()


def test_interior_eta_wedge_deta():
    eta = blade(5, 5)
    de = blade(5, 1, 2, c=2) + blade(5, 3, 4, c=2)
    assert contract(wedge(eta, de), 5) == de


def test_interior_omega3():
    w3 = canonical_omega3()
    assert contract(w3, 1) == blade(7, 2, 7) + blade(7, 3, 5) - blade(7, 4, 6)


rng_strategy = st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=60, deadline=None)
@given(seed=rng_strategy, n=st.integers(min_value=2, max_value=8),
       p=st.integers(min_value=1, max_value=8), q=st.integers(min_value=0, max_value=8))
def test_interior_antiderivation(seed, n, p, q):
    p = min(p, n)
    q = min(q, n)
    rng = random.Random(seed)
    a = random_form(n, p, rng, span=3)
    b = random_form(n, q, rng, span=3)
    x = random_form(n, 1, rng, span=3)
    lhs = interior(x, wedge(a, b))
    rhs = wedge(interior(x, a), b) + wedge(a, interior(x, b)) * (Q(-1) ** p)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(seed=rng_strategy, n=st.integers(min_value=2, max_value=8),
       p=st.integers(min_value=0, max_value=8))
def test_hodge_involution_sign(seed, n, p):
    p = min(p, n)
    a = random_form(n, p, random.Random(seed), span=4)
    assert hodge(hodge(a)) == a * (Q(-1) ** (p * (n - p)))


def test_hodge_of_scalar_is_volume():
    for n in range(2, 9):
        assert hodge(Form.scalar(n, 1)) == volume_form(n)


def test_star_omega3_contraction_norm():
    sw3 = hodge(canonical_omega3())
    for i in range(1, 8):
        for j in range(1, 8):
            assert inner(contract(sw3, i), contract(sw3, j)) == (4 if i == j else 0)


def test_inner_basics():
    assert inner(blade(7, 1, 2), blade(7, 1, 2)) == 1
    w3 = canonical_omega3()
    assert inner(w3, w3) == 7
    assert inner(blade(7, 1), blade(7, 1, 2)) == 0  # degree mismatch convention


@settings(max_examples=40, deadline=None)
@given(seed=rng_strategy, n=st.integers(min_value=2, max_value=7),
       p=st.integers(min_value=0, max_value=7))
def test_inner_against_wedge_volume(seed, n, p):
    p = min(p, n)
    rng = random.Random(seed)
    a = random_form(n, p, rng, span=4)
    b = random_form(n, p, rng, span=4)
    assert wedge(a, hodge(b)) == volume_form(n) * inner(a, b)


def test_sigma_decomposable_vanishes():
    assert sigma_t(blade(7, 1, 2, 3)).is_zero()


def test_sigma_contact_value():
    eta = blade(5, 5)
    de = blade(5, 1, 2, c=2) + blade(5, 3, 4, c=2)
    t = wedge(eta, de)
    assert sigma_t(t) == blade(5, 1, 2, 3, 4, c=4)
    assert sigma_t(t) * 2 == wedge(de, de)


@settings(max_examples=30, deadline=None)
@given(seed=rng_strategy, n=st.integers(min_value=3, max_value=8))
def test_sigma_two_definitions_agree(seed, n):
    t = random_form(n, 3, random.Random(seed), span=4)
    assert sigma_t(t) == sigma_t_quadratic(t)


def test_sigma_wrong_degree():
    with pytest.raises(DegreeError):
        sigma_t(blade(7, 1, 2))


def test_so_action_derivation_and_pinning():
    w3 = canonical_omega3()
    sw3 = hodge(w3)
    for z in range(1, 8):
        assert so_action(contract(w3, z), w3) == contract(sw3, z) * -3
    rng = random.Random(9)
    alpha = random_form(6, 2, rng, span=3)
    a = random_form(6, 2, rng, span=3)
    b = random_form(6, 1, rng, span=3)
    lhs = so_action(alpha, wedge(a, b))
    rhs = wedge(so_action(alpha, a), b) + wedge(a, so_action(alpha, b))
    assert lhs == rhs


def test_blade_normalization_and_eval():
    f = Form.blade(5, 2, 1, coeff=3)
    assert f == blade(5, 1, 2, c=-3)
    assert f.eval(1, 2) == -3
    assert f.eval(2, 1) == 3
    assert f.eval(1, 1) == 0
    # a read with the wrong number of indices never reads another degree's table
    for indices in ((1,), (1, 2, 3)):
        with pytest.raises(DegreeError):
            f.eval(*indices)


@pytest.mark.parametrize("n", range(2, 9))
def test_dense_matches_eval_at_every_index(n):
    rng = random.Random(n)
    for p in range(n + 1):
        if n ** p > 4096:
            break
        size = len(list(combinations(range(1, n + 1), p)))
        small = np.array([[[rng.randint(-9, 9) for _ in range(size)] for _ in range(3)]
                          for _ in range(2)], dtype=np.int64)
        big = np.array([[rng.choice((-1, 1)) * rng.randint(2 ** 63, 2 ** 70)
                         for _ in range(size)] for _ in range(2)], dtype=object)
        for coefficients in (small, big):
            out = dense(coefficients, n, p)
            assert out.dtype == coefficients.dtype
            assert out.shape == coefficients.shape[:-1] + (n,) * p
            for lead in np.ndindex(coefficients.shape[:-1]):
                form = Form.of_numerators(n, p, coefficients[lead].tolist())
                for ix in np.ndindex((n,) * p):
                    assert out[lead + ix] == form.eval(*(i + 1 for i in ix))


@pytest.mark.parametrize("n", range(2, 9))
def test_wedge_table_matches_all_pairs_reference(n):
    # the disjointness filter drops exactly the pairs whose wedge vanishes
    for p in range(n + 1):
        for q in range(n + 1):
            assert _wedge_table(n, p, q) == ref.wedge_table(n, p, q), (p, q)


# ---------------------------------------------------------------------------
# the dense tables against the sparse per-term reference algorithms
# ---------------------------------------------------------------------------

# Each coefficient comes from a numerator code and a denominator code, drawn
# as two flat lists per call.  A denominator code of 0 or above 6 gives a zero
# (about half of the coefficients); 1..6 gives p/d with |p| <= 30, so every
# fraction with |x| <= 5 and denominator <= 6; -6..-1 gives a numerator beyond
# 2^63, which no fixed-width integer could hold, over -d.
def _coefficient(p, d):
    if d == 0 or d > 6:
        return Q(0)
    if d > 0:
        return Q(p % 61 - 30, d)
    return Q((2 ** 63 + p % 2 ** 70) * (1 if p >= 0 else -1), -d)


def _coefficients(n, p, count=1):
    """`count` dicts blade -> coefficient of p-forms on R^n, from one draw."""
    blades = list(combinations(range(1, n + 1), p))
    size = len(blades) * count

    def split(codes):
        nums, dens = codes
        return [{b: c for b, c in zip(blades, map(_coefficient, nums[k::count], dens[k::count]))
                 if c} for k in range(count)]

    return st.tuples(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=size, max_size=size),
                     st.lists(st.integers(-6, 12), min_size=size, max_size=size)).map(split)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=8))
def test_dense_tables_match_sparse_reference(data, n):
    p = data.draw(st.integers(0, n), label="p")
    q = data.draw(st.integers(0, n), label="q")
    ta, tc = data.draw(_coefficients(n, p, 2))
    (tb,) = data.draw(_coefficients(n, q))
    (tx,) = data.draw(_coefficients(n, 1))
    a, b, c, x = Form(n, p, ta), Form(n, q, tb), Form(n, p, tc), Form(n, 1, tx)
    assert a.terms == ta and gcd(a.den, *a.num) == 1 and a.den > 0
    assert render_form(a) == ref.render(ta)
    assert wedge(a, b).degree == p + q and wedge(a, b).terms == ref.wedge(ta, tb)
    assert interior(x, a).terms == ref.interior(tx, ta)
    for i in range(1, n + 1):
        assert contract(a, i).terms == ref.interior({(i,): Q(1)}, ta)
    assert hodge(a).degree == n - p and hodge(a).terms == ref.hodge(ta, n)
    assert inner(a, c) == ref.inner(ta, tc)
    for degree in (1, 2):
        images = data.draw(_coefficients(n, degree, n))
        image_forms = [Form(n, degree, t) for t in images]
        assert (derivation(a, degree, lambda m: image_forms[m - 1]).terms
                == ref.derivation(ta, lambda m: images[m - 1]))
    if p == 3:
        assert sigma_t(a).terms == ref.sigma_t(ta, n)
        assert sigma_t_quadratic(a).terms == ref.sigma_t(ta, n)
    # every result is reduced, so equal forms have equal numerators
    for r in (wedge(a, b), interior(x, a), hodge(a), a + c, a - c, a * Q(2, 3)):
        assert r.den > 0 and gcd(r.den, *r.num) == 1
    # == and hash: equal exactly when the reference dicts are
    same = Form(n, p, dict(reversed(list(ta.items()))))
    for other, t_other in ((c, tc), (same, ta), ((a + b) - b if p == q else a, ta)):
        assert (a == other) == (ta == t_other)
        assert a != other or hash(a) == hash(other)
    # the zero form is degree-agnostic
    zero_p, zero_q = a - a, Form.zero(n, q)
    assert zero_p == zero_q and hash(zero_p) == hash(zero_q)
    assert (a == zero_q) == (not ta)


def test_denominator_is_reduced():
    half = Form.blade(5, 1, 2, coeff=Q(1, 2))
    assert half * 2 == Form.blade(5, 1, 2)
    whole = half + half
    assert whole.den == 1 and whole.num.tolist() == Form.blade(5, 1, 2).num.tolist()
    assert Form(5, 2, {(1, 2): Q(2, 3), (3, 4): Q(4, 3)}).den == 3
