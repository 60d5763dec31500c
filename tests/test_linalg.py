import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations, islice
from math import comb, lcm, prod
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from skewtor import clifford, equivar, linalg, suites
from skewtor.clifford import act_form, eigen_report
from skewtor.forms import Form, _abs_max, wedge
from skewtor.g2 import canonical_omega3
from skewtor.linalg import (GaussTensor, Tensor, certified_eigenspace_dims, certified_spectrum,
                            charpoly, int_matmul, is_hermitian, nullspace, rank,
                            rational_roots, slot_sum, _prime_block, _primes)
from skewtor.reporting import fmt

import cq_reference
import einsum_reference
import exact_reference
import forms_reference
from cq_reference import (CQ, entries, mat_add, mat_identity, mat_mul, mat_scale, parts,
                          poly_eval, poly_mul, split_by_sympy)


def qm(rows):
    return [[Q(x) for x in row] for row in rows]


def gauss(values):
    """The GaussTensor of nested lists of reference CQs (or rationals)."""
    return GaussTensor.of_parts(*parts(values))


def cq(tensor):
    """The reference CQs of a GaussTensor, as nested lists (one CQ for a scalar)."""
    return entries(tensor.num, tensor.den)


def real_coeffs(poly):
    """The Fraction coefficients of a real GaussTensor coefficient vector (None stays None)."""
    if poly is None:
        return None
    assert type(poly) is GaussTensor and not poly.im.any()
    return [Q(x, poly.den) for x in poly.re]


def test_gaussian_rational_field_ops():
    # the reference scalar that the Gaussian kernels are compared against
    a = CQ(Q(1, 2), Q(3))
    b = CQ(2, -1)
    assert a + b == CQ(Q(5, 2), 2)
    assert a * b == CQ(4, Q(11, 2))
    assert (a / b) * b == a
    assert a.conj() == CQ(Q(1, 2), -3)
    assert not CQ(0, 0)
    with pytest.raises(ZeroDivisionError):
        a / CQ(0, 0)


def test_rref_rank_nullspace():
    a = qm([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    ker = nullspace(a)
    assert len(ker) == 1
    assert Tensor.einsum("ij,j->i", Tensor.of(a), Tensor.of(ker[0])).is_zero()


def _entries(gauss):
    """Integers (or Gaussian integers) small and far above 2^63, as reference scalars."""
    whole = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    return st.builds(CQ, whole, whole) if gauss else whole.map(Q)


@st.composite
def exact_matrices(draw):
    """(gauss, A) as reference lists: A = L R has rank at most k."""
    gauss = draw(st.booleans())
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(0, min(m, n)))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(_entries(gauss), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    zero = CQ(0) if gauss else Q(0)
    return gauss, mat_mul(matrix(m, k), matrix(k, n)) if k else [[zero] * n for _ in range(m)]


@seed(33186197997611052358008863303628930578031906319631501962935700048455734342343301804021264030689073690709743783657666)
@settings(max_examples=80, deadline=None)
@given(exact_matrices())
def test_elimination_matches_field_reference(system):
    is_gauss, a = system
    of, one = (gauss, CQ(1)) if is_gauss else (Tensor.of, Q(1))
    assert rank(of(a)) == cq_reference.rank(a)
    kernel, want = nullspace(of(a)), cq_reference.nullspace(a, one=one)
    assert len(kernel) == len(want)
    assert not want or kernel == of(want)


@seed(30700296543720068942140177776262119207957944910751979011649321853395484971618171934580171788473113255267145726708601)
@settings(max_examples=80, deadline=None)
@given(exact_matrices(), st.data())
def test_elimination_with_leading_pivots_matches_references(system, data):
    # the integer system (a Gaussian one as its real form) eliminated with
    # pivots in its first `limit` columns only, against the rational RREF
    # and Bareiss's elimination with the same limit
    is_gauss, a = system
    num = linalg._system(gauss(a) if is_gauss else Tensor.of(a))[1]
    limit = data.draw(st.integers(0, num.shape[1]))
    rows, pivots, d = linalg.eliminate(num, limit)
    fractions = [[Q(x) for x in row] for row in num.tolist()]
    want, want_pivots = cq_reference.rref(fractions, pivot_limit=limit)
    r = len(pivots)
    assert pivots == want_pivots and d > 0
    assert [[Q(x, d) for x in row] for row in rows[:r].tolist()] == want[:r]
    assert not rows[r:, :limit].any()
    quotient = [[Q(x) for x in row] for row in rows[r:].tolist()]
    assert cq_reference.rank(quotient) == (
        cq_reference.rank(fractions) - cq_reference.rank([row[:limit] for row in fractions]))
    assert (abs(rows) <= abs(cq_reference.eliminate_bareiss(num, limit)[0])).all()


def test_certificate_elimination_keeps_its_entries_small(monkeypatch):
    # the 196 x 140 elimination of `rank_certificates` changes only the rows
    # a pivot hits: every entry stays below 2^16 (6 bits), where a rescale of
    # all rows at every pivot, as Bareiss's, reaches 84 bits
    calls = []
    monkeypatch.setattr(equivar, "eliminate",
                        lambda a, limit: calls.append((a, limit)) or linalg.eliminate(a, limit))
    equivar.rank_certificates()
    (matrix, limit), = calls
    rows, pivots, d = linalg.eliminate(matrix, limit)
    assert matrix.shape == (196, 140) and len(pivots) == limit == 98
    assert _abs_max(rows) < 2 ** 16
    assert _abs_max(cq_reference.eliminate_bareiss(matrix, limit)[0]) >= 2 ** 16


def test_charpoly_and_roots_complex():
    m = GaussTensor.of_parts([[1, 0], [0, 1]], [[0, 1], [-1, 0]])
    assert is_hermitian(m)
    assert type(charpoly(m)) is GaussTensor
    assert charpoly(m) == GaussTensor.of_parts([1, -2, 0], [0, 0, 0])
    assert rational_roots(charpoly(m).re.tolist(), m.den) == ([(Q(0), 1), (Q(2), 1)], None)
    # charpoly is det(yI - dA) for the denominator d of A: halving A keeps it
    half = m * Q(1, 2)
    assert type(half) is GaussTensor and half.den == 2 and charpoly(half) == charpoly(m)
    assert rational_roots(charpoly(half).re.tolist(), 2) == ([(Q(0), 1), (Q(1), 1)], None)


def _coded_matrix(n, codes, big63, big1100, den):
    """The n x n Gaussian matrix / den whose 2 n^2 numerators have the codes in -9..9.

    0 is zero, 1-3 the value itself, 4-6 a multiple of big63 (beyond 2^63)
    and 7-9 a multiple of big1100 (beyond 2^1100), with the code's sign.
    """
    scales = [1, 1, 1, 1, big63, big63, big63, big1100, big1100, big1100]
    values = [((c > 0) - (c < 0)) * ((abs(c) - 1) % 3 + 1) * scales[abs(c)] for c in codes]
    return GaussTensor(np.array(values, dtype=object).reshape(n, n, 2), den)


@st.composite
def gaussian_matrices(draw):
    """A Gaussian matrix of size 1-8 with zeros, small entries and entries beyond 2^63 and 2^1100."""
    n = draw(st.integers(1, 8))
    codes = draw(st.lists(st.integers(-9, 9), min_size=2 * n * n, max_size=2 * n * n))
    return _coded_matrix(n, codes, draw(st.integers(2 ** 63, 2 ** 64)),
                         draw(st.integers(2 ** 1100, 2 ** 1101)), draw(st.sampled_from([1, 1, 6])))


# the reference's cost grows as n^4 (about 4 s for a 16 x 16 matrix with
# entries beyond 2^1100), so the drawn sizes stop at 8 and the largest spin
# module's size 16 is one fixed example with every class of entry
@seed(25707245420035142330879082346025196153729718857192578043349861573166281513402892068871940192997679892735984167418989)
@settings(max_examples=25, deadline=None)
@given(gaussian_matrices())
@example(_coded_matrix(16, [7 * i % 19 - 9 for i in range(512)], 2 ** 63 + 1, 2 ** 1100 + 3, 1))
def test_charpoly_matches_fraction_reference(m):
    coeffs = charpoly(m)
    assert type(coeffs) is GaussTensor and coeffs.den == 1
    assert exact_reference.holds(coeffs)
    reference = cq_reference.charpoly_by_fractions(cq(m))
    assert cq(coeffs) == [c * m.den ** k for k, c in enumerate(reference)]


@st.composite
def gaussian_stacks(draw):
    """One to three Gaussian matrices of one size 1-6, stacked, with entries as in
    `gaussian_matrices`: zeros, small ones and ones beyond 2^63 and 2^1100."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    codes = draw(st.lists(st.integers(-9, 9), min_size=2 * n * n * k, max_size=2 * n * n * k))
    big63, big1100 = draw(st.integers(2 ** 63, 2 ** 64)), draw(st.integers(2 ** 1100, 2 ** 1101))
    blocks = [_coded_matrix(n, codes[j * 2 * n * n:(j + 1) * 2 * n * n], big63, big1100, 1).num
              for j in range(k)]
    return GaussTensor(np.stack(blocks))


@seed(39)
@settings(max_examples=25, deadline=None)
@given(gaussian_stacks())
@example(GaussTensor(np.stack([np.ones((3, 3, 2), dtype=np.int64),
                               np.full((3, 3, 2), 2 ** 1100 + 1, dtype=object)])))
def test_charpoly_of_a_stack_is_one_vector_per_block(stack):
    # one run for every block, under the largest block's bound: a small first
    # block beside a large one is exact too
    coeffs = charpoly(stack)
    n = stack.num.shape[1]
    assert type(coeffs) is GaussTensor and coeffs.num.shape == (len(stack), n + 1, 2)
    assert exact_reference.holds(coeffs)
    for block, vector in zip(stack, coeffs):
        assert cq(vector) == cq_reference.charpoly_by_fractions(cq(block))
        assert vector == charpoly(block)


@pytest.mark.parametrize("radius", [1, 7, 2 ** 62, 2 ** 63, 2 ** 1100 + 1],
                         ids=["1", "7", "2^62", "2^63", "2^1100+1"])
def test_charpoly_of_scalar_matrices_meets_its_bound(radius):
    # det(yI - sR I) = (y - sR)^n for s = +-1, +-i: every |C_k| = C(n, k) R^k
    # equals its bound, and the largest one is the bound of the prime product
    for n in (1, 2, 5, 16):
        for re, im in ((radius, 0), (-radius, 0), (0, radius), (0, -radius)):
            m = GaussTensor.of_parts(np.eye(n, dtype=object) * re, np.eye(n, dtype=object) * im)
            expected, power = [], CQ(1)
            for k in range(n + 1):
                expected.append(comb(n, k) * power)
                power = power * CQ(-re, -im)
            coeffs = charpoly(m)
            assert exact_reference.holds(coeffs)
            assert cq(coeffs) == expected, (n, re, im)


def test_rational_roots_with_residual():
    # (y^2 - 2)(y - 3)^2 y, read with the scales 1 and 2
    q = poly_mul(poly_mul(poly_mul([1, 0, -2], [1, -3]), [1, -3]), [1, 0])
    roots, residual = rational_roots(q, 1)
    assert roots == [(Q(0), 1), (Q(3), 2)]
    assert real_coeffs(residual) == [Q(1), Q(0), Q(-2)]
    assert poly_eval(cq(residual), CQ(3)) == 7
    roots, residual = rational_roots(q, 2)
    assert roots == [(Q(0), 1), (Q(3, 2), 2)]
    assert real_coeffs(residual) == [Q(1), Q(0), Q(-1, 2)]


@seed(18800319793558100884230482934640477458334934299028819443761608529567494040700220263973735651848272852747313414127296)
@settings(max_examples=100, deadline=None)
@given(ys=st.lists(st.integers(min_value=-480, max_value=480), max_size=7),
       d=st.integers(min_value=1, max_value=12),
       b=st.integers(min_value=-20, max_value=20),
       gap=st.integers(min_value=1, max_value=30),
       with_quadratic=st.booleans())
@example(ys=[0, 0, 6, 6, -7], d=12, b=1, gap=1, with_quadratic=True)
@example(ys=[5, 0, 5, 5], d=10, b=0, gap=1, with_quadratic=False)
def test_rational_roots_of_split_times_irreducible(ys, d, b, gap, with_quadratic):
    # y^2 + b y + c with c > b^2 / 4 has no real root, so it is irreducible over Q
    quadratic = [1, b, b * b // 4 + gap] if with_quadratic else [1]
    q = quadratic
    for y in ys:
        q = poly_mul(q, [1, -y])
    found, residual = rational_roots(q, d)
    assert found == sorted(Counter(Q(y, d) for y in ys).items())
    assert (found, real_coeffs(residual)) == split_by_sympy(q, d)
    assert all(type(r) is Q for r, _ in found)
    if with_quadratic:
        assert real_coeffs(residual) == [Q(c, d ** k) for k, c in enumerate(quadratic)]
    else:
        assert residual is None


def test_rational_roots_leave_non_real_polynomials_whole():
    # y^2 - i y has the rational root 0, but a non-real polynomial is not
    # searched: eigen_report returns it whole, scaled back by d^k
    m = gauss([[CQ(0), CQ(0)], [CQ(0), CQ(0, Q(1, 2))]])
    assert charpoly(m) == GaussTensor.of_parts([1, 0, 0], [0, -1, 0])
    report = eigen_report(m)
    assert report.pairs == []
    assert type(report.residual) is GaussTensor
    assert cq(report.residual) == [CQ(1), CQ(0, Q(-1, 2)), CQ(0)]


def test_integer_echelon_tools():
    a = [[2, 4, 6], [1, 2, 3], [0, 3, 3]]
    assert rank(a) == 2
    ker = nullspace(a)
    assert len(ker) == 1
    assert all(sum(Q(a[i][j]) * ker[0][j] for j in range(3)) == 0 for i in range(3))
    assert Tensor.of(qm([["1/2", "1/3", 0]])).num.tolist() == [[3, 2, 0]]


def test_eigenspace_dims_certify_a_diagonal_matrix():
    d = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 5]]
    assert certified_eigenspace_dims(d, [1, 2, 5]) == [2, 1, 1]
    assert certified_eigenspace_dims(d, [1, 2]) is None
    # 3 is a candidate root that d lacks: its dimension is 0
    assert certified_eigenspace_dims(d, [1, 2, 3, 5]) == [2, 1, 0, 1]


def test_certify_rejects_nondiagonalizable():
    # (A - 1)^2 = 0 holds, but a chain takes each root once
    jordan = [[1, 1], [0, 1]]
    assert certified_eigenspace_dims(jordan, [1]) is None
    with pytest.raises(ValueError, match="distinct"):
        certified_eigenspace_dims(jordan, [1, 1])


def test_certified_spectrum_of_spinor_endomorphisms():
    # the real form of a Gaussian matrix holds each eigenvalue twice: the
    # counts are halved
    w3 = act_form(canonical_omega3())
    assert certified_spectrum(w3, [-7, 1]) == [(-7, 1), (1, 7)]
    # a wrong value leaves the chain nonzero; a value that is no eigenvalue
    # counts 0 and is left out, and one off the lattice 1/d Z is not tried
    assert certified_spectrum(w3, [-6, 1]) is None
    assert certified_spectrum(w3, [-7, 0, Q(1, 2), 1]) == [(-7, 1), (1, 7)]
    # A = N / d is certified at the values of A, not of N
    third = w3 * Q(1, 3)
    assert third.den == 3
    assert certified_spectrum(third, [Q(-7, 3), Q(1, 3)]) == [(Q(-7, 3), 1), (Q(1, 3), 7)]
    assert certified_spectrum(third, [-7, 1]) is None
    # a real Tensor N / d, as the Casimirs enter, at the values of N / d
    assert certified_spectrum(Tensor(np.diag([2, 2, 6]), 2), [1, 3]) == [(1, 2), (3, 1)]


def test_certified_spectrum_refuses_a_nilpotent_matrix():
    # the stated (0, 0) of a nonzero nilpotent matrix is refused; over Z[i],
    # e_1 + e_2 e_3 e_4 squares to 0 on Delta_4, and charpoly and
    # rational_roots split it as 0 four times
    assert certified_spectrum(np.array([[0, 1], [0, 0]]), [0]) is None
    nilpotent = act_form([Form.blade(4, 1), Form.blade(4, 2, 3, 4)])
    assert (nilpotent @ nilpotent).is_zero() and not nilpotent.is_zero()
    assert eigen_report(nilpotent).pairs == [(0, 4)]
    assert certified_spectrum(nilpotent, [0]) is None


def test_verify_all_reads_no_prime(monkeypatch, all_report):
    # every stated spectrum is proven by the product chain: with the
    # characteristic polynomial and the root search out of reach, `verify all`
    # writes the same report
    def refuse(*args):
        raise AssertionError("verify all searched for a spectrum")

    for module in (linalg, clifford):
        monkeypatch.setattr(module, "charpoly", refuse)
        monkeypatch.setattr(module, "rational_roots", refuse)
    monkeypatch.setattr(clifford, "eigen_report", refuse)
    monkeypatch.setattr(linalg, "_primes", refuse)
    assert suites.run_suite("all").to_json() == all_report.to_json()


def test_eigenspace_chain_runs_on_python_ints_past_2_53():
    # eigenvalues up to 2^42 on an object diagonal: from the second product
    # of the chain on, the bound n max|a| max|b| is past 2^53, so the chain
    # multiplies Python integers
    roots = [s * k * 2 ** 40 for k in range(1, 5) for s in (1, -1)]
    a = np.diag(np.array(roots, dtype=object))
    assert certified_eigenspace_dims(a, roots) == [1] * 8
    assert certified_eigenspace_dims(a, roots[1:]) is None


def test_prime_pool_is_every_prime_below_2_21_descending():
    # the head of the pool, from which `charpoly` takes its primes: reading it
    # sieves the top block and block 0, whose primes sieve the others
    _prime_block.cache_clear()
    assert list(islice(_primes(), 12)) == [2097143, 2097133, 2097131, 2097097, 2097091, 2097083,
                                           2097047, 2097041, 2097031, 2097023, 2097013, 2096993]
    assert _prime_block.cache_info().currsize == 2
    # the whole pool against a plain sieve of Eratosthenes: it ends after its
    # 512th block, each sieved once
    is_prime = np.ones(2 ** 21, dtype=bool)
    is_prime[:2] = False
    for p in range(2, 1449):
        if is_prime[p]:
            is_prime[p * p::p] = False
    assert list(_primes()) == np.flatnonzero(is_prime)[::-1].tolist()
    assert _prime_block.cache_info().currsize == 512


def _school_product(a, b, m, n, k):
    """The m x k product of nested lists of Python integers, by the school-book loop."""
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(k)] for i in range(m)]


@st.composite
def product_operands(draw):
    """(a, b, m, n, k, float_branch): integer matrices around the kernel's 2^53 bound.

    One entry of a is +-A and one of b is +-B, the others anywhere in
    [-A, A] and [-B, B], so n A B is the kernel's bound (each maximum taken
    as at least 1).  The classes put it
    far below 2^53, just below it, just above it, or the entries beyond
    int64 (2^63) or beyond float range (2^1100); shapes may be empty.
    """
    m, n, k = (draw(st.integers(0, 5)) for _ in range(3))
    kind = draw(st.sampled_from(["small", "below", "above", "int64", "huge"]))
    if kind == "small":
        big_a, big_b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    elif kind in ("below", "above"):
        big_a = draw(st.integers(1, 2 ** 40))
        big_b = (2 ** 53 - 1) // (max(n, 1) * big_a) + (kind == "above")
    else:
        low = 2 ** 63 if kind == "int64" else 2 ** 1100
        big_a, big_b = draw(st.integers(low, 2 * low)), draw(st.integers(1, 2 ** 70))

    def matrix(rows, cols, big):
        entries = st.one_of(st.sampled_from([big, -big]), st.integers(-big, big))
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        if flat:
            flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from([big, -big]))
        return [flat[r * cols:(r + 1) * cols] for r in range(rows)]

    a, b = matrix(m, n, big_a), matrix(n, k, big_b)
    max_a, max_b = (max([1] + [abs(v) for row in x for v in row]) for x in (a, b))
    return a, b, m, n, k, n * max_a * max_b < 2 ** 53 and max(max_a, max_b) < 2 ** 1023


@seed(16939267323901025449367897991648462408587900061369053617219255720512174353619383584198428332753654444127511210353725)
@settings(max_examples=150, deadline=None)
@given(product_operands(), st.booleans())
def test_int_matmul_matches_object_product(operands, as_int64):
    a, b, m, n, k, float_branch = operands
    arrays = [np.array(x, dtype=object).reshape(shape) for x, shape in ((a, (m, n)), (b, (n, k)))]
    if as_int64 and all(_abs_max(x) < 2 ** 63 for x in arrays):
        arrays = [x.astype(np.int64) for x in arrays]
    bounds = [_abs_max(x) for x in arrays]
    got = int_matmul(*arrays, *bounds)
    assert got.shape == (m, k)
    assert got.dtype == (np.int64 if float_branch else object)
    assert got.tolist() == _school_product(a, b, m, n, k)
    if k:
        # a vector on the right is the first column
        assert int_matmul(arrays[0], arrays[1][:, 0], *bounds).tolist() == \
            [row[0] for row in got.tolist()]


def test_int_matmul_bound_edge():
    # every entry at its maximum: each product entry is the bound n A B itself,
    # the largest below 2^53 (float branch) and then the least above it
    n, big_a = 3, 2 ** 26
    for big_b, dtype in (((2 ** 53 - 1) // (n * big_a), np.int64),
                         ((2 ** 53 - 1) // (n * big_a) + 1, object)):
        a = np.full((2, n), big_a, dtype=np.int64)
        b = np.full((n, 2), big_b, dtype=np.int64)
        got = int_matmul(a, b, big_a, big_b)
        assert got.dtype == dtype
        assert got.tolist() == [[n * big_a * big_b] * 2] * 2
    # 2^53 + 1 has no double: the float branch must not be taken
    odd = np.array([[2 ** 53 + 1]], dtype=np.int64)
    assert int_matmul(odd, np.array([[1]]), 2 ** 53 + 1, 1).tolist() == [[2 ** 53 + 1]]
    ones = np.ones((4, 3), dtype=np.int64)
    assert int_matmul(np.zeros((0, 4), dtype=np.int64), ones, 0, 1).shape == (0, 3)
    assert int_matmul(np.ones((2, 0), dtype=np.int64), ones[:0], 1, 1).tolist() == \
        [[0] * 3] * 2


@st.composite
def slot_operands(draw):
    """Batches of integral 2-forms w and p-forms t (sparse dicts) for `slot_sum`.

    n is 2..8 and p is 1..4; each batch holds one to three forms, each with
    an entry of largest size.  The class puts the kernel's bound n max|w| max|t|
    far below 2^53, at its largest below it, at the least above it, or the
    entries of t beyond int64.
    """
    n = draw(st.integers(2, 8))
    degree = draw(st.integers(1, min(4, n)))
    kind = draw(st.sampled_from(["small", "below", "above", "int64"]))
    big_w = draw(st.integers(1, 9 if kind == "small" else 2 ** 20))
    if kind == "small":
        big_t = draw(st.integers(1, 9))
    elif kind in ("below", "above"):
        big_t = (2 ** 53 - 1) // (n * big_w) + (kind == "above")
    else:
        big_t = draw(st.integers(2 ** 63, 2 ** 64))

    def batch(p, big):
        blades = list(combinations(range(1, n + 1), p))
        forms = []
        for _ in range(draw(st.integers(1, 3))):
            coeffs = draw(st.lists(st.integers(-big, big), min_size=len(blades),
                                   max_size=len(blades)))
            coeffs[draw(st.integers(0, len(blades) - 1))] = draw(st.sampled_from([big, -big]))
            forms.append({b: Q(c) for b, c in zip(blades, coeffs) if c})
        return forms

    return n, degree, batch(2, big_w), batch(degree, big_t), kind in ("above", "int64")


def _dense_of(n, degree, forms):
    """The stacked integer tensors of sparse forms, as an object array."""
    return np.stack([Tensor.of_form(Form(n, degree, f)).num for f in forms])


@seed(38928692913829261542562937935297499731695060357956468332875343352239197452357464060366883311746417650692155692271181)
@settings(max_examples=60, deadline=None)
@given(slot_operands())
def test_slot_sum_matches_the_sparse_derivation(operands):
    # out[a, b] is the derivation e^m -> e_m -| w_a of t_b, term by term;
    # past the bound every product runs on Python integers, and the result
    # carries the bound degree n max|w| max|t|
    n, degree, ws, ts, object_branch = operands
    w, t = Tensor(_dense_of(n, 2, ws)), Tensor(_dense_of(n, degree, ts))
    products = []

    def spy(*args):
        products.append(int_matmul(*args))
        return products[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "int_matmul", spy)
        got = slot_sum(w, t, degree)
    assert got.num.shape == (len(ws), len(ts)) + (n,) * degree
    assert len(products) == degree
    assert all((x.dtype == object) == object_branch for x in products)
    assert got.den == 1 and got.bound == degree * n * w.bound * t.bound
    assert exact_reference.holds(got)
    for a, alpha in enumerate(ws):
        for b, form in enumerate(ts):
            image = forms_reference.derivation(
                form, lambda m: forms_reference.interior({(m,): Q(1)}, alpha))
            assert got.num[a, b].tolist() == _dense_of(n, degree, [image])[0].tolist()


@seed(11114745166155727734079174216018780600500164331264435343783696151435998611984623504398479120403971258514945467665517)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slot_sum_is_a_derivation_of_wedges(data):
    # w acts on a ^ b as (w a) ^ b + a ^ (w b), for a batch of w at once;
    # on degree 0 it is zero
    n = data.draw(st.integers(2, 8))
    p = data.draw(st.integers(1, min(3, n - 1)))
    q = data.draw(st.integers(1, min(4, n) - p)) if p < min(4, n) else 0
    big = data.draw(st.sampled_from([3, 2 ** 40]))

    def form(degree):
        count = comb(n, degree)
        return Form.of_numerators(n, degree, data.draw(
            st.lists(st.integers(-big, big), min_size=count, max_size=count)))

    alphas = [form(2) for _ in range(data.draw(st.integers(1, 3)))]
    w = Tensor.of_forms(alphas)

    def act(a):
        return [x.to_form() for x in slot_sum(w, Tensor.of_form(a), a.degree)]

    a, b = form(p), form(q)
    for lhs, wa, wb in zip(act(wedge(a, b)), act(a), act(b) if q else [Form.zero(n, 0)] * len(w)):
        assert lhs == wedge(wa, b) + wedge(a, wb)
    scalar = slot_sum(w, Tensor.of(5), 0)
    assert scalar.num.shape == (len(w),) and scalar.is_zero()


def _annihilates(a, roots):
    """prod_k (A - r_k I) == 0, by a pure-Python product on Python integers."""
    n = len(a)
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for r in roots:
        term = [[a[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)]
        acc = _school_product(acc, term, n, n, n)
    return not any(x for row in acc for x in row)


def _similar(a, ops):
    """E A E^-1 for nested lists of Python ints A and E the product of the row
    operations row i += c row j of `ops` (unimodular, so E^-1 is integral)."""
    a = [list(row) for row in a]
    for i, j, c in ops:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return a


def _draw_similarity(data, n, most):
    """Up to `most` row operations (i, j, c) on n rows, i != j and |c| <= 3."""
    ops = []
    for _ in range(data.draw(st.integers(0, most)) if n > 1 else 0):
        i, j = data.draw(st.permutations(range(n)))[:2]
        ops.append((i, j, data.draw(st.integers(-3, 3))))
    return ops


@seed(9783430343863006912280518118095729568802152259837796294172695624556791202499731976592280218211577186706902145603395)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eigenspace_chain_matches_python_product(data):
    # A = E T E^-1 for an upper triangular T and elementary similarities E:
    # the distinct diagonal values annihilate A exactly when A is
    # diagonalizable, with the diagonal's counts as dimensions, and a list
    # with one value dropped or shifted usually not at all; a list with a
    # repeated value is refused
    n = data.draw(st.integers(1, 4))
    size = data.draw(st.sampled_from([3, 2 ** 30]))
    diag = data.draw(st.lists(st.integers(-size, size), min_size=n, max_size=n))
    a = [[diag[i] if i == j else data.draw(st.integers(-size, size)) if j > i else 0
          for j in range(n)] for i in range(n)]
    a = _similar(a, _draw_similarity(data, n, 2))
    distinct = sorted(set(diag))
    lists = [diag, distinct, distinct[1:], [distinct[0] + 1] + distinct[1:]]
    for roots in lists:
        for matrix in (a, np.array(a, dtype=np.int64)):
            if len(set(roots)) < len(roots):
                with pytest.raises(ValueError, match="distinct"):
                    certified_eigenspace_dims(matrix, roots)
                continue
            dims = certified_eigenspace_dims(matrix, roots)
            assert (dims is not None) == _annihilates(a, roots), roots
            assert dims is None or dims == [diag.count(r) for r in roots]
    if len(distinct) == n:
        assert certified_eigenspace_dims(a, diag) == [1] * n


def test_eigenspace_chain_beyond_int64():
    # entries and roots above 2^63: A - r I is built on Python integers
    big = 2 ** 70 + 3
    a = [[big, 1], [0, -big]]
    assert certified_eigenspace_dims(a, [big, -big]) == [1, 1] and _annihilates(a, [big, -big])
    assert certified_eigenspace_dims(a, [big, -big + 1]) is None \
        and not _annihilates(a, [big, -big + 1])
    assert certified_eigenspace_dims([[big, 0], [0, big]], [big]) == [2]
    # int64 entries whose shift by an int64 root leaves int64: A + 2^62 I
    # has the entry 2^63, which int64 would wrap to -2^63
    half = 2 ** 62
    for roots in ([half, -half], [-half, half]):
        assert certified_eigenspace_dims(np.diag([half, -half]), roots) == [1, 1]


def test_eigenspace_dims_from_traces_beyond_int64():
    # eigenvalues near 2^40: tr(A^2) and tr(A^3) are near 2^81 and 2^122, past
    # 2^53 and int64, so the powers and the traces are Python integers
    big = 2 ** 40
    roots = [-big - 3, 7, big - 5, big + 1]
    a = _similar(np.diag([big + 1, 7, -big - 3, big + 1, 7, big - 5, 7]).tolist(),
                 [(0, 1, 2), (3, 6, -1), (5, 2, 3)])
    assert max(abs(x) for row in a for x in row) > big
    assert certified_eigenspace_dims(a, roots) == [1, 3, 1, 2]
    assert certified_eigenspace_dims(np.array(a, dtype=np.int64), roots) == [1, 3, 1, 2]


@seed(23226869447757135193561135081026206003989124777639859955882031883625961887233043746336958242386956685800862511851888)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eigenspace_dims_are_the_planted_counts(data):
    # A = E D E^-1 for a planted diagonal D, with each candidate root r_k on
    # counts[k] >= 0 diagonal entries, and a unimodular E: the chain on the
    # candidates vanishes, and its traces give the counts
    size = data.draw(st.sampled_from([20, 2 ** 20]))
    roots = data.draw(st.lists(st.integers(-size, size), min_size=1, max_size=5, unique=True))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(roots),
                                max_size=len(roots)).filter(any))
    diag = data.draw(st.permutations([r for r, c in zip(roots, counts) for _ in range(c)]))
    a = _similar(np.diag(diag).tolist(), _draw_similarity(data, len(diag), 4))
    assert certified_eigenspace_dims(a, roots) == counts


def test_eigenspace_dims_refuse_traces_that_fit_no_dimensions():
    # the traces of these chains fit no dimensions: diag(1, 2) on the roots
    # 1, 3 would give (3/2, 1/2) and diag(5, 5) (-2, 4); the chain does not
    # vanish, so they are never read
    for diag, roots in (([1, 2], [1, 3]), ([5, 5], [1, 3])):
        assert not _annihilates(np.diag(diag).tolist(), roots)
        assert certified_eigenspace_dims(np.diag(diag), roots) is None


def test_casimir_chains_stay_in_int64(monkeypatch):
    # the product chain of every Casimir the suites decompose stays under
    # the float64 bound of `int_matmul`: each of its products is int64.  The
    # chain takes one product per irreducible of the weight table that fits
    # the module (3, 4, 7 and 9 of them), in increasing Casimir ratio
    dtypes, inside = [], []

    def matmul(a, b, a_bound, b_bound):
        out = int_matmul(a, b, a_bound, b_bound)
        if inside:
            dtypes.append(out.dtype)
        return out

    def chain(matrix, roots):
        inside.append(roots)
        try:
            return certified_eigenspace_dims(matrix, roots)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "int_matmul", matmul)
    monkeypatch.setattr(linalg, "certified_eigenspace_dims", chain)
    for space in ("lambda2", "r7_m", "r7_g2", "r7_s2"):
        equivar.casimir_spectrum(space)
    assert len(dtypes) == 3 + 4 + 7 + 9
    assert all(d == np.int64 for d in dtypes)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def forms(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    # a dense tensor has n^degree entries: every degree up to n = 6, and up
    # to 5 for n = 7, 8 (the program's tensors have degree <= 4)
    degree = draw(st.integers(min_value=1, max_value=n).filter(
        lambda p: n ** p <= 50_000))
    blades = list(combinations(range(1, n + 1), degree))
    terms = draw(st.dictionaries(st.sampled_from(blades), rationals, max_size=6))
    return Form(n, degree, terms)


@seed(18686636804239407382973615567292040304730889342928974440357418783439588284570815893347307390896921233335575682609987)
@settings(max_examples=120, deadline=None)
@given(f=forms(), g=forms())
def test_form_tensor_round_trip(f, g):
    # the scalar of degree 0 has no axis to carry n, so degrees start at 1
    t = Tensor.of_form(f)
    assert t.num.shape == (f.n,) * f.degree
    assert t.to_form() == f
    for blade in f.terms:
        for perm in (blade[::-1], blade[1:] + blade[:1]):
            assert t[tuple(k - 1 for k in perm)] == f.eval(*perm)
    assert t.is_zero() == f.is_zero()
    assert t.max_abs() == max(map(abs, f.terms.values()), default=0)
    if (g.n, g.degree) == (f.n, f.degree):
        stacked = Tensor.of_forms([f, g])
        assert stacked[0] == t and stacked[1].to_form() == g


@seed(28030732829744893002445941842653961433314248607227139293639108795693516235724433968133534059064056772369142195621987)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_arithmetic_matches_fraction_loops(data):
    rows, mid, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(st.lists(st.lists(rationals, min_size=mid, max_size=mid),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                           min_size=mid, max_size=mid))
    c = data.draw(st.lists(st.lists(rationals, min_size=mid, max_size=mid),
                           min_size=rows, max_size=rows))
    q = data.draw(rationals)
    ta, tb, tc = Tensor.of(a), Tensor.of(b), Tensor.of(c)
    assert Tensor.einsum("ij,jk->ik", ta, tb) == mat_mul(a, b)
    assert ta + tc == [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
    assert ta - tc == [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(a, c)]
    assert ta * q == [[q * x for x in row] for row in a]
    assert -ta == [[-x for x in row] for row in a]
    assert (ta == tc) == (a == c)
    assert ta.max_abs() == max(abs(x) for row in a for x in row)
    assert [[ta[i, j] for j in range(mid)] for i in range(rows)] == a
    assert all(type(x) is Q for row in ta for x in row)
    assert Tensor.einsum("ij,ij->", ta, ta)[()] == sum(x * x for row in a for x in row)


# entry sizes of the contraction operands: small, at the 2^53 edge of
# `int_matmul`'s float64 branch (2^26 squared meets it at k = 2), at 2^53,
# past int64 and past the float range
EINSUM_BOUNDS = (3, 2 ** 26, 2 ** 53, 2 ** 63 + 1, 2 ** 1100)


@st.composite
def einsum_calls(draw):
    """(spec, operands): 1-3 real Tensors with axes of size 0-5, their letters drawn from
    `abcde` with repeats (traces and diagonals), and an output of distinct letters in any
    order, or none."""
    size = {a: draw(st.integers(0, 5)) for a in "abcde"}
    terms, operands = [], []
    for _ in range(draw(st.integers(1, 3))):
        term = draw(st.lists(st.sampled_from("abcde"), max_size=4))
        shape = [size[a] for a in term]
        bound, rng = draw(st.sampled_from(EINSUM_BOUNDS)), Random(draw(st.integers(0, 2 ** 32)))
        entries = [rng.choice((-1, 1)) * (bound - rng.randrange(3)) if rng.random() < 0.5
                   else rng.randint(-3, 3) for _ in range(prod(shape))]
        den = draw(st.integers(1, 4))
        operands.append(Tensor(np.array(entries, dtype=object).reshape(shape), den))
        terms.append("".join(term))
    letters = sorted(set("".join(terms)))
    out = draw(st.lists(st.sampled_from(letters), unique=True)) if letters else []
    return ",".join(terms) + "->" + "".join(out), operands


# The seed is the one Hypothesis derived from this test's source under
# derandomize=True when it was pinned: restating the test keeps its examples.
@seed(27402579777145105166589926015646271548946690638859538700073684987238511488564695573528324922817422294244233756786439)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(einsum_calls())
@example(("iia->a", [Tensor(np.arange(27, dtype=object).reshape(3, 3, 3) * 2 ** 70)]))
@example(("ijji->", [Tensor(np.full((2, 3, 3, 2), 2 ** 1100 + 1, dtype=object))]))
@example(("ab,bc->ca", [Tensor(np.full((3, 2), 2 ** 26, dtype=object)),
                        Tensor(np.full((2, 4), 2 ** 26 - 1, dtype=object))]))
def test_einsum_matches_object_einsum(call):
    spec, operands = call
    got = Tensor.einsum(spec, *operands)
    assert type(got) is Tensor and exact_reference.holds(got)
    assert got == einsum_reference.einsum(spec, *operands)


def test_einsum_refuses_what_numpy_refuses_and_implicit_specs():
    a, b = Tensor.of([[1, 2, 3], [4, 5, 6]]), Tensor.of([[1, 2]] * 4)
    # a letter of two sizes (j is 3 on the left, 4 on the right)
    with pytest.raises(ValueError):
        np.einsum("ij,jk->ik", a.num, b.num)
    with pytest.raises(ValueError):
        Tensor.einsum("ij,jk->ik", a, b)
    # implicit mode, which numpy reads and no caller writes
    with pytest.raises(ValueError):
        Tensor.einsum("ij,kj", a, a)
    for spec, operands in (("ij->ii", [a]), ("ij->k", [a]), ("ijk->i", [a]), ("i->i", [a]),
                           ("ij,jk->ik", [a]), ("...j->j", [Tensor.of([[[1]]])])):
        with pytest.raises(ValueError):
            np.einsum(spec, *(t.num for t in operands))
        with pytest.raises(ValueError):
            Tensor.einsum(spec, *operands)
    with pytest.raises(TypeError):
        Tensor.einsum("ij,jk->ik", a, GaussTensor.identity(3))
    # numpy's `...`, which the letters of every spec replace
    with pytest.raises(ValueError, match=re.escape("'ii...->...' is not an einsum spec")):
        Tensor.einsum("ii...->...", Tensor.of([[[1]]]))


def test_einsum_plan_is_keyed_by_spec_and_shapes():
    # one plan serves every pair of operands of its shapes, whatever their
    # entries: small ones take the float64 product, ones past 2^63 Python ints
    spec = "QR,RS->SQ"
    small = Tensor.of([[1, -2, 3], [0, 5, -6]])
    big = Tensor(np.array([[2 ** 64 + 1, 7, -3], [1, 0, -(2 ** 70)]], dtype=object), 5)
    right = Tensor.of([[1, 2, 3, 4], [5, 6, 7, 8], [Q(9, 2), 10, 11, 12]])
    before = linalg._plan.cache_info()
    first, second = Tensor.einsum(spec, small, right), Tensor.einsum(spec, big, right)
    after = linalg._plan.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
    assert first == einsum_reference.einsum(spec, small, right)
    assert second == einsum_reference.einsum(spec, big, right)
    assert second[0, 0] == Q(2 ** 64 + 1 + 7 * 5, 5) - Q(3 * 9, 2 * 5)
    # a new shape builds a new plan
    Tensor.einsum(spec, small, Tensor.of([[1], [2], [3]]))
    assert linalg._plan.cache_info().misses == after.misses + 1


gaussian_rationals = st.builds(lambda re, im, den: CQ(Q(re, den), Q(im, den)),
                               st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 6))


def _cq_matrix(data, rows, cols):
    return data.draw(st.lists(st.lists(gaussian_rationals, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))


@seed(10509606727852084721789365930436579384330889983663455855960455797248232414370125287674794762172019237021605473584317)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_gauss_tensor_arithmetic_matches_cq_lists(data):
    rows, mid, cols = (data.draw(st.integers(1, 16)) for _ in range(3))
    a, b, c = _cq_matrix(data, rows, mid), _cq_matrix(data, mid, cols), _cq_matrix(data, rows, mid)
    v = _cq_matrix(data, mid, 1)
    z, q = data.draw(gaussian_rationals), data.draw(rationals)
    ga, gb, gc = gauss(a), gauss(b), gauss(c)
    assert cq(ga) == a and [[cq(ga[i, j]) for j in range(mid)] for i in range(rows)] == a
    assert all(ga[i, j].num.shape == (2,) for j in range(mid) for i in range(rows))
    assert ga @ gb == gauss(mat_mul(a, b))
    assert ga @ gauss([row[0] for row in v]) == gauss([row[0] for row in mat_mul(a, v)])
    assert ga + gc == gauss(mat_add(a, c))
    assert ga - gc == gauss(mat_add(a, mat_scale(c, CQ(-1))))
    assert -ga == gauss(mat_scale(a, CQ(-1)))
    # a Gaussian factor multiplies as a scalar matrix, a rational one by `*`
    assert ga @ gauss(mat_scale(mat_identity(mid, CQ(1), CQ(0)), z)) == gauss(mat_scale(a, z))
    assert ga * q == gauss(mat_scale(a, CQ(q))) and type(ga * q) is GaussTensor
    assert (ga == gc) == (a == c)
    assert (ga - ga).is_zero() and (ga.is_zero() == all(not x for row in a for x in row))
    # the denominator is the least one: equal tensors have equal parts
    assert ga.den == lcm(1, *(p.denominator for row in a for x in row for p in (x.re, x.im)))


@pytest.mark.parametrize("re, im, den, text", [
    (0, 0, 1, "0"), (-5, 0, 2, "-5/2"), (0, 1, 1, "(0+1i)"), (0, -1, 2, "(0-1/2i)"),
    (1, -6, 2, "(1/2-3i)")])
def test_gaussian_scalar_str(re, im, den, text):
    # spin-eig prints its residual coefficients this way, as CQ printed them
    scalar = GaussTensor.of_parts([[0, re]], [[0, im]], den)[0, 1]
    assert type(scalar) is GaussTensor and scalar.num.shape == (2,)
    assert str(scalar) == fmt(scalar) == text == repr(CQ(Q(re, den), Q(im, den)))
    assert str(GaussTensor.of_parts([den, re], [0, im], den)) == f"[1, {text}]"


def test_gauss_tensor_with_a_list_raises():
    # a list holds rationals: a comparison does not read it silently, and a
    # Gaussian scalar has no truth value
    eye = GaussTensor.identity(2)
    with pytest.raises(TypeError):
        eye == [[1, 0], [0, 1]]
    with pytest.raises(TypeError):
        eye[0] != [1, 0]
    with pytest.raises(TypeError):
        eye == Tensor.identity(2)
    with pytest.raises(TypeError):
        bool(eye[0, 0])
    assert Tensor.identity(2) == [[1, 0], [0, 1]]


def test_gauss_tensor_has_no_real_only_parts():
    # Tensor and GaussTensor are siblings: the real constructors, einsum,
    # max_abs and the form conversions refuse a Gaussian tensor instead of
    # reading its (re, im) axis as real entries
    eye = GaussTensor.identity(2)
    assert not isinstance(eye, Tensor) and not isinstance(Tensor.identity(2), GaussTensor)
    with pytest.raises(AttributeError):
        GaussTensor.of([[1, 0]])
    with pytest.raises(TypeError):
        Tensor.of(eye)
    with pytest.raises(TypeError):
        Tensor.einsum("ijk->kji", eye)
    with pytest.raises(AttributeError):
        eye.max_abs()
    with pytest.raises(AttributeError):
        GaussTensor.of_form(Form.blade(2, 1, 2))
    with pytest.raises(AttributeError):
        GaussTensor.of_forms([Form.blade(2, 1, 2)])
    with pytest.raises(AttributeError):
        eye.to_form()
    # the exact elimination keeps its results on both kinds
    half = eye * Q(1, 2)
    assert rank(half) == 2 and len(nullspace(half)) == 0
    assert rank(Tensor.of([[1, 2], [2, 4]])) == 1
    assert nullspace(Tensor.of([[1, 2], [2, 4]])) == [[-2, 1]]


@seed(12332011095604656045485035264515521998080485668336163381981161134158291208819117183059603132873748184661820434521960)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_hermitian_matches_conjugate_transpose(data):
    n = data.draw(st.integers(1, 8))
    a = _cq_matrix(data, n, n)
    herm = mat_add(a, [[a[j][i].conj() for j in range(n)] for i in range(n)])
    for m in (a, herm, mat_scale(herm, CQ(0, 1))):
        want = all(m[i][j] == m[j][i].conj() for i in range(n) for j in range(n))
        assert is_hermitian(gauss(m)) == want
    assert is_hermitian(gauss(herm))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_import_pins_blas_to_one_thread():
    # a fresh interpreter whose environment leaves the BLAS thread count open:
    # `import skewtor` must fix it to one before numpy loads, and the 196 x 196
    # Casimir products must then start no thread
    import skewtor
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(skewtor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import skewtor\n"
            "from skewtor.equivar import casimir_spectrum\n"
            "casimir_spectrum('r7_s2')\n"
            "print(next(line for line in open('/proc/self/status') if line.startswith('Threads')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.split() == ["Threads:", "1"]
