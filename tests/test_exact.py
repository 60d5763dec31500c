"""The exact arrays at the int64 edge: int64 numerators under a carried bound, Python ints past it.

Every result is compared with Fraction (or reference CQ) arithmetic on its
entries and checked against its representation contract
(`exact_reference.holds`): entries at 2^62 - 1, 2^62, 2^63 and -2^63, and
mixed-sign lists beyond int64, through +, -, scaling, `common_denominator`,
the lone sums of `Tensor.einsum`, `GaussTensor.of_parts`, elimination and
`charpoly`.
"""

from fractions import Fraction as Q
from math import lcm, prod

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from skewtor.forms import Form, _abs_max, all_blades, common_denominator, inner
from skewtor.linalg import (GaussTensor, Tensor, charpoly, int_matmul, nullspace, rank,
                            rational_roots, unscaled)
from skewtor.registry import registry

import cq_reference
import einsum_reference
from cq_reference import CQ, charpoly_by_fractions, entries, mat_add, mat_scale
from exact_reference import fractions, holds

EDGES = (0, 1, 5, 2 ** 53 + 1, 2 ** 62 - 1, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3, 2 ** 100)
DENOMINATORS = (1, 2, 6, 2 ** 62, 2 ** 63 + 1)
signed_edges = st.builds(lambda sign, x: sign * x, st.sampled_from((1, -1)), st.sampled_from(EDGES))


@st.composite
def tensors(draw, shape):
    """A Tensor of edge entries over a drawn denominator, built from a list of rationals, an
    object array or (when its entries fit) an int64 array."""
    values = draw(st.lists(signed_edges, min_size=prod(shape), max_size=prod(shape)))
    den = draw(st.sampled_from(DENOMINATORS))
    way = draw(st.sampled_from(("rationals", "object", "int64")))
    if way == "rationals":
        return Tensor.of(np.array([Q(x, den) for x in values], dtype=object).reshape(shape))
    if way == "int64" and all(-2 ** 63 <= x < 2 ** 63 for x in values):
        return Tensor(np.array(values, dtype=np.int64).reshape(shape), den)
    return Tensor(np.array(values, dtype=object).reshape(shape), den)


def _reduced_den(rows):
    return lcm(1, *(q.denominator for row in rows for q in row))


# The seed is the one Hypothesis derived from this test's source under
# derandomize=True when it was pinned: restating the test keeps its examples.
@seed(12728658261165660486266907212615251391533988043363897428093386427445926915992273563132992523457973194829845090046089)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (1, 1), (0, 2)]), st.data())
def test_sums_and_scalings_at_the_int64_edge(shape, data):
    a, b = data.draw(tensors(shape)), data.draw(tensors(shape))
    f = Q(data.draw(signed_edges), data.draw(st.sampled_from(DENOMINATORS)))
    _check_linear_structure(a, b, f)


def test_sums_that_reach_2_62_leave_int64():
    # both summands are int64; their sum, and its double, need Python ints
    near = Tensor(np.array([[2 ** 62 - 1, -(2 ** 62 - 1), 1]], dtype=np.int64))
    assert near.num.dtype == np.int64
    assert (near + near).num.dtype == object
    _check_linear_structure(near, near, Q(2 ** 62 - 1, 3))


def _check_linear_structure(a, b, f):
    assert holds(a) and holds(b)
    ra, rb = fractions(a), fractions(b)
    total = mat_add(ra, rb)
    cases = [
        (a + b, total),
        (a - b, mat_add(ra, mat_scale(rb, -1))),
        (-a, mat_scale(ra, -1)),
        (a * f, mat_scale(ra, f)),
        ((a + b) + (a + b), mat_scale(total, 2)),
        ((a + b) * 4 - a * f, mat_add(mat_scale(total, 4), mat_scale(ra, -f))),
    ]
    for got, want in cases:
        assert holds(got)
        assert fractions(got) == want and got.den == _reduced_den(want)


@seed(28931707250236640073661862879426638687124354220459483424168366404856438041146504560308576709790727142656846956774835)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(signed_edges, min_size=6, max_size=6),
       st.lists(signed_edges, min_size=6, max_size=6), st.sampled_from(DENOMINATORS), signed_edges)
def test_form_sums_and_scalings_at_the_int64_edge(xs, ys, den, p):
    blades = all_blades(4, 2)
    a, b = Form.of_rationals(4, 2, [Q(x, den) for x in xs]), Form.of_numerators(4, 2, ys)
    for got, want in ((a + b, [Q(x, den) + y for x, y in zip(xs, ys)]),
                      (a - b, [Q(x, den) - y for x, y in zip(xs, ys)]),
                      ((a + b) * p + b, [(Q(x, den) + y) * p + y for x, y in zip(xs, ys)])):
        assert holds(got)
        assert [got.eval(*blade) for blade in blades] == want
        assert got.terms == {blade: w for blade, w in zip(blades, want) if w}


@seed(37923663020781979356381585177235377818387946118177562156164850583957877725903677961497356044729540109796215501516566)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(tensors((2, 2)), min_size=k, max_size=k)))
def test_common_denominator_at_the_int64_edge(arrays):
    nums, den, bound = common_denominator(arrays)
    assert den == lcm(*(a.den for a in arrays))
    for a, num in zip(arrays, nums):
        values = num.ravel().tolist()
        assert [Q(x, den) for x in values] == [q for row in fractions(a) for q in row]
        assert max(map(abs, values)) <= bound
        assert num.dtype == np.int64 or all(type(x) is int for x in num.flat)


@seed(26710818533168388218734752947185409591993991876456348919006136347142536054775837960101301633269174486335976244614643)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(("ij->", "ij->i", "ij->j", "iij->j", "ij,k->k", "ij,jk->", "i,i->")),
       st.data())
def test_einsum_lone_sums_at_the_int64_edge(spec, data):
    size = {a: data.draw(st.integers(1, 4)) for a in "ijk"}
    terms = spec.split("->")[0].split(",")
    operands = [data.draw(tensors(tuple(size[a] for a in term))) for term in terms]
    got = Tensor.einsum(spec, *operands)
    assert holds(got) and got == einsum_reference.einsum(spec, *operands)


def test_lone_sums_past_int64_run_on_python_ints():
    # each entry fits int64 below the bound, their sums do not
    big = Tensor(np.full((2, 2, 3), 2 ** 62 - 1, dtype=np.int64))
    assert big.num.dtype == np.int64
    for spec, count in (("ijk->", 12), ("ijk->i", 6), ("iik->", 6), ("ijk->k", 4)):
        got = Tensor.einsum(spec, big)
        assert holds(got) and got.num.dtype == object
        assert set(got.num.ravel().tolist()) == {count * (2 ** 62 - 1)}, spec


def test_gauss_parts_of_mixed_sign_lists_beyond_int64():
    # numpy reads the list [-1, 2^63] as float64; of_parts never lets it infer
    for re, im in (([-1, 2 ** 63], [0, 0]), ([2 ** 64 + 1, -3], [-(2 ** 63), 2 ** 62]),
                   ([1, -2], [3, -4]), ([[-1, 2 ** 63], [0, 7]], [[0, 0], [-(2 ** 70), 1]])):
        g = GaussTensor.of_parts(re, im, 6)
        assert holds(g)
        want = np.array([CQ(Q(x, 6), Q(y, 6)) for x, y in
                         zip(np.ravel(np.array(re, dtype=object)),
                             np.ravel(np.array(im, dtype=object)))], dtype=object)
        assert entries(g.num, g.den) == want.reshape(np.shape(np.array(re, dtype=object))).tolist()
    # the residual of y^2 + (2^63 + 5) y - 1, which has no rational root, read with scale 3
    q = [1, 2 ** 63 + 5, -1]
    pairs, residual = rational_roots(q, 3)
    assert pairs == [] and holds(residual)
    assert entries(residual.num, residual.den) == [CQ(Q(c, 3 ** k)) for k, c in enumerate(q)]
    u = unscaled(GaussTensor.of_parts([1, -(2 ** 63), 2 ** 64], [0, 2 ** 62, -1]), 2)
    assert holds(u)
    assert entries(u.num, u.den) == [CQ(1), CQ(Q(-(2 ** 63), 2), Q(2 ** 62, 2)),
                                     CQ(Q(2 ** 64, 4), Q(-1, 4))]


def test_int64_min_is_read_exactly():
    a = np.array([[-(2 ** 63), 5]], dtype=np.int64)
    assert _abs_max(a) == 2 ** 63 and _abs_max(a[:, ::-1].T) == 2 ** 63
    t = Tensor(a)
    assert holds(t) and t.bound == 2 ** 63 and t.num.dtype == object
    assert (-t)[0, 0] == 2 ** 63 and t.max_abs() == 2 ** 63
    assert int_matmul(a, np.array([[1], [0]], dtype=np.int64), 2 ** 63, 1).tolist() == \
        [[-(2 ** 63)]]


def test_elimination_of_int64_numerators_runs_on_python_ints():
    # a row update multiplies two entries near 2^62: it would wrap in int64
    big = 2 ** 62 - 1
    rows = [[big, big - 2, 1], [big - 4, big - 6, 3]]
    t = Tensor.of(rows)
    assert t.num.dtype == np.int64
    values = [[Q(x) for x in row] for row in rows]
    assert rank(t) == cq_reference.rank(values) == 2
    assert nullspace(t) == Tensor.of(cq_reference.nullspace(values))
    g = GaussTensor.of_parts(np.array(rows, dtype=np.int64), np.array(rows, dtype=np.int64)[::-1])
    assert rank(g) == cq_reference.rank(entries(g.num, g.den))


def test_charpoly_row_sums_past_int64():
    # each entry fits int64 below the bound; a Gershgorin row sum of 2n = 16 of them,
    # 2^66 - 16, does not (it would wrap to -16)
    big, n = 2 ** 62 - 1, 8
    signs = np.array([[(-1) ** (i * j + j) for j in range(n)] for i in range(n)], dtype=np.int64)
    m = GaussTensor.of_parts(np.full((n, n), big, dtype=np.int64), signs * big)
    assert m.num.dtype == np.int64
    coeffs = charpoly(m)
    assert holds(coeffs)
    assert entries(coeffs.num, coeffs.den) == charpoly_by_fractions(entries(m.num, m.den))


def _is_python_fraction(q):
    return type(q) is Q and type(q.numerator) is int and type(q.denominator) is int


def test_no_numpy_scalar_leaves_the_exact_layer():
    # every Fraction read from an exact array holds Python ints, int64-backed or not
    conn = registry()["heis7"].structure.connection
    table = conn.curvature
    assert table.r.num.dtype == np.int64
    big = Tensor(np.array([[2 ** 62, -3], [7, -(2 ** 70)]], dtype=object), 6)
    for t in (table.r, table.ric, conn.omega, big):
        assert all(_is_python_fraction(t[index]) for index in np.ndindex(t.num.shape))
        assert _is_python_fraction(t.max_abs())
    assert _is_python_fraction(table.scal)
    torsion = conn.torsion
    assert torsion.num.dtype == np.int64
    vector = Form.of_rationals(7, 1, [Q(3, 2), 0, -1, 2 ** 63, 0, 5, Q(-1, 7)])
    forms = (torsion, Form.of_rationals(7, 3, [Q(2 ** 62 + x, 3) for x in range(35)]), vector)
    for f in forms:
        assert all(_is_python_fraction(f.eval(*b)) for b in all_blades(7, f.degree))
        assert all(_is_python_fraction(q) for q in f.terms.values())
        assert _is_python_fraction(inner(f, f))
    assert all(_is_python_fraction(q) for q in vector.vector_components())
