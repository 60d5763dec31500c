"""Reference G2 tables by per-entry Fraction loops.

These are the inner-product loops (one `inner` per table entry, one Fraction
per entry) and the contraction sums that the dense contractions with the
tensors W of w3 and S of *w3 replaced in `skewtor.g2`, kept here to compare
the contractions against entry for entry.  Indices are 1-based for forms.
"""

from fractions import Fraction as Q

from skewtor.errors import StructureError
from skewtor.forms import (Form, all_blades, contract, hodge, inner, interior,
                           so_action, wedge)
from skewtor.g2 import canonical_omega3, project2, spanning_27, tbeta_form
from skewtor.liegeom import codiff, d_form, levi_civita, nabla_form, with_torsion


def classify_by_loops(s):
    """(lambda, beta as a list, gamma as nested lists, obstruction14) of a structure.

    beta_i = -(1/3)(delta w3, e_i -| w3), gamma[i][j] = -(1/12)(nabla_i w3, e_j -| *w3);
    raises StructureError when nabla_i w3 != -3 (Z_i -| *w3).
    """
    model = s.model
    w3, sw3 = s.omega3, s.star_omega3
    lam = Q(-1, 7) * inner(d_form(model, w3), sw3)
    delta_w3 = codiff(levi_civita(model), w3)
    beta = [Q(-1, 3) * inner(delta_w3, contract(w3, i)) for i in range(1, 8)]
    lc = levi_civita(model)
    gamma = []
    for i in range(1, 8):
        nab = nabla_form(lc, i, w3)
        z = [Q(-1, 12) * inner(nab, contract(sw3, j)) for j in range(1, 8)]
        if interior(Form.from_vector(7, z), sw3) * -3 != nab:
            raise StructureError("derivative of the 3-form left the vector-type orbit")
        gamma.append(z)
    skew = Form.of_rationals(7, 2, [gamma[i - 1][j - 1] - gamma[j - 1][i - 1]
                                    for i, j in all_blades(7, 2)])
    return lam, beta, gamma, project2(skew)[1]


def ricci_by_loops(s, t):
    """Ric[i][j] = (1/2)(e_i -| dT + 2 nabla_{e_i} T, e_j -| *w3)."""
    conn = with_torsion(s.model, t)
    dt = d_form(s.model, t)
    table = []
    for i in range(1, 8):
        row_form = contract(dt, i) + nabla_form(conn, i, t) * 2
        table.append([Q(1, 2) * inner(row_form, contract(s.star_omega3, j))
                      for j in range(1, 8)])
    return table


def contraction_sums(part):
    """sum_{i,j} (part(j), e_i -| w3) e_j -| (e_i -| *w3) and the same sum with
    e_j ^ (e_i -| *w3) in place of the contraction."""
    w3 = canonical_omega3()
    sw3 = hodge(w3)
    inter, wedged = Form.zero(7, 2), Form.zero(7, 4)
    for j in range(1, 8):
        part_j = part(j)
        for i in range(1, 8):
            coeff = inner(part_j, contract(w3, i))
            if coeff:
                inter = inter + contract(contract(sw3, i), j) * coeff
                wedged = wedged + wedge(Form.basis_vector(7, j), contract(sw3, i)) * coeff
    return inter, wedged


def constant_identities_by_loops():
    """The contraction-constant identities, one Form comparison per b, gamma or pair."""
    w3 = canonical_omega3()
    sw3 = hodge(w3)
    out = {}
    beta_sums = [contraction_sums(lambda j, b=b: wedge(Form.basis_vector(7, b),
                                                      Form.basis_vector(7, j)))
                 for b in range(1, 8)]
    out["beta-contraction-is-minus-4"] = all(
        inter == contract(w3, b) * -4 for b, (inter, _) in enumerate(beta_sums, 1))
    out["beta-wedge-is-minus-3"] = all(
        wedged == wedge(Form.basis_vector(7, b), w3) * -3
        for b, (_, wedged) in enumerate(beta_sums, 1))
    out["star-beta-wedge"] = all(hodge(wedge(Form.basis_vector(7, b), w3)) == -contract(sw3, b)
                                 for b in range(1, 8))
    out["t-beta-is-quarter-contraction"] = all(
        tbeta_form(Form.basis_vector(7, b)) == contract(sw3, b) * Q(-1, 4)
        for b in range(1, 8))
    gamma_sums = [(g, contraction_sums(lambda j, g=g: contract(g, j))) for g in spanning_27()]
    out["gamma27-contraction-vanishes"] = all(inter.is_zero() for _, (inter, _) in gamma_sums)
    out["gamma27-wedge-is-minus-2-star"] = all(wedged == hodge(g) * -2
                                               for g, (_, wedged) in gamma_sums)
    out["two-form-action-constant-minus-3"] = all(
        so_action(contract(w3, z), w3) == contract(sw3, z) * -3 for z in range(1, 8))
    out["gram-3-delta"] = all(inner(contract(w3, i), contract(w3, j)) == (3 if i == j else 0)
                              for i in range(1, 8) for j in range(1, 8))
    out["gram-4-delta"] = all(inner(contract(sw3, i), contract(sw3, j)) == (4 if i == j else 0)
                              for i in range(1, 8) for j in range(1, 8))
    return out
