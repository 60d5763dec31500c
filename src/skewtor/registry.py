"""Embedded model registry: the worked examples plus synthetic branch fixtures.

Every entry couples a LieModel with the validated geometric structure whose
characteristic connection the suites exercise.  Structure data uses exact
rationals; phi / J matrices are column-action matrices (phi(e_j) is column j).
"""

from __future__ import annotations

from fractions import Fraction

from .acskit import AlmostContact, AlmostHermitian
from .forms import Form
from .g2 import G2Structure
from .liegeom import LieModel

Q = Fraction


def _rotation(n: int, planes):
    """Column-action matrix with e_a -> -e_b and e_b -> e_a on each plane (a, b), 1-based."""
    m = [[Q(0)] * n for _ in range(n)]
    for a, b in planes:
        m[b - 1][a - 1], m[a - 1][b - 1] = Q(-1), Q(1)
    return m


def standard_j_matrix(n: int):
    """Block-diagonal complex structure J e_{2k-1} = -e_{2k}, J e_{2k} = e_{2k-1} (columns).

    The Kaehler form Omega(X,Y) = g(X, JY) is then e_{2k-1} ^ e_{2k} on each plane.
    """
    return _rotation(n, [(k, k + 1) for k in range(1, n, 2)])


def standard_phi_matrix(n: int):
    """Contact phi on odd frames: rotation on each (e_{2k-1}, e_{2k}) plane, phi(xi)=0.

    Oriented so the fundamental form g(., phi .) is e1^e2 + e3^e4 + ...,
    matching the d(eta) = 2(e1^e2 + e3^e4) normalization of the fixtures.
    """
    return _rotation(n, [(k, k + 1) for k in range(1, n - 1, 2)])


def _standard_contact(model: LieModel) -> AlmostContact:
    """Reeb vector e_n, eta = e^n and the standard phi on the first n - 1 directions."""
    return AlmostContact(model, model.n, standard_phi_matrix(model.n))


class ModelEntry:
    def __init__(self, model, structure, notes=""):
        self.model = model
        # G2Structure | AlmostContact | AlmostHermitian, validated; None for a bare model
        self.structure = structure
        self.notes = notes

    @property
    def name(self):
        return self.model.name

    @property
    def kind(self):
        return "none" if self.structure is None else self.structure.kind


def _forms(n, term_dicts):
    """One 2-form per coframe element, given as blade -> coefficient dicts."""
    return [Form(n, 2, terms) for terms in term_dicts]


def _abelian(n):
    return LieModel(n, [Form.zero(n, 2)] * n, name=f"abelian{n}")


def build_registry():
    reg = {}

    # 7-dim 2-step nilpotent model (H(3) x R): five closed coframe elements
    heis7 = LieModel(7, _forms(7, [
        {}, {}, {},
        {(1, 6): 1, (3, 7): 1},
        {(1, 3): 1, (6, 7): -1},
        {}, {},
    ]), name="heis7")
    reg["heis7"] = ModelEntry(heis7, G2Structure(heis7),
                              notes="cocalibrated, pure 27-type torsion")

    # 7-dim solvable model (complex solvable N^6 x R)
    solv7 = LieModel(7, _forms(7, [
        {}, {},
        {(1, 3): 1, (2, 4): -1},
        {(2, 3): 1, (1, 4): 1},
        {(1, 5): -1, (2, 6): 1},
        {(2, 5): -1, (1, 6): -1},
        {},
    ]), name="solv7")
    reg["solv7"] = ModelEntry(solv7, G2Structure(solv7),
                              notes="cocalibrated, pure 27-type torsion")

    abelian5, abelian6, abelian7 = map(_abelian, (5, 6, 7))
    reg["abelian5"] = ModelEntry(abelian5, _standard_contact(abelian5))
    reg["abelian6"] = ModelEntry(abelian6, AlmostHermitian(abelian6, standard_j_matrix(6)))
    reg["abelian7"] = ModelEntry(abelian7, G2Structure(abelian7))

    # 5-dim Heisenberg Sasakian model, d(eta) = 2(e12 + e34)
    heis5 = LieModel(5, _forms(5, [
        {}, {}, {}, {},
        {(1, 2): 2, (3, 4): 2},
    ]), name="heis5")
    reg["heis5"] = ModelEntry(heis5, _standard_contact(heis5),
                              notes="Sasakian; torsion eta ^ d(eta)")

    # 5-dim product of the 3-dim Heisenberg group with R^2: normal, Killing
    # Reeb field, but not contact-metric (2F != d(eta))
    heis3x2 = LieModel(5, _forms(5, [
        {}, {}, {}, {},
        {(1, 2): 2},
    ]), name="heis3x2")
    reg["heis3x2"] = ModelEntry(heis3x2, _standard_contact(heis3x2),
                                notes="normal non-Sasakian branch fixture")

    # 4-dim Kodaira-Thurston type nilmanifold: symplectic (d Omega = 0) but the
    # compatible J is non-integrable with non-skew Nijenhuis tensor
    kt4 = LieModel(4, _forms(4, [
        {}, {}, {},
        {(1, 2): 1},
    ]), name="kt4")
    reg["kt4"] = ModelEntry(kt4, AlmostHermitian(kt4, _rotation(4, [(1, 3), (2, 4)])),
                            notes="almost-Kaehler non-Kaehler error fixture")

    # rank-one solvable extension: de_i = e_i ^ e7; its characteristic torsion
    # is pure vector type (nonzero codifferential direction, zero scaling and
    # traceless parts)
    hyper7 = LieModel(7, [Form(7, 2, {(i, 7): Q(1)}) for i in range(1, 7)]
                      + [Form.zero(7, 2)], name="hyper7")
    reg["hyper7"] = ModelEntry(hyper7, G2Structure(hyper7),
                               notes="pure vector-type torsion fixture")

    # contact metric but non-normal: the bracket twist makes the Nijenhuis
    # tensor non-skew, so no compatible skew-torsion connection exists
    cm5twist = LieModel(5, _forms(5, [
        {}, {}, {},
        {(1, 3): 1},
        {(1, 2): 2, (3, 4): 2},
    ]), name="cm5twist")
    reg["cm5twist"] = ModelEntry(cm5twist, _standard_contact(cm5twist),
                                 notes="contact-metric non-normal error fixture")

    # normal, Killing Reeb field, d(eta) = 0, with a genuinely nonzero d^phi F
    twist5 = LieModel(5, _forms(5, [
        {(3, 4): 1}, {}, {}, {}, {},
    ]), name="twist5")
    reg["twist5"] = ModelEntry(twist5, _standard_contact(twist5),
                               notes="normal non-contact-metric fixture, torsion = d^phi F")

    # SU(2) x SU(2): bi-invariant metric, factor-swapping J; the Nijenhuis
    # tensor is nonzero but totally skew, torsion = the Cartan 3-form
    su2su2 = LieModel(6, _forms(6, [
        {(2, 3): -2}, {(1, 3): 2}, {(1, 2): -2},
        {(5, 6): -2}, {(4, 6): 2}, {(4, 5): -2},
    ]), name="su2su2")
    # J e_k = e_{k+3}, J e_{k+3} = -e_k
    swap = [(k + 3, k) for k in range(1, 4)]
    reg["su2su2"] = ModelEntry(su2su2, AlmostHermitian(su2su2, _rotation(6, swap)),
                               notes="non-integrable skew-Nijenhuis fixture")

    su2su2xr = LieModel(7, _forms(7, [
        {(2, 3): -2}, {(1, 3): 2}, {(1, 2): -2},
        {(5, 6): -2}, {(4, 6): 2}, {(4, 5): -2}, {},
    ]), name="su2su2xr")
    reg["su2su2xr"] = ModelEntry(
        su2su2xr, AlmostContact(su2su2xr, 7, _rotation(7, swap)),
        notes="skew nonzero Nijenhuis contact fixture")

    # 6-dim solvable complex group N^6 with its integrable J (G_1 hermitian)
    solv6 = LieModel(6, _forms(6, [
        {}, {},
        {(1, 3): 1, (2, 4): -1},
        {(2, 3): 1, (1, 4): 1},
        {(1, 5): -1, (2, 6): 1},
        {(2, 5): -1, (1, 6): -1},
    ]), name="solv6")
    reg["solv6"] = ModelEntry(solv6, AlmostHermitian(solv6, standard_j_matrix(6)),
                              notes="integrable non-Kaehler hermitian fixture")

    return reg


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = build_registry()
    return _REGISTRY
