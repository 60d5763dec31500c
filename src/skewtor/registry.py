"""Embedded model registry: the worked examples plus synthetic branch fixtures.

Every entry couples a LieModel with the geometric structure whose
characteristic connection the suites exercise.  Structure data uses exact
rationals; phi / J matrices are column-action matrices (phi(e_j) is column j).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SkewtorError
from .forms import Form
from .liegeom import LieModel

Q = Fraction


def canonical_omega3() -> Form:
    f = lambda *ix, c=1: Form.blade(7, *ix, coeff=c)
    return (f(1, 2, 7) + f(1, 3, 5) - f(1, 4, 6) - f(2, 3, 6) - f(2, 4, 5)
            + f(3, 4, 7) + f(5, 6, 7))


def standard_j_matrix(n: int, flips=()):
    """Block-diagonal complex structure J e_{2k-1} = e_{2k} (columns), optionally
    reversing the orientation of the planes listed in `flips` (1-based plane index)."""
    j = [[Q(0)] * n for _ in range(n)]
    for plane, k in enumerate(range(0, n, 2), start=1):
        s = -1 if plane in flips else 1
        # J e_{k+1} = -s e_{k+2}, J e_{k+2} = s e_{k+1}: the Kaehler form
        # Omega(X,Y) = g(X, JY) is then s (e_{k+1} ^ e_{k+2}) on each plane
        j[k + 1][k] = Q(-s)
        j[k][k + 1] = Q(s)
    return j


def standard_phi_matrix(n: int):
    """Contact phi on odd frames: rotation on each (e_{2k-1}, e_{2k}) plane, phi(xi)=0.

    Oriented so the fundamental form g(., phi .) is e1^e2 + e3^e4 + ...,
    matching the d(eta) = 2(e1^e2 + e3^e4) normalization of the fixtures.
    """
    phi = [[Q(0)] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        phi[k + 1][k] = Q(-1)
        phi[k][k + 1] = Q(1)
    return phi


class ModelEntry:
    def __init__(self, model, structure, notes=""):
        self.model = model
        self.structure = structure   # dict: {"kind": "g2"|"contact"|"hermitian"|"none", ...}
        self.notes = notes

    @property
    def name(self):
        return self.model.name

    def structure_object(self):
        """The registered structure, built (and its invariants checked) from its data."""
        from . import acskit, g2
        s = self.structure
        if s["kind"] == "g2":
            return g2.G2Structure(self.model, s["omega3"])
        if s["kind"] == "contact":
            return acskit.AlmostContact(self.model, s["xi"], s["eta"], s["phi"])
        if s["kind"] == "hermitian":
            return acskit.AlmostHermitian(self.model, s["J"])
        raise SkewtorError(f"model '{self.name}' carries no structure")

    def characteristic_torsion(self) -> Form:
        """Torsion of the structure's unique connection with totally skew torsion.

        Raises NoSkewConnection when the structure admits none.
        """
        from . import acskit, g2
        s = self.structure_object()
        if isinstance(s, g2.G2Structure):
            return g2.torsion_form(s)
        if isinstance(s, acskit.AlmostContact):
            return acskit.contact_torsion(s)
        return acskit.hermitian_torsion(s)


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
    reg["heis7"] = ModelEntry(heis7, {"kind": "g2", "omega3": canonical_omega3()},
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
    reg["solv7"] = ModelEntry(solv7, {"kind": "g2", "omega3": canonical_omega3()},
                              notes="cocalibrated, pure 27-type torsion")

    for n in (5, 6, 7):
        entry = ModelEntry(_abelian(n), {"kind": "none"})
        if n == 7:
            entry.structure = {"kind": "g2", "omega3": canonical_omega3()}
        elif n == 6:
            entry.structure = {"kind": "hermitian", "J": standard_j_matrix(6)}
        else:
            entry.structure = {
                "kind": "contact", "xi": 5,
                "eta": Form.basis_vector(5, 5),
                "phi": standard_phi_matrix(5),
            }
        reg[f"abelian{n}"] = entry

    # 5-dim Heisenberg Sasakian model, d(eta) = 2(e12 + e34)
    heis5 = LieModel(5, _forms(5, [
        {}, {}, {}, {},
        {(1, 2): 2, (3, 4): 2},
    ]), name="heis5")
    reg["heis5"] = ModelEntry(heis5, {
        "kind": "contact", "xi": 5,
        "eta": Form.basis_vector(5, 5),
        "phi": standard_phi_matrix(5),
    }, notes="Sasakian; torsion eta ^ d(eta)")

    # 5-dim product of the 3-dim Heisenberg group with R^2: normal, Killing
    # Reeb field, but not contact-metric (2F != d(eta))
    heis3x2 = LieModel(5, _forms(5, [
        {}, {}, {}, {},
        {(1, 2): 2},
    ]), name="heis3x2")
    reg["heis3x2"] = ModelEntry(heis3x2, {
        "kind": "contact", "xi": 5,
        "eta": Form.basis_vector(5, 5),
        "phi": standard_phi_matrix(5),
    }, notes="normal non-Sasakian branch fixture")

    # 4-dim Kodaira-Thurston type nilmanifold: symplectic (d Omega = 0) but the
    # compatible J is non-integrable with non-skew Nijenhuis tensor
    kt4 = LieModel(4, _forms(4, [
        {}, {}, {},
        {(1, 2): 1},
    ]), name="kt4")
    reg["kt4"] = ModelEntry(kt4, {
        "kind": "hermitian",
        "J": [[Q(0), Q(0), Q(1), Q(0)],
              [Q(0), Q(0), Q(0), Q(1)],
              [Q(-1), Q(0), Q(0), Q(0)],
              [Q(0), Q(-1), Q(0), Q(0)]],
    }, notes="almost-Kaehler non-Kaehler error fixture")

    # rank-one solvable extension: de_i = e_i ^ e7; its characteristic torsion
    # is pure vector type (nonzero codifferential direction, zero scaling and
    # traceless parts)
    hyper7 = LieModel(7, [Form(7, 2, {(i, 7): Q(1)}) for i in range(1, 7)]
                      + [Form.zero(7, 2)], name="hyper7")
    reg["hyper7"] = ModelEntry(hyper7, {"kind": "g2",
                                        "omega3": canonical_omega3()},
                               notes="pure vector-type torsion fixture")

    # contact metric but non-normal: the bracket twist makes the Nijenhuis
    # tensor non-skew, so no compatible skew-torsion connection exists
    cm5twist = LieModel(5, _forms(5, [
        {}, {}, {},
        {(1, 3): 1},
        {(1, 2): 2, (3, 4): 2},
    ]), name="cm5twist")
    reg["cm5twist"] = ModelEntry(cm5twist, {
        "kind": "contact", "xi": 5,
        "eta": Form.basis_vector(5, 5),
        "phi": standard_phi_matrix(5),
    }, notes="contact-metric non-normal error fixture")

    # normal, Killing Reeb field, d(eta) = 0, with a genuinely nonzero d^phi F
    twist5 = LieModel(5, _forms(5, [
        {(3, 4): 1}, {}, {}, {}, {},
    ]), name="twist5")
    reg["twist5"] = ModelEntry(twist5, {
        "kind": "contact", "xi": 5,
        "eta": Form.basis_vector(5, 5),
        "phi": standard_phi_matrix(5),
    }, notes="normal non-contact-metric fixture, torsion = d^phi F")

    # SU(2) x SU(2): bi-invariant metric, factor-swapping J; the Nijenhuis
    # tensor is nonzero but totally skew, torsion = the Cartan 3-form
    su2su2 = LieModel(6, _forms(6, [
        {(2, 3): -2}, {(1, 3): 2}, {(1, 2): -2},
        {(5, 6): -2}, {(4, 6): 2}, {(4, 5): -2},
    ]), name="su2su2")
    j_swap = [[Q(0)] * 6 for _ in range(6)]
    for k in range(3):
        j_swap[k + 3][k] = Q(1)
        j_swap[k][k + 3] = Q(-1)
    reg["su2su2"] = ModelEntry(su2su2, {"kind": "hermitian", "J": j_swap},
                               notes="non-integrable skew-Nijenhuis fixture")

    su2su2xr = LieModel(7, _forms(7, [
        {(2, 3): -2}, {(1, 3): 2}, {(1, 2): -2},
        {(5, 6): -2}, {(4, 6): 2}, {(4, 5): -2}, {},
    ]), name="su2su2xr")
    phi_swap = [[Q(0)] * 7 for _ in range(7)]
    for k in range(3):
        phi_swap[k + 3][k] = Q(1)
        phi_swap[k][k + 3] = Q(-1)
    reg["su2su2xr"] = ModelEntry(su2su2xr, {
        "kind": "contact", "xi": 7,
        "eta": Form.basis_vector(7, 7),
        "phi": phi_swap,
    }, notes="skew nonzero Nijenhuis contact fixture")

    # 6-dim solvable complex group N^6 with its integrable J (G_1 hermitian)
    solv6 = LieModel(6, _forms(6, [
        {}, {},
        {(1, 3): 1, (2, 4): -1},
        {(2, 3): 1, (1, 4): 1},
        {(1, 5): -1, (2, 6): 1},
        {(2, 5): -1, (1, 6): -1},
    ]), name="solv6")
    reg["solv6"] = ModelEntry(solv6, {"kind": "hermitian",
                                      "J": standard_j_matrix(6)},
                              notes="integrable non-Kaehler hermitian fixture")

    return reg


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = build_registry()
    return _REGISTRY
