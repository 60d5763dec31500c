"""Standard complex and contact structures as column-action matrices, for
tests that build structures on models of their own (the registry's models
carry theirs in their model files).  phi(e_j) is column j, indices 1-based.
"""

from fractions import Fraction as Q


def rotation(n: int, planes):
    """Column-action matrix with e_a -> -e_b and e_b -> e_a on each plane (a, b), 1-based."""
    m = [[Q(0)] * n for _ in range(n)]
    for a, b in planes:
        m[b - 1][a - 1], m[a - 1][b - 1] = Q(-1), Q(1)
    return m


def standard_j_matrix(n: int):
    """Block-diagonal complex structure J e_{2k-1} = -e_{2k}, J e_{2k} = e_{2k-1} (columns).

    The Kaehler form Omega(X,Y) = g(X, JY) is then e_{2k-1} ^ e_{2k} on each plane.
    """
    return rotation(n, [(k, k + 1) for k in range(1, n, 2)])


def standard_phi_matrix(n: int):
    """Contact phi on odd frames: rotation on each (e_{2k-1}, e_{2k}) plane, phi(xi)=0.

    Oriented so the fundamental form g(., phi .) is e1^e2 + e3^e4 + ...,
    matching the d(eta) = 2(e1^e2 + e3^e4) normalization of the fixtures.
    """
    return rotation(n, [(k, k + 1) for k in range(1, n - 1, 2)])
