"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of a `random.Random` and of documents the
program printed; nothing imports the program.

Frame maps.  A signed permutation of an orthonormal coframe is stored as a
dict `g` with `g[j] = (a, s)` meaning e^j = s f^a (old index j, new index a,
sign s = +-1; indices are 1-based).  Since the frame is orthonormal the dual
vectors transform the same way, e_j = s f_a.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

OMEGA3 = {(1, 2, 7): 1, (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1,
          (2, 4, 5): -1, (3, 4, 7): 1, (5, 6, 7): 1}

COEFFS = (-3, -2, -1, 1, 2, 3)
LAMBDAS = tuple(sorted({Fraction(p, q) for p in range(1, 5) for q in range(1, 5)}))
SPIN_DIMS = (5, 6, 7, 8)
SPIN_DEGREES = (2, 3, 4)
# blades per spin-eig form: a few, then the dense form.  The dense forms
# carry the root-search defect (constant terms near 10**16; the dense n = 8
# forms miss the deadline, those of degree 2 most of the time); up to six
# blades the cost is set mostly by the matrix size, but the coefficients
# still move an n = 8 query's cost by a factor of three.
SPIN_BLADES = (1, 3, 6, None)


# ---------------------------------------------------------------------------
# forms as {ascending blade tuple: Fraction}
# ---------------------------------------------------------------------------

def _sort_sign(indices):
    """Ascending order of distinct indices and the sign of the sorting permutation."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return tuple(idx), sign


def push_form(terms, g, scale=1):
    """Coefficients of a form after the coframe change `g`, times `scale`."""
    out = {}
    for blade, coeff in terms.items():
        sign = 1
        image = []
        for j in blade:
            a, s = g[j]
            image.append(a)
            sign *= s
        new, perm_sign = _sort_sign(image)
        out[new] = out.get(new, 0) + Fraction(coeff) * sign * perm_sign * scale
    return {b: c for b, c in out.items() if c}


def push_matrix(rows, g, scale=1):
    """Entries m[j][k] of a bilinear form or endomorphism, in the new frame."""
    n = len(rows)
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n + 1):
        a, sj = g[j]
        for k in range(1, n + 1):
            b, sk = g[k]
            out[a - 1][b - 1] = Fraction(rows[j - 1][k - 1]) * sj * sk * scale
    return out


def pairs_to_terms(pairs):
    return {tuple(blade): Fraction(c) for blade, c in pairs}


def terms_to_pairs(terms):
    return [[list(b), str(c)] for b, c in sorted(terms.items())]


def render(terms):
    """A form in the command-line grammar, e.g. "2*e1^e2 - 1/3*e4^e5"."""
    if not terms:
        return "0"
    bits = []
    for blade, c in sorted(terms.items()):
        mono = "^".join(f"e{k}" for k in blade)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        bits.append((sign, mono if mag == 1 else f"{mag}*{mono}"))
    text = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    for sign, body in bits[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# signed permutations
# ---------------------------------------------------------------------------

def g2_stabilizer():
    """All signed permutations of the 7-frame fixing the canonical 3-form.

    Backtracking over images of e^1, e^2, ...; a partial map is cut as soon as
    some term of the 3-form has all its indices mapped and lands elsewhere.
    The group has 1,344 elements: eight sign patterns for each of the 168
    symmetries of the Fano plane.
    """
    out = []
    g = {}
    # indices are mapped in ascending order, so a term is complete exactly
    # when its largest index is mapped
    completed_by = {j: [(b, c) for b, c in OMEGA3.items() if b[-1] == j]
                    for j in range(1, 8)}

    def consistent(j):
        for blade, c in completed_by[j]:
            ((b, v),) = push_form({blade: c}, g).items()
            if OMEGA3.get(b) != v:
                return False
        return True

    def extend(j):
        if j > 7:
            out.append(dict(g))
            return
        used = {a for a, _ in g.values()}
        for a in range(1, 8):
            if a in used:
                continue
            for s in (1, -1):
                g[j] = (a, s)
                if consistent(j):
                    extend(j + 1)
                del g[j]

    extend(1)
    return out


def random_signed_perm(rng, n, fixed_sign=None):
    """Uniform signed permutation; `fixed_sign` = old index whose sign stays +1."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    g = {}
    for j in range(1, n + 1):
        s = 1 if j == fixed_sign else rng.choice((1, -1))
        g[j] = (image[j - 1], s)
    return g


# ---------------------------------------------------------------------------
# model-sessions: transformed registry models
# ---------------------------------------------------------------------------

def transform_doc(doc, g, lam, name):
    """Model file of `doc` in the coframe f (e^j = s f^a) with structure constants times lam.

    The structure tensors are carried along unscaled; a g2 structure keeps
    the canonical 3-form because `g` is drawn from its stabiliser.
    """
    n = doc["dim"]
    d_new = [None] * n
    for j, pairs in doc["coframe_d"]:
        a, s = g[j]
        d_new[a - 1] = push_form(pairs_to_terms(pairs), g, lam * s)
    out = {"name": name, "dim": n,
           "coframe_d": [[a + 1, terms_to_pairs(d_new[a] or {})] for a in range(n)],
           "notes": doc.get("notes", "")}
    st = doc["structure"]
    if st["kind"] == "g2":
        omega = push_form(pairs_to_terms(st["omega3"]), g)
        if omega != pairs_to_terms(st["omega3"]):
            raise ValueError("frame map does not fix the 3-form")
        out["structure"] = {"kind": "g2", "omega3": terms_to_pairs(omega)}
    elif st["kind"] == "contact":
        a, s = g[st["xi"]]
        if s != 1:
            raise ValueError("the Reeb vector must keep its sign")
        out["structure"] = {
            "kind": "contact", "xi": a,
            "eta": terms_to_pairs(push_form(pairs_to_terms(st["eta"]), g)),
            "phi": [[str(x) for x in row] for row in push_matrix(st["phi"], g)]}
    elif st["kind"] == "hermitian":
        out["structure"] = {
            "kind": "hermitian",
            "J": [[str(x) for x in row] for row in push_matrix(st["J"], g)]}
    else:
        out["structure"] = {"kind": "none"}
    return out


def doc_key(doc):
    """Content of a model file up to its name and notes, as a hashable value."""
    def frac_rows(rows):
        return tuple(tuple(Fraction(x) for x in row) for row in rows)
    d = tuple(tuple(sorted(pairs_to_terms(p).items())) for _, p in sorted(doc["coframe_d"]))
    st = doc["structure"]
    s = tuple(sorted((k, frac_rows(v) if k in ("phi", "J") else
                      tuple(sorted(pairs_to_terms(v).items())) if k in ("omega3", "eta")
                      else v) for k, v in st.items()))
    return doc["dim"], d, s


def session_models(rng, base_docs, count, stabilizer):
    """`count` new models, cycling through `base_docs` in order.

    Each is a base model in a random signed-permuted coframe, with structure
    constants times a rational lam from LAMBDAS.  The lam of a model runs
    through LAMBDAS in a rotation with a seeded offset, so that any
    len(LAMBDAS) consecutive cycles give every base model every lam once:
    the cost of the arithmetic grows with the size of lam's numerator and
    denominator, and a fixed mix keeps runs with different seeds comparable.
    The Reeb vector of a contact model keeps its sign, since a model file
    stores it as an index.  Duplicates of an earlier model (including the
    bases) are redrawn, so every model of a run is new.  Returns
    [(base_name, g, lam, doc)].
    """
    seen = {doc_key(d) for d in base_docs.values()}
    names = sorted(base_docs)
    offset = rng.randrange(len(LAMBDAS))
    out = []
    while len(out) < count:
        cycle, pos = divmod(len(out), len(names))
        base = names[pos]
        doc = base_docs[base]
        st = doc["structure"]
        xi = st["xi"] if st["kind"] == "contact" else None
        if doc["dim"] == 7:
            # the 3-form types of `decompose` are equivariant only under the
            # stabiliser, so every 7-dimensional model draws from it
            g = rng.choice([h for h in stabilizer if xi is None or h[xi][1] == 1])
        else:
            g = random_signed_perm(rng, doc["dim"], xi)
        lam = LAMBDAS[(offset + cycle + pos) % len(LAMBDAS)]
        new = transform_doc(doc, g, lam, f"bm{len(out):05d}")
        key = doc_key(new)
        if key in seen:
            continue
        seen.add(key)
        out.append((base, g, lam, new))
    return out


# ---------------------------------------------------------------------------
# spinor-spectra: random forms, stratified
# ---------------------------------------------------------------------------

def spin_round(rng):
    """One query per stratum (n, degree, blade count), in a seeded order.

    A stratum's form has that many distinct random blades (at most all C of
    them; None means all C), with nonzero integer coefficients |c| <= 3.
    Returns [(n, terms)].
    """
    out = []
    for n in SPIN_DIMS:
        for degree in SPIN_DEGREES:
            blades = list(combinations(range(1, n + 1), degree))
            for k in SPIN_BLADES:
                chosen = rng.sample(blades, min(k or len(blades), len(blades)))
                out.append((n, {b: Fraction(rng.choice(COEFFS)) for b in chosen}))
    rng.shuffle(out)
    return out


def spin_queries(seed, rounds):
    rng = random.Random(seed)
    return [spin_round(rng) for _ in range(rounds)]
