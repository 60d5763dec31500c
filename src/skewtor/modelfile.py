"""Model files: UTF-8 JSON with integer blade arrays and "p/q" coefficients.

A model is defined in one way only: as a model file, read and validated by
`load_file`.  The registry's models are the files shipped in the package's
`models/` directory (`registry.registry`), and a user's models are the
`<name>.json` files on `SKEWTOR_MODEL_PATH`, which `find_model` searches
after the registry.

The format is read, never written.  A document holds only the keys `KEYS`, and
"structure" only "kind" and that kind's `STRUCTURE_KEYS`; an entry keeps the
validated document, which `skewtor models show` prints.

A load is one pass over the document, and every query makes its own: no
model is kept between loads.
1. Parse the JSON and check its keys, the dimension, the name and the notes.
2. Read each structure 2-form de_i into a Form (blades ascending, each listed
   once, coefficients exact), and build the `LieModel`: its structure
   constants c and the check that their Jacobi tensor vanishes (d^2 = 0).
3. Build the structure of its kind, which checks its identities: omega3 is
   the canonical 3-form; eta is e^xi, phi xi = 0, phi^2 = -1 + eta (x) xi
   and phi^T phi = 1 - eta (x) xi; or J^2 = -1 and J^T J = 1.
`formexpr.parse_rational` remembers the last 256 literals it parsed, so a
repeated "0" or "1" is parsed once, and the canonical 3-form is built once
per process; neither cache is keyed by a file or a document.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .acskit import AlmostContact, AlmostHermitian
from .errors import DegreeError, SkewtorError, StructureError
from .formexpr import parse_rational
from .forms import Form
from .g2 import G2Structure, canonical_omega3
from .liegeom import LieModel
from .registry import registry

ENV_PATH = "SKEWTOR_MODEL_PATH"

# the keys of a model document, and those of its "structure" object besides "kind"
KEYS = ("name", "dim", "coframe_d", "notes", "structure")
STRUCTURE_KEYS = {"g2": ("omega3",), "contact": ("xi", "eta", "phi"), "hermitian": ("J",), "none": ()}


class ModelEntry:
    def __init__(self, model, structure, doc):
        self.model = model
        # G2Structure | AlmostContact | AlmostHermitian, validated; None for a bare model
        self.structure = structure
        # the document as read, every key of it validated: `models show` prints it
        self.doc = doc

    @property
    def name(self):
        return self.model.name

    @property
    def notes(self):
        return self.doc.get("notes", "")

    @property
    def kind(self):
        return "none" if self.structure is None else self.structure.kind


def form_to_pairs(f: Form):
    return [[list(blade), str(coeff)] for blade, coeff in f.terms.items()]


def _exact(value):
    """A JSON integer or a "p", "p/q" string (signed or not) as a Fraction; a bool, a float
    or any other string (an exponent, a decimal point) is an error."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"coefficient {value!r} is not exact; write it as a \"p/q\" string")
    return Fraction(value)


def form_from_pairs(pairs, n, degree):
    """The form of [[blade, "p/q"], ...]; a non-integer index, an inexact coefficient or a
    repeated blade is an error."""
    terms = {}
    for indices, coeff in pairs:
        c = _exact(coeff)
        blade = tuple(_integer(i) for i in indices)
        if blade in terms:
            raise ValueError(f"blade {blade} appears twice")
        terms[blade] = c
    return Form(n, degree, terms)


def matrix_from_rows(rows, n):
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected a {n} x {n} matrix")
    return [[_exact(x) for x in row] for row in rows]


def _field(name, read, *args):
    """read(*args), with a malformed or missing value raised as a SkewtorError naming the
    field; a value that breaks an identity of its structure or its degree keeps the class
    of its error, and the field is named too."""
    try:
        return read(*args)
    except KeyError as err:
        raise SkewtorError(f"field {name}: missing {err}") from err
    except (StructureError, DegreeError) as err:
        # the error keeps its class, so a caller can still tell a broken identity
        raise type(err)(f"field {name}: {err}") from err
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as err:
        raise SkewtorError(f"field {name}: {err}") from err


def _integer(value):
    """A JSON integer as is; a bool, a float or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _dimension(doc):
    n = _integer(doc["dim"])
    if not 2 <= n <= 8:
        raise ValueError(f"{n} is outside the supported dimensions 2..8")
    return n


def _coframe(doc, n):
    d_coframe = {}
    for i, pairs in doc["coframe_d"]:
        if not 1 <= _integer(i) <= n:
            raise ValueError(f"coframe index {i} is outside 1..{n}")
        d = form_from_pairs(pairs, n, 2)
        if i in d_coframe:
            raise ValueError(f"coframe index {i} is listed twice")
        d_coframe[i] = d
    return [d_coframe.get(i, Form.zero(n, 2)) for i in range(1, n + 1)]


def _known_keys(obj, keys, where=""):
    """A key of `obj` outside `keys` is an error: a loaded document holds only what is read."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise SkewtorError(f"{where}unknown key {unknown[0]!r} (have: {', '.join(keys)})")


def _structure(s, model):
    """The validated structure of a model file's "structure" object, or None."""
    kind, n = s.get("kind", "none"), model.n
    fields = STRUCTURE_KEYS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise SkewtorError(f"field structure.kind: unknown kind {kind!r} "
                           f"(have: {', '.join(STRUCTURE_KEYS)})")
    _known_keys(s, ("kind",) + fields, "field structure: ")
    if kind == "g2":
        structure = G2Structure(model)
        if form_from_pairs(s["omega3"], n, 3) != canonical_omega3():
            # structures are accepted only in an adapted frame
            raise ValueError("omega3 must be the canonical 3-form of the frame")
        return structure
    if kind == "contact":
        structure = AlmostContact(model, _integer(s["xi"]), matrix_from_rows(s["phi"], n))
        if form_from_pairs(s["eta"], n, 1) != structure.eta:
            raise ValueError(f"eta must be e{structure.xi_index}, the dual of the Reeb vector")
        return structure
    if kind == "hermitian":
        return AlmostHermitian(model, matrix_from_rows(s["J"], n))
    return None


def entry_from_dict(doc: dict) -> ModelEntry:
    """The entry of a model document, which it keeps as given; every key is validated."""
    if not isinstance(doc, dict):
        raise SkewtorError("a model file holds one JSON object")
    _known_keys(doc, KEYS)
    n = _field("dim", _dimension, doc)
    name = _field("name", _text, doc.get("name", ""))
    _field("notes", _text, doc.get("notes", ""))
    model = _field("coframe_d", lambda: LieModel(n, _coframe(doc, n), name=name))
    structure = _field("structure", _structure, doc.get("structure", {"kind": "none"}), model)
    return ModelEntry(model, structure, doc)


def load_file(path: str) -> ModelEntry:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:  # a directory, or no read permission
        raise SkewtorError(f"{path}: cannot read the file ({err.strerror or err})") from err
    except (ValueError, RecursionError) as err:  # malformed JSON or UTF-8, or nested too deep
        raise SkewtorError(f"{path}: not a JSON document ({err})") from err
    try:
        return entry_from_dict(doc)
    except SkewtorError as err:
        raise SkewtorError(f"{path}: {err}") from err


def search_paths():
    raw = os.environ.get(ENV_PATH, "")
    return [p for p in raw.split(os.pathsep) if p]


def find_model(name: str) -> ModelEntry:
    """The registry entry of `name`, else the file `<name>.json` in a directory on the path.

    A name with a path separator is no file name, so only files inside the
    listed directories are read.
    """
    reg = registry()
    if name in reg:
        return reg[name]
    for directory in [] if {os.sep, os.altsep} & set(name) else search_paths():
        candidate = os.path.join(directory, f"{name}.json")
        if os.path.exists(candidate):
            return load_file(candidate)
    raise SkewtorError(f"unknown model '{name}' "
                       f"(registry: {', '.join(sorted(reg))}; "
                       f"set {ENV_PATH} for model files)")
