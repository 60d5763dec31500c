"""Model files: UTF-8 JSON with integer blade arrays and "p/q" coefficients."""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import SkewtorError
from .forms import Form
from .liegeom import LieModel
from .registry import ModelEntry, registry

ENV_PATH = "SKEWTOR_MODEL_PATH"


def form_to_pairs(f: Form):
    return [[list(blade), str(coeff)] for blade, coeff in sorted(f.terms.items())]


def form_from_pairs(pairs, n, degree):
    terms = {}
    for indices, coeff in pairs:
        terms[tuple(indices)] = Fraction(coeff)
    return Form(n, degree, terms)


def matrix_to_rows(m):
    return [[str(x) for x in row] for row in m]


def matrix_from_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def entry_to_dict(entry: ModelEntry) -> dict:
    model = entry.model
    doc = {
        "name": model.name,
        "dim": model.n,
        "coframe_d": [[i + 1, form_to_pairs(model.d_coframe[i])]
                      for i in range(model.n)],
        "notes": entry.notes,
    }
    s = entry.structure
    if s["kind"] == "g2":
        doc["structure"] = {"kind": "g2", "omega3": form_to_pairs(s["omega3"])}
    elif s["kind"] == "contact":
        doc["structure"] = {"kind": "contact", "xi": s["xi"],
                            "eta": form_to_pairs(s["eta"]),
                            "phi": matrix_to_rows(s["phi"])}
    elif s["kind"] == "hermitian":
        doc["structure"] = {"kind": "hermitian", "J": matrix_to_rows(s["J"])}
    else:
        doc["structure"] = {"kind": "none"}
    return doc


def entry_from_dict(doc: dict) -> ModelEntry:
    n = int(doc["dim"])
    d_coframe = [Form(n, 2)] * n
    d_coframe = list(d_coframe)
    for i, pairs in doc["coframe_d"]:
        d_coframe[int(i) - 1] = form_from_pairs(pairs, n, 2)
    model = LieModel(n, d_coframe, name=doc.get("name", ""))
    s = doc.get("structure", {"kind": "none"})
    kind = s.get("kind", "none")
    if kind == "g2":
        structure = {"kind": "g2", "omega3": form_from_pairs(s["omega3"], n, 3)}
    elif kind == "contact":
        structure = {"kind": "contact", "xi": int(s["xi"]),
                     "eta": form_from_pairs(s["eta"], n, 1),
                     "phi": matrix_from_rows(s["phi"])}
    elif kind == "hermitian":
        structure = {"kind": "hermitian", "J": matrix_from_rows(s["J"])}
    elif kind == "none":
        structure = {"kind": "none"}
    else:
        raise SkewtorError(f"field structure.kind: unknown kind {kind!r} "
                           f"(have: g2, contact, hermitian, none)")
    entry = ModelEntry(model, structure, notes=doc.get("notes", ""))
    if kind != "none":
        entry.structure_object()  # enforces the structure's invariants at load
    return entry


def load_file(path: str) -> ModelEntry:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return entry_from_dict(doc)
    except SkewtorError as err:
        raise SkewtorError(f"{path}: {err}") from err


def search_paths():
    raw = os.environ.get(ENV_PATH, "")
    return [p for p in raw.split(os.pathsep) if p]


def find_model(name: str) -> ModelEntry:
    reg = registry()
    if name in reg:
        return reg[name]
    for directory in search_paths():
        candidate = os.path.join(directory, f"{name}.json")
        if os.path.exists(candidate):
            return load_file(candidate)
    raise SkewtorError(f"unknown model '{name}' "
                       f"(registry: {', '.join(sorted(reg))}; "
                       f"set {ENV_PATH} for model files)")
