"""Embedded model registry: the worked examples plus synthetic branch fixtures.

Each model is one model file in the package's `models/` directory, named
`<name>.json` and holding the text `skewtor models show <name>` prints.
`registry()` loads them once, in sorted name order, by `modelfile.load_file`,
the loader of the files on `SKEWTOR_MODEL_PATH`, so every registry entry
passes the same validation as a user's model file.
"""

from __future__ import annotations

import os

MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")

_REGISTRY = None


def registry():
    """{name: ModelEntry} of the shipped model files, loaded on the first call."""
    global _REGISTRY
    if _REGISTRY is None:
        from .modelfile import load_file  # modelfile reads the registry first in find_model
        names = sorted(f[:-len(".json")] for f in os.listdir(MODELS_DIR) if f.endswith(".json"))
        _REGISTRY = {name: load_file(os.path.join(MODELS_DIR, f"{name}.json")) for name in names}
    return _REGISTRY
