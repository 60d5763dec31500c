"""Embedded model registry: the worked examples plus synthetic branch fixtures.

Each model is one model file in the package's `models/` directory, named
`<name>.json`; `skewtor models show <name>` prints the document it holds.
`registry()` loads them on its first call, in sorted name order, by
`modelfile.load_file`, the loader of the files on `SKEWTOR_MODEL_PATH`, so
every registry entry passes the same validation as a user's model file.
`registry.cache_clear()` makes the next call load them again.
"""

from __future__ import annotations

import functools
import os

MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")


@functools.cache
def registry():
    """{name: ModelEntry} of the shipped model files, loaded on the first call."""
    from .modelfile import load_file  # modelfile reads the registry first in find_model
    names = sorted(f[:-len(".json")] for f in os.listdir(MODELS_DIR) if f.endswith(".json"))
    return {name: load_file(os.path.join(MODELS_DIR, f"{name}.json")) for name in names}
