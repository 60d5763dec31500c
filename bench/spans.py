"""Spans around the program's public functions, recorded from outside the program.

`Tracer.install()` replaces every public module-level function of the traced
modules by a wrapper, in the module that defines it and wherever another
module imported it by name, plus the methods listed in `METHODS`.  Methods of
`Form` are left alone on purpose: `Form.eval` and `Form.coeff` take over a
million calls per `verify all`, and a wrapper there would dwarf the work it
measures.

Durations are CPU seconds of the calling thread.  A span's self time is its
duration minus the durations of its direct child
spans.  Spans nest strictly (one thread), so the self times of all spans sum
to the time covered by outermost spans, never more than the elapsed time.

The tracing overhead is timed where it arises: each wrapper adds the time it
spends outside the wrapped call (clock reads, bookkeeping, input keys) to
`overhead_s`, and a parent span counts that time as its child's, not as its
own.  Subtracting it from the traced time gives the untraced time without
a second run, whose run-to-run noise would swamp the difference.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import thread_time

PACKAGE = "skewtor"
MODULES = ("forms", "formexpr", "linalg", "clifford", "liegeom", "g2", "equivar",
           "acskit", "registry", "modelfile", "suites", "cli")

# functions whose own calls and self time are reported (module, name)
DETAIL = {
    "equivar": ("casimir", "full_column_rank_certificate", "solve_tall_exact"),
    "linalg": ("krylov_min_poly", "certified_eigenspace_dims", "rank_mod_p", "rref",
               "mat_mul", "charpoly", "rational_roots"),
    "acskit": ("torsion_uniqueness_certificate", "nearly_kaehler_identities",
               "nijenhuis"),
    "liegeom": ("levi_civita", "curvature", "curvature_identity_residuals", "d_form"),
    "clifford": ("build_rep", "act_form", "eigen_report"),
    "forms": ("wedge", "hodge"),
    "g2": ("torsion_form", "project2", "project3"),
    "modelfile": ("find_model",),
    "formexpr": ("parse_form",),
}

# methods traced as if they were functions of their module: Casimir assembly
# lives on the cached `Spaces` object
METHODS = {("equivar", "casimir"): "Spaces"}


def _form_key(f):
    return f.n, f.degree, tuple(sorted(f.terms.items()))


def _model_key(model):
    return model.n, tuple(_form_key(d) for d in model.d_coframe)


def _conn_key(conn):
    t = getattr(conn, "torsion", None)
    return _model_key(conn.model), conn.source, None if t is None else _form_key(t)


def _rows_key(rows):
    return tuple(tuple(row) for row in rows)


def _structure_key(s):
    eta = getattr(s, "eta", None)
    phi = s.phi if hasattr(s, "phi") else s.j
    return s.model.n, _rows_key(phi), None if eta is None else _form_key(eta)


# inputs that decide the result, for the share of distinct inputs per call
DISTINCT = {
    ("liegeom", "levi_civita"): lambda model: _model_key(model),
    ("liegeom", "curvature"): lambda conn: _conn_key(conn),
    ("acskit", "torsion_uniqueness_certificate"): lambda s: _structure_key(s),
    ("modelfile", "find_model"): lambda name: name,
}


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}          # (module, function) -> Stat
        self.keys = {k: set() for k in DISTINCT}
        self._stack = []         # child time accumulated by each open span
        self._overhead = [0.0]   # seconds spent inside the wrappers themselves
        self._undo = []

    def _wrap(self, module, name, fn):
        stat = self.stats.setdefault((module, name), Stat())
        stack = self._stack
        keys = self.keys.get((module, name))
        keyfn = DISTINCT.get((module, name))
        overhead = self._overhead

        def span(*args, **kwargs):
            t_in = thread_time()
            if keys is not None:
                keys.add(keyfn(*args, **kwargs))
            stack.append(0.0)
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                stat.calls += 1
                stat.self_s += t1 - t0 - stack.pop()
                t_out = thread_time()
                overhead[0] += t_out - t1 + t0 - t_in
                if stack:
                    stack[-1] += t_out - t_in

        span.__wrapped__ = fn
        return span

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        others = [mod for name, mod in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mname, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(mname, name, fn)
                for other in others:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            self._undo.append((other, attr, fn))
                            setattr(other, attr, wrapper)
        for (mname, name), cls_name in METHODS.items():
            cls = getattr(mods[mname], cls_name)
            fn = getattr(cls, name)
            self._undo.append((cls, name, fn))
            setattr(cls, name, self._wrap(mname, name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def metrics(self):
        """Calls and self time per module and per DETAIL function, distinct shares."""
        out = {}
        for m in MODULES:
            calls = sum(s.calls for (mod, _), s in self.stats.items() if mod == m)
            self_s = sum(s.self_s for (mod, _), s in self.stats.items() if mod == m)
            out[f"{m}.calls"] = calls
            out[f"{m}.self_s"] = self_s
        for m, names in DETAIL.items():
            for name in names:
                s = self.stats.get((m, name), Stat())
                out[f"{m}.{name}.calls"] = s.calls
                out[f"{m}.{name}.self_s"] = s.self_s
        for (m, name), keys in self.keys.items():
            calls = self.stats.get((m, name), Stat()).calls
            out[f"{m}.{name}.distinct_share"] = len(keys) / calls if calls else 0.0
        return out

    def total_self_s(self):
        return sum(s.self_s for s in self.stats.values())

    @property
    def overhead_s(self):
        return self._overhead[0]
