"""Layer tracing from outside the package.

`Tracer.install()` replaces each traced polyeig function, at every place a
polyeig module binds it (module globals, module-level tables such as
`oracle.CHECKERS`, and the `Poly` class for operator methods), by a
wrapper that records a span: name, start, end and parent span.  Calls,
inclusive seconds and self seconds (inclusive minus the traced spans
nested in it) are kept per name.  `uninstall()` puts the originals back.

Spans of the `fields` and `poly` layers, and the resumptions of traced
generators, are counted and timed but not stored one by one: one pass of a
workload makes millions of them.  Their time still leaves the self time of
the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# span name -> (module, attribute); "Class.method" names a method.
TRACED = {
    "fields.same_field": ("fields", "same_field"),
    "poly.add": ("poly", "Poly.__add__"),
    "poly.mul": ("poly", "Poly.__mul__"),
    "poly.divmod": ("poly", "Poly.__divmod__"),
    "poly.divides": ("poly", "poly_divides"),
    "poly.gcd": ("poly", "poly_gcd"),
    "poly.lcm": ("poly", "poly_lcm"),
    "homog.homog_divides": ("homog", "homog_divides"),
    "homog.homog_lcm": ("homog", "homog_lcm"),
    "homog.is_divisibility_chain": ("homog", "is_divisibility_chain"),
    "matrix.reversal": ("matrix", "reversal"),
    "matrix.smith_form": ("matrix", "smith_form"),
    "matrix.rank_of": ("matrix", "rank_of"),
    "matrix.infinite_multiplicities": ("matrix", "infinite_multiplicities"),
    "matrix.nullspace": ("matrix", "nullspace"),
    "matrix.right_minimal_basis": ("matrix", "right_minimal_basis"),
    "matrix.minimal_indices": ("matrix", "minimal_indices"),
    "matrix.eigenstructure": ("matrix", "eigenstructure"),
    "matrix.stack_rows": ("matrix", "stack_rows"),
    "sequences.majorizes": ("sequences", "majorizes"),
    "sequences.gen_majorizes": ("sequences", "gen_majorizes"),
    "feasibility.build_gaps_row_form": ("feasibility", "build_gaps_row_form"),
    "feasibility.build_gaps_col_form": ("feasibility", "build_gaps_col_form"),
    "feasibility.construct_d": ("feasibility", "construct_d"),
    "feasibility.check_full": ("feasibility", "check_full"),
    "feasibility.check_hom_plus_cols": ("feasibility", "check_hom_plus_cols"),
    "feasibility.check_hom_plus_rows": ("feasibility", "check_hom_plus_rows"),
    "feasibility.check_hom_only": ("feasibility", "check_hom_only"),
    "feasibility.check_finite_only": ("feasibility", "check_finite_only"),
    "feasibility.check_infinite_only": ("feasibility", "check_infinite_only"),
    "realize.enumerate_targets": ("realize", "enumerate_targets"),
    "realize.all_completion_rows": ("realize", "all_completion_rows"),
    "oracle.all_matrices": ("oracle", "all_matrices"),
    "oracle.achieved_set": ("oracle", "achieved_set"),
    "oracle.check_instance": ("oracle", "check_instance"),
    "oracle.run_grid": ("oracle", "run_grid"),
}
# Small accessors (chain_at, seq_get, prefix_sum, homog_deg, poly_one, ...)
# are left out on purpose: a wrapper would cost more than their body and
# would swamp the self time of the layers that call them.

UNSTORED_LAYERS = ("fields", "poly")


def _modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "polyeig" or name.startswith("polyeig.")]


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when the program has no such function."""
    mod = sys.modules.get(f"polyeig.{module}")
    if mod is None:
        return None
    owner, _, name = attr.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    fn = holder.__dict__.get(name) if owner else getattr(mod, name, None)
    return None if fn is None else (holder, name, fn)


def rebind(original, replacement) -> int:
    """Replace every module-level binding of `original` in polyeig, also
    inside module-level dicts, by `replacement`; returns how many."""
    n = 0
    for mod in _modules():
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
                n += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is original:
                        val[k] = replacement
                        n += 1
    return n


class Tracer:
    """Records spans and per-name totals for the functions in TRACED."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.yielded = []
        self.incl = []
        self.self_s = []
        self._active = []
        # frames: [child seconds, id of this or the nearest stored span, parent id]
        self._stack = [[0.0, -1]]
        self._next_id = 0
        self.span_id, self.span_name, self.span_parent = array("q"), array("H"), array("q")
        self.span_start, self.span_end = array("d"), array("d")
        self.achieved_distinct = 0
        self.achieved_computed = 0
        self._undo = []

    def _index(self, name: str) -> int:
        self.names.append(name)
        for lst in (self.calls, self.yielded, self._active):
            lst.append(0)
        self.incl.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _enter(self, idx: int, store: bool):
        parent = self._stack[-1][1]
        if store:
            sid = self._next_id
            self._next_id += 1
        else:
            sid = parent
        frame = [0.0, sid, parent]
        self._stack.append(frame)
        self._active[idx] += 1
        return frame

    def _exit(self, idx: int, store: bool, frame, t0: float, t1: float):
        self._stack.pop()
        self._active[idx] -= 1
        dt = t1 - t0
        if not self._active[idx]:
            self.incl[idx] += dt
        self.self_s[idx] += dt - frame[0]
        self._stack[-1][0] += dt
        if store:
            self.span_id.append(frame[1])
            self.span_name.append(idx)
            self.span_parent.append(frame[2])
            self.span_start.append(t0)
            self.span_end.append(t1)

    def _wrap(self, name: str, fn):
        idx = self._index(name)
        store = name.split(".")[0] not in UNSTORED_LAYERS
        perf = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's span is each resumption; its inclusive time is
            # the time spent producing items.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(idx, False)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx, False, frame, t0, perf())
                    tracer.yielded[idx] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[idx] += 1
            frame = tracer._enter(idx, store)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx, store, frame, t0, perf())

        return wrapper

    def _wrap_achieved_set(self, wrapped):
        """Count distinct results against eigenstructures computed."""
        eig = self.names.index("matrix.eigenstructure")

        @functools.wraps(wrapped)
        def achieved(*args, **kwargs):
            before = self.calls[eig]
            out = wrapped(*args, **kwargs)
            self.achieved_computed += self.calls[eig] - before
            self.achieved_distinct += len(out)
            return out

        return achieved

    def install(self):
        for name, (module, attr) in TRACED.items():
            found = _resolve(module, attr)
            if found is None:
                self._index(name)  # reported as zero
                continue
            holder, key, fn = found
            wrapped = self._wrap(name, fn)
            if name == "oracle.achieved_set":
                wrapped = self._wrap_achieved_set(wrapped)
            if isinstance(holder, type):
                setattr(holder, key, wrapped)
                self._undo.append(lambda h=holder, k=key, f=fn: setattr(h, k, f))
            else:
                rebind(fn, wrapped)
                self._undo.append(lambda f=fn, w=wrapped: rebind(w, f))
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def stats(self) -> dict:
        """Per-name totals plus per-layer self seconds."""
        out = {}
        layer_self = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.yielded"] = self.yielded[i]
            out[f"{name}.s"] = self.incl[i]
            out[f"{name}.self_s"] = self.self_s[i]
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self.self_s[i]
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
        out["oracle.achieved_set.distinct_ratio"] = (
            self.achieved_distinct / self.achieved_computed if self.achieved_computed else 0.0
        )
        return out

    def write(self, path):
        """Stored spans as JSON lines, then one line of totals."""
        with open(path, "w") as fh:
            for k in range(len(self.span_id)):
                fh.write(
                    json.dumps(
                        {
                            "id": self.span_id[k],
                            "name": self.names[self.span_name[k]],
                            "start": self.span_start[k],
                            "end": self.span_end[k],
                            "parent": self.span_parent[k],
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"totals": self.stats()}) + "\n")
