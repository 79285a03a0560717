"""Outside-in tracer: spans at the public functions of each library module.

The library is not modified.  Each listed function is wrapped, and the
wrapper is bound in place of the original under every name that holds
it in any loaded ``curvgreen`` module: ``from .x import y`` copies the
binding, so ``legendre.gauss_2f1`` and ``specfun.gauss_2f1`` are two
names for one function, and ``verify.quad`` is a copy of
``quadrature.quad``.  ``WaveParams`` is a class, so its ``__init__`` is
wrapped instead.  Names that a later version of the library no longer
defines are skipped and reported in ``missing``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once, after the run.  ``geometry`` and ``asymptotics`` are
not wrapped: no workload's time flows through them (README.md).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = {
    "specfun": ("gauss_2f1", "regularized_2f1", "gamma_ratio",
                "gegenbauer_c", "pochhammer", "cyl"),
    "legendre": ("legendre_p", "legendre_q", "ferrers_p", "ferrers_q",
                 "ferrers_p_reflected", "odd_ferrers_f", "half_odd_eval"),
    "quadrature": ("quad",),
    "greens": ("green_value", "hyperboloid_green", "sphere_green_plus",
               "sphere_green_antipodal_plus", "sphere_candidate_minus",
               "WaveParams"),
    "expansions": ("green_expansion", "fourier_2d"),
    "verify": ("default_suite", "check_*", "radial_residual"),
    "cli": ("run",),
}
ROOT = "op"

# span status codes
SLOW = 1            # the result carries the SLOW_CONVERGENCE flag
NO_CONVERGENCE = 2  # raised NoConvergenceError
RAISED = 3          # raised anything else


class Tracer:
    """Install with :meth:`install`, run ops through :meth:`root`, then
    :meth:`uninstall`.  Span i's parent is an earlier index (or -1)."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.layer_of: list[str] = ["other"]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.terms = array("i")    # terms_used / terms of the result, or -1
        self.status = array("b")
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list = []

    # -- installation ---------------------------------------------------
    def install(self):
        # importing the package loads every module whose names we rebind
        from curvgreen import errors, result
        self._no_conv = errors.NoConvergenceError
        self._slow = result.SLOW_CONVERGENCE
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "curvgreen"
                                         or k.startswith("curvgreen."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"curvgreen.{layer}")
            for pattern in names:
                for fname, fn in self._resolve(home, pattern):
                    if fn is None:
                        self.missing.append(f"{layer}.{fname}")
                        continue
                    nid = self._register(fname, layer)
                    if inspect.isclass(fn):
                        init = fn.__dict__["__init__"]
                        self._undo.append((fn, "__init__", init))
                        setattr(fn, "__init__", self._wrap(nid, init))
                        continue
                    wrapper = self._wrap(nid, fn)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is fn:
                                self._undo.append((mod, attr, fn))
                                setattr(mod, attr, wrapper)

    @staticmethod
    def _resolve(home, pattern):
        if home is None:
            return [(pattern, None)]
        if pattern.endswith("*"):
            prefix = pattern[:-1]
            found = [(k, v) for k, v in sorted(vars(home).items())
                     if k.startswith(prefix) and inspect.isfunction(v)
                     and v.__module__ == home.__name__]
            return found or [(pattern, None)]
        return [(pattern, getattr(home, pattern, None))]

    def _register(self, fname, layer) -> int:
        self.names.append(fname)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording ------------------------------------------------------
    def _wrap(self, nid, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        terms, status, stack = self.terms, self.status, self._stack
        no_conv, slow = self._no_conv, self._slow
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            terms.append(-1)
            status.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            except no_conv:
                status[i] = NO_CONVERGENCE
                raise
            except BaseException:
                status[i] = RAISED
                raise
            finally:
                end[i] = clock()
                stack.pop()
            n = getattr(res, "terms_used", None)
            if n is None:
                n = getattr(res, "terms", None)
            if isinstance(n, int):
                terms[i] = n
            flags = getattr(res, "flags", None)
            if flags is not None and slow in flags:
                status[i] = SLOW
            return res

        traced.__wrapped__ = fn
        return traced

    def root(self, run_op):
        """``run_op`` wrapped in the root span that each op opens."""
        return self._wrap(0, run_op)

    # -- output ---------------------------------------------------------
    def dump(self, path):
        """Write the spans as JSON: a name table plus one array per field."""
        import json
        doc = {"names": self.names, "layers": self.layer_of,
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "terms": self.terms.tolist(), "status": self.status.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def aggregate(self) -> dict:
        """Per-layer totals over all spans (self time, calls, ...)."""
        n = len(self.start)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        layer_of = self.layer_of
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        layer = [layer_of[name[i]] for i in range(n)]
        under_verify = [False] * n   # has a verify-layer ancestor
        quad_child = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_verify[i] = under_verify[p] or layer[p] == "verify"
                if layer[i] == "quadrature":
                    quad_child[p] = True
        agg = {"spans": n, "ops": 0, "op_s": 0.0}
        per = {lay: {"self_s": 0.0, "calls": 0, "terms": 0, "with_terms": 0,
                     "slow": 0, "no_convergence": 0, "quad_child": 0,
                     "child_of_expansions": 0}
               for lay in list(LAYERS) + ["other"]}
        names = self.names
        counts = {"wave_params": 0, "green_value": 0,
                  "green_under_verify": 0, "calls_2f1": 0, "terms_2f1": 0}
        for i in range(n):
            lay = layer[i]
            rec = per[lay]
            rec["self_s"] += dur[i] - child[i]
            if name[i] == 0:
                agg["ops"] += 1
                agg["op_s"] += dur[i]
                continue
            rec["calls"] += 1
            if self.terms[i] >= 0:
                rec["terms"] += self.terms[i]
                rec["with_terms"] += 1
            st = self.status[i]
            rec["slow"] += st == SLOW
            rec["no_convergence"] += st == NO_CONVERGENCE
            rec["quad_child"] += quad_child[i]
            p = parent[i]
            if p >= 0 and layer[p] == "expansions":
                rec["child_of_expansions"] += 1
            fname = names[name[i]]
            if fname == "WaveParams":
                counts["wave_params"] += 1
            elif fname == "green_value":
                counts["green_value"] += 1
                counts["green_under_verify"] += under_verify[i]
            elif fname in ("gauss_2f1", "regularized_2f1") \
                    and self.terms[i] >= 0:
                counts["calls_2f1"] += 1
                counts["terms_2f1"] += self.terms[i]
        agg.update(counts, layers=per, missing=list(self.missing))
        return agg
