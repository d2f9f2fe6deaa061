"""Span tracing from the benchmark's side of the package boundary.

Each traced function is replaced, at every module attribute in the
`schurroots` package that binds it, by a wrapper that records a span
(id, parent id, id of the enclosing `cli.main` call, name, start, end) and
the function's work counters. Spans stay in memory until the run ends.
`uninstall` puts every original back.
"""

import functools
import gzip
import json
import sys
import time

import numpy as np

# (layer, object path relative to the package, function name)
TARGETS = (
    ("cli", "cli", "main"),
    ("config", "config.RunConfig", "from_file"),
    ("config", "config", "build_model_from_config"),
    ("model", "model", "build_model"),
    ("report", "report", "render_report"),
    ("report", "report", "atomic_write"),
    ("report", "report", "write_csv"),
    ("contour", "contour", "make_contour"),
    ("contour", "contour", "admissibility"),
    ("contour", "contour", "optimize_r0"),
    ("rootsolver", "rootsolver", "solve_basic"),
    ("rootsolver", "rootsolver", "classify"),
    ("rootsolver", "rootsolver", "homotopy_path"),
    ("kernels", "_kernels", "resolvent_sum"),
    ("kernels", "_kernels", "resolvent_cauchy_sum"),
    ("kernels", "_kernels", "cauchy_sum"),
    ("kernels", "_kernels", "cauchy_sum_many"),
    ("kernels", "_kernels", "sandwich_sum"),
    ("kernels", "_kernels", "polyval_matrix"),
    ("quad", "_quad", "adaptive_quad"),
    ("schur", "schur", "m1_continued"),
    ("schur", "schur", "m1_physical"),
    ("schur", "schur", "sheets_value"),
    ("schur", "schur", "w1_boundary"),
    ("riccati", "riccati", "compute_Y"),
    ("riccati", "riccati", "compute_Omega"),
    ("riccati", "riccati", "omega_by_deformation"),
    ("riccati", "riccati", "reconstruct_from_contour"),
    ("riccati", "riccati", "factor_F1"),
    ("riccati", "riccati", "j_orthogonality"),
    ("riccati", "riccati", "ysn_integral"),
    ("riccati", "riccati", "riccati_residual"),
    ("riccati", "riccati", "check_ZAY"),
)
ROOT = "cli.main"


def _size(shape, axis):
    return shape[axis] if len(shape) > axis else 1


def _solve_work(args):
    # one batched n x n solve per node: nodes * n^3
    return len(args[1]) * _size(np.shape(args[3]), 0) ** 3


def _cauchy_work(args):
    # one r x c multiply-add per node and point
    shape = np.shape(args[0])
    points = np.size(args[3])
    return points * len(args[1]) * _size(shape, 1) * _size(shape, 2)


def _sandwich_work(args):
    return len(args[1]) * (_size(np.shape(args[3]), 0) ** 3
                           + _size(np.shape(args[4]), 0) ** 3)


def _polyval_work(args):
    k, r, c = np.shape(args[0])
    return np.size(args[1]) * k * r * c


# Computed operation counts of the kernels, from their argument shapes.
KERNEL_WORK = {
    "kernels.resolvent_sum": _solve_work,
    "kernels.resolvent_cauchy_sum": _solve_work,
    "kernels.cauchy_sum": _cauchy_work,
    "kernels.cauchy_sum_many": _cauchy_work,
    "kernels.sandwich_sum": _sandwich_work,
    "kernels.polyval_matrix": _polyval_work,
}


def _result_counts(name, result):
    """Counters read off a traced function's return value."""
    if name == "contour.make_contour":
        return "contour.nodes", result.num_nodes
    if name == "rootsolver.solve_basic":
        return "rootsolver.picard_iters", result.iterations
    if name == "rootsolver.homotopy_path":
        return "rootsolver.picard_iters", sum(sol.iterations for _, sol, _ in result)
    if name == "quad.adaptive_quad":
        return "quad.panels", result[1]["panels"]
    return None


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, parent, call, name, start_ns, end_ns)
        self.counts = {}
        self._stack = []
        self._next_id = 0
        self._call = None
        self._patched = []

    def _wrap(self, name, fn):
        work = KERNEL_WORK.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._call = sid
            if work is not None:
                key = name + ".work"
                self.counts[key] = self.counts.get(key, 0) + int(work(args))
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, parent, self._call, name, start, end))
            counted = _result_counts(name, result)
            if counted is not None:
                key, value = counted
                self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        return wrapper

    def install(self):
        prefix = self.package.__name__
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for layer, path, fname in TARGETS:
            owner = _resolve(self.package, path)
            original = owner.__dict__[fname]
            name = f"{layer}.{fname}"
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
                self._patched.append((owner, fname, original))
                setattr(owner, fname, wrapped)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, call, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "call": call,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def layer_metrics(spans, counts):
    """Per-layer metrics, each averaged over the traced cli.main calls.

    For every target: `.calls`, `.ms` (inclusive, not counting a span nested
    in a span of the same function twice) and `.self_ms` (duration minus
    the time its child spans cover; calls are sequential, so that is the
    sum of the children's durations). Counters are averaged the same way;
    quad.panels_per_call is per adaptive_quad call.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)

    names = [f"{layer}.{fname}" for layer, _, fname in TARGETS]
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    for sid, parent, _, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += (end - start) - child_ns.get(sid, 0)
        up = parent
        while up is not None and by_id[up][3] != name:
            up = by_id[up][1]
        if up is None:
            incl[name] += end - start

    roots = max(calls[ROOT], 1)
    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name] / roots, "count")
        out[f"{name}.ms"] = (incl[name] / roots / 1e6, "ms")
        out[f"{name}.self_ms"] = (self_ns[name] / roots / 1e6, "ms")
    out["contour.nodes"] = (counts.get("contour.nodes", 0) / roots, "count")
    out["rootsolver.picard_iters"] = (
        counts.get("rootsolver.picard_iters", 0) / roots, "count")
    for name in KERNEL_WORK:
        out[f"{name}.work"] = (counts.get(name + ".work", 0) / roots, "count")
    panels = counts.get("quad.panels", 0)
    out["quad.panels"] = (panels / roots, "count")
    out["quad.panels_per_call"] = (
        panels / calls["quad.adaptive_quad"] if calls["quad.adaptive_quad"] else 0.0,
        "count")
    return out
