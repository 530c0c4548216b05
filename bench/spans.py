"""In-memory span recorder that wraps raflab's public functions for one traced run.

The recorder never touches ``src/``: it rebinds functions at run time and puts
the originals back when the traced run ends.  A function is rebound wherever
a ``raflab`` module holds it under a name (its defining module, and the
modules that import it by name, such as ``cli``, ``asymptotics`` and
``counting``), so calls made inside the package are recorded too.  Each
kernel class that defines its own ``eval_row`` gets a wrapped ``eval_row``.
The scalar ``Kernel.eval`` and ``profile`` are left alone: the scaled
kernels call them about N^2/2 times per solve and the wrapper cost would
swamp the layer being measured.

A span is ``[id, parent, job, name, start_ns, end_ns, attrs]``.  Self time is
the span's duration minus the durations of its direct children; spans of one
thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List

# (layer module, public function) pairs recorded as "<layer>.<function>".
WRAPPED = {
    "sieve": ("sieve", "load_cache", "save_cache"),
    "solver": (
        "solve",
        "residual",
        "verify_residuals",
        "partial_sums",
        "partial_sums_exact",
        "ingham_coeff_closed",
        "delta_coeff_closed",
        "l0_three_smooth",
    ),
    "mellin": (
        "zeta",
        "closed_transform",
        "limit_transform",
        "limit_transform_wrt_f",
        "phi_f_zeros",
    ),
    "asymptotics": (
        "regime_check",
        "fit_exponent",
        "hlr_report",
        "jordan_partial_check",
        "mertens_ratio_report",
    ),
    "counting": (
        "count_formula",
        "count_oracle",
        "meissel_scan",
        "elias_scan",
        "smooth_bridge_scan",
    ),
    "cli": ("main",),
}

# Kernel-spec heads that label solver.solve spans; "ingham_exact" is the
# ingham head on the exact backend.  The labels follow the kernel, not the
# internal solver path, so they survive a change of dispatch.
SOLVE_FAMILIES = ("ingham", "ingham_exact", "affine", "log", "disc", "ratraf", "genin", "scaled")


# Wrapped functions whose call count is reported next to their self time;
# the others report only their self time.
COUNTED = frozenset((
    "sieve.sieve", "sieve.load_cache", "solver.residual", "mellin.zeta",
    "mellin.closed_transform", "asymptotics.fit_exponent", "cli.main", "kernels.eval_row",
))


class SpanRecorder:
    """Holds the spans of one traced run and the bindings it replaced."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.job = ""
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, attrs_of=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.job, name, clock(), 0, None]
            spans.append(span)
            stack.append(sid)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                span[5] = clock()
                stack.pop()
                if attrs_of is not None:
                    span[6] = attrs_of(args, kwargs, ok)

        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self, raflab_modules: Dict[str, object]) -> None:
        """Rebind every listed function in every raflab module that holds it."""
        attrs = {
            "solver.solve": _solve_attrs,
            "sieve.sieve": lambda a, k, ok: {"n": _arg(a, k, 0, "limit")},
            "sieve.load_cache": lambda a, k, ok: {"ok": ok},
            "sieve.save_cache": lambda a, k, ok: {"bytes": _file_size(_arg(a, k, 1, "path"))},
            "cli.main": _main_attrs,
        }
        holders = [m for name, m in sorted(sys.modules.items())
                   if (name == "raflab" or name.startswith("raflab.")) and m is not None]
        for layer, names in WRAPPED.items():
            home = raflab_modules[layer]
            for fname in names:
                orig = getattr(home, fname)
                key = "%s.%s" % (layer, fname)
                wrapped = self._wrap(key, orig, attrs.get(key))
                for mod in holders:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        kernels = raflab_modules["kernels"]
        for cls in _kernel_classes(kernels):
            orig = cls.__dict__["eval_row"]
            self._restore.append((cls, "eval_row", orig))
            setattr(cls, "eval_row", self._wrap(
                "kernels.eval_row", orig, lambda a, k, ok: {"entries": len(_arg(a, k, 2, "ks"))}))

    def restore(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _kernel_classes(kernels_module) -> list:
    base = kernels_module.Kernel
    return [c for c in vars(kernels_module).values()
            if isinstance(c, type) and issubclass(c, base) and "eval_row" in c.__dict__]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _solve_attrs(args, kwargs, ok) -> dict:
    kernel = _arg(args, kwargs, 0, "kernel")
    limit = _arg(args, kwargs, 2, "limit")
    backend = kwargs.get("backend", args[3] if len(args) > 3 else "float")
    head = kernel.spec.split(":")[0]
    family = head + "_exact" if backend == "exact" and head == "ingham" else head
    return {"n": int(limit), "kernel": kernel.spec, "backend": backend, "family": family}


def _main_attrs(args, kwargs, ok) -> dict:
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = 0
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        out = _file_size(path) + _file_size(path + ".manifest.json")
    return {"out_bytes": out}


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------


def per_layer(spans: List[list], passes: int) -> Dict[str, dict]:
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes,
    as ``{name: {"value": ..., "unit": ...}}``."""
    child_ns: Dict[int, int] = defaultdict(int)
    for sid, parent, _job, _name, t0, t1, _attrs in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    extra: Dict[str, float] = defaultdict(float)
    saved_by_job = {s[2] for s in spans if s[3] == "sieve.save_cache"}
    for sid, parent, job, name, t0, t1, attrs in spans:
        key = name
        if name == "solver.solve":
            key = "solver.solve." + attrs["family"]
            extra[key + ".coeffs"] += attrs["n"]
        elif name == "sieve.sieve":
            extra["sieve.sieve.entries"] += attrs["n"]
        elif name == "kernels.eval_row":
            extra["kernels.eval_row.entries"] += attrs["entries"]
        elif name == "sieve.save_cache":
            extra["sieve.save_cache.bytes"] += attrs["bytes"]
            extra["sieve.cache_miss"] += 1
        elif name == "sieve.load_cache" and attrs["ok"] and job not in saved_by_job:
            extra["sieve.cache_hit"] += 1
        elif name == "cli.main":
            extra["cli.out_bytes"] += attrs["out_bytes"]
        calls[key] += 1
        self_ns[key] += (t1 - t0) - child_ns[sid]

    out: Dict[str, dict] = {}

    def put(name: str, total: float, unit: str) -> None:
        out[name] = {"value": total / passes, "unit": unit}

    keys = ["%s.%s" % (layer, f) for layer, names in WRAPPED.items() for f in names]
    keys.remove("solver.solve")
    for key in keys + ["kernels.eval_row"]:
        if key in COUNTED:
            put(key + ".calls", calls[key], "count")
        put(key + ".self_s", self_ns[key] / 1e9, "s")
    for fam in SOLVE_FAMILIES:
        key = "solver.solve." + fam
        put(key + ".calls", calls[key], "count")
        put(key + ".self_s", self_ns[key] / 1e9, "s")
        put(key + ".coeffs", extra[key + ".coeffs"], "count")
    for key in ("sieve.sieve.entries", "kernels.eval_row.entries", "sieve.cache_hit",
                "sieve.cache_miss"):
        put(key, extra[key], "count")
    put("sieve.save_cache.bytes", extra["sieve.save_cache.bytes"], "bytes")
    put("cli.out_bytes", extra["cli.out_bytes"], "bytes")
    return out
