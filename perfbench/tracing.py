"""Spans around calls into the boxqft layers, recorded from outside the package.

A traced run installs wrappers around the public functions of each layer.
Modules that imported a function by name (``from .spectral import
lehmann_spectral_density``) hold their own reference to it, so every
reference in every ``boxqft`` module namespace (and in module-level dicts
such as ``cli.COMMANDS``) is rebound; methods are wrapped on their class so
that work inside other layers (the matrix realized inside a Lehmann sum)
shows up as a child span.  Installation fails if any original function is
still reachable afterwards.

Spans live in memory as ``[name, start, end, parent, pass_id, counters]`` and
are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

# Span name -> (workloads on which it must record calls, end-to-end metric
# a gain in this layer should move there).  A span mapped to a workload that
# records no call on it fails the traced run.
LAYER_MAP = {
    "fock.basis": (("lattice-build",), "wall_s"),
    "fock.ladder": (("lattice-build",), "wall_s"),
    "fields.density": (("lattice-build",), "wall_s"),
    "fields.matrix": (("spectral-sweep", "lattice-build"), "wall_s"),
    "measurement.window": (("lattice-build",), "wall_s"),
    "measurement.vacvar": (("lattice-build",), "wall_s"),
    "measurement.moments": (("spectral-sweep",), "wall_s, peak_rss_mb"),
    "spectral.lehmann": (("spectral-sweep", "cli-all"), "wall_s"),
    "spectral.quadrature": (("cli-all",), "wall_s"),
    "correlators.wick": (("cli-all",), "wall_s"),
    "correlators.oracle": (("cli-all",), "wall_s"),
    "tensors.decompose": (("cli-all",), "wall_s"),
    "tensors.project": (("cli-all",), "wall_s"),
}

CLI_COMMANDS = ("fdt", "suppression", "noiseless", "scaling", "sagnac",
                "homodyne", "wick-check", "threepoint")
for _cmd in CLI_COMMANDS:
    LAYER_MAP[f"cli.{_cmd}"] = (("cli-all",), "wall_s")

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER_METRICS = {
    "fock.basis_s": ("s", "lower"),
    "fock.basis_calls": ("count", "lower"),
    "fock.dim_max": ("count", "lower"),
    "fock.n_modes_max": ("count", "lower"),
    "fock.ladder_s": ("s", "lower"),
    "fock.ladder_calls": ("count", "lower"),
    "fock.ladder_nnz": ("count", "lower"),
    "fields.density_s": ("s", "lower"),
    "fields.density_calls": ("count", "lower"),
    "fields.density_terms": ("count", "lower"),
    "fields.matrix_s": ("s", "lower"),
    "fields.matrix_calls": ("count", "lower"),
    "fields.matrix_nnz": ("count", "lower"),
    "measurement.window_s": ("s", "lower"),
    "measurement.window_calls": ("count", "lower"),
    "measurement.window_keep_ratio": ("ratio", "higher"),
    "measurement.vacvar_s": ("s", "lower"),
    "measurement.moments_s": ("s", "lower"),
    "measurement.moments_calls": ("count", "lower"),
    "spectral.lehmann_s": ("s", "lower"),
    "spectral.lehmann_calls": ("count", "lower"),
    "spectral.lehmann_pairs": ("count", "lower"),
    "spectral.lehmann_nonzero_ratio": ("ratio", "higher"),
    "spectral.quadrature_s": ("s", "lower"),
    "spectral.quadrature_calls": ("count", "lower"),
    "spectral.quadrature_points": ("count", "lower"),
    "correlators.wick_s": ("s", "lower"),
    "correlators.wick_calls": ("count", "lower"),
    "correlators.oracle_s": ("s", "lower"),
    "correlators.oracle_calls": ("count", "lower"),
    "tensors.decompose_s": ("s", "lower"),
    "tensors.project_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder; ``pass_id`` tags the spans of one pass."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []

    def wrap(self, name, fn, counters=None):
        """``fn`` recorded as a span; ``counters(args, kwargs, result)``
        returns the span's structural counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[5] = counters(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": i,
                 "counters": c} for n, s, e, p, i, c in self.spans]


def _cache_aware(tracer, name, orig, is_cached, counters):
    """Span only the calls that do work; cache hits pass straight through."""
    traced = tracer.wrap(name, orig, counters)

    def method(self, *args, **kwargs):
        if is_cached(self, *args):
            return orig(self, *args, **kwargs)
        return traced(self, *args, **kwargs)

    method.__wrapped__ = orig
    return method


def _rebind(replacements):
    """Point every reference to a wrapped original that boxqft code can reach
    at its wrapper: module globals, module-level dicts and lists, and the
    default arguments and closures of boxqft functions and methods.  Returns
    the originals found and the places that hold one but cannot be rebound."""
    found, stuck = set(), []

    def sub(val):
        if callable(val) and val in replacements:
            found.add(val)
            return replacements[val]
        return val

    def fix_function(fn):
        if fn.__defaults__:
            fn.__defaults__ = tuple(sub(v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: sub(v) for k, v in fn.__kwdefaults__.items()}
        for cell in fn.__closure__ or ():
            try:
                cell.cell_contents = sub(cell.cell_contents)
            except ValueError:      # cell not yet bound
                pass

    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "boxqft":
            continue
        ns = vars(mod)
        for key, val in list(ns.items()):
            ns[key] = sub(val)
            if isinstance(val, dict):
                val.update({k: sub(v) for k, v in val.items()})
            elif isinstance(val, list):
                val[:] = [sub(v) for v in val]
            elif isinstance(val, tuple) and any(sub(v) is not v for v in val):
                stuck.append(f"{modname}.{key}")
            members = vars(val).values() if inspect.isclass(val) else (val,)
            for fn in members:
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    fix_function(fn)
    return found, stuck


def install(tracer):
    """Wrap every layer's public functions in place, for the rest of the
    process; raise if a reference to an original cannot be rebound."""
    from boxqft import (cli, correlators, fields, fock, measurement, spectral,
                        tensors)

    functions = {
        "fields.density": (fields, ("scalar_density", "scalar_momentum_density",
                                    "scalar_bilinear_density",
                                    "stress_tensor_scalar",
                                    "dirac_current_density", "stress_tensor_em",
                                    "em_field_strength_density")),
        "measurement.window": (measurement, ("windowed_observable",
                                             "spacelike_windowed_observable")),
        "measurement.vacvar": (measurement, ("vacuum_variance",)),
        "measurement.moments": (measurement, ("moments",)),
        "spectral.lehmann": (spectral, ("lehmann_spectral_density",)),
        "spectral.quadrature": (spectral, ("windowed_noise",)),
        "correlators.wick": (correlators, ("wick_npoint",)),
        "correlators.oracle": (correlators, ("exact_contour_correlator",)),
        "tensors.decompose": (tensors, ("decompose_vector", "decompose_symmetric",
                                        "decompose_antisymmetric")),
        "tensors.project": (tensors, ("project_noiseless_vector",
                                      "project_noiseless_tensor")),
    }
    counters = {
        "fields.density": lambda a, k, r: {"terms": len(r.terms)},
        "measurement.window": lambda a, k, r: {"scanned": len(a[0].terms),
                                               "kept": len(r.terms)},
        "spectral.lehmann": lambda a, k, r: {"pairs": r.term_count},
        "spectral.quadrature": _quadrature_counter(spectral.windowed_noise),
    }
    replacements = {}
    for layer, (module, names) in functions.items():
        for fname in names:
            orig = getattr(module, fname)
            replacements[orig] = tracer.wrap(layer, orig, counters.get(layer))
    if tuple(cli.COMMANDS) != CLI_COMMANDS:
        raise RuntimeError(f"cli.COMMANDS changed: {tuple(cli.COMMANDS)}")
    for cmd, fn in cli.COMMANDS.items():
        replacements[fn] = tracer.wrap(f"cli.{cmd}", fn)

    found, stuck = _rebind(replacements)
    missing = [f.__qualname__ for f in replacements if f not in found]
    if missing or stuck:
        raise RuntimeError(f"cannot wrap: no binding of {missing}; "
                           f"references that cannot be rebound in {stuck}")

    fock.FockSpace.__init__ = tracer.wrap(
        "fock.basis", fock.FockSpace.__init__,
        lambda a, k, r: {"dim": a[0].dim, "n_modes": len(a[0].modes)})
    for method, kind in (("annihilation", "a"), ("creation", "c")):
        setattr(fock.FockSpace, method, _cache_aware(
            tracer, "fock.ladder", getattr(fock.FockSpace, method),
            lambda self, ch, n, kind=kind:
                (ch, tuple(n), kind) in getattr(self, "_op_cache", ()),
            lambda a, k, r: {"nnz": r.nnz}))
    fields.QuadraticObservable.matrix = _cache_aware(
        tracer, "fields.matrix", fields.QuadraticObservable.matrix,
        lambda self: getattr(self, "_matrix", None) is not None,
        lambda a, k, r: {"nnz": r.nnz})


def _quadrature_counter(windowed_noise):
    sig = inspect.signature(windowed_noise)

    def points(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        D, n_grid = bound.arguments["D"], bound.arguments["n_grid"]
        return {"points": max(n_grid * 8, 256) if D == 1 else n_grid ** D}

    return points


def _self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(tracer, pass_ids, overhead_ratio):
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    selfs = _self_times(tracer.spans)
    per_pass = {i: defaultdict(float) for i in pass_ids}
    for (name, start, end, _, pid, cnt), self_s in zip(tracer.spans, selfs):
        if pid not in per_pass:
            continue
        acc = per_pass[pid]
        # cli commands report inclusive time, every other layer self time
        acc[f"{name}_s"] += (end - start) if name.startswith("cli.") else self_s
        acc[f"{name}_calls"] += 1
        for key, val in (cnt or {}).items():
            if key in ("dim", "n_modes"):
                acc[f"{name}.{key}"] = max(acc[f"{name}.{key}"], val)
            else:
                acc[f"{name}.{key}"] += val
        if name == "spectral.lehmann" and (cnt or {}).get("pairs", 0) > 0:
            acc["spectral.lehmann_nonzero"] += 1

    def derived(acc):
        return {
            "fock.dim_max": acc["fock.basis.dim"],
            "fock.n_modes_max": acc["fock.basis.n_modes"],
            "fock.ladder_nnz": acc["fock.ladder.nnz"],
            "fields.density_terms": acc["fields.density.terms"],
            "fields.matrix_nnz": acc["fields.matrix.nnz"],
            "measurement.window_keep_ratio": _ratio(
                acc["measurement.window.kept"], acc["measurement.window.scanned"]),
            "spectral.lehmann_pairs": acc["spectral.lehmann.pairs"],
            "spectral.lehmann_nonzero_ratio": _ratio(
                acc["spectral.lehmann_nonzero"], acc["spectral.lehmann_calls"]),
            "spectral.quadrature_points": acc["spectral.quadrature.points"],
        }

    rows = [{**acc, **derived(acc)} for acc in per_pass.values()]
    metrics = {}
    for name, (unit, _) in PER_LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = statistics.median(row.get(name, 0.0) for row in rows)
        metrics[name] = {"value": value, "unit": unit}
    calls = {layer: statistics.median(row.get(f"{layer}_calls", 0) for row in rows)
             for layer in LAYER_MAP}
    return metrics, calls


def _ratio(num, den):
    return num / den if den else 0.0
