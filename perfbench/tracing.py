"""Span tracer for the traced run, attached from outside the package.

``Tracer.install`` replaces public functions of the ``kplane`` modules with
wrappers.  Every module attribute, package re-export or module-level dict
entry bound to the original (``kplane.transform.complete_frame``,
``kplane.isotropy.frobenius_distance``, ``kplane.cli.COMMANDS`` ...) is
rebound, so calls made from inside the package are seen too.
``uninstall`` restores every binding.  Nothing in the package changes.

A span is ``(name, start, end, parent, pass_id)``; spans are kept in memory
and written out at exit.  A layer's ``busy_s`` is its self time: span
duration minus the durations of its direct children.  Counts are taken at
the same boundaries.  The hooks ``_forward_points``, ``_backproject_reads``,
``_ramp_points`` and ``_dictionary_pairs`` compute their counts from argument
shapes; every other count is observed.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from kplane import analytic, cli, fields, filters, geometry, isotropy, sparse, transform
from kplane.errors import TruncationWarning

_TRUNCATED = re.compile(r"(\d+) of \d+ backprojection reads")


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- count hooks: (counts, original fn, args, kwargs, result) -> None ----------


def _interp_points(counts, fn, args, kwargs, result):
    fld, pts = args[0].field, args[1]
    pts = pts.reshape(-1, fld.d)
    inside = np.ones(pts.shape[0], dtype=bool)
    for axis in range(fld.d):  # column by column: a reduction over a length-d axis is slow
        col = pts[:, axis]
        hi = fld.origin[axis] + fld.spacing * (fld.shape[axis] - 1)
        inside &= (col >= fld.origin[axis]) & (col <= hi)
    counts["fields.FieldInterpolator.points"] += pts.shape[0]
    counts["fields.FieldInterpolator.inbox"] += int(np.count_nonzero(inside))


def _forward_points(counts, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    quad = a["quad"] or fields.QuadSpec.default_for(a["fld"].spec)
    k = a["frames"].k
    counts["transform.forward.quad_points"] += (
        len(a["frames"]) * a["t_grid"].size * quad.nodes_per_axis**k
    )


def _backproject_reads(counts, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    counts["transform.backproject.reads"] += a["sino"].n_frames * a["grid"].size


def _ramp_points(counts, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    padded = [filters._padded_size(n, a["pad_factor"]) for n in a["sino"].t_grid.shape]
    counts["filters.ramp_filter.fft_points"] += a["sino"].n_frames * int(
        np.prod(padded)
    )


def _ridge_points(counts, fn, args, kwargs, result):
    x = np.asarray(args[1])
    counts["analytic.ridge_eval.points"] += x.size // x.shape[-1]


def _kpt_bytes(name):
    def hook(counts, fn, args, kwargs, result):
        counts[name] += os.path.getsize(args[0])
    return hook


def _dictionary_pairs(counts, fn, args, kwargs, result):
    n = len(result)
    counts["sparse.build_dictionary.pair_checks"] += n * (n - 1) // 2


def _orbit_match(counts, fn, args, kwargs, result):
    if result <= sparse.DEDUP_TOL:
        counts["sparse.orbit_distance.matches"] += 1


def _eval_route(counts, fn, args, kwargs, result):
    if args[0].generator is not None:
        counts["isotropy.project_iso.generator_calls"] += 1


# --- behaviour-preserving adapters ----------------------------------------------


def _count_truncation(tracer, fn):
    """Parse truncated reads from the TruncationWarning text, then re-emit it."""

    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            result = fn(*args, **kwargs)
        for w in caught:
            match = _TRUNCATED.search(str(w.message))
            if match and issubclass(w.category, TruncationWarning):
                tracer.counts["transform.backproject.truncated_reads"] += int(match.group(1))
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    return wrapper


def _count_iterations(tracer, fn):
    """Inject an on_iterate counter when the caller passed none."""

    def wrapper(problem, on_iterate=None):
        if on_iterate is None:
            def on_iterate(_obj):
                tracer.counts["sparse.solve_lasso.iters"] += 1
        return fn(problem, on_iterate)

    return wrapper


# Functions that get a span: (owner, attribute, span name, count hook, adapter).
SPANNED = [
    (geometry, "haar_frame_sample", "geometry.haar_frame_sample", None, None),
    (fields.FieldInterpolator, "__call__", "fields.FieldInterpolator", _interp_points, None),
    (fields.QuadSpec, "nodes_weights", "fields.QuadSpec.nodes_weights", None, None),
    (fields, "interp_t_block", "fields.interp_t_block", None, None),
    (fields, "write_kpt", "fields.write_kpt", _kpt_bytes("fields.write_kpt.bytes"), None),
    (fields, "read_kpt", "fields.read_kpt", _kpt_bytes("fields.read_kpt.bytes"), None),
    (transform, "forward", "transform.forward", _forward_points, None),
    (transform, "forward_at", "transform.forward_at", None, None),
    (transform, "backproject", "transform.backproject", _backproject_reads, _count_truncation),
    (transform, "calibrate_gain", "transform.calibrate_gain", None, None),
    (filters, "ramp_filter", "filters.ramp_filter", _ramp_points, None),
    (filters, "green_rbf", "filters.green_rbf", None, None),
    (analytic, "mixture_field", "analytic.mixture_field", None, None),
    (analytic, "ridge_eval", "analytic.ridge_eval", _ridge_points, None),
    (isotropy, "project_iso", "isotropy.project_iso", None, None),
    (isotropy, "pk_project", "isotropy.pk_project", None, None),
    (isotropy, "render_delta_iso", "isotropy.render_delta_iso", None, None),
    (sparse, "build_dictionary", "sparse.build_dictionary", _dictionary_pairs, None),
    (sparse, "assemble", "sparse.assemble", None, None),
    (sparse, "solve_lasso", "sparse.solve_lasso", None, _count_iterations),
    (sparse, "reconstruct", "sparse.reconstruct", None, None),
] + [(cli, f"cmd_{c}", f"cli.{c}", None, None)
     for c in ("phantom", "forward", "fbp", "calibrate", "reconstruct")]

# Functions called too often for a span each: (owner, attribute, call counter, hook).
COUNTED = [
    (geometry, "complete_frame", "geometry.complete_frame.calls", None),
    (geometry, "frobenius_distance", "isotropy.project_iso.lookup_distance_evals", None),
    (geometry, "orbit_distance", "sparse.orbit_distance.calls", _orbit_match),
    (isotropy, "_eval_at", "isotropy._eval_at.calls", _eval_route),
]


class Tracer:
    """In-memory span recorder with counters, attached by rebinding names."""

    HOOK = "trace.hook"

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.pass_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name, fn, hook, original):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[name + ".calls"] += 1
            if hook is not None:  # hook time is its own span, not the caller's
                h = self.open(self.HOOK)
                hook(self.counts, original, args, kwargs, result)
                self.close(h)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if hook is not None:
                hook(self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    # -- attach / detach --------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook, adapter in SPANNED:
            original = getattr(owner, attr)
            inner = adapter(self, original) if adapter else original
            self._replace(owner, attr, self._span_wrapper(name, inner, hook, original))
        for owner, attr, name, hook in COUNTED:
            original = getattr(owner, attr)
            self._replace(owner, attr, self._count_wrapper(name, original, hook))

    def _replace(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            self._rebind(original, wrapper)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kplane" or mod_name.startswith("kplane.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: summed self time and summed inclusive time."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, incl = defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += (end - start) - child[idx]
            incl[name] += end - start
        return busy, incl

    def top_level_share(self, root: str) -> float:
        """Share of the ``root`` spans' time covered by their direct children."""
        roots = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == root}
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in roots)
        return _div(covered, sum(roots.values()))

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": header, "fields": ["name", "start", "end", "parent",
                                                          "pass"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, iterations: int, thread_scaling: float,
                  overhead_frac: float, reported_s: dict) -> dict:
    """Per-layer metrics, averaged per traced iteration (one set-up plus one pass).

    ``reported_s`` holds the CLI's own ``timings_ms`` (in seconds) summed over
    the traced passes, keyed by command.
    """
    busy, incl = tracer.totals()
    c = tracer.counts
    n = max(iterations, 1)

    def per(x):
        return x / n

    interp_pts = c["fields.FieldInterpolator.points"]
    values = {
        "geometry.haar_frame_sample.busy_s": (per(busy["geometry.haar_frame_sample"]), "s"),
        "geometry.haar_frame_sample.calls": (per(c["geometry.haar_frame_sample.calls"]), "count"),
        "geometry.complete_frame.calls": (per(c["geometry.complete_frame.calls"]), "count"),
        "fields.FieldInterpolator.busy_s": (per(busy["fields.FieldInterpolator"]), "s"),
        "fields.FieldInterpolator.points": (per(interp_pts), "count"),
        "fields.FieldInterpolator.points_per_s": (
            _div(interp_pts, incl["fields.FieldInterpolator"]), "1/s"),
        "fields.QuadSpec.nodes_weights.calls": (
            per(c["fields.QuadSpec.nodes_weights.calls"]), "count"),
        "fields.QuadSpec.nodes_weights.busy_s": (per(busy["fields.QuadSpec.nodes_weights"]), "s"),
        "fields.interp_t_block.busy_s": (per(busy["fields.interp_t_block"]), "s"),
        "fields.interp_t_block.calls": (per(c["fields.interp_t_block.calls"]), "count"),
        "fields.write_kpt.busy_s": (per(busy["fields.write_kpt"]), "s"),
        "fields.write_kpt.bytes": (per(c["fields.write_kpt.bytes"]), "B"),
        "fields.read_kpt.busy_s": (per(busy["fields.read_kpt"]), "s"),
        "fields.read_kpt.bytes": (per(c["fields.read_kpt.bytes"]), "B"),
        "transform.forward.busy_s": (per(busy["transform.forward"]), "s"),
        "transform.forward.quad_points": (per(c["transform.forward.quad_points"]), "count"),
        "transform.forward.points_per_s": (
            _div(c["transform.forward.quad_points"], incl["transform.forward"]), "1/s"),
        "transform.forward.useful_frac": (
            _div(c["fields.FieldInterpolator.inbox"], interp_pts), "1"),
        "transform.forward_at.busy_s": (per(busy["transform.forward_at"]), "s"),
        "transform.forward_at.calls": (per(c["transform.forward_at.calls"]), "count"),
        "transform.forward_at.mean_call_ms": (
            1000 * _div(incl["transform.forward_at"], c["transform.forward_at.calls"]), "ms"),
        "transform.backproject.busy_s": (per(busy["transform.backproject"]), "s"),
        "transform.backproject.reads": (per(c["transform.backproject.reads"]), "count"),
        "transform.backproject.reads_per_s": (
            _div(c["transform.backproject.reads"], incl["transform.backproject"]), "1/s"),
        "transform.backproject.truncated_reads": (
            per(c["transform.backproject.truncated_reads"]), "count"),
        "transform.calibrate_gain.busy_s": (per(busy["transform.calibrate_gain"]), "s"),
        "transform.thread_scaling": (thread_scaling, "x"),
        "filters.ramp_filter.busy_s": (per(busy["filters.ramp_filter"]), "s"),
        "filters.ramp_filter.fft_points": (per(c["filters.ramp_filter.fft_points"]), "count"),
        "filters.green_rbf.busy_s": (per(busy["filters.green_rbf"]), "s"),
        "analytic.mixture_field.busy_s": (per(busy["analytic.mixture_field"]), "s"),
        "analytic.ridge_eval.busy_s": (per(busy["analytic.ridge_eval"]), "s"),
        "analytic.ridge_eval.points": (per(c["analytic.ridge_eval.points"]), "count"),
        "isotropy.project_iso.busy_s": (per(busy["isotropy.project_iso"]), "s"),
        "isotropy.project_iso.generator_calls": (
            per(c["isotropy.project_iso.generator_calls"]), "count"),
        "isotropy.project_iso.lookup_distance_evals": (
            per(c["isotropy.project_iso.lookup_distance_evals"]), "count"),
        "isotropy.pk_project.busy_s": (per(busy["isotropy.pk_project"]), "s"),
        "isotropy.render_delta_iso.busy_s": (per(busy["isotropy.render_delta_iso"]), "s"),
        "sparse.build_dictionary.busy_s": (per(busy["sparse.build_dictionary"]), "s"),
        "sparse.build_dictionary.pair_checks": (
            per(c["sparse.build_dictionary.pair_checks"]), "count"),
        "sparse.build_dictionary.dup_found_frac": (
            _div(c["sparse.orbit_distance.matches"], c["sparse.orbit_distance.calls"]), "1"),
        "sparse.assemble.busy_s": (per(busy["sparse.assemble"]), "s"),
        "sparse.solve_lasso.busy_s": (per(busy["sparse.solve_lasso"]), "s"),
        "sparse.solve_lasso.iters": (per(c["sparse.solve_lasso.iters"]), "count"),
        "sparse.solve_lasso.iters_per_s": (
            _div(c["sparse.solve_lasso.iters"], incl["sparse.solve_lasso"]), "1/s"),
        "sparse.reconstruct.busy_s": (per(busy["sparse.reconstruct"]), "s"),
    }
    for command in ("phantom", "forward", "fbp", "calibrate", "reconstruct"):
        values[f"cli.{command}.busy_s"] = (per(busy[f"cli.{command}"]), "s")
    values["cli.reconstruct.unreported_s"] = (
        per(incl["cli.reconstruct"] - reported_s.get("reconstruct", 0.0))
        if c["cli.reconstruct.calls"] else 0.0, "s")
    values["trace.overhead_frac"] = (overhead_frac, "1")
    values["trace.top_span_frac"] = (tracer.top_level_share("pass"), "1")
    values["trace.hook_s"] = (per(busy[Tracer.HOOK]), "s")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}
