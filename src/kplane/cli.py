"""Command-line front end: phantom generation, pipeline runs, verification.

All randomness flows from config seeds, so reruns of any pipeline with the
same config produce byte-identical KPT outputs.  Reports are machine-readable
JSON, each command report stamped with ``schema_version`` and ``env``
(versions, and whether scipy.special was loaded); grid outputs also get a
center-line CSV slice for external plotting.

Exit codes: 0 success, 1 verification check failed, 2 bad config,
3 I/O failure, 4 numeric error (a domain error, an array too large to allocate, a float overflow).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, analytic, filters, geometry, isotropy, sparse, transform
from .errors import DomainError, FormatError, TruncationWarning, check_size
from .fields import GridField, GridSpec, QuadSpec, Sinogram, TGrid, integrate, read_kpt, write_kpt
from .geometry import RngSeed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """The run configuration is missing or malformed."""


# --- config parsing -----------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


@contextlib.contextmanager
def _reading(domain_is_config: bool = True):
    """Turn a KeyError, TypeError, ValueError or OverflowError raised in the block into
    a ConfigError (exit 2).  A DomainError, from a constructor given config values, is
    one too, unless domain_is_config is False: then it passes on as numeric (exit 4)."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError) or isinstance(exc, DomainError) and not domain_is_config:
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


_KINDS = {dict: "a JSON object", int: "an integer", float: "a number"}
_REQUIRED = object()


def _to(kind: type, raw):
    """raw as kind: dict (a JSON object, as it is), int or float; a JSON boolean, or a
    fraction where an int is due, raises instead of being read as 0/1 or truncated."""
    if isinstance(raw, bool) or (kind is dict) != isinstance(raw, dict) or (
            kind is int and isinstance(raw, float) and not raw.is_integer()):
        raise TypeError(f"{raw!r} is not {_KINDS[kind]}")
    return raw if kind is dict else kind(raw)


def _get(sec: dict, key: str, kind: type | None = None, default=_REQUIRED):
    """sec[key], or default when the key is absent (required when no default is
    given), converted by _to when kind is given; any failure is a ConfigError."""
    raw = sec[key] if key in sec else default
    if raw is _REQUIRED:
        raise ConfigError(f"config key {key!r} is required")
    try:
        return raw if kind is None else _to(kind, raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} must be {_KINDS[kind]}: {exc}") from exc


def _grid_from(cfg: dict, key: str = "grid", cls: type = GridSpec) -> GridSpec:
    g = _get(cfg, key, dict)
    with _reading():
        return cls(np.array(_get(g, "origin"), dtype=float), _get(g, "spacing", float),
                   tuple(_to(int, n) for n in _get(g, "shape")))


def _frames_from(cfg: dict, seed_override: int | None) -> transform.FrameSet:
    f = _get(cfg, "frames", dict)
    mode, count = _get(f, "mode", default="monte-carlo"), _get(f, "count", int, 0)
    if count < 1:
        raise ConfigError("frames.count must be >= 1")
    d, k = _get(cfg, "d", int), _get(cfg, "k", int)
    if mode == "deterministic-circle":
        if (d, k) != (2, 1):
            raise ConfigError("deterministic-circle frames require d=2, k=1")
        return transform.frameset_circle(count)
    if mode == "monte-carlo":
        return transform.frameset_haar(d, k, count, _rng_seed(f, seed_override))
    raise ConfigError(f"unknown frames.mode {mode!r}")


def _rng_seed(sec: dict, seed_override: int | None) -> RngSeed:
    """sec's seed (or the --seed override) and stream; a negative one is a config error."""
    with _reading():
        seed = _get(sec, "seed", int, 0) if seed_override is None else seed_override
        return RngSeed(seed, _get(sec, "stream", int, 0))


def _projection_from(cfg: dict, seed: int | None, order: int) -> tuple:
    """Grid, frames, t-grid, quad and interp order (``order`` by default) of a forward run."""
    grid, frames = _grid_from(cfg), _frames_from(cfg, seed)
    t_grid, q = _grid_from(cfg, "t_grid", TGrid), _get(cfg, "quad", default=None)
    with _reading(domain_is_config=q is not None):  # the default quad is derived, not read
        quad = (QuadSpec.default_for(grid) if q is None
                else QuadSpec(_get(q, "halfwidth", float), _get(q, "nodes", int)))
    order = _get(cfg, "interp_order", int, order)
    if order not in (1, 3):
        raise ConfigError(f"interp_order must be 1 or 3, got {order}")
    return grid, frames, t_grid, quad, order


def _phantom_field(cfg: dict, grid: GridSpec) -> GridField:
    p = _get(cfg, "phantom", dict)
    kind = _get(p, "kind", default=None)
    with _reading(domain_is_config=False):
        if kind == "gaussian":
            return analytic.gaussian_field(grid, mean=_get(p, "mean", default=None))
        if kind == "mixture":
            comps = _get(p, "components", default=[])
            means = [_get(c, "mean") for c in comps]
            weights = [_get(c, "weight", float, 1.0) for c in comps]
            return analytic.mixture_field(grid, means, weights)
        if kind == "ridge-sum":
            d, k = _get(cfg, "d", int), _get(cfg, "k", int)
            atoms = [analytic.RidgeAtom(
                frame=geometry.Frame(d, k, np.array(_get(a, "frame"), dtype=float)),
                weight=_get(a, "weight", float, 1.0),
                offset=np.array(_get(a, "offset"), dtype=float),
                profile=_get(a, "profile", default="gaussian"), s=_get(a, "s", default=None))
                for a in _get(p, "atoms", default=[])]
            return analytic.ridge_sum_field(grid, atoms)
    raise ConfigError(f"unknown phantom kind {kind!r}")


def _out_path(cfg: dict, out_dir: str | None, key: str, default: str) -> Path:
    output = _get(cfg, "output", dict, {})
    base, name = out_dir or _get(output, "dir", default="."), _get(output, key, default=default)
    if not all(isinstance(p, str) and "\0" not in p for p in (base, name)):
        raise ConfigError(f"output.dir and output.{key} must be path strings")
    Path(base).mkdir(parents=True, exist_ok=True)
    return Path(base) / name


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# 2: fbp and calibrate reports name their backprojection rule; 3: env has no thread count
REPORT_SCHEMA_VERSION = 3


def _env() -> dict:
    """Versions, and whether scipy.special has been loaded.

    The scipy version comes from the top-level package, which does not load
    scipy.special.  Within kplane only bessel_j loads it, so scipy_loaded
    turns true through bessel_j, hankel_profile, inverse_radial_profile,
    isotropic_kplane or `kplane verify`.
    """
    import scipy

    return {
        "kplane": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "scipy_loaded": "scipy.special" in sys.modules,
    }


def _write_report(path: Path, report: dict) -> None:
    """A command report ("warnings": [] unless it has some), stamped with schema and env."""
    _write_json(path, {"warnings": [], **report, "schema_version": REPORT_SCHEMA_VERSION,
                       "env": _env()})


def _write_slice_csv(path: Path, fld: GridField) -> None:
    """Center-line slice along the first axis, for external plotting."""
    axes = fld.spec.axes()
    mid = tuple(n // 2 for n in fld.shape)
    line = fld.values[(slice(None),) + mid[1:]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("coord,value\n")
        for x, v in zip(axes[0], line):
            fh.write(f"{x!r},{v!r}\n")


def _read_kind(path: Path, kind: type):
    """Read a KPT file that must hold a ``kind`` (GridField or Sinogram)."""
    obj = read_kpt(path)
    if not isinstance(obj, kind):
        raise FormatError(f"{path} does not hold a {kind.__name__}", offset=8)
    return obj


# --- commands -------------------------------------------------------------------


def cmd_phantom(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    grid = _grid_from(cfg)
    t0 = time.perf_counter()
    fld = _phantom_field(cfg, grid)
    path = _out_path(cfg, out_dir, "phantom", "phantom.kpt")
    write_kpt(path, fld)
    report = {
        "timings_ms": {"phantom": 1000 * (time.perf_counter() - t0)},
        "mass": integrate(fld),
    }
    _write_report(path.with_suffix(".report.json"), report)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_forward(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    grid, frames, t_grid, quad, order = _projection_from(cfg, seed, 3)
    fld = _read_kind(_out_path(cfg, out_dir, "phantom", "phantom.kpt"), GridField)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        sino = transform.forward(fld, frames, t_grid, quad, order=order)
    elapsed = 1000 * (time.perf_counter() - t0)
    sino_path = _out_path(cfg, out_dir, "sinogram", "sinogram.kpt")
    write_kpt(sino_path, sino)
    report = {
        "timings_ms": {"forward": elapsed},
        "rule": transform.forward_rule(fld.spec, frames, t_grid, quad),
        "warnings": [str(w.message) for w in caught],
    }
    _write_report(sino_path.with_suffix(".report.json"), report)
    print(f"wrote {sino_path}")
    return EXIT_OK


def cmd_fbp(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    grid = _grid_from(cfg)
    pad = _get(_get(cfg, "filter", dict, {}), "pad_factor", float, 2.0)
    sino = _read_kind(_out_path(cfg, out_dir, "sinogram", "sinogram.kpt"), Sinogram)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        filtered = filters.ramp_filter(sino, sino.d, sino.k, pad)  # transform.fbp, timed by stage
        t1 = time.perf_counter()
        recon = transform.backproject(filtered, grid)
    t2 = time.perf_counter()
    timings = {"fbp": 1000 * (t2 - t0), "ramp": 1000 * (t1 - t0), "backproject": 1000 * (t2 - t1)}
    recon_path = _out_path(cfg, out_dir, "reconstruction", "recon.kpt")
    write_kpt(recon_path, recon)
    _write_slice_csv(recon_path.with_suffix(".slice.csv"), recon)

    report = {"timings_ms": timings, "rule": transform.backproject_rule(grid, filtered),
              "warnings": [str(w.message) for w in caught]}
    phantom_path = _out_path(cfg, out_dir, "phantom", "phantom.kpt")
    if phantom_path.exists():
        reference = _read_kind(phantom_path, GridField)
        report["rel_l2_vs_reference"] = transform.rel_l2_error(recon, reference)
        denom = float((recon.values**2).sum())
        report["gain"] = (
            float((recon.values * reference.values).sum()) / denom if denom else None
        )
    _write_report(_out_path(cfg, out_dir, "report", "report.json"), report)
    print(f"wrote {recon_path}")
    return EXIT_OK


def cmd_calibrate(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    grid, frames, t_grid, quad, order = _projection_from(cfg, seed, 1)
    pad = _get(_get(cfg, "filter", dict, {}), "pad_factor", float, 2.0)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        gain = transform.calibrate_gain(frames.d, frames.k, frames, grid, t_grid, quad,
                                        order=order, pad_factor=pad)
    report = {
        "timings_ms": {"calibrate": 1000 * (time.perf_counter() - t0)},
        "rule": transform.backproject_rule(grid, t_grid),
        "gain": gain,
    }
    _write_report(_out_path(cfg, out_dir, "report", "report.json"), report)
    print(f"gain = {gain:.6f}")
    return EXIT_OK


def cmd_reconstruct(cfg: dict, out_dir: str | None, seed: int | None) -> int:
    sp = _get(cfg, "sparse", dict)
    d, k = _get(cfg, "d", int), _get(cfg, "k", int)
    if (d, k) != (2, 1):
        raise ConfigError("sparse reconstruction is wired for d=2, k=1 configs")
    grid = _grid_from(cfg)
    s, lo, hi, n_offsets, n_frames, m_meas, bump_width, lam_rule, tol, max_iter = (
        _get(sp, *spec) for spec in [
            ("s", float), ("offset_min", float), ("offset_max", float), ("offset_count", int),
            ("frame_count", int), ("measurements", int), ("bump_width", float, 0.8),
            ("lambda_rule", float, 1e-3), ("tol", float, 1e-10), ("max_iter", int, 20000)])
    if min(n_frames, n_offsets, m_meas) < 1:
        raise ConfigError("sparse frame_count, offset_count and measurements must be >= 1")
    if not 0 < bump_width < math.inf:
        raise ConfigError(f"sparse.bump_width must be finite and > 0, got {bump_width}")
    gen = _rng_seed(sp, seed).generator()
    with _reading():
        planted = [(_get(item, "frame_index", int), _get(item, "offset_index", int),
                    _get(item, "weight", float))
                   for item in _get(sp, "planted", default=None) or ()]
    for i, q, weight in planted:
        if not (0 <= i < n_frames and 0 <= q < n_offsets and math.isfinite(weight)):
            raise ConfigError(f"bad planted atom {(i, q, weight)}: index or weight out of range")
    # what assemble allocates: the measurement fields (M x N), one block of atom
    # rows (at most BLOCK_ATOMS x N) and the Gram (M x J)
    n_atoms = n_frames * n_offsets
    check_size((m_meas + min(n_atoms, sparse.BLOCK_ATOMS)) * grid.size + m_meas * n_atoms,
               f"{m_meas} measurements of {n_atoms} atoms on {grid.size} nodes exceed one array")
    offsets = np.linspace(lo, hi, n_offsets)
    angles = np.pi * np.arange(n_frames) / n_frames
    frames = geometry.FrameSet(np.stack([np.cos(angles), np.sin(angles)], -1)[:, None], "explicit")
    t_dict = time.perf_counter()
    dico = sparse.build_dictionary(frames, offsets, s, d, k)
    timings = {"dictionary": 1000 * (time.perf_counter() - t_dict)}

    pts = grid.points()
    functionals = []
    for _ in range(m_meas):
        c = gen.uniform(-2.5, 2.5, size=2)
        vals = np.exp(-((pts - c) ** 2).sum(-1) / (2 * bump_width**2))
        functionals.append(GridField(grid.origin, grid.spacing, grid.shape,
                                     vals.reshape(grid.shape)))
    meas = sparse.MeasurementSet(functionals)

    t0 = time.perf_counter()
    gram = sparse.assemble(dico, meas, grid)
    timings["assemble"] = 1000 * (time.perf_counter() - t0)
    if planted:
        a_true = np.zeros(len(dico))
        for i, q, weight in planted:
            a_true[i * len(offsets) + q] = weight
        y = gram @ a_true
    else:
        phantom_path = _out_path(cfg, out_dir, "phantom", "phantom.kpt")
        fld = _read_kind(phantom_path, GridField)
        cell = grid.spacing**grid.d
        y = np.array([cell * (h.values * fld.values).sum() for h in functionals])

    lam = lam_rule * float(np.abs(gram.T @ y).max())
    problem = sparse.LassoProblem(gram, y, lam, tol=tol, max_iter=max_iter)
    t_solve = time.perf_counter()
    coeffs = sparse.solve_lasso(problem)
    timings["solve"] = 1000 * (time.perf_counter() - t_solve)
    recon = sparse.reconstruct(coeffs, dico, grid)
    timings["reconstruct"] = 1000 * (time.perf_counter() - t0)

    recon_path = _out_path(cfg, out_dir, "reconstruction", "sparse_recon.kpt")
    write_kpt(recon_path, recon)
    _write_slice_csv(recon_path.with_suffix(".slice.csv"), recon)
    inactive_excess, active_mismatch = sparse.kkt_residuals(problem, coeffs)
    solution = {
        "lambda": lam,
        "s": s,
        "frame_angles": [float(a) for a in angles],
        "offsets": [float(t) for t in offsets],
        "coefficients": [float(v) for v in coeffs],
        "support": [int(j) for j in sparse.support(coeffs)],
        "reg_cost": sparse.reg_cost(coeffs),
        "kkt": {"inactive_excess": inactive_excess, "active_mismatch": active_mismatch},
    }
    sol_path = _out_path(cfg, out_dir, "solution", "solution.json")
    _write_json(sol_path, solution)
    report = {
        "timings_ms": timings,
        "counters": {**problem.stats, **dico.table.counts},
        "support_size": len(solution["support"]),
    }
    _write_report(_out_path(cfg, out_dir, "report", "report.json"), report)
    print(f"wrote {recon_path} (support {len(solution['support'])})")
    return EXIT_OK


# --- verify ----------------------------------------------------------------------


VERIFY_TOLERANCES = {
    "constant_c21": 1e-12,
    "constant_c32": 1e-12,
    "stiefel_mass_21": 1e-12,
    "gaussian_forward_2d": 1e-3,
    "fourier_slice_2d": 1e-3,
    "moment_mass_2d": 1e-3,
    "moment_centroid_2d": 1e-3,
    "isotropy_rotation_2d": 2e-3,
    "intertwining_gaussian_2d": 1e-2,
    "inversion_gain_2d": 0.02,
    "fbp_rel_l2_2d": 0.05,
    "adjoint_2d": 1e-12,
    "projector_idempotent_o1": 1e-12,
    "pk_fixes_range_2d": 0.05,
    "hankel_gaussian_3d": 1e-6,
    "green_rbf_exponential": 1e-4,
    "bessel_ode_residual": 1e-6,
    "lasso_identity_prox": 1e-10,
}


def _run_verify_checks() -> dict[str, float]:
    """Compute the observed value of every registered check (smaller is better)."""
    values: dict[str, float] = {}
    values["constant_c21"] = abs(geometry.c_constant(2, 1) * 4 * math.pi - 1.0)
    values["constant_c32"] = abs(geometry.c_constant(3, 2) * 8 * math.pi**2 - 1.0)
    values["stiefel_mass_21"] = abs(geometry.stiefel_total_mass(2, 1) - 2 * math.pi)

    grid = GridSpec.centered(2, 64, 0.2)
    fld = analytic.gaussian_field(grid)
    frames = transform.frameset_circle(24)
    t_grid = TGrid.centered(1, 63, 0.2)
    quad = QuadSpec(6.0, 128)
    sino = transform.forward(fld, frames, t_grid, quad)
    truth = analytic.gaussian_kplane(frames[0], t_grid.points(), np.zeros(2))  # any frame
    values["gaussian_forward_2d"] = float(np.abs(sino.values - truth).max() / truth.max())

    mix = analytic.mixture_field(grid, [[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
    gen = RngSeed(5).generator()
    quad_wide = QuadSpec(9.0, 128)
    pairs = []
    for _ in range(10):
        fr = geometry.haar_frame_sample(2, 1, gen)
        om = gen.uniform(-4, 4, size=1)
        pairs.append(analytic.slice_pair(mix, fr, om, quad=quad_wide))
    scale = max(abs(rhs) for _, rhs in pairs)
    values["fourier_slice_2d"] = max(abs(l - r) for l, r in pairs) / scale

    frames_m = transform.frameset_circle(16)
    t_wide = TGrid.centered(1, 127, 0.2)
    sino_m = transform.forward(mix, frames_m, t_wide, quad_wide)
    mass = integrate(mix)
    m0 = transform.moment_integral(sino_m, 1, 0)
    values["moment_mass_2d"] = float(np.abs(m0 - mass).max() / abs(mass))
    centroid = analytic.mixture_centroid([[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
    m1 = transform.moment_integral(sino_m, 1, 1)
    values["moment_centroid_2d"] = float(np.abs(m1 - mass * (frames_m.rows[:, 0] @ centroid)).max())

    rotated = sino_m.generator(-frames_m.rows[::3], -t_wide.points())
    values["isotropy_rotation_2d"] = float(np.abs(rotated - sino_m.values[::3]).max())

    smooth_spec = filters.gaussian_spec(0.8)
    smoothed_field = filters.apply_radial(mix, smooth_spec)
    lhs_sino = transform.forward(smoothed_field, frames_m, t_wide, quad_wide)
    rhs_sino = filters.apply_radial(sino_m, smooth_spec)
    num = transform.sino_norm(lhs_sino.copy_with(lhs_sino.values - rhs_sino.values, None))
    values["intertwining_gaussian_2d"] = num / transform.sino_norm(rhs_sino)

    frames_fbp = transform.frameset_circle(180)
    t_fbp = TGrid.centered(1, 128, 0.2)
    sino_fbp = transform.forward(mix, frames_fbp, t_fbp, quad_wide, order=1)
    recon = transform.fbp(sino_fbp, 2, 1, grid)
    values["fbp_rel_l2_2d"] = transform.rel_l2_error(recon, mix)
    gain = transform.calibrate_gain(2, 1, frames_fbp, grid, t_fbp, quad)
    values["inversion_gain_2d"] = abs(gain - 1.0)
    # backproject at d - k = 1 is the transpose of forward: <F f, g> = <f, B g>
    probe = sino_fbp.copy_with(np.exp(-((t_fbp.axes()[0] - 0.7 * frames_fbp.rows[:, 0, :1]) ** 2)))
    pairing = transform.sino_dot(sino_fbp, probe)
    back = transform.field_dot(mix, transform.backproject(probe, grid))
    values["adjoint_2d"] = abs(pairing - back) / abs(pairing)

    p1 = isotropy.project_iso(sino_m)
    p2 = isotropy.project_iso(p1)
    values["projector_idempotent_o1"] = float(np.abs(p2.values - p1.values).max())

    pk = isotropy.pk_project(sino_fbp, grid, quad_wide, order=1)
    num = transform.sino_norm(sino_fbp.copy_with(pk.values - sino_fbp.values, None))
    values["pk_fixes_range_2d"] = num / transform.sino_norm(sino_fbp)

    t = np.arange(0.0, 12.0, 0.002)
    rho = np.exp(-(t**2) / 2) / (2 * math.pi) ** 1.5
    omega = np.linspace(0.0, 6.0, 25)
    prof = filters.hankel_profile(t, rho, 3, omega)
    values["hankel_gaussian_3d"] = float(np.abs(prof - np.exp(-(omega**2) / 2)).max())

    table = filters.green_rbf(2.0, 1)
    r = np.linspace(0.0, 6.0, 25)
    values["green_rbf_exponential"] = float(np.abs(table(r) - np.exp(-r) / 2).max())

    x = np.linspace(0.5, 8.0, 60)
    h = 0.01
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    vals = np.stack([filters.bessel_j(1, x + s_) for s_ in stencil])
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h**2)
    values["bessel_ode_residual"] = float(
        np.abs(x**2 * d2 + x * d1 + (x**2 - 1.0) * vals[2]).max()
    )

    y = np.array([2.0, -0.5, 0.05, 0.0, 1.0, -3.0])
    lam = 0.2
    a = sparse.solve_lasso(sparse.LassoProblem(np.eye(6), y, lam, tol=1e-14))
    expect = np.sign(y) * np.maximum(np.abs(y) - lam / 2, 0.0)
    values["lasso_identity_prox"] = float(np.abs(a - expect).max())
    return values


def cmd_verify(cfg: dict | None, out_dir: str | None, seed: int | None) -> int:
    tolerances, overrides = dict(VERIFY_TOLERANCES), _get(cfg or {}, "tolerances", dict, {})
    for name in overrides:
        if name not in tolerances:
            raise ConfigError(f"unknown check {name!r} in tolerance overrides")
        tolerances[name] = _get(overrides, name, float)
        if not 0 <= tolerances[name] < math.inf:
            raise ConfigError(f"tolerance {name!r} must be finite and >= 0, got {tolerances[name]}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        values = _run_verify_checks()
    verdict = {}
    all_pass = True
    for name, value in values.items():
        tol = tolerances[name]
        ok = bool(value <= tol)
        verdict[name] = {"pass": ok, "value": value, "tolerance": tol}
        all_pass &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: value={value:.3e} tolerance={tol:.3e}")
    if cfg is not None or out_dir is not None:
        _write_json(_out_path(cfg or {}, out_dir, "report", "verify.json"), verdict)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# --- entry point -------------------------------------------------------------------


COMMANDS = {
    "phantom": cmd_phantom,
    "forward": cmd_forward,
    "fbp": cmd_fbp,
    "calibrate": cmd_calibrate,
    "reconstruct": cmd_reconstruct,
}

# built once: argparse set-up costs more than many commands when main runs in-process
_PARSER = argparse.ArgumentParser(prog="kplane", description=__doc__)
_PARSER.add_argument("command", choices=[*COMMANDS, "verify"])
_PARSER.add_argument("--config", help="path to a JSON run configuration")
_PARSER.add_argument("--out", help="output directory override")
_PARSER.add_argument("--seed", type=int, help="override the config's frame seed")
_PARSER.add_argument("--threads", type=int, help="ignored: every run is serial")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = _load_config(args.config) if args.config or args.command != "verify" else None
        with np.errstate(over="raise"):  # a float overflow is a numeric error, not a warning
            return COMMANDS.get(args.command, cmd_verify)(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, MemoryError, OverflowError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
