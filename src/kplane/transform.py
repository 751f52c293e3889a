"""Discrete k-plane transform, backprojection, and filtered backprojection.

forward() integrates a grid field over the planes {x : A x = t} by tensor
trapezoid quadrature in the plane coordinates: an interpolating ray-driven
projector (Joseph 1982) vectorised over blocks of frames.  It works in the
grid's index coordinates and reads only the nodes inside the grid box, the
rest contributing exact zeros.  backproject() averages a sinogram over its
frames at t = A x and scales by the total Haar mass of the Stiefel manifold,
so that ramp-filtered backprojection inverts the forward map, reading blocks
of frames in one vectorised gather that is exactly 0 outside the t-grid.
Both read through one multilinear kernel (fields.lerp_t), and everything is
pure and parallelizes over blocks of frames.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, TruncationWarning
from .fields import (
    FieldInterpolator,
    GridField,
    GridSpec,
    QuadSpec,
    Sinogram,
    TGrid,
    gaussian_field,
    lerp_t,
)
from .filters import ramp_filter
from .geometry import (Frame, FrameSet, RngSeed, _haar_rows, complete_frame,
                       stiefel_total_mass)


def frameset_circle(n: int) -> FrameSet:
    """Equiangular frames alpha(theta) = (cos, sin) over the full circle."""
    thetas = 2.0 * np.pi * np.arange(n) / n
    frames = [Frame(2, 1, np.array([[np.cos(t), np.sin(t)]])) for t in thetas]
    return FrameSet(tuple(frames), "deterministic-circle")


def frameset_haar(d: int, k: int, n: int, seed: RngSeed) -> FrameSet:
    """n independent Haar frames drawn from the given seed."""
    frames = tuple(Frame(d, k, rows) for rows in _haar_rows(d, k, n, seed))
    return FrameSet(frames, "monte-carlo", seed)


def _thread_count(threads: int | None) -> int:
    """An explicit count >= 1, else KPLANE_THREADS; unset, empty or < 1 means 1.

    A KPLANE_THREADS value that is not an integer raises ValueError.
    """
    if threads is not None and threads >= 1:
        return int(threads)
    env = os.environ.get("KPLANE_THREADS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"KPLANE_THREADS must be an integer, got {env!r}") from None


def _support_radius(fld: GridField, rel_floor: float = 1e-6) -> float:
    """Radius around the grid center containing all non-negligible values."""
    peak = float(np.abs(fld.values).max())
    if peak == 0.0:
        return 0.0
    center = fld.origin + 0.5 * fld.spacing * (np.array(fld.shape) - 1)
    mask = np.abs(fld.values) > rel_floor * peak
    idx = np.argwhere(mask)
    coords = fld.origin + fld.spacing * idx
    return float(np.sqrt(((coords - center) ** 2).sum(axis=1)).max())


# Tensor quadrature nodes per forward_at block of whole frames (at least one
# frame).  Fixed, so results do not depend on the thread count; larger blocks
# raise peak RSS and, once their arrays outgrow the core's cache, cost time.
_BLOCK_NODES = 1 << 15


def _block_frames(n_t: int, quad: QuadSpec, k: int) -> int:
    """Frames per forward_at block for n_t t points and k plane axes."""
    return max(1, _BLOCK_NODES // (n_t * quad.nodes_per_axis**k))


def forward_at(
    interp: FieldInterpolator, rows: np.ndarray, t_pts: np.ndarray, quad: QuadSpec,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Quadrature of the field over the planes {x : A x = t} for each t point.

    rows is one (d-k) x d frame matrix A, or an (n, d-k, d) stack of them, and
    the result has shape t_pts.shape[:-1], or (n,) + that; t_pts has shape
    (..., d-k).  Each plane is parameterized as x = B y + A^T t with B the
    orthonormal completion of A (complete_frame, unless the caller passes it,
    or the (n, d, k) stack, as b), and y running over tensor trapezoid nodes
    in [-L, L]^k.

    The work runs in the field's index coordinates u = (x - o) / h, in blocks
    of whole frames holding up to 2^15 tensor nodes (one frame, if it holds
    more).  Only nodes whose point can lie inside the box [0, n_i - 1] are
    read; the rest contribute exact zeros by the interpolator's
    compact-support convention.  Each row (one frame, one t point and one
    node of the leading k-1 plane axes) is a line along the last column of
    B, and the box cuts that line in an interval of y found analytically,
    one box axis at a time, and widened by a rounding slack.  A block's
    nodes are gathered with searchsorted and repeat, u is built one axis at
    a time by 1-D takes, all points are read by one FieldInterpolator.read
    and summed by one bincount over (frame, t).  A frame's values do not
    depend on the other frames of the call, so one frame alone gives the
    same bits as in a stack.
    """
    shape = np.shape(rows)[:-2] + np.shape(t_pts)[:-1]
    m, d = np.shape(rows)[-2:]
    k = d - m
    rows = np.asarray(rows, dtype=float).reshape(-1, m, d)
    if b is None:
        b = complete_frame(rows)
    b = np.reshape(b, (-1, d, k))
    nodes, weights = quad.nodes_weights(k)
    n = quad.nodes_per_axis
    t_pts = np.asarray(t_pts, dtype=float).reshape(-1, m)
    fld = interp.field
    h = fld.spacing
    n_fr, n_t, n_lead = len(rows), len(t_pts), n ** (k - 1)
    hi = np.array(fld.shape, dtype=float) - 1
    y = nodes[:n, -1]
    out = np.empty((n_fr, n_t))
    block = _block_frames(n_t, quad, k)
    for f0 in range(0, n_fr, block):
        f = slice(f0, f0 + block)
        base = t_pts @ rows[f]  # A^T t per frame and t point
        bu = b[f] / h  # (fb, d, k): u per unit of y
        fb = len(bu)
        # row starts u_r = (A^T t - o) / h + (leading node) . B[:, :-1] / h, rows
        # ordered (frame, t, lead)
        lead_u = nodes[::n, :-1] @ np.swapaxes(bu[..., :-1], -1, -2)
        row_u = ((base - fld.origin) / h)[:, :, None, :] + lead_u[:, None]
        row_u = row_u.reshape(fb, -1, d)
        slack = 1e-9 * (hi.max() + np.abs(row_u).max(initial=0.0) + quad.halfwidth / h)
        y_lo = np.full(row_u.shape[:2], -np.inf)
        y_hi = np.full(row_u.shape[:2], np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(d):
                # a line parallel to axis i divides by 0: the +-inf bounds then
                # keep the whole row or none of it
                x, step_i = row_u[..., i], bu[:, i, -1, None]
                s_lo, s_hi = (-slack - x) / step_i, (hi[i] + slack - x) / step_i
                np.maximum(y_lo, np.minimum(s_lo, s_hi), out=y_lo)
                np.minimum(y_hi, np.maximum(s_lo, s_hi), out=y_hi)
        j_lo = np.searchsorted(y, y_lo.ravel(), side="left")  # first node at or above y_lo
        count = np.maximum(np.searchsorted(y, y_hi.ravel(), side="right") - j_lo, 0)

        # gather the candidate nodes row by row: idx indexes the block's (frame,
        # node) offsets and ft = frame * n_t + t its sums
        ft, lead_row = np.divmod(np.arange(count.size), n_lead)
        first = (ft // n_t) * len(weights) + lead_row * n + j_lo - (np.cumsum(count) - count)
        ft = np.repeat(ft, count)
        idx = np.arange(ft.size) + np.repeat(first, count)
        offsets = np.moveaxis(nodes @ np.swapaxes(b[f], -1, -2), -1, 0).reshape(d, -1)
        base = base.reshape(-1, d).T
        u = np.empty((d, ft.size))
        for i in range(d):  # one 1-D take per axis; row gathers of (N, d) are slower
            # u = (x - o) / h of the point x = A^T t + B y, rounded as the dense rule
            # rounds it, so that which points on a box face read as inside does not
            # depend on the blocking
            np.add(base[i].take(ft), offsets[i].take(idx), out=u[i])
            u[i] -= fld.origin[i]
            u[i] /= h
        w = np.tile(weights, fb).take(idx)
        w *= interp.read(u)
        out[f] = np.bincount(ft, weights=w, minlength=fb * n_t).reshape(fb, n_t)
    return out.reshape(shape)


def forward(
    fld: GridField,
    frames: FrameSet,
    t_grid: TGrid,
    quad: QuadSpec | None = None,
    order: int = 3,
    threads: int | None = None,
) -> Sinogram:
    """k-plane transform of a grid field, sampled on frames x t-grid.

    All frames go through one forward_at call, or with threads > 1 one call
    per 64 of its blocks, so the values do not depend on the thread count.
    The returned sinogram carries a generator handle so its underlying
    function can be re-evaluated exactly at rotated frame coordinates; it is
    the same code with one frame.
    """
    d, k = frames.d, frames.k
    if t_grid.m != d - k:
        raise DomainError(f"t-grid dimension {t_grid.m} != d-k = {d - k}")
    if quad is None:
        quad = QuadSpec.default_for(fld.spec)
    support_radius = _support_radius(fld)
    if quad.halfwidth < support_radius:
        warnings.warn(
            f"quadrature halfwidth {quad.halfwidth} is below the field support "
            f"radius {support_radius:.3g}; plane integrals may be truncated",
            TruncationWarning,
            stacklevel=2,
        )
    interp = FieldInterpolator(fld, order=order)
    t_pts = t_grid.points()
    rows, completions = frames.rows, complete_frame(frames)
    n_threads = _thread_count(threads)
    if n_threads > 1:
        chunk = 64 * _block_frames(len(t_pts), quad, k)  # frames per task: whole blocks
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            values = np.concatenate(list(pool.map(
                lambda f0: forward_at(interp, rows[f0:f0 + chunk], t_pts, quad,
                                      completions[f0:f0 + chunk]),
                range(0, len(frames), chunk))))
    else:
        values = forward_at(interp, rows, t_pts, quad, completions)
    return Sinogram(d, k, frames, t_grid, values,
                    lambda rows, pts: forward_at(interp, rows, pts, quad))


def backproject(
    sino: Sinogram, grid: GridSpec, threads: int | None = None
) -> GridField:
    """Dual transform: Haar mass times the frame average of g(A, A x).

    Interpolation is multilinear in t only, never across frames.  A block of
    about 2^14 frames x grid points is read at once: its t-grid index
    coordinates u = (A x - o) / h come from one small matrix product with the
    grid's index points and are read by one gather (fields.lerp_t).  Grid points whose A x leaves the
    t-grid on any axis read exactly 0 and raise a truncation warning.  Blocks
    add into fixed 64-frame partial sums, so threads do not change the result.
    """
    d, tg = grid.d, sino.t_grid
    if d != sino.d:
        raise DomainError(f"grid dimension {d} != sinogram d = {sino.d}")
    mass = stiefel_total_mass(sino.d, sino.k)
    # u[j][f] = coef[j, f] . cells + shift[j, f], with cells the grid's index points
    rows = np.swapaxes(sino.frames.rows, 0, 1)  # (m, n, d)
    coef = rows * (grid.spacing / tg.spacing)
    shift = ((rows @ grid.origin - tg.origin[:, None]) / tg.spacing)[..., None]
    cells = np.indices(grid.shape, dtype=float).reshape(d, -1)
    flat = sino.values.reshape(-1)
    chunk = 64  # frames per partial sum; fixed so results are reproducible
    block = max(1, (1 << 14) // grid.size)  # frames per gather; larger blocks raise peak RSS

    def run_chunk(first: int) -> tuple[np.ndarray, int]:
        partial = np.zeros(grid.size)
        outside = 0
        stop = min(first + chunk, sino.n_frames)
        for f0 in range(first, stop, block):
            f = slice(f0, min(f0 + block, stop))
            u = coef[:, f] @ cells
            u += shift[:, f]
            base = (tg.size * np.arange(f.start, f.stop, dtype=float))[:, None]
            vals, out = lerp_t(flat, tg.shape, u, base)
            partial += vals.sum(axis=0)
            outside += out
        return partial, outside

    starts = range(0, sino.n_frames, chunk)
    n_threads = _thread_count(threads)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_chunk, starts))
    else:
        results = [run_chunk(s) for s in starts]

    total = np.zeros(grid.size)
    truncated = 0
    for partial, outside in results:
        total += partial
        truncated += outside
    if truncated:
        warnings.warn(
            f"{truncated} of {sino.n_frames * grid.size} backprojection reads "
            "fell outside the t-grid and were treated as 0",
            TruncationWarning,
            stacklevel=2,
        )
    return GridField(grid.origin, grid.spacing, grid.shape, (mass / sino.n_frames) * total)


def fbp(sino: Sinogram, d: int, k: int, grid: GridSpec,
        pad_factor: float = 2.0, threads: int | None = None) -> GridField:
    """Filtered backprojection: backproject the ramp-filtered sinogram."""
    return backproject(ramp_filter(sino, d, k, pad_factor), grid, threads=threads)


def calibrate_gain(
    d: int,
    k: int,
    frames: FrameSet,
    grid: GridSpec,
    t_grid: TGrid,
    quad: QuadSpec | None = None,
    order: int = 1,
    pad_factor: float = 2.0,
    threads: int | None = None,
) -> float:
    """End-to-end scale check of the inversion identity on the unit Gaussian.

    Runs forward + fbp on the standard Gaussian density and returns the
    least-squares scalar s minimizing ||s * fbp - truth||; s should be 1 up
    to discretization error.  Guards the Haar-mass convention.
    """
    fld = gaussian_field(grid)
    sino = forward(fld, frames, t_grid, quad, order=order, threads=threads)
    recon = fbp(sino, d, k, grid, pad_factor, threads=threads)
    num = float((recon.values * fld.values).sum())
    den = float((recon.values**2).sum())
    if den == 0.0:
        raise DomainError("reconstruction is identically zero")
    return num / den


def moment_integral(sino: Sinogram, n: int, m_order: int) -> np.ndarray:
    """Per-frame moment int g(A, t) t_n^m dt over the whole t-grid.

    Order 0 recovers the total mass of the underlying field (frame
    independent); order 1 recovers alpha_n . centroid, a degree-1
    homogeneous polynomial in the n-th frame row.
    """
    if m_order not in (0, 1):
        raise DomainError(f"moment order must be 0 or 1, got {m_order}")
    if not (1 <= n <= sino.m):
        raise DomainError(f"axis index must be in 1..{sino.m}, got {n}")
    cell = sino.t_grid.cell_volume()
    if m_order == 0:
        return cell * sino.values.reshape(sino.n_frames, -1).sum(axis=1)
    t_n = sino.t_grid.points()[:, n - 1]
    flat = sino.values.reshape(sino.n_frames, -1)
    return cell * (flat * t_n[None, :]).sum(axis=1)


def same_grid(a: GridSpec | GridField, b: GridSpec | GridField) -> bool:
    """Equal shape, spacing and origin."""
    return (
        a.shape == b.shape
        and a.spacing == b.spacing
        and bool(np.array_equal(a.origin, b.origin))
    )


def sino_dot(a: Sinogram, b: Sinogram) -> float:
    """Discrete pairing on Xi_k: Haar mass x frame mean of the t-grid sums."""
    same_frames = a.frames is b.frames or np.array_equal(a.frames.rows, b.frames.rows)
    if (a.d, a.k) != (b.d, b.k) or not same_frames or not same_grid(a.t_grid, b.t_grid):
        raise DomainError("sinograms must share frames and t-grid")
    mass = stiefel_total_mass(a.d, a.k)
    per_frame = (a.values * b.values).reshape(a.n_frames, -1).sum(axis=1)
    return float(mass * per_frame.mean() * a.t_grid.cell_volume())


def sino_norm(a: Sinogram) -> float:
    return float(np.sqrt(max(0.0, sino_dot(a, a))))


def sino_mass(a: Sinogram) -> float:
    """Discrete integral of the sinogram over Xi_k."""
    mass = stiefel_total_mass(a.d, a.k)
    per_frame = a.values.reshape(a.n_frames, -1).sum(axis=1)
    return float(mass * per_frame.mean() * a.t_grid.cell_volume())


def field_dot(a: GridField, b: GridField) -> float:
    """Grid quadrature pairing h^d sum(a * b)."""
    if not same_grid(a, b):
        raise DomainError("fields must share a grid")
    return float(a.spacing**a.d * (a.values * b.values).sum())


def rel_l2_error(approx: GridField, truth: GridField) -> float:
    """||approx - truth|| / ||truth|| over a shared grid."""
    if not same_grid(approx, truth):
        raise DomainError("fields must share a grid")
    denom = float(np.sqrt((truth.values**2).sum()))
    if denom == 0.0:
        raise DomainError("reference field is identically zero")
    return float(np.sqrt(((approx.values - truth.values) ** 2).sum()) / denom)
