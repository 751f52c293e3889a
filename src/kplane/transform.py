"""Discrete k-plane transform, backprojection, and filtered backprojection.

forward() integrates a grid field over the planes {x : A x = t} by tensor
trapezoid quadrature in the plane coordinates, interpolating only the nodes
inside the grid box: the rest contribute exact zeros.  backproject() averages a
sinogram over its frames at t = A x and scales by the total Haar mass of
the Stiefel manifold, so that ramp-filtered backprojection inverts the
forward map, reading blocks of frames in one vectorised gather that is exactly
0 outside the t-grid.  Everything is pure and parallelizes over frames.
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
    lerp_t,
)
from .filters import ramp_filter
from .geometry import (Frame, FrameSet, RngSeed, complete_frame, haar_frame_sample,
                       stiefel_total_mass)


def frameset_circle(n: int) -> FrameSet:
    """Equiangular frames alpha(theta) = (cos, sin) over the full circle."""
    thetas = 2.0 * np.pi * np.arange(n) / n
    frames = [Frame(2, 1, np.array([[np.cos(t), np.sin(t)]])) for t in thetas]
    return FrameSet(tuple(frames), "deterministic-circle")


def frameset_haar(d: int, k: int, n: int, seed: RngSeed) -> FrameSet:
    """n independent Haar frames drawn from the given seed."""
    gen = seed.generator()
    frames = tuple(haar_frame_sample(d, k, gen) for _ in range(n))
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


def forward_at(
    interp: FieldInterpolator, rows: np.ndarray, t_pts: np.ndarray, quad: QuadSpec,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Quadrature of the field over the planes {x : A x = t} for each t point.

    rows is the (d-k) x d frame matrix; t_pts has shape (..., d-k).  The
    plane is parameterized as x = B y + A^T t with B the orthonormal
    completion of A (complete_frame, unless the caller passes it as b), and
    y running over tensor trapezoid nodes in [-L, L]^k.

    Only nodes whose point can lie inside the field's bounding box are
    interpolated; the rest contribute exact zeros by the interpolator's
    compact-support convention.  Each row (one t point and one node of the
    leading k-1 plane axes) is a line along the last column of B, and the
    box cuts that line in an interval of y found analytically, one box axis
    at a time, and widened by a rounding slack.  Every point that is
    interpolated is bit-identical to the dense rule's; only zero terms are
    left out of the sum.
    """
    d = rows.shape[1]
    k = d - rows.shape[0]
    if b is None:
        b = complete_frame(Frame(d, k, rows))
    nodes, weights = quad.nodes_weights(k)
    n = quad.nodes_per_axis
    t_pts = np.asarray(t_pts, dtype=float)
    lead = t_pts.shape[:-1]
    base = t_pts.reshape(-1, rows.shape[0]) @ rows  # A^T t for each t
    n_t, n_lead = base.shape[0], n ** (k - 1)

    # row starts x_r = A^T t + (leading node) . B[:, :-1], rows ordered (t, lead)
    row_x = (base[:, None, :] + nodes[::n, :-1] @ b[:, :-1].T).reshape(-1, d)
    fld = interp.field
    lo = fld.origin
    hi = fld.origin + fld.spacing * (np.array(fld.shape) - 1)
    scale = np.abs(lo).max() + np.abs(hi).max() + np.abs(row_x).max(initial=0.0)
    slack = 1e-9 * (scale + quad.halfwidth)  # far above rounding in the node points
    lo, hi = lo - slack, hi + slack
    y_lo = np.full(row_x.shape[0], -np.inf)
    y_hi = np.full(row_x.shape[0], np.inf)
    for i, step in enumerate(b[:, -1]):
        x = row_x[:, i]
        if step == 0.0:  # the line runs parallel to this axis: it holds the whole row or none
            outside = (x < lo[i]) | (x > hi[i])
            y_lo[outside], y_hi[outside] = np.inf, -np.inf
        else:
            s_lo, s_hi = (lo[i] - x) / step, (hi[i] - x) / step
            np.maximum(y_lo, np.minimum(s_lo, s_hi), out=y_lo)
            np.minimum(y_hi, np.maximum(s_lo, s_hi), out=y_hi)
    y = nodes[:n, -1]
    j_lo = np.searchsorted(y, y_lo, side="left")  # first node at or above y_lo
    count = np.maximum(np.searchsorted(y, y_hi, side="right") - j_lo, 0)

    # gather the candidate nodes, row by row, and sum them per t point
    row = np.repeat(np.arange(n_t * n_lead), count)
    j = np.arange(row.size) - np.repeat(np.cumsum(count) - count - j_lo, count)
    t_idx, node = np.divmod(row, n_lead)
    node = node * n + j
    offsets = (nodes @ b.T).T
    pts = np.empty((d, row.size))
    for i in range(d):  # one 1-D take per coordinate; row gathers of (N, d) are slower
        np.add(base[:, i].take(t_idx), offsets[i].take(node), out=pts[i])
    vals = interp(pts.T)
    return np.bincount(t_idx, weights=weights[node] * vals, minlength=n_t).reshape(lead)


def forward(
    fld: GridField,
    frames: FrameSet,
    t_grid: TGrid,
    quad: QuadSpec | None = None,
    order: int = 3,
    threads: int | None = None,
) -> Sinogram:
    """k-plane transform of a grid field, sampled on frames x t-grid.

    The returned sinogram carries a generator handle so its underlying
    function can be re-evaluated exactly at rotated frame coordinates.
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

    def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return forward_at(interp, rows, pts, quad)

    def frame_block(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
        return forward_at(interp, rows, t_pts, quad, b)

    completions = complete_frame(frames)
    n_threads = _thread_count(threads)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            blocks = list(pool.map(frame_block, frames.rows, completions))
    else:
        blocks = [frame_block(rows, b) for rows, b in zip(frames.rows, completions)]
    return Sinogram(d, k, frames, t_grid, np.stack(blocks), generator)


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
    pts = grid.points()
    gauss = np.exp(-(pts**2).sum(axis=-1) / 2.0) / (2.0 * np.pi) ** (d / 2.0)
    fld = GridField(grid.origin, grid.spacing, grid.shape, gauss.reshape(grid.shape))
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
