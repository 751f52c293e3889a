"""Discrete k-plane transform, backprojection, and filtered backprojection.

forward() has two rules.  For hyperplanes (d - k = 1) it uses the Fourier
slice identity g^(alpha, sigma) = f^(sigma alpha): one zero-padded FFT of
the field serves every frame, the spectrum is gathered along each frame's
ray with an "exponential of semicircle" kernel (Barnett, Magland & af
Klinteberg 2019; Kaiser-Bessel gridding, Fessler & Sutton 2003, is the
classical form), and g is summed directly over the sigma samples at any t.
For d - k >= 2 forward_at integrates the field over the planes {x : A x = t}
by tensor trapezoid quadrature in the plane coordinates: an interpolating
ray-driven projector (Joseph 1982) vectorised over blocks of frames, which
works in the grid's index coordinates and reads only the nodes inside the
grid box, the rest contributing exact zeros.  backproject() is the dual:
the Haar mass of the Stiefel manifold times the frame average of g at
t = A x, so that ramp-filtered backprojection inverts the forward map.  For
d - k = 1 it is the exact transpose of the slice forward (a type-1 NUFFT:
the same kernel taps, spread instead of gathered, one padded FFT and the
same deapodization); for d - k >= 2 it reads the sinogram in blocks of
frames by one vectorised multilinear gather that is exactly 0 outside the
t-grid, through the kernel forward_at's order-1 reads use (fields.lerp_t).
Everything is pure and serial.  Work runs in blocks of whole frames of fixed
size, which bound peak memory and keep a block's arrays within the core's
cache.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import DomainError, TruncationWarning, check_size
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
from .geometry import FrameSet, RngSeed, _haar_rows, complete_frame, stiefel_total_mass


def frameset_circle(n: int) -> FrameSet:
    """Equiangular frames alpha(theta) = (cos, sin) over the full circle."""
    check_size(2 * n, f"cannot make {n} circle frames in one array")
    thetas = 2.0 * np.pi * np.arange(n) / n
    return FrameSet(np.stack([np.cos(thetas), np.sin(thetas)], -1)[:, None], "deterministic-circle")


def frameset_haar(d: int, k: int, n: int, seed: RngSeed) -> FrameSet:
    """n independent Haar frames drawn from the given seed."""
    return FrameSet(_haar_rows(d, k, n, seed), "monte-carlo", seed)


_SUPPORT_FLOOR = 1e-6  # values at most this times the peak count as negligible


def _support_radius(fld: GridField) -> float:
    """Radius around the grid center containing all non-negligible values."""
    peak = float(np.abs(fld.values).max())
    if peak == 0.0:
        return 0.0
    center = fld.origin + 0.5 * fld.spacing * (np.array(fld.shape) - 1)
    mask = np.abs(fld.values) > _SUPPORT_FLOOR * peak
    idx = np.argwhere(mask)
    coords = fld.origin + fld.spacing * idx
    return float(np.sqrt(((coords - center) ** 2).sum(axis=1)).max())


# Tensor quadrature nodes per forward_at block of whole frames (at least one
# frame).  Larger blocks raise peak RSS and, once their arrays outgrow the
# core's cache, cost time.
_BLOCK_NODES = 1 << 15


def _block_frames(n_t: int, quad: QuadSpec, k: int) -> int:
    """Frames per forward_at block for n_t t points and k plane axes."""
    return max(1, _BLOCK_NODES // (n_t * quad.nodes_per_axis**k))


def forward_at(
    interp: FieldInterpolator, rows: np.ndarray, t_pts: np.ndarray, quad: QuadSpec
) -> np.ndarray:
    """Quadrature of the field over the planes {x : A x = t} for each t point.

    rows is one (d-k) x d frame matrix A, or an (n, d-k, d) stack of them, and
    the result has shape t_pts.shape[:-1], or (n,) + that; t_pts has shape
    (..., d-k).  Each plane is parameterized as x = B y + A^T t with B the
    orthonormal completion of A (complete_frame) and y running over tensor
    trapezoid nodes in [-L, L]^k.

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
    b = np.reshape(complete_frame(rows), (-1, d, k))
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
    # bincount ignores numpy's error state.  Under "raise" the reads are finite
    # (an overflow there raised), so a sum that is not finite overflowed
    if np.geterr()["over"] == "raise" and not np.isfinite(out).all():
        raise FloatingPointError("overflow encountered in bincount")
    return out.reshape(shape)


# Fourier-slice rule (d - k = 1).  The kernel is the "exponential of
# semicircle" exp(beta (sqrt(1 - (2 z / W)^2) - 1)) on |z| <= W / 2 padded-grid
# cells (Barnett, Magland & af Klinteberg 2019), with their beta for 2x
# oversampling.  W and the gather budget were picked by measurement on a
# 2-core x86-64 VM (CHANGES.md): W = 6 holds the Gaussian oracle to about 2e-6
# of its peak (W = 4: 2e-4), and gathers of 2^16 taps keep the peak RSS of a
# radon3d pass within 4% of plane quadrature's (2^18 taps: +13%).
_ES_WIDTH = 6
_ES_BETA = 2.30 * _ES_WIDTH
_OVERSAMPLE = 2  # padded FFT length per axis, in grid lengths
_GATHER_TAPS = 1 << 16  # kernel taps per gather block; bounds peak memory
# Kernel taps per spread block (the backprojection at d - k = 1).  A pass still
# holds the forward's spectrum, through its sinogram's generator, while it
# spreads, so the spread must peak lower than the gather.  On the same VM a
# radon3d pass traced 3.36 MiB at 2^15 taps, against 4.02 MiB at 2^16 (about 5%
# faster) and 3.44 MiB for the multilinear gather it replaced; 2^14 taps was
# about 20% slower.
_SPREAD_TAPS = 1 << 15


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """The kernel at offsets z (padded-grid cells), |z| <= W / 2, less its value
    e^-beta at the ends, so that a tap at |z| = W / 2 weighs exactly 0 and the
    gathers at nu and -nu use mirrored taps."""
    root = np.sqrt(np.maximum(1.0 - (z * (2.0 / _ES_WIDTH)) ** 2, 0.0))
    return np.exp(_ES_BETA * (root - 1.0)) - np.exp(-_ES_BETA)


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 4 W Gauss-Legendre nodes and weights on [-1, 1], solved once per process."""
    return tuple(tuple(a) for a in np.polynomial.legendre.leggauss(4 * _ES_WIDTH))


def _es_transform(n: np.ndarray, size: int) -> np.ndarray:
    """int phi(z) cos(2 pi z n / size) dz at grid offsets n, by Gauss-Legendre."""
    s, w = map(np.array, _gauss_legendre())
    z = 0.25 * _ES_WIDTH * (s + 1.0)  # nodes on [0, W / 2]
    return 0.5 * _ES_WIDTH * (np.cos((2.0 * np.pi / size) * np.outer(n, z)) @ (w * _es_kernel(z)))


def _slice_lattice(spec: GridSpec, t_spacing: float) -> tuple[float, int]:
    """Period P = 2 R of the sigma lattice sigma_j = 2 pi j / P, with R the grid
    box's half-diagonal, and its top index J: sigma_J <= min(pi / h, pi / h_t)."""
    radius = 0.5 * spec.spacing * float(np.linalg.norm(np.array(spec.shape) - 1))
    return 2.0 * radius, int(radius / max(spec.spacing, t_spacing))


def _dot(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows @ x over the last axis, summed in a fixed order.

    A BLAS product may round a frame differently alone and in a stack.
    """
    out = rows[..., 0] * x[0]
    for i in range(1, len(x)):
        out += rows[..., i] * x[i]
    return out


class _SlicePlan:
    """The Fourier slice rule's lattices for one grid and t-spacing (d - k = 1).

    The sigma samples are sigma_j = 2 pi j / P, j = 1..J (_slice_lattice).
    The field lives on a lattice padded _OVERSAMPLE times per axis, node n
    stored at (n - lead) mod size, so that phases are about the reference
    node ref.  Its spectrum is held as numpy's half lattice of the last axis,
    widened by the columns the kernel reaches past either end: dims cells,
    holding columns -(W/2 - 1) .. N/2 + W/2 (N = size[-1]).  taps() is the
    one per-axis tap plan of the ES kernel: the forward gathers through it
    and the backprojection spreads through it.
    """

    def __init__(self, spec: GridSpec, t_spacing: float):
        self.period, self.top = _slice_lattice(spec, t_spacing)
        if self.period == 0.0:
            raise DomainError("the Fourier slice rule needs a grid of more than one node")
        d, h, shape = spec.d, spec.spacing, spec.shape
        self.d, self.size = d, [_OVERSAMPLE * n for n in shape]
        lead = np.array([n // 2 for n in shape])  # the reference node
        self.offsets = [np.arange(n) - c for n, c in zip(shape, lead)]
        self.left, self.half = _ES_WIDTH // 2 - 1, self.size[-1] // 2
        self.dims = (*self.size[:-1], self.left + self.half + 1 + _ES_WIDTH // 2)
        self.ref = spec.origin + h * lead
        self.center = spec.origin + 0.5 * h * (np.array(shape) - 1)
        self.j = np.arange(1, self.top + 1, dtype=float)
        self.sigma = (2.0 * np.pi / self.period) * self.j
        # padded cells per j per unit alpha_i
        self.scale = h * np.array(self.size, dtype=float) / self.period
        per_frame = max(1, self.top * _ES_WIDTH**d)
        self.block = max(1, _GATHER_TAPS // per_frame)  # frames per gather block
        self.spread_block = max(1, _SPREAD_TAPS // per_frame)
        self.neg = np.ix_(*[(-np.arange(s)) % s for s in self.size[:-1]])  # -xi, other axes

    def deapodize(self, values: np.ndarray, factor: float) -> np.ndarray:
        """factor * values / phi^(n - lead) on the grid, one axis at a time."""
        out = values * factor
        for i, (off, s) in enumerate(zip(self.offsets, self.size)):
            out = out / _es_transform(off, s).reshape((-1,) + (1,) * (self.d - 1 - i))
        return out

    def extension(self):
        """(column, source column, mirrored) for each stored column past the half
        lattice: a copy of its source, or, mirrored, conj of its source at -xi."""
        left, half, n = self.left, self.half, self.size[-1]
        for c in (*range(-left, 0), *range(half + 1, half + 1 + _ES_WIDTH // 2)):
            r = c % n
            if r <= half:  # only when the last axis is shorter than the kernel
                yield left + c, left + r, False
            else:
                yield left + c, left + n - r, True

    def taps(self, alpha: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Flat stored cells, shape (W,) * d + (n J,), and per-axis kernel weights,
        (W, n J) each, of the samples sigma_j alpha of n frames, frame-major."""
        idx, weights = np.zeros(len(alpha) * self.top, dtype=np.intp), []
        taps = np.arange(_ES_WIDTH)[:, None]
        for i in range(self.d):
            # the samples' padded-grid coordinates
            nu = ((alpha[:, i] * self.scale[i])[:, None] * self.j).reshape(-1)
            lo = np.floor(nu - 0.5 * _ES_WIDTH) + 1.0  # first tap
            weights.append(_es_kernel(nu - lo - taps))
            cells = lo.astype(np.intp) + taps
            if i < self.d - 1:
                cells %= self.size[i]
            else:  # the stored columns start at -(W/2 - 1)
                cells += self.left
            idx = idx[..., None, :] * self.dims[i] + cells
        return idx, weights

    def spread(self, alpha: np.ndarray, parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The transpose of a gather of the samples sigma_j alpha: a fresh widened
        half lattice holding, in its re and im, the sum of parts (of Re and of
        Im of each sample, frame-major) times each tap's W^d weight product,
        with the columns past the half lattice folded back onto their sources.

        The taps add by np.add.at, one block of whole frames at a time: unlike
        np.bincount it allocates no lattice-sized sum per block and keeps
        numpy's error state.
        """
        lattice = np.zeros(self.dims, dtype=complex)
        re_im = lattice.reshape(-1).view(float).reshape(-1, 2).T  # strided views
        for f0 in range(0, len(alpha), self.spread_block):
            idx, weights = self.taps(alpha[f0:f0 + self.spread_block])
            idx = idx.reshape(-1)
            lead = weights[0]
            for w in weights[1:-1]:
                lead = lead[..., None, :] * w
            for acc, part in zip(re_im, parts):
                w = weights[-1] * part[f0:f0 + self.spread_block].reshape(-1)
                np.add.at(acc, idx, (lead[..., None, :] * w).reshape(-1))
        for c, src, mirrored in self.extension():
            col = lattice[..., c]
            lattice[..., src] += np.conjugate(col[self.neg]) if mirrored else col
        return lattice

    def cos_sin(self, t: np.ndarray) -> np.ndarray:
        """(2J, T): cos(sigma_j t) over -sin(sigma_j t), g's basis at t points."""
        phase = self.sigma[:, None] * t
        return np.concatenate([np.cos(phase), -np.sin(phase)])

    def outside(self, alpha: np.ndarray, t: np.ndarray) -> np.ndarray:
        """(n, T) mask of |t - alpha . c| > R: where g is exactly 0."""
        return np.abs(t - _dot(alpha, self.center)[:, None]) > 0.5 * self.period


def _slice_generator(fld: GridField, t_spacing: float):
    """g(alpha, t) of a grid field by the Fourier slice identity, for d - k = 1.

    The field's spectrum F(xi) = h^d sum_n f_n e^{-i xi . x_n} is one
    zero-padded real FFT of the deapodized field, held on _SlicePlan's widened
    half lattice (the columns past either end through F(-xi) = conj F(xi)).
    F(sigma_j alpha) is gathered from it with the ES kernel on W^d taps, a
    frame with alpha_d < 0 at -alpha and then conjugated, and
    g(alpha, t) = (1/P) [F(0) + 2 Re sum_{j=1..J} F(sigma_j alpha) e^{i sigma_j t}]
    is summed directly at any t, one stacked matmul per gather block; it is
    exactly 0 where |t - alpha . c| > R, c being the box center.  The returned
    function takes one (1, d) frame or an (n, 1, d) stack and (..., 1) t
    points.  Every step is elementwise, a fixed-order loop or one product per
    frame, so a frame gives the same bits alone and in any stack; the gather
    runs in blocks of whole frames of up to _GATHER_TAPS taps.  A grid of one
    node has no box to project and raises DomainError.
    """
    plan = _SlicePlan(fld.spec, t_spacing)
    d, h, size, left, half = fld.d, fld.spacing, plan.size, plan.left, plan.half
    deapod = plan.deapodize(fld.values, 2.0 * h**d / plan.period)
    # columns 0 .. N/2 are numpy's rfftn of the padded field, done in place (the
    # last axis only on the rows that hold the field)
    spectrum = np.zeros(plan.dims, dtype=complex)
    inner = spectrum[..., left:left + half + 1]
    rows = np.zeros(fld.shape[:-1] + (size[-1],))
    rows[..., plan.offsets[-1] % size[-1]] = deapod
    inner[np.ix_(*[off % s for off, s in zip(plan.offsets[:-1], size[:-1])])] = np.fft.rfft(rows)
    del rows
    for i in range(d - 2, -1, -1):
        np.fft.fft(inner, axis=i, out=inner)
    for c, src, mirrored in plan.extension():
        if mirrored:
            np.conjugate(spectrum[..., src][plan.neg], out=spectrum[..., c])
        else:
            spectrum[..., c] = spectrum[..., src]
    spectrum = spectrum.reshape(-1).view(float).reshape(-1, 2)  # (re, im) per cell
    dc = h**d * float(fld.values.sum()) / plan.period

    def gather(alpha: np.ndarray) -> np.ndarray:
        """Re and im of (2/P) h^d e^{i sigma_j alpha . ref} F(sigma_j alpha), (2, n, J)."""
        idx, weights = plan.taps(alpha)
        vals = spectrum.take(idx, axis=0).reshape(idx.shape[:-1] + (2 * idx.shape[-1],))
        for w in reversed(weights):  # fold the last tap axis, one tap at a time
            w = np.repeat(w, 2, axis=1)  # each sample's weight twice, for its re and im
            acc = vals[..., 0, :] * w[0]
            for q in range(1, _ES_WIDTH):
                acc += vals[..., q, :] * w[q]
            vals = acc
        return np.moveaxis(vals.reshape(len(alpha), plan.top, 2), -1, 0)

    def generator(rows: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
        out_shape = np.shape(rows)[:-2] + np.shape(t_pts)[:-1]
        alpha = np.asarray(rows, dtype=float).reshape(-1, d)
        t = np.asarray(t_pts, dtype=float).reshape(-1)
        cos_sin = plan.cos_sin(t)  # shared by every frame
        out = np.empty((len(alpha), t.size))
        for f0 in range(0, len(alpha), plan.block):
            a = alpha[f0:f0 + plan.block]
            flip = a[:, -1] < 0.0  # gathered at -alpha: F(sigma alpha) = conj F(-sigma alpha)
            f_re, f_im = gather(np.where(flip[:, None], -a, a))
            f_im[flip] *= -1.0
            # to (2/P) F(sigma alpha): phases about t = 0
            shift = _dot(a, plan.ref)[:, None] * plan.sigma
            c, s = np.cos(shift), np.sin(shift)
            g_re, g_im = f_re * c + f_im * s, f_im * c - f_re * s
            # one BLAS product per frame: a frame sums alike alone and in a stack (2-D @ may not)
            acc = (np.concatenate([g_re, g_im], 1)[:, None, :] @ cos_sin)[:, 0, :] + dc
            acc[plan.outside(a, t)] = 0.0
            out[f0:f0 + plan.block] = acc
        return out.reshape(out_shape)

    return generator


def _slice_coefficients(plan: _SlicePlan, sino: Sinogram) -> tuple[np.ndarray, tuple, float]:
    """The transpose of the generator's steps after its gather, applied to sino.

    Returns the frames as gathered (alpha, or -alpha where alpha_d < 0), the
    coefficients of Re and of Im of each gathered sample, (n, J) each, and the
    coefficient of the constant term: the mask |t - alpha . c| <= R, the
    direct sum over t (one matmul for all frames), the phase about the
    reference node and the conjugation of flipped frames, in reverse order.
    Its temporaries are freed before the spread, whose peak sets the pass's.
    """
    t = sino.t_grid.axes()[0]
    alpha = sino.frames.rows[:, 0]
    vals = np.where(plan.outside(alpha, t), 0.0, sino.values)
    coef = vals @ plan.cos_sin(t).T  # (n, 2J): of Re and of Im of each phased sample
    a, b = coef[:, :plan.top], coef[:, plan.top:]
    shift = _dot(alpha, plan.ref)[:, None] * plan.sigma
    c, s = np.cos(shift), np.sin(shift)
    flip = alpha[:, -1] < 0.0
    parts = (a * c - b * s, np.where(flip[:, None], -1.0, 1.0) * (a * s + b * c))
    return np.where(flip[:, None], -alpha, alpha), parts, float(vals.sum())


def _slice_transpose(sino: Sinogram, grid: GridSpec) -> np.ndarray:
    """The exact transpose of _slice_generator's forward onto grid, applied to
    sino's values and scaled by h_t / (P h^d): what backproject() averages.

    After _slice_coefficients, each step transposes one step of the forward,
    in reverse order: the gather, as a spread of the same taps, with the
    copies of the columns past the half lattice folded back (_SlicePlan.spread);
    the leading axes' FFTs, and the last axis's real FFT on the rows that hold
    the grid only; the deapodization.  Like the forward, it holds one widened
    half lattice and one block of taps.
    """
    plan = _SlicePlan(grid, sino.t_grid.spacing)
    alpha, parts, total = _slice_coefficients(plan, sino)
    z = plan.spread(alpha, parts)
    # in (re, im) coordinates the transpose of the FFT is the unnormalized
    # inverse FFT.  The leading axes run in place on the whole lattice, as in
    # the forward (the folded columns past the half lattice ride along and are
    # dropped): per-axis copies of the grid's rows were as fast but raised a
    # radon3d run's peak RSS by 0.4 MiB through heap retention
    for i in range(grid.d - 1):
        np.fft.ifft(z, axis=i, norm="forward", out=z)
    z = z[np.ix_(*[off % s for off, s in zip(plan.offsets[:-1], plan.size[:-1])],
                 np.arange(plan.left, plan.left + plan.half + 1))]
    z[..., 1:plan.half] *= 0.5  # irfft counts these columns twice, as a conjugate pair
    z = np.fft.irfft(z, n=plan.size[-1], axis=-1, norm="forward")
    z = z.take(plan.offsets[-1] % plan.size[-1], axis=-1)
    return (plan.deapodize(z, 2.0) + total) * (sino.t_grid.spacing / plan.period)


def forward_rule(spec: GridSpec, frames: FrameSet, t_grid: TGrid,
                 quad: QuadSpec | None = None) -> dict:
    """The rule forward() applies and its samples per (frame, t point).

    "fourier-slice" (d - k = 1) with its count of sigma samples, sigma_0 = 0
    included; else "plane-quadrature" with its tensor node count.
    """
    if frames.d - frames.k == 1:
        top = _slice_lattice(spec, t_grid.spacing)[1]
        return {"name": "fourier-slice", "sigma_samples": top + 1}
    quad = QuadSpec.default_for(spec) if quad is None else quad
    return {"name": "plane-quadrature", "quad_nodes": quad.nodes_per_axis**frames.k}


def forward(
    fld: GridField,
    frames: FrameSet,
    t_grid: TGrid,
    quad: QuadSpec | None = None,
    order: int = 3,
    threads: int | None = None,
) -> Sinogram:
    """k-plane transform of a grid field of the frames' dimension d, on frames x t-grid.

    For d - k = 1 (hyperplanes) the values come from the Fourier slice
    identity (_slice_generator: one padded FFT, a kernel gather per frame and
    a direct sum over the sigma samples); quad and order are unused there.
    A t-grid that does not hold the field's support, projected on every
    frame, raises a TruncationWarning.

    For d - k >= 2 all frames go through one forward_at call (plane
    quadrature); a quadrature halfwidth below the field's support radius
    raises a TruncationWarning.

    threads is ignored: every run is serial.

    The returned sinogram carries a generator handle so its underlying
    function can be re-evaluated exactly at rotated frame coordinates; it is
    the same code with one frame or a stack, so forward values equal
    generator values bit for bit.
    """
    d, k = frames.d, frames.k
    if t_grid.m != d - k:
        raise DomainError(f"t-grid dimension {t_grid.m} != d-k = {d - k}")
    if fld.d != d:
        raise DomainError(f"field dimension {fld.d} != frame d = {d}")
    support_radius = _support_radius(fld)
    if d - k == 1:
        center = fld.origin + 0.5 * fld.spacing * (np.array(fld.shape) - 1)
        reach = frames.rows[:, 0] @ center
        t_lo = float(t_grid.origin[0])
        t_hi = t_lo + t_grid.spacing * (t_grid.shape[0] - 1)
        if reach.min() - support_radius < t_lo or reach.max() + support_radius > t_hi:
            warnings.warn(
                f"the field support, radius {support_radius:.3g} about the grid center, "
                f"projects outside the t-grid [{t_lo:.3g}, {t_hi:.3g}] on some frames; "
                "the sinogram may be truncated",
                TruncationWarning,
                stacklevel=2,
            )
        generator = _slice_generator(fld, t_grid.spacing)
        return Sinogram(frames, t_grid, generator(frames.rows, t_grid.points()), generator)
    if quad is None:
        quad = QuadSpec.default_for(fld.spec)
    if quad.halfwidth < support_radius:
        warnings.warn(
            f"quadrature halfwidth {quad.halfwidth} is below the field support "
            f"radius {support_radius:.3g}; plane integrals may be truncated",
            TruncationWarning,
            stacklevel=2,
        )
    interp = FieldInterpolator(fld, order=order)
    values = forward_at(interp, frames.rows, t_grid.points(), quad)
    return Sinogram(frames, t_grid, values, lambda rows, pts: forward_at(interp, rows, pts, quad))


def backproject_rule(grid: GridSpec, t_grid: TGrid) -> dict:
    """The rule backproject() applies on grid to a sinogram on t_grid.

    "fourier-slice-transpose" (d - k = 1) with its count of sigma samples,
    sigma_0 = 0 included, and kernel width W; else "multilinear-gather".
    """
    if t_grid.m == 1:
        top = _slice_lattice(grid, t_grid.spacing)[1]
        return {"name": "fourier-slice-transpose", "sigma_samples": top + 1,
                "kernel_width": _ES_WIDTH}
    return {"name": "multilinear-gather"}


def backproject(
    sino: Sinogram, grid: GridSpec, threads: int | None = None
) -> GridField:
    """Dual transform: Haar mass times the frame average of g(A, A x).

    For d - k = 1 it is the exact transpose of forward()'s Fourier slice rule
    on grid, with respect to sino_dot and field_dot (_slice_transpose: the
    sinogram's sigma coefficients, one spread of the same ES-kernel taps, one
    padded FFT and the same deapodization).  A grid box whose projection
    leaves the t-grid on some frame raises a truncation warning.

    For d - k >= 2 it reads g multilinearly in t, never across frames.  A
    block of about 2^14 frames x grid points is read at once: its t-grid index
    coordinates u = (A x - o) / h come from one small matrix product with the
    grid's index points and are read by one gather (fields.lerp_t).  Grid
    points whose A x leaves the t-grid on any axis read exactly 0 and raise a
    truncation warning.

    threads is ignored: every run is serial.
    """
    d, tg = grid.d, sino.t_grid
    if d != sino.d:
        raise DomainError(f"grid dimension {d} != sinogram d = {sino.d}")
    mass = stiefel_total_mass(sino.d, sino.k)
    if sino.m == 1:
        half = 0.5 * grid.spacing * (np.array(grid.shape) - 1)  # the box's half-widths
        alpha = sino.frames.rows[:, 0]
        mid, reach = alpha @ (grid.origin + half), np.abs(alpha) @ half
        t_lo = float(tg.origin[0])
        t_hi = t_lo + tg.spacing * (tg.shape[0] - 1)
        slack = 1e-9 * tg.spacing  # rounding in A x must not warn on an exact fit
        if (mid - reach).min() < t_lo - slack or (mid + reach).max() > t_hi + slack:
            warnings.warn(
                f"the grid box projects outside the t-grid [{t_lo:.3g}, {t_hi:.3g}] on some "
                "frames; the backprojection may be truncated",
                TruncationWarning,
                stacklevel=2,
            )
        return GridField(grid.origin, grid.spacing, grid.shape,
                         (mass / sino.n_frames) * _slice_transpose(sino, grid))
    # u[j][f] = coef[j, f] . cells + shift[j, f], with cells the grid's index points
    rows = np.swapaxes(sino.frames.rows, 0, 1)  # (m, n, d)
    coef = rows * (grid.spacing / tg.spacing)
    shift = ((rows @ grid.origin - tg.origin[:, None]) / tg.spacing)[..., None]
    cells = np.indices(grid.shape, dtype=float).reshape(d, -1)
    flat = sino.values.reshape(-1)
    block = max(1, (1 << 14) // grid.size)  # frames per gather; larger blocks raise peak RSS
    total = np.zeros(grid.size)
    truncated = 0
    for f0 in range(0, sino.n_frames, block):
        f = slice(f0, min(f0 + block, sino.n_frames))
        u = coef[:, f] @ cells
        u += shift[:, f]
        base = (tg.size * np.arange(f.start, f.stop, dtype=float))[:, None]
        vals, outside = lerp_t(flat, tg.shape, u, base)
        total += vals.sum(axis=0)
        truncated += outside
    if truncated:
        warnings.warn(
            f"{truncated} of {sino.n_frames * grid.size} backprojection reads "
            "fell outside the t-grid and were treated as 0",
            TruncationWarning,
            stacklevel=2,
        )
    return GridField(grid.origin, grid.spacing, grid.shape, (mass / sino.n_frames) * total)


def fbp(sino: Sinogram, grid: GridSpec, pad_factor: float = 2.0) -> GridField:
    """Filtered backprojection: backproject the ramp-filtered sinogram, by the
    transpose of the slice forward at d - k = 1 and the multilinear gather
    at d - k >= 2 (backproject_rule)."""
    return backproject(ramp_filter(sino, pad_factor=pad_factor), grid)


def calibrate_gain(frames: FrameSet, grid: GridSpec, t_grid: TGrid, quad: QuadSpec | None = None,
                   order: int = 1, pad_factor: float = 2.0) -> float:
    """End-to-end scale check of the inversion identity on the unit Gaussian.

    Runs forward + fbp on the standard Gaussian density on grid and returns
    the least-squares scalar s minimizing ||s * fbp - truth||; s should be 1
    up to discretization error.  Guards the Haar-mass convention.
    """
    fld = gaussian_field(grid)
    sino = forward(fld, frames, t_grid, quad, order=order)
    recon = fbp(sino, grid, pad_factor)
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
    weight = 1.0 if m_order == 0 else sino.t_grid.points()[:, n - 1]  # t_n^m
    return sino.t_grid.cell_volume() * (sino.values.reshape(sino.n_frames, -1) * weight).sum(axis=1)


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
    if not same_frames or not same_grid(a.t_grid, b.t_grid):
        raise DomainError("sinograms must share frames and t-grid")
    mass = stiefel_total_mass(a.d, a.k)
    per_frame = (a.values * b.values).reshape(a.n_frames, -1).sum(axis=1)
    return float(mass * per_frame.mean() * a.t_grid.cell_volume())


def sino_norm(a: Sinogram) -> float:
    return float(np.sqrt(max(0.0, sino_dot(a, a))))


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
