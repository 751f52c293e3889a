"""Isotropic symmetry machinery on the k-plane domain.

The pairs (A, t) and (U A, U t) index the same k-plane, so functions in the
range of the forward transform are isotropic: invariant under that joint
rotation.  project_iso extracts the isotropic part of a sinogram by
averaging over the orthogonal group O(d-k); pk_project realizes the range
projector forward . backproject . ramp; render_delta_iso builds a mollified
rendering of the isotropically projected Dirac impulse, whose backprojection
is a ridge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, QuadSpec, Sinogram, TGrid, interp_t_block
from .filters import ramp_filter
from .geometry import (
    Frame,
    FrameSet,
    RngSeed,
    _haar_stack,
    align_rotation,
    stiefel_total_mass,
)
from .transform import backproject, forward

DEFAULT_CHORDAL_TOL = 0.15
DEFAULT_N_ROTATIONS = 64


def _eval_at(sino: Sinogram, rows: np.ndarray, t_pts: np.ndarray, tol: float) -> np.ndarray:
    """Sinogram values at an (n, d-k, d) frame stack and shared t points, (n, P).

    One generator call when the sinogram has one; else the t-blocks of each
    frame's nearest stored frame (Frobenius metric, first on a tie), which must
    lie within ``tol``.  For d-k = 1 the points are project_iso's -t, read
    exactly as the stored row reversed on its symmetric grid; for d-k >= 2 U t
    falls off the nodes, so one interp_t_block call reads it, and reads near
    the grid's edge (0 outside it) are inherent there.
    """
    if sino.generator is not None:
        return sino.generator(rows, t_pts)
    stored = sino.frames.rows
    block = max(1, (1 << 14) // len(stored))  # frames per search: <= 2^14 distances at once
    nearest = np.concatenate([
        np.linalg.norm(stored - rows[f0:f0 + block, None], axis=(2, 3)).argmin(axis=1)
        for f0 in range(0, len(rows), block)])
    dist = np.linalg.norm(stored[nearest] - rows, axis=(1, 2))
    if np.any(miss := dist > tol):
        raise DomainError(
            f"no stored frame within chordal tolerance {tol} (nearest {dist[miss][0]:.3f}) "
            "and the sinogram has no generator"
        )
    if sino.m == 1:
        return sino.values[nearest][..., ::-1]
    return interp_t_block(sino.values[nearest], sino.t_grid, t_pts)


def _haar_rotations(m: int, n_rotations: int, rng: RngSeed | None) -> np.ndarray:
    """(n, m, m) stack of Haar draws from O(m), one draw of rng (None: RngSeed(0, 0))."""
    if n_rotations < 1:
        raise DomainError(f"need n_rotations >= 1 for Haar rotations, got {n_rotations}")
    return _haar_stack(n_rotations, m, m, RngSeed(0, 0) if rng is None else rng)


def project_iso(
    sino: Sinogram,
    n_rotations: int = DEFAULT_N_ROTATIONS,
    rng: RngSeed | None = None,
    chordal_tol: float = DEFAULT_CHORDAL_TOL,
) -> Sinogram:
    """Isotropic part of a sinogram: average of g(U A, U t) over Haar O(d-k).

    For d-k = 1 the average is exact over O(1) = {+1, -1}; otherwise it is a
    Monte-Carlo average over ``n_rotations`` >= 1 Haar draws.  Each rotation U
    is one _eval_at call on the whole frame stack U A.  The result's generator
    is the same average over the base generator, on one frame or a stack.
    The t-grid must be symmetric about 0.  Without a generator the d-k = 1
    term is exact, so that projection is idempotent (see _eval_at).
    """
    tg, m = sino.t_grid, sino.m
    if not np.allclose(tg.origin, -(tg.origin + tg.spacing * (np.array(tg.shape) - 1)),
                       rtol=0.0, atol=1e-9 * tg.spacing):
        raise DomainError("project_iso needs a t-grid symmetric about 0")
    rotations = -np.eye(1)[None] if m == 1 else _haar_rotations(m, n_rotations, rng)
    base_gen = sino.generator

    def average(first, evaluate, rows, pts):
        # for d-k = 1 the identity term comes first: stored values or the base generator
        for u in rotations:
            first = first + evaluate(u @ rows, pts @ u.T)
        return first / (2 if m == 1 else n_rotations)

    def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return average(base_gen(rows, pts) if m == 1 else 0.0, base_gen, rows, pts)

    values = average(sino.values.reshape(sino.n_frames, -1) if m == 1 else 0.0,
                     lambda rows, pts: _eval_at(sino, rows, pts, chordal_tol),
                     sino.frames.rows, tg.points())
    return sino.copy_with(values, generator if base_gen is not None else None)


def pk_project(
    sino: Sinogram,
    grid: GridSpec,
    quad: QuadSpec | None = None,
    pad_factor: float = 2.0,
    order: int = 3,
    threads: int | None = None,
) -> Sinogram:
    """Range projector P_k = forward . backproject . ramp on the same frames.

    Fixes sinograms in the range of the forward transform and annihilates
    their anti-isotropic complement; the grid is the intermediate domain for
    the backprojection.  threads is ignored: every run is serial.
    """
    filtered = ramp_filter(sino, pad_factor=pad_factor)
    fld = backproject(filtered, grid)
    return forward(fld, sino.frames, sino.t_grid, quad, order=order)


@dataclass(eq=False)
class MollifiedAtom:
    """Mollified rendering parameters for the isotropic Dirac at (A0, t0).

    frame_width is the chordal scale of the frame-space bump; t_width the
    Gaussian width in the offset variable.  Rendered bumps are normalized to
    unit discrete mass.
    """

    frame: Frame
    offset: np.ndarray
    frame_width: float
    t_width: float

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float)
        if self.offset.shape != (self.frame.m,):
            raise DomainError(f"offset must have shape ({self.frame.m},)")
        if self.frame_width <= 0 or self.t_width <= 0:
            raise DomainError("mollification widths must be positive")


def render_delta_iso(
    atom: MollifiedAtom,
    frames: FrameSet,
    t_grid: TGrid,
    n_rotations: int = DEFAULT_N_ROTATIONS,
    rng: RngSeed | None = None,
) -> Sinogram:
    """Sinogram rendering of the isotropically projected, mollified Dirac.

    Averages product bumps centered at the rotated pairs (U A0, U t0): a
    Gaussian frame factor of unit discrete mass over the frame set times a
    normalized Gaussian t factor.  U runs over O(1) = {+1, -1} exactly for
    d-k = 1, else over n_rotations >= 1 Haar draws; 0 uses alignment transport
    instead (the bump at frame A is centered at V t0 with V the rotation best
    aligning A0 to A, all V from one batched SVD), which is exactly isotropic.

    The t factor is separable, so each frame's bump is its frame weight times
    one 1-D Gaussian per t-axis (outer products, first axis first): m x n
    exponentials a frame instead of n^m.  Bumps are written into the result
    in blocks of about 2^16 values, so the rendering allocates little beyond
    the result itself.
    """
    d, k, m = frames.d, frames.k, frames.d - frames.k
    if (atom.frame.d, atom.frame.k) != (d, k):
        raise DomainError("atom frame must match the frame set's (d, k)")
    if atom.t_width < 2.0 * t_grid.spacing:
        raise DomainError(
            f"t_width {atom.t_width} not resolvable on spacing {t_grid.spacing}"
        )
    mass, n_fr, axes = stiefel_total_mass(d, k), len(frames), t_grid.axes()
    rows = frames.rows  # (n, m, d)
    # each rotation list entry is one U, or an (n, m, m) stack of one U per frame
    if m == 1:
        rotations = [np.eye(1), -np.eye(1)]
    elif n_rotations == 0:
        # alignment transport: exactly isotropic, no Monte-Carlo noise
        rotations = [align_rotation(atom.frame.rows, rows)]
    else:
        rotations = _haar_rotations(m, n_rotations, rng)

    vals = np.zeros((n_fr, t_grid.size))
    tw2 = atom.t_width**2
    norm = (2.0 * np.pi * tw2) ** (m / 2.0) * len(rotations)
    block = max(1, (1 << 16) // t_grid.size)  # frames per write
    for u in rotations:
        d2 = ((rows - u @ atom.frame.rows) ** 2).sum(axis=(1, 2))
        w = np.exp(-d2 / (2.0 * atom.frame_width**2))
        scale = mass * w.mean()
        if scale <= 0.0:
            raise DomainError("frame bump has zero mass on this frame set")
        w = w / (scale * norm)
        # one row per centre: per frame, or a single row all frames share
        centres = (u @ atom.offset).reshape(-1, m)
        gauss = [np.exp(-(ax - centres[:, j, None]) ** 2 / (2.0 * tw2))
                 for j, ax in enumerate(axes)]
        for f0 in range(0, n_fr, block):
            f = slice(f0, f0 + block)
            bump = w[f, None]
            for g in gauss:
                g = g if len(g) == 1 else g[f]
                bump = (bump[:, :, None] * g[:, None, :]).reshape(len(bump), -1)
            vals[f] += bump

    return Sinogram(frames, t_grid, vals)
