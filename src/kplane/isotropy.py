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
    align_rotation,
    haar_orthogonal_sample,
    stiefel_total_mass,
)
from .transform import backproject, forward

DEFAULT_CHORDAL_TOL = 0.15
DEFAULT_N_ROTATIONS = 64


def _eval_at(sino: Sinogram, rows: np.ndarray, t_pts: np.ndarray, tol: float) -> np.ndarray:
    """Sinogram values at an arbitrary frame: from its generator when it has one,
    else from the t-block of the nearest stored frame (Frobenius metric, first on
    a tie), which must lie within ``tol``."""
    if sino.generator is not None:
        return sino.generator(rows, t_pts)
    dists = np.linalg.norm(sino.frames.rows - rows, axis=(1, 2))
    j = int(np.argmin(dists))
    if dists[j] > tol:
        raise DomainError(
            f"no stored frame within chordal tolerance {tol} (nearest {dists[j]:.3f}) "
            "and the sinogram has no generator"
        )
    return interp_t_block(sino.values[j], sino.t_grid, t_pts)


def project_iso(
    sino: Sinogram,
    n_rotations: int = DEFAULT_N_ROTATIONS,
    rng: RngSeed | None = None,
    chordal_tol: float = DEFAULT_CHORDAL_TOL,
) -> Sinogram:
    """Isotropic part of a sinogram: average of g(U A, U t) over Haar O(d-k).

    For d-k = 1 the average is exact over O(1) = {+1, -1}; otherwise it is a
    Monte-Carlo average over ``n_rotations`` Haar draws.  Values at rotated
    frames come from the sinogram's generator when it has one, else from
    nearest-frame lookup.  The t-grid must be symmetric about 0.
    """
    tg = sino.t_grid
    if not np.allclose(tg.origin, -(tg.origin + tg.spacing * (np.array(tg.shape) - 1)),
                       atol=1e-9 * tg.spacing):
        raise DomainError("project_iso needs a t-grid symmetric about 0")
    m, t_pts = sino.m, tg.points()
    # for d-k = 1 the identity term is the stored values (or the base generator)
    if m == 1:
        rotations, acc, count = [-np.eye(1)], sino.values.copy(), 2
    else:
        gen = (RngSeed(0, 0) if rng is None else rng).generator()
        rotations = [haar_orthogonal_sample(m, gen).mat for _ in range(n_rotations)]
        acc, count = np.zeros_like(sino.values), n_rotations
    for u in rotations:
        rotated_t = t_pts @ u.T
        for i, rows in enumerate(sino.frames.rows):
            acc[i] += _eval_at(sino, u @ rows, rotated_t, chordal_tol).reshape(tg.shape)
    acc /= count
    base_gen = sino.generator

    def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts)
        total = base_gen(rows, pts) if m == 1 else 0.0
        for u in rotations:
            total = total + base_gen(u @ rows, pts @ u.T)
        return total / count

    return sino.copy_with(acc, generator if base_gen is not None else None)


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
    the backprojection.
    """
    filtered = ramp_filter(sino, sino.d, sino.k, pad_factor)
    fld = backproject(filtered, grid, threads=threads)
    return forward(fld, sino.frames, sino.t_grid, quad, order=order, threads=threads)


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
    d-k = 1, else over Haar draws; n_rotations = 0 uses alignment transport
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
        gen = (RngSeed(0, 0) if rng is None else rng).generator()
        rotations = [haar_orthogonal_sample(m, gen).mat for _ in range(n_rotations)]

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

    return Sinogram(d, k, frames, t_grid, vals)
