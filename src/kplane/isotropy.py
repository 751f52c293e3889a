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
    RngSeed,
    align_rotation,
    haar_orthogonal_sample,
    stiefel_total_mass,
)
from .transform import FrameSet, backproject, forward

DEFAULT_CHORDAL_TOL = 0.15
DEFAULT_N_ROTATIONS = 64


def _t_grid_symmetric(t_grid: TGrid) -> bool:
    hi = t_grid.origin + t_grid.spacing * (np.array(t_grid.shape) - 1)
    return bool(np.allclose(t_grid.origin, -hi, atol=1e-9 * t_grid.spacing))


def _lookup_eval(sino: Sinogram, rows: np.ndarray, t_pts: np.ndarray,
                 tol: float, frame_rows: np.ndarray) -> np.ndarray:
    """Evaluate a free-standing sinogram at an arbitrary frame by proximity.

    Uses the nearest stored frame in the embedded (Frobenius) metric, then
    interpolates its t-block; valid when the stored frames sample the
    manifold densely enough that the nearest frame is within ``tol``.
    frame_rows stacks the stored frames' rows, shape (n_frames, d-k, d); on
    a tie the first stored frame wins.
    """
    dists = np.linalg.norm(frame_rows - rows, axis=(1, 2))
    j = int(np.argmin(dists))
    if dists[j] > tol:
        raise DomainError(
            f"no stored frame within chordal tolerance {tol} (nearest {dists[j]:.3f}) "
            "and the sinogram has no generator"
        )
    return interp_t_block(sino.values[j], sino.t_grid, t_pts)


def _eval_at(sino: Sinogram, rows: np.ndarray, t_pts: np.ndarray, tol: float,
             frame_rows: np.ndarray) -> np.ndarray:
    if sino.generator is not None:
        return sino.generator(rows, t_pts)
    return _lookup_eval(sino, rows, t_pts, tol, frame_rows)


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
    if not _t_grid_symmetric(sino.t_grid):
        raise DomainError("project_iso needs a t-grid symmetric about 0")
    m = sino.m
    t_pts = sino.t_grid.points()
    frame_rows = np.stack([fr.rows for fr in sino.frames])

    if m == 1:
        flipped = np.empty_like(sino.values)
        for i, fr in enumerate(sino.frames):
            vals = _eval_at(sino, -fr.rows, -t_pts, chordal_tol, frame_rows)
            flipped[i] = vals.reshape(sino.t_grid.shape)
        out = 0.5 * (sino.values + flipped)
        base_gen = sino.generator

        def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
            a = base_gen(rows, pts)
            b = base_gen(-rows, -np.asarray(pts))
            return 0.5 * (a + b)

        return sino.copy_with(out, generator if base_gen is not None else None)

    if rng is None:
        rng = RngSeed(0, 0)
    gen = rng.generator()
    rotations = [haar_orthogonal_sample(m, gen).mat for _ in range(n_rotations)]

    acc = np.zeros_like(sino.values)
    for u in rotations:
        rotated_t = t_pts @ u.T
        for i, fr in enumerate(sino.frames):
            vals = _eval_at(sino, u @ fr.rows, rotated_t, chordal_tol, frame_rows)
            acc[i] += vals.reshape(sino.t_grid.shape)
    acc /= n_rotations
    base_gen = sino.generator

    def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts)
        total = None
        for u in rotations:
            vals = base_gen(u @ rows, pts @ u.T)
            total = vals if total is None else total + vals
        return total / len(rotations)

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
    frames = FrameSet(tuple(sino.frames), "monte-carlo")
    return forward(fld, frames, sino.t_grid, quad, order=order, threads=threads)


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


def _gauss_t(t_pts: np.ndarray, center: np.ndarray, width: float, m: int) -> np.ndarray:
    sq = ((t_pts - center) ** 2).sum(axis=-1)
    return np.exp(-sq / (2.0 * width**2)) / (2.0 * np.pi * width**2) ** (m / 2.0)


def render_delta_iso(
    atom: MollifiedAtom,
    frames: FrameSet,
    t_grid: TGrid,
    n_rotations: int = DEFAULT_N_ROTATIONS,
    rng: RngSeed | None = None,
) -> Sinogram:
    """Sinogram rendering of the isotropically projected, mollified Dirac.

    Averages product bumps centered at the rotated pairs (U A0, U t0) over
    Haar draws U; each bump has a Gaussian frame factor normalized over the
    frame set (unit discrete mass) and a normalized Gaussian t factor.  For
    d-k = 1 the average is the exact two-element enumeration of O(1); with
    n_rotations = 0 the rotation average is replaced by deterministic
    alignment transport (the bump at frame A is centered at V t0 with V the
    rotation best aligning A0 to A), which is exactly isotropic.
    """
    d, k = frames.d, frames.k
    m = d - k
    if (atom.frame.d, atom.frame.k) != (d, k):
        raise DomainError("atom frame must match the frame set's (d, k)")
    if atom.t_width < 2.0 * t_grid.spacing:
        raise DomainError(
            f"t_width {atom.t_width} not resolvable on spacing {t_grid.spacing}"
        )
    mass = stiefel_total_mass(d, k)
    t_pts = t_grid.points()
    n_fr = len(frames)
    rows = np.stack([fr.rows for fr in frames.frames])  # (n, m, d)

    def bump(center_rows: np.ndarray, center_t: np.ndarray) -> np.ndarray:
        d2 = ((rows - center_rows[None]) ** 2).sum(axis=(1, 2))
        w = np.exp(-d2 / (2.0 * atom.frame_width**2))
        scale = mass * w.mean()
        if scale <= 0.0:
            raise DomainError("frame bump has zero mass on this frame set")
        w /= scale
        tb = _gauss_t(t_pts, center_t, atom.t_width, m)
        return w[:, None] * tb[None, :]

    if m == 1:
        terms = [bump(atom.frame.rows, atom.offset), bump(-atom.frame.rows, -atom.offset)]
        vals = 0.5 * (terms[0] + terms[1])
    elif n_rotations == 0:
        # alignment transport: exactly isotropic, no Monte-Carlo noise
        d2 = np.empty(n_fr)
        centers = np.empty((n_fr, m))
        for i in range(n_fr):
            v = align_rotation(atom.frame.rows, rows[i])
            d2[i] = ((v @ atom.frame.rows - rows[i]) ** 2).sum()
            centers[i] = v @ atom.offset
        w = np.exp(-d2 / (2.0 * atom.frame_width**2))
        w /= mass * w.mean()
        tb = np.stack([_gauss_t(t_pts, c, atom.t_width, m) for c in centers])
        vals = w[:, None] * tb
    else:
        if rng is None:
            rng = RngSeed(0, 0)
        gen = rng.generator()
        vals = np.zeros((n_fr, t_pts.shape[0]))
        for _ in range(n_rotations):
            u = haar_orthogonal_sample(m, gen).mat
            vals += bump(u @ atom.frame.rows, u @ atom.offset)
        vals /= n_rotations

    return Sinogram(d, k, list(frames.frames), t_grid, vals.reshape((n_fr,) + t_grid.shape))
