"""Isotropic symmetry machinery on the k-plane domain.

The pairs (A, t) and (U A, U t) index the same k-plane, so functions in the
range of the forward transform are isotropic: invariant under that joint
rotation.  project_iso extracts the isotropic part of a sinogram by averaging
over a finite group G in O(d-k), a projector since G G = G; pk_project realizes
the range projector forward . backproject . ramp; render_delta_iso builds a
mollified rendering of the isotropically projected Dirac impulse, whose
backprojection is a ridge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, QuadSpec, Sinogram, TGrid
from .filters import ramp_filter
from .geometry import FRAME_TOL, Frame, FrameSet, RngSeed, align_rotation, stiefel_total_mass
from .transform import backproject, forward

DEFAULT_N_ROTATIONS = 64


def rotation_group(m: int, n_rotations: int = DEFAULT_N_ROTATIONS) -> np.ndarray:
    """(|G|, m, m) stack of a finite group G in O(m), the identity first: O(1) = {1, -1};
    at m = 2 the dihedral group of 2N = ``n_rotations`` elements (N turns by 2 pi j / N,
    then their reflections), whose average converges to the O(2) one exponentially in N
    for smooth g, as the trapezoid rule on the circle does (Trefethen & Weideman 2014);
    at m >= 3 the 2^m m! signed permutation matrices (48 at m = 3), n_rotations unread.
    """
    if m == 1:
        return np.array([[[1.0]], [[-1.0]]])
    if m == 2:
        if n_rotations < 2 or n_rotations % 2:
            raise DomainError(f"need an even n_rotations >= 2 at d-k = 2, got {n_rotations}")
        angle = 2.0 * np.pi * np.arange(n_rotations // 2) / (n_rotations // 2)
        cos, sin = np.cos(angle), np.sin(angle)
        turns = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
        return np.concatenate([turns, turns * [1.0, -1.0]])  # turn, then turn @ diag(1, -1)
    perms = np.eye(m)[list(itertools.permutations(range(m)))]  # (m!, m, m) row permutations
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=m)))
    return (signs[:, None, :, None] * perms).reshape(-1, m, m)


def _eval_at(sino: Sinogram, rows: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
    """Sinogram values at an (n, d-k, d) frame stack and shared t points, (n, P).

    One generator call when the sinogram has one.  Without one only d-k = 1 is
    served, where project_iso asks for g(-A, -t): the stored row of the frame
    equal to -A within FRAME_TOL (the first on a tie), reversed, which is exact
    on the symmetric t-grid.  Any frame without its antipode raises.
    """
    if sino.generator is not None:
        return sino.generator(rows, t_pts)
    if sino.m != 1:
        raise DomainError("project_iso at d-k >= 2 needs a sinogram with a generator")
    stored = sino.frames.rows
    block = max(1, (1 << 14) // len(stored))  # frames per search: <= 2^14 distances at once
    nearest = np.concatenate([
        np.linalg.norm(stored - rows[f0:f0 + block, None], axis=(2, 3)).argmin(axis=1)
        for f0 in range(0, len(rows), block)])
    dist = np.linalg.norm(stored[nearest] - rows, axis=(1, 2))
    if np.any(miss := dist > FRAME_TOL):
        raise DomainError(f"no stored frame within {FRAME_TOL} of -A (nearest "
                          f"{dist[miss][0]:.3e}) and the sinogram has no generator")
    return sino.values[nearest][..., ::-1]


def project_iso(
    sino: Sinogram,
    n_rotations: int = DEFAULT_N_ROTATIONS,
    rng: RngSeed | None = None,
) -> Sinogram:
    """Isotropic part of a sinogram: average of g(U A, U t) over U in G.

    G = rotation_group(d-k, n_rotations) is finite, so the projection is
    idempotent to rounding.  The identity term is the stored values; each other
    U is one _eval_at call on the whole frame stack U A at the points U t, and
    the sum is divided by |G|.  The result's generator is the same average over
    the base generator, on one frame or a stack.  The t-grid must be symmetric
    about 0; without a generator only d-k = 1 is served (see _eval_at).  rng is
    ignored: the group is fixed.
    """
    tg = sino.t_grid
    if not np.allclose(tg.origin, -(tg.origin + tg.spacing * (np.array(tg.shape) - 1)),
                       rtol=0.0, atol=1e-9 * tg.spacing):
        raise DomainError("project_iso needs a t-grid symmetric about 0")
    group = rotation_group(sino.m, n_rotations)
    base_gen = sino.generator

    def average(first, evaluate, rows, pts):
        for u in group[1:]:
            first = first + evaluate(u @ rows, pts @ u.T)
        return first / len(group)

    def generator(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return average(base_gen(rows, pts), base_gen, rows, pts)

    values = average(sino.values.reshape(sino.n_frames, -1),
                     lambda rows, pts: _eval_at(sino, rows, pts), sino.frames.rows, tg.points())
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
        if self.offset.shape != (self.frame.m,) or not np.all(np.isfinite(self.offset)):
            raise DomainError(f"offset must be {self.frame.m} finite values")
        for name in ("frame_width", "t_width"):
            if not 0.0 < getattr(self, name) < np.inf:  # also rejects NaN
                raise DomainError(f"{name} must be finite and positive, got {getattr(self, name)}")


def render_delta_iso(
    atom: MollifiedAtom,
    frames: FrameSet,
    t_grid: TGrid,
    n_rotations: int = DEFAULT_N_ROTATIONS,
) -> Sinogram:
    """Sinogram rendering of the isotropically projected, mollified Dirac.

    Averages product bumps centered at the rotated pairs (U A0, U t0): a
    Gaussian frame factor of unit discrete mass over the frame set times a
    normalized Gaussian t factor.  U runs over rotation_group(d-k, n_rotations),
    as in project_iso.  At d-k >= 2, n_rotations = 0 uses alignment transport
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
    if m >= 2 and n_rotations == 0:  # alignment transport: exactly isotropic
        rotations = [align_rotation(atom.frame.rows, rows)]
    else:
        rotations = rotation_group(m, n_rotations)

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
