"""Closed-form and semi-analytic oracles used to validate the discrete pipeline.

Gaussian plane integrals, Fourier-slice comparisons, radial (Hankel) routes
for isotropic functions, ridge-atom evaluation, and the phantom builders the
tests and CLI share (the Gaussian ones live in fields and are re-exported
here).  All Fourier factors follow the e^{-i xi.x} forward / (2 pi)^-d
inverse convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fields import (FieldInterpolator, GridField, GridSpec, QuadSpec, TGrid,
                     gaussian_field, mixture_field)
from .filters import RadialTable, green_rbf, hankel_profile, inverse_radial_profile
from .geometry import Frame
from .transform import forward_at


def gaussian_kplane(frame: Frame, t: np.ndarray, x0: np.ndarray) -> float | np.ndarray:
    """k-plane transform of the unit Gaussian centered at x0.

    Equals (2 pi)^(-(d-k)/2) exp(-||t - A x0||^2 / 2) for any frame A.
    """
    t = np.asarray(t, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (frame.d,):
        raise DomainError(f"x0 must have shape ({frame.d},)")
    m = frame.m
    diff = t - frame.rows @ x0
    sq = (np.asarray(diff) ** 2).sum(axis=-1) if diff.ndim > 1 else float(diff @ diff)
    return (2.0 * np.pi) ** (-m / 2.0) * np.exp(-sq / 2.0)


def slice_pair(
    fld: GridField,
    frame: Frame,
    omega: np.ndarray,
    t_grid: TGrid | None = None,
    quad: QuadSpec | None = None,
    order: int = 3,
) -> tuple[complex, complex]:
    """Both sides of the Fourier slice identity at one (frame, frequency) pair.

    lhs: (d-k)-dim Fourier quadrature of the forward-transform samples of the
    field at the given frame; rhs: d-dim Fourier quadrature of the field at
    the sliced frequency A^T omega.  For fields in the transform's range the
    two agree up to quadrature error.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (frame.m,):
        raise DomainError(f"omega must have shape ({frame.m},)")
    spec = fld.spec
    if t_grid is None:
        diag = spec.spacing * float(np.linalg.norm(np.array(spec.shape) - 1))
        n = 2 * max(spec.shape)
        t_grid = TGrid.centered(frame.m, n, diag / (n - 1))
    if quad is None:
        quad = QuadSpec.default_for(spec)

    t_pts = t_grid.points()
    sino_vals = forward_at(FieldInterpolator(fld, order=order), frame.rows, t_pts, quad)
    phase_t = np.exp(-1j * (t_pts @ omega))
    lhs = complex((sino_vals * phase_t).sum() * t_grid.cell_volume())

    xi = frame.rows.T @ omega
    pts = spec.points()
    phase_x = np.exp(-1j * (pts @ xi))
    rhs = complex((fld.values.ravel() * phase_x).sum() * spec.spacing**spec.d)
    return lhs, rhs


def isotropic_kplane(
    t_samples: np.ndarray,
    rho: np.ndarray,
    d: int,
    k: int,
    radii: np.ndarray,
    omega_max: float = 12.0,
    omega_step: float = 0.005,
) -> np.ndarray:
    """k-plane transform of an isotropic function, as a radial table in ||t||.

    Composes the d-dimensional Hankel transform of the radial profile with
    the inverse (d-k)-dimensional radial Fourier transform; the result is
    frame independent by construction.
    """
    omega = np.arange(0.0, omega_max + omega_step, omega_step)
    prof = hankel_profile(t_samples, rho, d, omega)
    return inverse_radial_profile(omega, prof, d - k, radii)


@dataclass(eq=False)
class RidgeAtom:
    """Weighted k-plane ridge a * profile(A0 x - t0).

    profile "gaussian" is the unit-width normalized Gaussian on R^(d-k);
    profile "rbf" is the radial-basis function rho_s (Green's function of the
    Bessel potential of order s), looked up from a cached radial table that
    extends itself when evaluated beyond its range.
    """

    weight: float
    frame: Frame
    offset: np.ndarray
    profile: str = "gaussian"
    s: float | None = None
    _table: RadialTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float)
        if self.offset.shape != (self.frame.m,):
            raise DomainError(f"offset must have shape ({self.frame.m},)")
        if not np.isfinite(self.weight) or not np.all(np.isfinite(self.offset)):
            raise DomainError("atom weight and offset must be finite")
        if self.profile not in ("gaussian", "rbf"):
            raise DomainError(f"unknown profile {self.profile!r}")
        if self.profile == "rbf":
            if self.s is None or not self.frame.m < self.s < np.inf:
                raise DomainError(
                    f"rbf profile needs finite s > d-k = {self.frame.m}, got {self.s}"
                )

    def table(self) -> RadialTable:
        if self._table is None:
            self._table = green_rbf(self.s, self.frame.m)
        return self._table


def ridge_eval(atom: RidgeAtom, x: np.ndarray) -> float | np.ndarray:
    """Evaluate the ridge at points x (shape (..., d))."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    arg = pts @ atom.frame.rows.T - atom.offset
    r = np.sqrt((arg**2).sum(axis=-1))
    if atom.profile == "gaussian":
        m = atom.frame.m
        vals = (2.0 * np.pi) ** (-m / 2.0) * np.exp(-(r**2) / 2.0)
    else:
        vals = atom.table()(r)
    out = atom.weight * vals
    return float(out[0]) if squeeze else out


def ridge_field(atom: RidgeAtom, spec: GridSpec) -> GridField:
    vals = ridge_eval(atom, spec.points()).reshape(spec.shape)
    return GridField(spec.origin, spec.spacing, spec.shape, vals)


# --- phantom builders ---------------------------------------------------------


def ridge_sum_field(spec: GridSpec, atoms) -> GridField:
    vals = np.zeros(spec.size)
    pts = spec.points()
    for atom in atoms:
        vals += ridge_eval(atom, pts)
    return GridField(spec.origin, spec.spacing, spec.shape, vals.reshape(spec.shape))


def mixture_centroid(means, weights) -> np.ndarray:
    """Mass-weighted centroid of a unit-Gaussian mixture divided by total mass."""
    means = [np.asarray(m, dtype=float) for m in means]
    total = float(sum(weights))
    if total == 0.0:
        raise DomainError("mixture has zero total mass")
    return sum(w * m for w, m in zip(weights, means)) / total
