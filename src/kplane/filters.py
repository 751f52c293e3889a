"""Isotropic Fourier-multiplier machinery.

The central object is the backprojection ("ramp") filter with frequency
response c_{d,k} ||omega||^k applied in the offset variable of a sinogram;
the same engine applies Bessel-potential, Gaussian, and tabulated radial
multipliers to grid fields.  Also here: Bessel-J evaluation, the radial
(Hankel) transform of isotropic profiles, and the radial-basis profile
rho_s obtained as the Green's function of the Bessel potential.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError
from .fields import GridField, Sinogram
from .geometry import c_constant, sphere_area

IMAG_RESIDUE_TOL = 1e-10


# --- radial multiplier specifications ---------------------------------------


@dataclass(frozen=True, eq=False)
class RadialSpec:
    """Isotropic multiplier defined by a radial frequency profile.

    kinds:
      ramp     params (d, k): profile c_{d,k} * rho^k, exactly 0 at rho = 0
      bessel   params (s, sign): profile (1 + rho^2)^(sign * s / 2)
      gaussian params (sigma,): profile exp(-sigma^2 rho^2 / 2)
      custom   params (rho_table, value_table): linear interpolation
    """

    kind: str
    params: tuple

    def profile(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.kind == "ramp":
            d, k = self.params
            out = c_constant(d, k) * rho**k
            return np.where(rho == 0.0, 0.0, out)
        if self.kind == "bessel":
            s, sign = self.params
            return (1.0 + rho**2) ** (sign * s / 2.0)
        if self.kind == "gaussian":
            (sigma,) = self.params
            return np.exp(-(sigma**2) * rho**2 / 2.0)
        if self.kind == "custom":
            rho_tab, val_tab = self.params
            return np.interp(rho, rho_tab, val_tab)
        raise DomainError(f"unknown radial kind {self.kind!r}")


def ramp_spec(d: int, k: int) -> RadialSpec:
    return RadialSpec("ramp", (d, k))


def bessel_spec(s: float, sign: int = 1) -> RadialSpec:
    if sign not in (1, -1):
        raise DomainError(f"bessel sign must be +1 or -1, got {sign}")
    return RadialSpec("bessel", (float(s), sign))


def gaussian_spec(sigma: float) -> RadialSpec:
    return RadialSpec("gaussian", (float(sigma),))


def custom_spec(rho_table: np.ndarray, value_table: np.ndarray) -> RadialSpec:
    rho_table = np.asarray(rho_table, dtype=float)
    value_table = np.asarray(value_table, dtype=float)
    if rho_table.shape != value_table.shape or rho_table.ndim != 1:
        raise DomainError("custom profile needs matching 1-d tables")
    return RadialSpec("custom", (rho_table, value_table))


# --- FFT application ---------------------------------------------------------


def _padded_size(n: int, pad_factor: float) -> int:
    if not 1.0 <= pad_factor < math.inf:
        raise DomainError(f"pad_factor must be >= 1 and finite, got {pad_factor}")
    size = int(math.ceil(pad_factor * n))
    return size + (size % 2)


def _apply_multiplier(values: np.ndarray, lead: int, spacing: float, spec: RadialSpec,
                      pad_factor: float) -> np.ndarray:
    """Radial multiplier on the signal axes after the first ``lead`` (batch) axes.

    Zero-pads each signal axis to pad_factor * N rounded up to the next even
    size, multiplies DFT bin m by the profile at rho = ||omega||_2 with
    omega_i = 2 pi freq_i(m) / (N_pad h), inverse-transforms and crops; the
    batch runs in chunks of about 4e6 padded points, one residue check each.
    """
    shape = values.shape[lead:]
    padded = tuple(_padded_size(n, pad_factor) for n in shape)
    freqs = [2.0 * np.pi * np.fft.fftfreq(n, d=spacing) for n in padded]
    prof = spec.profile(np.sqrt(sum(g**2 for g in np.meshgrid(*freqs, indexing="ij"))))
    if not np.all(np.isfinite(prof)):
        bad = np.unravel_index(int(np.argmin(np.isfinite(prof))), prof.shape)
        raise DomainError(f"multiplier not finite at frequency bin {bad}")
    batch = values.reshape((-1,) + shape)
    axes = tuple(range(1, 1 + len(shape)))
    crop = (slice(None),) + tuple(slice(0, n) for n in shape)
    out = np.empty(batch.shape)
    chunk = max(1, int(4e6 // int(np.prod(padded))))
    for start in range(0, len(batch), chunk):
        block = batch[start : start + chunk]
        buf = np.zeros(block.shape[:1] + padded)
        buf[crop] = block
        res = np.fft.ifftn(np.fft.fftn(buf, axes=axes) * prof, axes=axes)
        residue = float(np.abs(res.imag).max())
        if residue > IMAG_RESIDUE_TOL * max(1.0, float(np.abs(res.real).max())):
            raise DomainError(f"imaginary residue {residue:.3e} exceeds tolerance")
        out[start : start + chunk] = res.real[crop]
    return out.reshape(values.shape)


def apply_radial_array(
    values: np.ndarray, spacing: float, spec: RadialSpec, pad_factor: float = 2.0
) -> np.ndarray:
    """Apply an isotropic Fourier multiplier to every axis of a uniformly sampled block."""
    return _apply_multiplier(np.asarray(values, dtype=float), 0, spacing, spec, pad_factor)


def apply_radial(
    target: GridField | Sinogram, spec: RadialSpec, pad_factor: float = 2.0
) -> GridField | Sinogram:
    """Apply a radial multiplier to a field (d-dim) or per-frame to a sinogram."""
    if isinstance(target, GridField):
        out = apply_radial_array(target.values, target.spacing, spec, pad_factor)
        return GridField(target.origin, target.spacing, target.shape, out)
    if isinstance(target, Sinogram):
        out = _apply_multiplier(target.values, 1, target.t_grid.spacing, spec, pad_factor)
        return target.copy_with(out)
    raise DomainError(f"cannot filter {type(target)!r}")


def ramp_filter(sino: Sinogram, d: int | None = None, k: int | None = None,
                pad_factor: float = 2.0) -> Sinogram:
    """Backprojection filter: multiplier c_{d,k} ||omega||^k on each t-block."""
    d = sino.d if d is None else d
    k = sino.k if k is None else k
    if (d, k) != (sino.d, sino.k):
        raise DomainError(f"(d, k)=({d}, {k}) does not match sinogram ({sino.d}, {sino.k})")
    return apply_radial(sino, ramp_spec(d, k), pad_factor)


# --- Bessel functions ---------------------------------------------------------

_SUPPORTED_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0)


def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function of the first kind (``scipy.special.jv``) for orders
    {0, 1/2, 1, 3/2, 2} and x >= 0; a scalar argument gives a float."""
    if float(nu) not in _SUPPORTED_ORDERS:
        raise DomainError(f"unsupported Bessel order {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_j requires x >= 0")
    out = special.jv(float(nu), x)
    return float(out) if out.ndim == 0 else out


# --- Hankel transforms --------------------------------------------------------

_HANKEL_DIMS = (2, 3, 4, 5, 6)


def _radial_transform(x: np.ndarray, f: np.ndarray, n: int, y: np.ndarray) -> np.ndarray:
    """n-variate Fourier transform of the isotropic profile f(x) at radii y, by the
    trapezoid rule: hankel_profile's formula, or 2 int cos(y x) f(x) dx for n = 1."""
    nu = n / 2.0 - 1.0
    base = None if n == 1 else x**nu * f * x
    out = np.empty(y.shape)
    for i, r in np.ndenumerate(y):
        if n == 1:
            out[i] = 2.0 * np.trapezoid(np.cos(r * x) * f, x)
        elif r == 0.0:
            out[i] = sphere_area(n) * np.trapezoid(f * x ** (n - 1), x)
        else:
            kernel = bessel_j(nu, r * x) * base
            out[i] = (2.0 * np.pi) ** (n / 2.0) / r**nu * np.trapezoid(kernel, x)
    return out


def hankel_profile(t: np.ndarray, rho: np.ndarray, d: int, omega: np.ndarray) -> np.ndarray:
    """Radial frequency profile of an isotropic function on R^d.

    Evaluates rho_hat(w) = (2 pi)^(d/2) / w^(d/2 - 1)
                           * int_0^T J_{d/2-1}(w t) t^(d/2-1) rho(t) t dt
    by the trapezoid rule on the given samples; at w = 0 the limit is the
    total mass |S^(d-1)| * int rho(t) t^(d-1) dt.
    """
    if d not in _HANKEL_DIMS:
        raise DomainError(f"hankel_profile supports d in {_HANKEL_DIMS}, got {d}")
    t, rho = np.asarray(t, dtype=float), np.asarray(rho, dtype=float)
    if t.shape != rho.shape or t.ndim != 1:
        raise DomainError("t and rho must be matching 1-d sample arrays")
    return _radial_transform(t, rho, d, np.asarray(omega, dtype=float))


def inverse_radial_profile(omega: np.ndarray, prof: np.ndarray, n: int,
                           radii: np.ndarray) -> np.ndarray:
    """Inverse n-variate Fourier transform of an isotropic profile, on radii.

    Uses the (2 pi)^-n inverse convention; n = 1 reduces to the cosine
    transform, n = 2 to the J_0 Hankel transform.
    """
    omega, prof, radii = (np.asarray(a, dtype=float) for a in (omega, prof, radii))
    return _radial_transform(omega, prof, n, radii) / (2.0 * np.pi) ** n


# --- Green's function of the Bessel potential ---------------------------------


class RadialTable:
    """Cached radial profile with linear interpolation and on-demand extension.

    ``table`` is one (radii, values) tuple that growth replaces in a single
    assignment, so threads sharing the table read a consistent pair without a
    lock; growth itself is serialized, so no thread's extension is lost.
    """

    def __init__(self, radii: np.ndarray, values: np.ndarray,
                 extend: Callable[[np.ndarray], np.ndarray] | None = None):
        self.table = (np.asarray(radii, dtype=float), np.asarray(values, dtype=float))
        self._extend = extend
        self._grow = threading.Lock()

    def __call__(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        rmax = float(r.max()) if r.size else 0.0
        if rmax > self.table[0][-1] and self._extend is not None:
            with self._grow:
                radii, values = self.table
                if rmax > radii[-1]:  # extend-and-recompute to cover the request
                    step = radii[1] - radii[0]
                    new_r = np.arange(radii[-1] + step, rmax + 4 * step, step)
                    self.table = (np.concatenate([radii, new_r]),
                                  np.concatenate([values, self._extend(new_r)]))
        radii, values = self.table
        return np.interp(r, radii, values)


def green_rbf(s: float, n: int, r_max: float = 12.0, dr: float = 0.02) -> RadialTable:
    """Radial profile rho_s: inverse n-variate transform of (1 + ||w||^2)^(-s/2).

    Requires s > n so the profile is continuous and bounded at 0.  Evaluated
    through the heat-kernel representation
        rho_s(r) = Gamma(s/2)^-1 int_0^inf tau^((s-n)/2 - 1) e^-tau
                   (4 pi tau)^(-n/2) e^(-r^2 / 4 tau) dtau,
    a non-oscillatory integral computed to near machine precision on a
    log-spaced grid.  For n = 1, s = 2 this reproduces e^-|r| / 2.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not n < s < math.inf:
        raise DomainError(f"need finite s > n for a bounded atom, got s={s}, n={n}")
    try:
        gamma = math.gamma(s / 2.0)
    except OverflowError:
        raise DomainError(f"Gamma(s/2) overflows float64 for s={s}") from None

    def evaluate(radii: np.ndarray) -> np.ndarray:
        lo = -2.0 * 41.0 / (s - n) - 4.0  # tau^((s-n)/2) below 1e-18
        hi = math.log(60.0 + float(np.max(radii, initial=0.0)) * 2.0 + 4.0)
        u = np.arange(lo, hi, 0.02)
        tau = np.exp(u)
        # integrand of the tau integral times the log-substitution Jacobian tau;
        # an overflow for large s is caught by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            base = tau ** ((s - n) / 2.0) * np.exp(-tau) * (4.0 * np.pi) ** (-n / 2.0)
        out = np.empty(radii.shape)
        chunk = 256
        for start in range(0, radii.size, chunk):
            r = radii[start : start + chunk, None]
            vals = base[None, :] * np.exp(-(r**2) / (4.0 * tau[None, :]))
            out[start : start + chunk] = np.trapezoid(vals, u, axis=1)
        out /= gamma
        if not np.all(np.isfinite(out)):
            raise DomainError(f"rho_s overflows float64 for s={s}")
        return out

    radii = np.arange(0.0, r_max + dr, dr)
    return RadialTable(radii, evaluate(radii), extend=evaluate)
