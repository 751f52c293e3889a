"""Isotropic Fourier-multiplier machinery.

The central object is the backprojection ("ramp") filter with frequency
response c_{d,k} ||omega||^k applied in the offset variable of a sinogram;
the same engine applies Bessel-potential and Gaussian radial multipliers to
grid fields, each given as its profile, a function of rho = ||omega||.  Also
here: Bessel-J evaluation, the radial (Hankel) transform of isotropic
profiles, and the radial-basis profile rho_s obtained as the Green's function
of the Bessel potential.
"""

from __future__ import annotations

import math
import threading
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, check_size
from .fields import GridField, Sinogram, lerp_t
from .geometry import c_constant, sphere_area

IMAG_RESIDUE_TOL = 1e-10


# --- radial multiplier profiles (rho = ||omega||, an array) ------------------

Profile = Callable[[np.ndarray], np.ndarray]


def _ramp(d: int, k: int, rho: np.ndarray) -> np.ndarray:
    return np.where(rho == 0.0, 0.0, c_constant(d, k) * rho**k)


def _bessel(s: float, sign: int, rho: np.ndarray) -> np.ndarray:
    return (1.0 + rho**2) ** (sign * s / 2.0)


def _gaussian(sigma: float, rho: np.ndarray) -> np.ndarray:
    return np.exp(-(sigma**2) * rho**2 / 2.0)


def ramp_spec(d: int, k: int) -> Profile:
    """Profile c_{d,k} rho^k, exactly 0 at rho = 0."""
    return partial(_ramp, d, k)


def bessel_spec(s: float, sign: int = 1) -> Profile:
    """Profile (1 + rho^2)^(sign s / 2), sign +1 or -1."""
    if sign not in (1, -1):
        raise DomainError(f"bessel sign must be +1 or -1, got {sign}")
    return partial(_bessel, float(s), sign)


def gaussian_spec(sigma: float) -> Profile:
    """Profile exp(-sigma^2 rho^2 / 2)."""
    return partial(_gaussian, float(sigma))


# --- FFT application ---------------------------------------------------------


def _padded_size(n: int, pad_factor: float) -> int:
    if not 1.0 <= pad_factor < math.inf:
        raise DomainError(f"pad_factor must be >= 1 and finite, got {pad_factor}")
    check_size(pad_factor * n, f"pad_factor {pad_factor} pads {n} nodes past one array")
    size = int(math.ceil(pad_factor * n))
    return size + (size % 2)


def _profile_multiplier(profile: Profile, shape: tuple[int, ...], spacing: float,
                        pad_factor: float) -> np.ndarray:
    """The profile at rho = ||omega||_2 of every DFT bin, omega_i = 2 pi freq_i / (N_pad h),
    each axis of shape padded to pad_factor * N rounded up to the next even size."""
    padded = tuple(_padded_size(n, pad_factor) for n in shape)
    freqs = [2.0 * np.pi * np.fft.fftfreq(n, d=spacing) for n in padded]
    prof = profile(np.sqrt(sum(g**2 for g in np.meshgrid(*freqs, indexing="ij"))))
    if not np.all(np.isfinite(prof)):
        bad = np.unravel_index(int(np.argmin(np.isfinite(prof))), prof.shape)
        raise DomainError(f"multiplier not finite at frequency bin {bad}")
    return prof


def _apply_multiplier(values: np.ndarray, lead: int, prof: np.ndarray) -> np.ndarray:
    """DFT multiplier prof on the signal axes after the first ``lead`` (batch) axes.

    Zero-pads each signal axis to prof's shape, multiplies, inverse-transforms
    and crops; the batch runs in chunks of about 4e6 padded points, one
    residue check each.
    """
    shape, padded = values.shape[lead:], prof.shape
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


def _band_limited_ramp(k: int, size: int) -> np.ndarray:
    """DFT of the kernel of |omega|^k band-limited to |omega| <= pi, sampled at
    the lags r = 0, +-1, ... of a period of size (unit spacing).

    The kernel is (1/pi) int_0^pi u^k cos(r u) du, by parts in closed form.
    """
    r = np.minimum(np.arange(size), size - np.arange(size)).astype(float)
    r[0] = 1.0  # lag 0 is set below
    sign = np.where(r % 2 == 0, 1.0, -1.0)  # (-1)^r
    cos_int = np.zeros(size)  # int_0^pi u^j cos(r u) du, j = 0
    sin_int = (1.0 - sign) / r  # int_0^pi u^j sin(r u) du, j = 0
    for j in range(1, k + 1):
        cos_int, sin_int = -(j / r) * sin_int, -(np.pi**j) * sign / r + (j / r) * cos_int
    cos_int[0] = np.pi ** (k + 1) / (k + 1)
    return np.fft.fft(cos_int / np.pi).real


def apply_radial_array(
    values: np.ndarray, spacing: float, profile: Profile, pad_factor: float = 2.0
) -> np.ndarray:
    """Apply an isotropic Fourier multiplier to every axis of a uniformly sampled block."""
    values = np.asarray(values, dtype=float)
    prof = _profile_multiplier(profile, values.shape, spacing, pad_factor)
    return _apply_multiplier(values, 0, prof)


def apply_radial(
    target: GridField | Sinogram, profile: Profile, pad_factor: float = 2.0
) -> GridField | Sinogram:
    """Apply a radial multiplier to a field (d-dim) or per-frame to a sinogram."""
    if isinstance(target, GridField):
        out = apply_radial_array(target.values, target.spacing, profile, pad_factor)
        return GridField(target.origin, target.spacing, target.shape, out)
    if isinstance(target, Sinogram):
        prof = _profile_multiplier(profile, target.t_grid.shape, target.t_grid.spacing, pad_factor)
        return target.copy_with(_apply_multiplier(target.values, 1, prof))
    raise DomainError(f"cannot filter {type(target)!r}")


def ramp_filter(sino: Sinogram, d: int | None = None, k: int | None = None,
                pad_factor: float = 2.0) -> Sinogram:
    """Backprojection filter: multiplier c_{d,k} ||omega||^k on each t-block.

    For d-k = 1 the multiplier is the DFT of the kernel of c_{d,k} |omega|^k
    band-limited to |omega| <= pi / h, sampled at the lags of the padded period
    (Kak & Slaney 1988, ch. 3): with the default padding (N_pad >= 2N - 1) each
    t-block is convolved linearly with that kernel.  Sampling the profile
    itself, as for d-k >= 2, wraps the kernel's 1/t^2 tail around the period,
    which for odd k adds an offset to every filtered value.
    """
    d = sino.d if d is None else d
    k = sino.k if k is None else k
    if (d, k) != (sino.d, sino.k):
        raise DomainError(f"(d, k)=({d}, {k}) does not match sinogram ({sino.d}, {sino.k})")
    if sino.m > 1:
        return apply_radial(sino, ramp_spec(d, k), pad_factor)
    size, h = _padded_size(sino.t_grid.shape[0], pad_factor), sino.t_grid.spacing
    prof = (c_constant(d, k) / h**k) * _band_limited_ramp(k, size)
    return sino.copy_with(_apply_multiplier(sino.values, 1, prof))


# --- Bessel functions ---------------------------------------------------------

_SUPPORTED_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0)


def bessel_j(nu: float, x) -> float | np.ndarray:
    """Bessel function of the first kind (``scipy.special.jv``) for orders
    {0, 1/2, 1, 3/2, 2} and x >= 0; a scalar argument gives a float.

    scipy.special is imported on the first call that passes the argument
    checks, so a bad order or a negative x raises DomainError without it and
    a process that never evaluates a Bessel function never loads it.
    """
    if float(nu) not in _SUPPORTED_ORDERS:
        raise DomainError(f"unsupported Bessel order {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("bessel_j requires x >= 0")
    from scipy import special

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
    """Cached radial profile on the nodes j * step, read by ``fields.lerp_t`` (0
    beyond a table that cannot extend, and at non-finite r) and extended on
    demand from integer indices, so r / step lands exactly on the nodes.

    ``table`` is one (radii, values) tuple that growth replaces in a single
    assignment.  One reentrant lock (an extend callback may read the table)
    serializes growth and ``counts["table_lookups"]``, the number of radii read,
    so no thread's extension or count is lost.
    """

    def __init__(self, radii: np.ndarray, values: np.ndarray,
                 extend: Callable[[np.ndarray], np.ndarray] | None = None):
        if len(radii) < 2 or not np.array_equal(radii, radii[1] * np.arange(len(radii))):
            raise DomainError("radial table radii must be j * step, j = 0, 1, ..., n > 1")
        self.table = (np.asarray(radii, dtype=float), np.asarray(values, dtype=float))
        self._extend = extend
        self._lock = threading.RLock()
        self.counts = {"table_lookups": 0}

    def __call__(self, r) -> np.ndarray:
        u = np.abs(np.asarray(r, dtype=float)) / self.table[0][1]  # index coordinates
        umax = u.max(initial=0.0)
        if not math.isfinite(umax):  # a non-finite radius reads 0 and extends nothing
            umax = u.max(initial=0.0, where=np.isfinite(u))
        with self._lock:
            self.counts["table_lookups"] += u.size
            radii, values = self.table
            if umax > radii.size - 1 and self._extend is not None:  # extend to cover it
                check_size(umax, f"a radial table cannot extend to radius {umax * radii[1]}")
                new_r = radii[1] * np.arange(radii.size, math.ceil(umax) + 4)
                radii = np.concatenate([radii, new_r])
                values = np.concatenate([values, self._extend(new_r)])
                self.table = (radii, values)
        return lerp_t(values, values.shape, [np.atleast_1d(u)])[0].reshape(u.shape)


def green_rbf(s: float, n: int, r_max: float = 12.0, dr: float = 0.02) -> RadialTable:
    """Radial profile rho_s: inverse n-variate transform of (1 + ||w||^2)^(-s/2).

    Requires n < s <= 343 (bounded at 0; Gamma(s/2) finite).  With a = (s - n)/2,
        rho_s(r) = Gamma(s/2)^-1 int_0^inf tau^(a - 1) e^-tau
                   (4 pi tau)^(-n/2) e^(-r^2 / 4 tau) dtau
    by the trapezoid rule in v = log(tau / a), the peak a log a - a of log(tau^a e^-tau)
    taken out of the exponent.  It converges exponentially in the step (Trefethen &
    Weideman 2014): min(0.2, 0.5 / sqrt(1 + a)) keeps every node within about
    1e-16 (1 + a) of rho_s(0) = Gamma(a) / ((4 pi)^(n/2) Gamma(s/2)), taken in closed
    form; n = 1, s = 2 gives e^-|r| / 2.  ``counts["green_nodes"]``: nodes per build.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not n < s < math.inf:
        raise DomainError(f"need finite s > n for a bounded atom, got s={s}, n={n}")
    try:
        scale = (4.0 * np.pi) ** (-n / 2.0) / math.gamma(s / 2.0)
    except OverflowError:
        raise DomainError(f"Gamma(s/2) overflows float64 for s={s}") from None
    a = (s - n) / 2.0
    step = min(0.2, 0.5 / math.sqrt(1.0 + a))
    counts = {"green_nodes": 0, "table_lookups": 0}

    def evaluate(radii: np.ndarray) -> np.ndarray:
        q = radii**2 / 4.0
        pos = q > 0.0
        out = np.full(radii.shape, scale * math.gamma(a))
        if pos.any():
            # log tau limits: below lo tau^a or e^(-q / tau) is negligible (or tau
            # leaves the float range); hi is 45 + 10 sqrt(tau*) past the peak tau*
            peak = (a + math.sqrt(a * a + 4.0 * q.max())) / 2.0
            lo = max(-41.0 / a - 4.0, math.log(q[pos].min() / 50.0), -700.0)
            hi = math.log(peak + 10.0 * math.sqrt(peak) + 45.0)
            v = lo - math.log(a) + step * np.arange(math.ceil((hi - lo) / step) + 1)
            expo = a * v - a * np.expm1(v) - (q[pos, None] / a) * np.exp(-v)
            out[pos] = scale * math.pow(a / math.e, a) * step * np.exp(expo).sum(axis=1)
            counts["green_nodes"] = v.size
        return out

    radii = np.arange(0.0, r_max + dr, dr)  # exactly j * dr
    table = RadialTable(radii, evaluate(radii), extend=evaluate)
    table.counts = counts
    return table
