"""Sampled functions on R^d and on the k-plane domain, plus the KPT1 file format.

``GridField`` holds samples of a function on a uniform axis-aligned grid with
isotropic spacing.  ``Sinogram`` holds samples on Xi_k = V_{d-k}(R^d) x R^(d-k):
a ``FrameSet`` and a shared uniform t-grid of values per frame.  Both can be
written to and read back bit-exactly from the "KPT1" binary format.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, FormatError, check_size
from .geometry import FrameSet


_FINITE_BLOCK = 1 << 16  # values per isfinite mask in all_finite


def all_finite(x) -> bool:
    """np.all(np.isfinite(x)) without a full-size bool mask: the check reads
    _FINITE_BLOCK values at a time."""
    blocks = np.nditer(np.asarray(x), flags=["external_loop", "buffered", "zerosize_ok"],
                       buffersize=_FINITE_BLOCK, order="K")
    return all(np.isfinite(block).all() for block in blocks)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Geometry of a uniform grid: physical origin, isotropic spacing, shape."""

    origin: np.ndarray
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if not 0 < self.spacing < math.inf or not np.all(np.isfinite(origin)):
            raise DomainError(f"need finite origin and spacing > 0, got {origin}, {self.spacing}")
        if len(shape) != origin.size or any(n < 1 for n in shape):
            raise DomainError(f"bad grid geometry: origin {origin}, shape {shape}")
        check_size(math.prod(shape), f"grid shape {shape} has too many nodes for one array")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def d(self) -> int:
        return len(self.shape)

    @classmethod
    def centered(cls, d: int, n: int, spacing: float) -> "GridSpec":
        """Grid of n^d nodes with spacing h, symmetric about the origin."""
        origin = np.full(d, -spacing * (n - 1) / 2.0)
        return cls(origin, spacing, (n,) * d)

    def axes(self) -> list[np.ndarray]:
        return [self.origin[i] + self.spacing * np.arange(n) for i, n in enumerate(self.shape)]

    def points(self) -> np.ndarray:
        """All node coordinates, row-major, shape (prod(shape), d)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True, eq=False)
class GridField(GridSpec):
    """Real-valued function on R^d sampled on a uniform grid (row-major values)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        values = np.asarray(self.values, dtype=float).reshape(self.shape)
        if not all_finite(values):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.origin, self.spacing, self.shape)

    @classmethod
    def from_function(cls, spec: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> "GridField":
        vals = fn(spec.points()).reshape(spec.shape)
        return cls(spec.origin, spec.spacing, spec.shape, vals)

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridField":
        return cls(spec.origin, spec.spacing, spec.shape, np.zeros(spec.shape))


class FieldInterpolator:
    """Evaluator for a GridField at arbitrary points, reusable across batches.

    order=1 is multilinear interpolation (the package-wide evaluation
    contract); order=3 is interpolating cubic splines, used by the forward
    quadrature where multilinear bias would dominate.  ``read`` takes index
    coordinates u = (x - origin) / spacing and runs the package's one
    multilinear kernel (lerp_t) or its cubic B-spline kernel (spline_t).
    Order 3 builds the spline coefficients once, in numpy, with the
    recursive prefilter of _spline_coefficients; neither order loads scipy.
    Calling the interpolator on physical points is that
    affine map in front of ``read``.  Both kernels read exactly 0 outside
    [0, n-1] on any axis (compact-support convention).
    """

    def __init__(self, fld: GridField, order: int = 1):
        if order not in (1, 3):
            raise DomainError(f"interpolation order must be 1 or 3, got {order}")
        self.field = fld
        self.order = order
        if order == 3:
            coeff = _spline_coefficients(fld.values)
            self._coeff = np.pad(coeff, 2, mode="reflect").reshape(-1)  # scipy's "mirror"

    def read(self, u: np.ndarray) -> np.ndarray:
        """Values at the index coordinates u, a (d, N) array with one row per axis."""
        if self.order == 1:
            return lerp_t(self.field.values.reshape(-1), self.field.shape, u)[0]
        return spline_t(self._coeff, self.field.shape, u)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts[None, :]
        if pts.shape[-1] != self.field.d:
            raise DomainError(f"points must have last dim {self.field.d}")
        lead = pts.shape[:-1]
        coords = ((pts.reshape(-1, self.field.d) - self.field.origin) / self.field.spacing).T
        out = self.read(coords).reshape(lead)
        return float(out[0]) if squeeze else out


def integrate(fld: GridField) -> float:
    """Rectangle-rule integral h^d * sum(values)."""
    return float(fld.spacing**fld.d * fld.values.sum())


@dataclass(frozen=True)
class QuadSpec:
    """Tensor trapezoid rule on [-L, L]^k used to integrate along k-planes."""

    halfwidth: float
    nodes_per_axis: int
    _tensor: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.halfwidth < math.inf:
            raise DomainError(f"halfwidth must be positive and finite, got {self.halfwidth}")
        if self.nodes_per_axis < 2:
            raise DomainError(f"need >= 2 nodes per axis, got {self.nodes_per_axis}")

    def nodes_weights(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor nodes (n^k, k) and weights (n^k,) summing to (2L)^k; built once, read-only."""
        if k not in self._tensor:
            y = np.linspace(-self.halfwidth, self.halfwidth, self.nodes_per_axis)
            step = y[1] - y[0]
            w = np.full(self.nodes_per_axis, step)
            w[0] *= 0.5
            w[-1] *= 0.5
            nodes = np.stack([g.ravel() for g in np.meshgrid(*([y] * k), indexing="ij")], axis=-1)
            weights = np.prod(np.meshgrid(*([w] * k), indexing="ij"), axis=0).ravel()
            nodes.flags.writeable = weights.flags.writeable = False
            self._tensor.setdefault(k, (nodes, weights))
        return self._tensor[k]

    @classmethod
    def default_for(cls, spec: GridSpec) -> "QuadSpec":
        """Halfwidth = half the grid diagonal, nodes = 2 x max(shape)."""
        diag = spec.spacing * np.linalg.norm(np.array(spec.shape) - 1)
        return cls(diag / 2.0, 2 * max(spec.shape))


@dataclass(frozen=True, eq=False)
class TGrid(GridSpec):
    """Uniform offset grid in R^(d-k) shared by all frames of a sinogram."""

    @property
    def m(self) -> int:
        return len(self.shape)

    def cell_volume(self) -> float:
        return float(self.spacing**self.m)


@dataclass(eq=False)
class Sinogram:
    """Samples of a function on Xi_k: one t-block per frame on a shared t-grid.

    ``frames`` is held as given if a ``FrameSet``, else wrapped once as
    ``FrameSet(frames, "explicit")``.  ``generator``, when present, evaluates
    the underlying function at arbitrary (frame, t) pairs; sinograms produced
    by the forward transform carry one so that frame-rotated coordinates can
    be re-rendered exactly.  It is never serialized.
    """

    d: int
    k: int
    frames: FrameSet
    t_grid: TGrid
    values: np.ndarray
    generator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not isinstance(self.frames, FrameSet):
            self.frames = FrameSet(self.frames, "explicit")
        if (self.frames.d, self.frames.k) != (self.d, self.k):
            raise DomainError("all frames must share the sinogram's (d, k)")
        if self.t_grid.m != self.d - self.k:
            raise DomainError(
                f"t-grid dimension {self.t_grid.m} != d-k = {self.d - self.k}"
            )
        vals = np.asarray(self.values, dtype=float).reshape((len(self.frames),) + self.t_grid.shape)
        if not all_finite(vals):
            raise DomainError("sinogram values must be finite")
        self.values = vals

    @property
    def m(self) -> int:
        return self.d - self.k

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def copy_with(self, values: np.ndarray, generator=None) -> "Sinogram":
        return Sinogram(self.d, self.k, self.frames, self.t_grid, values, generator)


def _into_box(uj: np.ndarray, n: int, inside: np.ndarray | None):
    """(uj, inside) as given if uj lies in [0, n-1]; else uj clipped (NaN to 0), mask narrowed."""
    if uj.min(initial=0.0) >= 0.0 and uj.max(initial=0.0) <= n - 1:  # False on NaN
        return uj, inside
    ok = (uj >= 0.0) & (uj <= n - 1)
    return np.nan_to_num(np.clip(uj, 0.0, n - 1), copy=False), ok if inside is None else inside & ok


def lerp_t(flat: np.ndarray, shape: tuple[int, ...], u: list[np.ndarray],
           base: np.ndarray | float = 0.0) -> tuple[np.ndarray, int]:
    """Multilinear reads of finite row-major blocks stored back to back in flat.

    This is the package's one multilinear kernel: backproject reads t-blocks
    with it at d - k >= 2, and FieldInterpolator(order=1) reads a grid field
    as one block.
    u[j] is the index coordinate along axis j and base the flat offset of each
    point's block, all broadcasting together; u is only read.  Points
    outside [0, n-1] on any axis, or not finite, read exactly 0, as the
    order-3 kernel (spline_t) does.  Only when an axis's exact bounds
    leave the grid is its mask built and its u clipped into [0, n-1], so a
    read far outside costs no more than one inside.  The corners are gathered
    into fresh arrays and each axis, last first, is folded into them in place
    as a + f (b - a).  Returns the values and the number of points outside.
    """
    strides = [math.prod(shape[j + 1:]) for j in range(len(shape))]
    pos, fracs, offsets, inside = np.asarray(base, dtype=float), [], [0], None
    for uj, n, stride in zip(u, shape, strides):
        uj, inside = _into_box(uj, n, inside)
        lo = np.floor(uj)
        fracs.append(uj - lo)
        if stride > 1:
            lo *= stride
        pos = pos + lo
        offsets = [o + s for o in offsets for s in (0, stride)]
    # a corner past an axis end has weight 0 inside the grid, and points
    # outside are masked, so any in-bounds value ("wrap") will do there
    idx = pos.astype(np.intp)
    vals = [flat[o:].take(idx, mode="wrap") for o in offsets]
    for frac in reversed(fracs):
        for a, b in zip(vals[::2], vals[1::2]):
            b -= a
            b *= frac
            b += a
        vals = vals[1::2]
    if inside is None:
        return vals[0], 0
    vals[0] *= inside
    return vals[0], int(inside.size - np.count_nonzero(inside))


_SPLINE_POLE = math.sqrt(3.0) - 2.0  # the cubic B-spline's pole z, |z| < 1


def _spline_coefficients(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients whose spline interpolates values at the nodes.

    The textbook prefilter (Unser, Aldroubi & Eden 1993): along each axis of
    length n > 1, vectorised over the other axes, the gain (1 - z)(1 - 1/z),
    then the causal and the anticausal first-order recursion with pole z.
    Both start values are those of the mirror extension, period 2n - 2, which
    is what scipy.ndimage.spline_filter(order=3, mode="constant") uses too;
    the coefficients equal its output to rounding (about 1e-15 relative).
    """
    z, c = _SPLINE_POLE, np.asarray(values, dtype=float)
    for axis, n in enumerate(c.shape):
        if n == 1:
            continue
        # axis first and C-ordered, so every step of the recursion is one contiguous row
        line = np.multiply(np.moveaxis(c, axis, 0), (1.0 - z) * (1.0 - 1.0 / z), order="C")
        # causal start: the geometric sum over one period of the mirror extension
        w = z ** np.arange(n, dtype=float)
        w[1:n - 1] += z ** np.arange(2 * n - 3, n - 1, -1, dtype=float)
        line[0] = np.einsum("i,i...->...", w, line) / (1.0 - z ** (2 * n - 2))
        for i in range(1, n):
            line[i] += z * line[i - 1]
        line[n - 1] = (z * line[n - 2] + line[n - 1]) * (z / (z * z - 1.0))
        for i in range(n - 2, -1, -1):
            line[i] = z * (line[i + 1] - line[i])
        c = np.moveaxis(line, 0, axis)
    return c


_SPLINE_POINTS = 1 << 13  # points per spline_t pass, so that its temporaries stay in cache


def spline_t(coeff: np.ndarray, shape: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Cubic B-spline reads of a grid of this shape at index coordinates u, (d, N).

    coeff holds the spline coefficients, row-major and padded by 2 on every axis,
    so no tap floor(u)-1..floor(u)+2 needs bounds work.  Values are those of
    map_coordinates(order=3, mode="constant", prefilter=False) to rounding, with
    lerp_t's bounds rule; u is only read.  Per block of 2^13 points the 4^d taps
    are takes at fixed offsets from one base index per point, each folded into
    its axis's running sum as it is read, last axis first: O(d) blocks of memory.
    """
    d = len(shape)
    strides = [math.prod(n + 4 for n in shape[j + 1:]) for j in range(d)]
    # built once per call: each tap's coefficient view and the (axis, tap) folds
    # it makes, last axis first; a tap 3 completes its axis sum, which joins the next
    plan = []
    for taps in itertools.product(range(4), repeat=d):  # last axis fastest
        stop = max((j for j, s in enumerate(taps) if s < 3), default=0)
        folds = [(j, taps[j]) for j in range(d - 1, stop - 1, -1)]
        plan.append((coeff[sum(s * stride for s, stride in zip(taps, strides)):], folds))
    out = np.empty(u.shape[1:])
    for p in range(0, len(out), _SPLINE_POINTS):
        pos, weights, inside = float(sum(strides)), [], None  # tap i-1 is padded index i+1
        for uj, n, stride in zip(u[:, p:p + _SPLINE_POINTS], shape, strides):
            uj, inside = _into_box(uj, n, inside)
            lo = np.floor(uj)
            y = uj - lo
            z = 1.0 - y
            weights.append((z * z * z / 6.0, (y * y * (y - 2.0) * 3.0 + 4.0) / 6.0,
                            (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0, y * y * y / 6.0))
            pos = pos + lo * stride
        idx = pos.astype(np.intp)
        acc = [None] * d  # acc[j]: the running sum over axis j's taps
        for view, folds in plan:
            part = view.take(idx)
            for j, s in folds:
                part *= weights[j][s]
                acc[j] = part if s == 0 else np.add(acc[j], part, out=acc[j])
                part = acc[j]
        out[p:p + _SPLINE_POINTS] = acc[0] if inside is None else acc[0] * inside
    return out


def interp_t_block(blocks: np.ndarray, t_grid: TGrid, t_pts: np.ndarray) -> np.ndarray:
    """Multilinear reads of one frame's t-block, or an (n,) + t_grid.shape stack,
    at shared (..., m) t points: shape (...) or (n, ...); 0 outside the grid.

    A stack is one lerp_t call with a flat offset per frame, as in
    backproject at d - k >= 2.
    """
    blocks, t_pts = np.asarray(blocks, dtype=float), np.asarray(t_pts, dtype=float)
    u = [(t_pts[..., j] - t_grid.origin[j]) / t_grid.spacing for j in range(t_grid.m)]
    base = t_grid.size * np.arange(blocks.size // t_grid.size, dtype=float)
    base = base.reshape(blocks.shape[:blocks.ndim - t_grid.m] + (1,) * (t_pts.ndim - 1))
    return lerp_t(blocks.reshape(-1), t_grid.shape, u, base)[0]


def gaussian_field(spec: GridSpec, mean=None) -> GridField:
    """Unit-mass isotropic Gaussian density with unit covariance."""
    return mixture_field(spec, [np.zeros(spec.d) if mean is None else mean], [1.0])


def mixture_field(spec: GridSpec, means, weights) -> GridField:
    """Weighted sum of unit-covariance Gaussians (empty mixture = zero field)."""
    pts = spec.points()
    vals = np.zeros(pts.shape[0])
    for mean, w in zip(means, weights):
        mean = np.asarray(mean, dtype=float)
        vals += w * np.exp(-((pts - mean) ** 2).sum(axis=-1) / 2.0) / (2.0 * np.pi) ** (
            spec.d / 2.0
        )
    return GridField(spec.origin, spec.spacing, spec.shape, vals.reshape(spec.shape))


# --- KPT1 binary format ----------------------------------------------------
#
#   bytes 0..3   magic "KPT1"
#   bytes 4..7   u32 little-endian header length H
#   bytes 8..8+H UTF-8 JSON header
#   remainder    float64 little-endian payload, row-major, frames concatenated

_MAGIC = b"KPT1"


def _header_dict(obj: GridField | Sinogram) -> dict:
    if isinstance(obj, GridField):
        return {
            "kind": "grid",
            "d": obj.d,
            "origin": [float(v) for v in obj.origin],
            "spacing": float(obj.spacing),
            "shape": list(obj.shape),
        }
    if isinstance(obj, Sinogram):
        return {
            "kind": "sinogram",
            "d": obj.d,
            "k": obj.k,
            "origin": [float(v) for v in obj.t_grid.origin],
            "spacing": float(obj.t_grid.spacing),
            "shape": list(obj.t_grid.shape),
            "frames": obj.frames.rows.tolist(),
        }
    raise DomainError(f"cannot serialize {type(obj)!r}")


def write_kpt(path, obj: GridField | Sinogram) -> None:
    """Write a field or sinogram; the round trip through read_kpt is bit-exact."""
    header = json.dumps(_header_dict(obj), sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.ascontiguousarray(obj.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


_GRID_KEYS = {"d": int, "origin": list, "spacing": (int, float), "shape": list}
_HEADER_KEYS = {"grid": _GRID_KEYS, "sinogram": {**_GRID_KEYS, "k": int, "frames": list}}


def read_kpt(path) -> GridField | Sinogram:
    """Read a KPT1 file; a malformed header or payload raises FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}", offset=0)
    if len(blob) < 8:
        raise FormatError("truncated header length", offset=4)
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise FormatError("header extends past end of file", offset=4)
    try:
        header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON ({exc})", offset=8) from exc
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind not in ("grid", "sinogram"):
        raise FormatError(f"unknown kind {kind!r}", offset=8)
    for key, types in _HEADER_KEYS[kind].items():
        if not isinstance(header.get(key), types) or isinstance(header.get(key), bool):
            raise FormatError(f"header key {key!r} is missing or mistyped", offset=8)
    d, k, shape = header["d"], header.get("k", 0), tuple(header["shape"])
    try:
        origin = np.array(header["origin"], dtype=float)
        frames = np.array(header.get("frames", []), dtype=float)  # Sinogram checks the stack
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad header origin or frame rows ({exc})", offset=8) from exc
    if not origin.shape == (len(shape),) == (d - k,) or not all(isinstance(n, int) for n in shape):
        raise FormatError(f"header origin {origin} and shape {shape} disagree", offset=8)

    payload_offset = 8 + hlen
    payload = blob[payload_offset:]
    full = ((len(frames),) if kind == "sinogram" else ()) + shape
    expected = 8 * math.prod(full)
    if len(payload) != expected:
        raise FormatError(
            f"payload is {len(payload)} bytes, expected {expected}", offset=payload_offset
        )
    values = np.frombuffer(payload, dtype="<f8").copy()
    if not all_finite(values):
        raise FormatError("payload holds non-finite values", offset=payload_offset)
    try:
        if kind == "grid":
            return GridField(origin, header["spacing"], shape, values)
        return Sinogram(d, k, frames, TGrid(origin, header["spacing"], shape), values)
    except DomainError as exc:
        raise FormatError(f"header does not describe a valid {kind} ({exc})", offset=8) from exc
