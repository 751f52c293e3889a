"""Dimensional constants, Haar sampling on Stiefel manifolds, and frame algebra.

A ``Frame`` is a matrix A with (d-k) orthonormal rows; together with an
offset t in R^(d-k) it parameterizes the k-plane {x : A x = t}.  Pairs
(A, t) and (U A, U t) describe the same plane for any orthogonal U, so
several helpers below work modulo that identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_size

ORTHONORMALITY_TOL = 1e-12  # completion residual, per unit of d
FRAME_TOL = 1e-10  # Frobenius Gram defect ||M M^T - I||_F allowed of frame rows and rotations


@dataclass(frozen=True)
class RngSeed:
    """Reproducible random stream: (seed, stream) fully determines all draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise DomainError(f"seed and stream must be >= 0, got {self.seed}, {self.stream}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=(int(self.seed), int(self.stream)))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True, eq=False, slots=True)
class Frame:
    """Element of V_{d-k}(R^d): a (d-k) x d matrix with orthonormal rows."""

    d: int
    k: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if not 1 <= self.k <= self.d - 1 or rows.shape != (self.d - self.k, self.d):
            raise DomainError(f"need 1 <= k < d, rows (d-k, d): {self.d}, {self.k}, {rows.shape}")
        defect = np.linalg.norm(rows @ rows.T - np.eye(self.d - self.k))
        if not defect <= FRAME_TOL:  # also rejects NaN rows
            raise DomainError(f"frame rows not orthonormal (defect {defect:.3e})")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        """Codimension d - k (number of rows)."""
        return self.d - self.k


@dataclass(frozen=True, eq=False)
class FrameSet:
    """Discretization of the Haar integral over V_{d-k}(R^d); its rows fix (d, k).

    ``rows``, the read-only (n, d-k, d) stack of frame rows, is given as such or as
    ``Frame``s sharing (d, k) and checked once; ``frames`` is built on first read.
    mode "deterministic-circle": equiangular unit vectors over [0, 2 pi)
    (d=2, k=1 only, matching the unnormalized Haar mass 2 pi).
    mode "monte-carlo": independent Haar samples with a recorded seed.
    mode "explicit": frames given as they are, e.g. read from a KPT file.
    """

    rows: np.ndarray = field(repr=False)  # or a sequence of Frame
    mode: str
    seed: RngSeed | None = None

    def __post_init__(self):
        given = None if isinstance(self.rows, np.ndarray) else tuple(self.rows)
        if given is not None and len({fr.rows.shape for fr in given}) > 1:
            raise DomainError("frame set must be homogeneous in (d, k)")
        rows = np.array(self.rows if given is None else [f.rows for f in given], float, order="C")
        if rows.ndim != 3 or len(rows) == 0 or not 1 <= rows.shape[1] <= rows.shape[2] - 1:
            raise DomainError(f"need a nonempty (n, d-k, d) stack, 1 <= k < d, got {rows.shape}")
        defect = np.linalg.norm(rows @ rows.swapaxes(1, 2) - np.eye(rows.shape[1]), axis=(1, 2))
        if not np.all(defect <= FRAME_TOL):  # one batched test; also rejects NaN rows
            raise DomainError(f"frame rows not orthonormal (defect {np.max(defect):.3e})")
        rows.flags.writeable = False
        self.__dict__.update(rows=rows, _frames=given)  # frozen: set here and in frames only

    @property
    def frames(self) -> tuple[Frame, ...]:
        if self._frames is None:  # one Frame per row; the stack was checked, so no Frame() check
            frames = tuple(object.__new__(Frame) for _ in self.rows)
            for fr, r in zip(frames, self.rows):  # Frame has slots: set field by field
                for name, value in (("d", self.d), ("k", self.k), ("rows", r)):
                    object.__setattr__(fr, name, value)
            self.__dict__["_frames"] = frames
        return self._frames

    @property
    def d(self) -> int:
        return self.rows.shape[2]

    @property
    def k(self) -> int:
        return self.rows.shape[2] - self.rows.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.frames[index]


@dataclass(frozen=True, eq=False)
class Rotation:
    """Orthogonal matrix U in O(m)."""

    m: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape != (self.m, self.m):
            raise DomainError(f"rotation must be ({self.m}, {self.m}), got {mat.shape}")
        defect = np.linalg.norm(mat @ mat.T - np.eye(self.m))
        if not defect <= FRAME_TOL:  # also rejects NaN
            raise DomainError(f"matrix not orthogonal (defect {defect:.3e})")
        object.__setattr__(self, "mat", mat)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.mat))


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _check_dk(d: int, k: int) -> None:
    if not (isinstance(d, int) and isinstance(k, int)) and not (
        float(d).is_integer() and float(k).is_integer()
    ):
        raise DomainError(f"d, k must be integers, got {d}, {k}")
    if not (1 <= k <= d - 1):
        raise DomainError(f"need 1 <= k <= d-1, got d={d}, k={k}")
    check_size(d * (d - k), f"d={d} is too large for a (d-k) x d frame matrix")


def c_constant(d: int, k: int) -> float:
    """Filtered-backprojection constant for the k-plane transform in R^d.

    c_{d,k} = (2 pi)^-k * |S^(k-1)| / |S^(d-k-1)| / prod_{n=k}^{d-1} |S^(n-1)|,
    which makes the ramp-filtered backprojection the identity.  Recovers the
    classical Radon constants: c_{2,1} = 1/(4 pi), c_{3,2} = 1/(8 pi^2).
    """
    _check_dk(d, k)
    prod = 1.0
    for n in range(k, d):
        prod *= sphere_area(n)
    return (2.0 * math.pi) ** (-k) * sphere_area(k) / sphere_area(d - k) / prod


def stiefel_total_mass(d: int, k: int) -> float:
    """Unnormalized Haar mass of V_{d-k}(R^d) under this package's convention.

    vol(V_{d-k}(R^d)) = prod_{j=k+1}^{d} |S^(j-1)|, fixed so that the d=2, k=1
    case is the circle length 2 pi.  Monte-Carlo frame averages are scaled by
    this mass to approximate Haar integrals, and the convention is validated
    end to end by ``transform.calibrate_gain``.
    """
    _check_dk(d, k)
    prod = 1.0
    for j in range(k + 1, d + 1):
        prod *= sphere_area(j)
    return prod


def _sign_fixed_qr(mat: np.ndarray) -> np.ndarray:
    """QR orthonormalization with the R diagonal forced positive.

    Applied to a standard Gaussian matrix this yields exactly Haar-distributed
    orthonormal columns.  A stack of matrices is orthonormalized one by one.
    """
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _haar_stack(n: int, p: int, q: int, rng) -> np.ndarray:
    """n Haar p x q matrices with orthonormal columns, (n, p, q), by sign-fixed QR.

    One Gaussian draw, one stacked rank check (re-drawing only rank-deficient
    matrices, a.s. never) and one batched QR: unless a re-draw happens, the
    same bits as n single draws from the same stream.  Frames, single frames
    and Monte-Carlo rotations all come from here.
    """
    if n < 1:
        raise DomainError(f"cannot draw {n} matrices")
    check_size(n * p * q, f"cannot draw {n} matrices of shape ({p}, {q}) into one array")
    if not isinstance(rng, (RngSeed, np.random.Generator)):
        raise TypeError(f"expected RngSeed or numpy Generator, got {type(rng)!r}")
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    g = gen.normal(size=(n, p, q))
    bad = np.linalg.matrix_rank(g) < q
    while n_bad := np.count_nonzero(bad):
        g[bad] = gen.normal(size=(n_bad, p, q))
        bad = np.linalg.matrix_rank(g) < q
    return _sign_fixed_qr(g)


def _haar_rows(d: int, k: int, n: int, rng) -> np.ndarray:
    """Rows of n Haar frames, (n, d-k, d): the transposed d x (d-k) Haar stack."""
    _check_dk(d, k)
    return np.swapaxes(_haar_stack(n, d, d - k, rng), -1, -2)


def haar_frame_sample(d: int, k: int, rng) -> Frame:
    """Haar-distributed frame: sign-fixed QR of a d x (d-k) Gaussian matrix."""
    return Frame(d, k, _haar_rows(d, k, 1, rng)[0])


def haar_orthogonal_sample(m: int, rng) -> Rotation:
    """Haar-distributed element of O(m) (for m=1: +1 or -1 with probability 1/2)."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return Rotation(m, _haar_stack(1, m, m, rng)[0])


def complete_frame(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis B (d x k) of the k-plane direction space A^perp.

    Columns of B complete the rows of A to an orthonormal basis of R^d;
    deterministic given A (full QR of A^T).  rows is one (d-k, d) frame, or an
    (n, d-k, d) stack completed by one batched QR into an (n, d, k) stack,
    frame by frame bit-identical to the single-frame completion.  The rows
    are taken as orthonormal, not checked.
    """
    rows = np.asarray(rows, dtype=float)
    d, m = rows.shape[-1], rows.shape[-2]
    q, _ = np.linalg.qr(np.swapaxes(rows, -1, -2), mode="complete")
    b = q[..., m:]
    # Align the leading block with A^T so [A^T | B] is orthogonal by construction.
    resid = np.linalg.norm(rows @ b, axis=(-2, -1)).max()
    if resid > ORTHONORMALITY_TOL * max(1.0, d):
        raise DomainError(f"complement construction failed (residual {resid:.3e})")
    return b


def rotate_pair(frame: Frame, t: np.ndarray, rot: Rotation) -> tuple[Frame, np.ndarray]:
    """Map (A, t) to (U A, U t); both parameterize the same k-plane."""
    t = np.asarray(t, dtype=float)
    if rot.m != frame.m:
        raise DomainError(f"rotation dim {rot.m} != frame codimension {frame.m}")
    if t.shape != (frame.m,):
        raise DomainError(f"offset must have shape ({frame.m},), got {t.shape}")
    return Frame(frame.d, frame.k, rot.mat @ frame.rows), rot.mat @ t


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Plain embedded (chordal) distance ||A - B||_F between Stiefel points."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def orbit_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Rotation-invariant distance min_U ||U A - B||_F.

    Evaluated as the direct residual ||V A - B||_F with V = align_rotation(A, B),
    so it respects the (A, t) ~ (U A, U t) identification of k-planes and
    reads about 1e-15 for equal planes.  The closed form sqrt(2m - 2 sum sigma)
    cancels to a floor near sqrt(eps) ~ 1.5e-8 instead.
    """
    return float(np.linalg.norm(align_rotation(a, b) @ a - b))


def align_rotation(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Orthogonal V minimizing ||V A_src - A_dst||_F (orthogonal Procrustes).

    src and dst are (m, d) frame rows; either may be an (n, m, d) stack, and
    the result is then the (n, m, m) stack of rotations from one batched SVD.
    """
    p, _, qt = np.linalg.svd(np.asarray(src) @ np.swapaxes(dst, -1, -2))
    return np.swapaxes(qt, -1, -2) @ np.swapaxes(p, -1, -2)
