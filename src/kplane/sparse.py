"""Grid relaxation of sparse ridge recovery.

The continuum problem seeks a function minimizing a squared data term plus
an L1-type cost whose solutions are sparse sums of at most M ridge atoms
rho_s(A_n x - t_n).  Here the atom family is restricted to a fixed grid of
(frame, offset) pairs and the coefficients minimize

    F(a) = ||y - G a||_2^2 + lambda ||a||_1      (un-halved data term),

found exactly by the homotopy path of ``solve_lasso``: at the minimizer the
correlations G^T(y - G a) equal sign(a_j) lambda/2 on the support and are at
most lambda/2 in size off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DomainError
from .fields import GridField, GridSpec, all_finite
from .filters import RadialTable, green_rbf
from .geometry import FrameSet
from .transform import same_grid

DEDUP_TOL = 1e-9
ACTIVE_TOL = 1e-10  # a coefficient larger than this in size is on the support


@dataclass(eq=False)
class Dictionary:
    """Unit-weight ridge atoms rho_s(A_f x - t_p) on a frame x offset grid.

    Atom j is frame j // P at offset j % P (frame-major), and every atom reads
    the one rbf ``table``.
    """

    rows: np.ndarray      # F x m x d frame rows
    offsets: np.ndarray   # P x m
    s: float
    table: RadialTable

    def __len__(self) -> int:
        return len(self.rows) * len(self.offsets)


@dataclass(eq=False)
class MeasurementSet:
    """Linear functionals h_1..h_M given as grid fields on one grid; pairing is quadrature."""

    functionals: list[GridField]

    def __post_init__(self):
        if not self.functionals:
            raise DomainError("need at least one measurement functional")
        for h in self.functionals:
            if not same_grid(h, self.functionals[0]):
                raise DomainError("measurement functionals must lie on one grid")
            if not all_finite(h.values):
                raise DomainError("measurement functionals must be finite")

    def __len__(self) -> int:
        return len(self.functionals)

    @property
    def grid(self) -> GridSpec:
        return self.functionals[0].spec


@dataclass(eq=False)
class LassoProblem:
    gram: np.ndarray          # M x J matrix of <h_m, atom_j> pairings
    y: np.ndarray             # M observations
    lam: float
    tol: float = 1e-10        # certified inactive KKT excess, relative to ||G^T y||_inf
    max_iter: int = 20000     # cap on the homotopy path steps
    stats: dict = field(default_factory=dict)  # solve_lasso fills in its counters

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.gram.ndim != 2 or self.y.shape != self.gram.shape[:1]:
            raise DomainError(f"need an M x J gram and M data, got {self.gram.shape}, {self.y.shape}")
        if not all_finite(self.gram) or not all_finite(self.y):
            raise DomainError("problem data must be finite")
        for name in ("lam", "tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")


def build_dictionary(frames: FrameSet, offset_grid, s: float) -> Dictionary:
    """Cartesian product of frames and offsets, frame-major, duplicates rejected.

    Offsets have m = d - k entries, (d, k) being the frame set's.  Atoms
    (A_i, t_p) and (A_j, t_q) are duplicates when ||V A_i - A_j||_F and
    ||V t_p - t_q|| are both <= DEDUP_TOL, V = ``geometry.align_rotation(A_i,
    A_j)``: one batched alignment per frame j against frames 0..j, then
    offsets compared only for equivalent pairs.  The ``DomainError`` names
    the first duplicate (frame-major).
    """
    m = frames.d - frames.k
    offs = [np.atleast_1d(np.asarray(t, dtype=float)) for t in offset_grid]
    if not offs:
        raise DomainError("offset grid must be nonempty")
    if not m < s < math.inf:
        raise DomainError(f"need finite s > d-k = {m}, got s={s}")
    if any(t.shape != (m,) for t in offs):
        raise DomainError(f"offsets must have shape ({m},)")
    rows, offs = frames.rows, np.stack(offs)
    if not all_finite(offs):
        raise DomainError("offsets must be finite")
    for j in range(len(rows)):
        # dup[q]: atom (j, q) equals some earlier atom (i, p), i <= j
        dup = np.zeros(len(offs), dtype=bool)
        v = geometry.align_rotation(rows[:j + 1], rows[j])  # (j + 1, m, m)
        resid = np.linalg.norm(v @ rows[:j + 1] - rows[j], axis=(-2, -1))
        for i in np.flatnonzero(resid <= DEDUP_TOL):
            close = np.linalg.norm((offs @ v[i].T)[:, None] - offs, axis=-1) <= DEDUP_TOL
            dup |= (close if i < j else np.triu(close, 1)).any(axis=0)
        if dup.any():
            t = offs[int(np.argmax(dup))]
            raise DomainError(f"duplicate atom at frame {rows[j].tolist()}, offset {t.tolist()}")
    return Dictionary(rows, offs, float(s), green_rbf(s, m))


def assemble(dictionary: Dictionary, meas: MeasurementSet) -> np.ndarray:
    """Gram matrix G[m, j] = h^d sum_x h_m(x) * atom_j(x) over the measurements' grid.

    The atoms stream through ``_atom_blocks`` and each block's columns are one
    product with the M x N measurement matrix, so memory is O(M J + M N): no
    J x N atom matrix exists.
    """
    field_grid = meas.grid
    h_mat = np.stack([h.values.ravel() for h in meas.functionals])             # M x N
    cell = field_grid.spacing**field_grid.d
    gram = np.empty((len(meas), len(dictionary)))
    for start, block in _atom_blocks(dictionary, np.arange(len(dictionary)), field_grid.points()):
        cols = gram[:, start : start + len(block)]
        cols[:] = cell * (h_mat @ block.T)[:, : cols.shape[1]]
    return gram


# Atoms per block.  A fixed width keeps each Gram product on OpenBLAS's general
# gemm: a 1-column product goes to gemv, and one under about 1e6 multiply-adds to
# a small-matrix kernel, and either rounds differently from one J-column product.
BLOCK_ATOMS = 64
# Values per temporary while rows fill: 64 KiB, below glibc's 128 KiB mmap
# threshold, so no temporary is mapped and page-faulted afresh on each call.
_ROW_VALUES = 1 << 13


def _atom_blocks(dictionary: Dictionary, atoms: np.ndarray, pts: np.ndarray):
    """Yield (start, block): atoms[start], atoms[start + 1], ... (sorted flat
    indices) at pts, one row each, in one reused buffer of min(BLOCK_ATOMS,
    len(atoms)) rows whose rows past the last atom are 0.  The atoms of one
    frame in a block cost one pts @ A^T; then table(|proj - offset|) fills whole
    rows of as many atoms at a time as fit in _ROW_VALUES values, and one atom
    at a time when a row does not fit; at m = 1 the table takes the signed
    difference."""
    n_off = len(dictionary.offsets)
    block = np.empty((min(BLOCK_ATOMS, len(atoms)), len(pts)))
    for start in range(0, len(atoms), BLOCK_ATOMS):
        part = atoms[start : start + BLOCK_ATOMS]
        frames, firsts = np.unique(part // n_off, return_index=True)
        for f, lo, hi in zip(frames, firsts, [*firsts[1:], len(part)]):
            proj = pts @ dictionary.rows[f].T                                    # N x m
            offs = dictionary.offsets[part[lo:hi] % n_off, None]                 # atoms x 1 x m
            n_atoms = max(1, _ROW_VALUES // proj.size)
            for i in range(lo, hi, n_atoms):
                arg = proj - offs[i - lo : i - lo + n_atoms]
                r = arg[..., 0] if arg.shape[-1] == 1 else np.sqrt((arg**2).sum(axis=-1))
                block[i : i + len(arg)] = dictionary.table(r)
        block[len(part):] = 0.0
        yield start, block


def solve_lasso(problem: LassoProblem, on_iterate=None) -> np.ndarray:
    """Exact LASSO minimizer by the homotopy (LARS-lasso) path.

    Follows the minimizer of ||y - G a||^2 + 2 mu ||a||_1 from mu = ||G^T y||_inf
    (a = 0, one active atom) down to mu = lambda/2, moving the support S with
    signs s along da_S/dmu = -(G_S^T G_S)^{-1} s.  A step ends at the first join
    (an inactive correlation reaching +-mu, whose sign the atom takes), drop (an
    active coefficient reaching 0; the next step may not rejoin it at that
    bound) or mu = lambda/2; an exact active solve at lambda/2 ends the path.

    ``max_iter`` caps the steps.  ``DomainError`` is raised at the cap, on a
    singular active Gram, or when the certificate fails: the support must keep
    its signs and the inactive KKT excess must be <= ``tol`` * ||G^T y||_inf.
    ``on_iterate`` receives F(a) = ||y - G a||^2 + lambda ||a||_1 at each
    breakpoint (F falls along the path); ``problem.stats`` gets ``steps``,
    ``adds`` and ``drops``.
    """
    g, y, lam = problem.gram, problem.y, problem.lam
    stats = problem.stats
    stats.update(steps=0, adds=0, drops=0)
    a, signs = np.zeros(g.shape[1]), np.zeros(g.shape[1])  # signs: nonzero on the support
    corr = g.T @ y
    c_max = float(np.abs(corr).max(initial=0.0))
    mu, mu_end = c_max, lam / 2.0
    bounds = np.array([[1.0], [-1.0]])  # join at +mu (row 0) or at -mu (row 1)
    barred = None  # (bound row, atom) of the last drop
    if mu > mu_end:
        j = int(np.argmax(np.abs(corr)))
        signs[j], stats["adds"] = np.sign(corr[j]), 1
    while mu > mu_end:
        if stats["steps"] == problem.max_iter:
            raise DomainError(f"lasso path not finished after {problem.max_iter} steps")
        act = np.flatnonzero(signs)
        w = _active_solve(g[:, act], signs[act])
        v = g.T @ (g[:, act] @ w)  # d corr / d mu
        with np.errstate(divide="ignore", invalid="ignore"):
            joins = np.where(bounds * v < 1.0,
                             np.maximum(mu - bounds * corr, 0.0) / (1.0 - bounds * v), np.inf)
            drops = -a[act] / w
        drops[~(drops > 0.0)] = np.inf
        joins[:, act] = np.inf
        if barred is not None:
            joins[barred] = np.inf
        steps = (mu - mu_end, joins.min(), drops.min(initial=np.inf))
        event = int(np.argmin(steps))  # a tie ends the path, or else joins
        a[act] += steps[event] * w
        mu, barred = (mu_end if event == 0 else mu - steps[event]), None
        if event == 1:
            row, j = np.unravel_index(np.argmin(joins), joins.shape)
            signs[j] = bounds[row, 0]
            stats["adds"] += 1
        elif event == 2:
            j = int(act[np.argmin(drops)])
            barred, a[j], signs[j] = (0 if signs[j] > 0 else 1, j), 0.0, 0.0
            stats["drops"] += 1
        r = y - g @ a
        corr = g.T @ r
        stats["steps"] += 1
        if on_iterate is not None:
            on_iterate(float(r @ r) + lam * float(np.abs(a).sum()))
    act = np.flatnonzero(signs)
    a = np.zeros_like(a)
    a[act] = _active_solve(g[:, act], g[:, act].T @ y - mu_end * signs[act])
    excess = kkt_residuals(problem, a)[0]
    if np.any(np.sign(a[act]) != signs[act]) or excess > problem.tol * c_max:
        raise DomainError(f"lasso certificate failed: inactive KKT excess {excess:.3e} "
                          f"(allowed {problem.tol * c_max:.3e}) or support signs changed")
    return a


def _active_solve(gs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gs.T @ gs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"singular active Gram on {gs.shape[1]} atoms") from exc


def reg_cost(a: np.ndarray) -> float:
    """Discrete regularization cost ||a||_1, exactly rounded (order independent).

    ``math.fsum`` is used on purpose.  The result can differ from
    ``np.abs(a).sum()`` in the last ulp: numpy's pairwise/SIMD sum rounds each
    partial sum, so its value depends on the order of ``a``.
    """
    return math.fsum(np.abs(np.asarray(a, dtype=float)).tolist())


def kkt_residuals(problem: LassoProblem, a: np.ndarray) -> tuple[float, float]:
    """Optimality certificate for the un-halved objective.

    Returns (worst inactive excess, worst active mismatch): at a minimizer,
    |[G^T(y - G a)]_j| <= lambda/2 off the support and equals
    sign(a_j) lambda/2 on it.
    """
    a = _coefficients(a, problem.gram.shape[1])
    corr = problem.gram.T @ (problem.y - problem.gram @ a)
    active = np.abs(a) > ACTIVE_TOL
    inactive_excess = float(np.maximum(np.abs(corr[~active]) - problem.lam / 2.0, 0.0).max()) \
        if np.any(~active) else 0.0
    active_mismatch = float(np.abs(corr[active] - np.sign(a[active]) * problem.lam / 2.0).max()) \
        if np.any(active) else 0.0
    return inactive_excess, active_mismatch


def support(a: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.abs(np.asarray(a)) > ACTIVE_TOL)


def reconstruct(a: np.ndarray, dictionary: Dictionary, grid: GridSpec) -> GridField:
    """Pointwise sum of the atoms with nonzero coefficients."""
    a = _coefficients(a, len(dictionary))
    keep = np.flatnonzero(np.abs(a) > ACTIVE_TOL)
    vals = np.zeros(grid.size)
    for start, block in _atom_blocks(dictionary, keep, grid.points()):
        for coeff, row in zip(a[keep[start : start + len(block)]], block):
            vals += np.multiply(coeff, row, out=row)
    return GridField(grid.origin, grid.spacing, grid.shape, vals.reshape(grid.shape))


def _coefficients(a, n: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (n,) or not all_finite(a):
        raise DomainError(f"coefficients must be {n} finite values, got shape {a.shape}")
    return a
