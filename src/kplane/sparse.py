"""Grid relaxation of sparse ridge recovery.

The continuum problem seeks a function minimizing a squared data term plus
an L1-type cost whose solutions are sparse sums of at most M ridge atoms
rho_s(A_n x - t_n).  Here the atom family is restricted to a fixed grid of
(frame, offset) pairs and the coefficients are found by FISTA on

    F(a) = ||y - G a||_2^2 + lambda ||a||_1      (un-halved data term),

whose soft-threshold prox therefore uses threshold lambda * step / 2 for a
gradient step of size ``step`` on the halved gradient G^T(G a - y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .analytic import RidgeAtom, ridge_eval
from .errors import DomainError
from .fields import GridField, GridSpec
from .geometry import Frame

DEDUP_TOL = 1e-9


@dataclass(eq=False)
class Dictionary:
    """Unit-weight ridge atoms on a frame x offset product grid."""

    atoms: list[RidgeAtom]
    d: int
    k: int
    s: float

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(eq=False)
class MeasurementSet:
    """Linear functionals h_1..h_M given as grid fields; pairing is quadrature."""

    functionals: list[GridField]

    def __post_init__(self):
        if not self.functionals:
            raise DomainError("need at least one measurement functional")
        for h in self.functionals:
            if not np.all(np.isfinite(h.values)):
                raise DomainError("measurement functionals must be finite")

    def __len__(self) -> int:
        return len(self.functionals)


@dataclass(eq=False)
class LassoProblem:
    gram: np.ndarray          # M x J matrix of <h_m, atom_j> pairings
    y: np.ndarray             # M observations
    lam: float
    tol: float = 1e-10
    max_iter: int = 20000
    stats: dict = field(default_factory=dict)  # solve_lasso fills in its counters

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.gram)) or not np.all(np.isfinite(self.y)):
            raise DomainError("problem data must be finite")
        if self.lam <= 0:
            raise DomainError(f"lambda must be positive, got {self.lam}")


def build_dictionary(frame_grid, offset_grid, s: float, d: int, k: int) -> Dictionary:
    """Cartesian product of frames and offsets, frame-major, duplicates rejected.

    Atoms (A_i, t_p) and (A_j, t_q) are duplicates when
    ``geometry.orbit_distance(A_i, A_j)`` and ||V t_p - t_q|| are both
    <= DEDUP_TOL, V = ``geometry.align_rotation(A_i, A_j)``.  Orbit equivalence
    is decided once per frame pair; offsets are compared, vectorised, only for
    equivalent pairs.  The ``DomainError`` names the first atom (frame-major)
    equal to an earlier one.
    """
    frame_grid = [fr if isinstance(fr, Frame) else Frame(d, k, np.atleast_2d(fr))
                  for fr in frame_grid]
    offset_grid = [np.atleast_1d(np.asarray(t, dtype=float)) for t in offset_grid]
    if not frame_grid or not offset_grid:
        raise DomainError("frame and offset grids must be nonempty")
    if s <= d - k:
        raise DomainError(f"need s > d-k = {d - k}, got s={s}")
    offs = np.stack(offset_grid)
    for j, fr_j in enumerate(frame_grid):
        # dup[q]: atom (j, q) equals some earlier atom (i, p), i <= j
        dup = np.zeros(len(offs), dtype=bool)
        for i, fr_i in enumerate(frame_grid[:j + 1]):
            if geometry.orbit_distance(fr_i, fr_j) > DEDUP_TOL:
                continue
            v = geometry.align_rotation(fr_i, fr_j)
            close = np.linalg.norm((offs @ v.T)[:, None] - offs, axis=-1) <= DEDUP_TOL
            dup |= (close if i < j else np.triu(close, 1)).any(axis=0)
        if dup.any():
            t = offset_grid[int(np.argmax(dup))]
            raise DomainError(f"duplicate atom at frame {fr_j.rows.tolist()}, offset {t.tolist()}")
    atoms = [RidgeAtom(1.0, fr, t, profile="rbf", s=s) for fr in frame_grid for t in offset_grid]
    # share one Green's-function table across the dictionary
    table = atoms[0].table()
    for atom in atoms[1:]:
        atom._table = table
    return Dictionary(atoms, d, k, float(s))


def assemble(dictionary: Dictionary, meas: MeasurementSet, field_grid: GridSpec) -> np.ndarray:
    """Gram matrix G[m, j] = h^d sum_x h_m(x) * atom_j(x) over the grid."""
    pts = field_grid.points()
    atom_mat = np.stack([ridge_eval(atom, pts) for atom in dictionary.atoms])  # J x N
    h_mat = np.stack([h.values.ravel() for h in meas.functionals])             # M x N
    cell = field_grid.spacing**field_grid.d
    return cell * (h_mat @ atom_mat.T)


def solve_lasso(problem: LassoProblem, on_iterate=None) -> np.ndarray:
    """FISTA with backtracking and restart for the un-halved LASSO objective.

    Returns coefficients with F(a) <= F(0); stops when the relative objective
    decrease drops below ``tol`` or after ``max_iter`` iterations.
    ``on_iterate``, when given, receives the objective after every accepted
    step (the restart rule makes that sequence non-increasing).
    ``problem.stats`` receives ``iterations`` (accepted steps), ``restarts``,
    ``backtracks`` (step halvings) and ``polished`` (active-set solve kept).

    Three mat-vecs per iteration: e = G z - y gives f(z) = e.e and G^T e, and
    one residual per candidate serves both the backtracking test and F.
    """
    g, y, lam = problem.gram, problem.y, problem.lam
    counts = {"iterations": 0, "restarts": 0, "backtracks": 0}

    def prox(v, step):
        thr = lam * step / 2.0
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    j = g.shape[1]
    a = np.zeros(j)
    z = a.copy()
    t_mom = 1.0
    # step on the half-gradient; 1/||G^T G|| is the stability limit
    norm_est = np.linalg.norm(g, 2)
    step = 1.0 / max(norm_est**2, 1e-30)
    obj = float(y @ y)  # F(0)

    for _ in range(problem.max_iter):
        e = g @ z - y
        gz = g.T @ e  # half of the gradient of ||y - Gz||^2
        fz = float(e @ e)
        while True:
            cand = prox(z - step * gz, step)
            diff = cand - z
            # backtracking on the smooth part (factor 2: un-halved quadratic)
            quad = fz + 2.0 * float(gz @ diff) + float(diff @ diff) / step
            r = y - g @ cand
            f_cand = float(r @ r)
            if f_cand <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            step *= 0.5
            counts["backtracks"] += 1
            if step < 1e-18:
                break
        new_obj = f_cand + lam * float(np.abs(cand).sum())
        if new_obj > obj:  # restart momentum on objective increase
            t_mom = 1.0
            z = a.copy()
            counts["restarts"] += 1
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        z = cand + ((t_mom - 1.0) / t_next) * (cand - a)
        rel_drop = (obj - new_obj) / max(abs(obj), 1e-30)
        a, obj, t_mom = cand, new_obj, t_next
        counts["iterations"] += 1
        if on_iterate is not None:
            on_iterate(obj)
        if 0.0 <= rel_drop < problem.tol:
            break
    out = _polish_active_set(problem, a, obj)
    problem.stats.update(counts, polished=out is not a)
    return out


def _polish_active_set(problem: LassoProblem, a: np.ndarray, obj: float) -> np.ndarray:
    """Exact stationarity solve on the detected support.

    On the FISTA support with its signs, the minimizer satisfies
    G_S^T G_S a_S = G_S^T y - (lambda/2) sign(a_S); solving that linear
    system drives the active-support optimality residual to roundoff.  The
    polished point is kept only if it preserves signs, inactive optimality,
    and the objective.
    """
    g, y, lam = problem.gram, problem.y, problem.lam
    active = np.abs(a) > 1e-12 * max(1.0, float(np.abs(a).max()))
    if not np.any(active):
        return a
    gs = g[:, active]
    signs = np.sign(a[active])
    try:
        sol = np.linalg.solve(gs.T @ gs, gs.T @ y - 0.5 * lam * signs)
    except np.linalg.LinAlgError:
        return a
    if np.any(np.sign(sol) != signs):
        return a
    polished = np.zeros_like(a)
    polished[active] = sol
    corr = g.T @ (y - g @ polished)
    if np.any(np.abs(corr[~active]) > 0.5 * lam * (1 + 1e-9)):
        return a
    resid = y - g @ polished
    new_obj = float(resid @ resid) + lam * float(np.abs(polished).sum())
    return polished if new_obj <= obj + 1e-12 * max(1.0, abs(obj)) else a


def reg_cost(a: np.ndarray) -> float:
    """Discrete regularization cost ||a||_1, exactly rounded (order independent).

    ``math.fsum`` is used on purpose.  The result can differ from
    ``np.abs(a).sum()`` in the last ulp: numpy's pairwise/SIMD sum rounds each
    partial sum, so its value depends on the order of ``a``.
    """
    return math.fsum(np.abs(np.asarray(a, dtype=float)).tolist())


def kkt_residuals(problem: LassoProblem, a: np.ndarray,
                  active_tol: float = 1e-10) -> tuple[float, float]:
    """Optimality certificate for the un-halved objective.

    Returns (worst inactive excess, worst active mismatch): at a minimizer,
    |[G^T(y - G a)]_j| <= lambda/2 off the support and equals
    sign(a_j) lambda/2 on it.
    """
    corr = problem.gram.T @ (problem.y - problem.gram @ a)
    active = np.abs(a) > active_tol
    inactive_excess = float(np.maximum(np.abs(corr[~active]) - problem.lam / 2.0, 0.0).max()) \
        if np.any(~active) else 0.0
    active_mismatch = float(np.abs(corr[active] - np.sign(a[active]) * problem.lam / 2.0).max()) \
        if np.any(active) else 0.0
    return inactive_excess, active_mismatch


def support(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    return np.flatnonzero(np.abs(np.asarray(a)) > tol)


def reconstruct(a: np.ndarray, dictionary: Dictionary, grid: GridSpec) -> GridField:
    """Pointwise sum of the weighted atoms with nonzero coefficients."""
    a = np.asarray(a, dtype=float)
    if a.shape != (len(dictionary),):
        raise DomainError(f"coefficients must have length {len(dictionary)}")
    pts = grid.points()
    vals = np.zeros(grid.size)
    for coeff, atom in zip(a, dictionary.atoms):
        if abs(coeff) > 1e-10:
            vals += coeff * ridge_eval(atom, pts)
    return GridField(grid.origin, grid.spacing, grid.shape, vals.reshape(grid.shape))
