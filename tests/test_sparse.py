import dataclasses
import fractions
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplane import (
    DomainError,
    Frame,
    FrameSet,
    GridField,
    GridSpec,
    LassoProblem,
    MeasurementSet,
    RidgeAtom,
    RngSeed,
    align_rotation,
    assemble,
    build_dictionary,
    haar_frame_sample,
    haar_orthogonal_sample,
    kkt_residuals,
    orbit_distance,
    reconstruct,
    reg_cost,
    ridge_eval,
    solve_lasso,
    support,
)
from kplane.fields import _FINITE_BLOCK
from kplane.sparse import BLOCK_ATOMS, DEDUP_TOL
from kplane.transform import same_grid


def half_circle_frames(n):
    angles = np.pi * np.arange(n) / n
    return FrameSet(np.stack([np.cos(angles), np.sin(angles)], -1)[:, None], "explicit")


GRID = GridSpec.centered(2, 64, 0.2)


def frame_major_atoms(dico):
    """The dictionary's atoms as unit-weight rbf RidgeAtoms, frame-major,
    sharing its table: the reference for ridge_eval comparisons."""
    f, m, d = dico.rows.shape
    atoms = [RidgeAtom(1.0, Frame(d, d - m, rows), t, profile="rbf", s=dico.s)
             for rows in dico.rows for t in dico.offsets]
    for atom in atoms:
        atom._table = dico.table
    return atoms


def gaussian_bumps(m, seed=123, width=0.8, grid=GRID):
    gen = RngSeed(seed).generator()
    pts = grid.points()
    out = []
    for _ in range(m):
        c = gen.uniform(-2.5, 2.5, size=grid.d)
        v = np.exp(-((pts - c) ** 2).sum(-1) / (2 * width**2))
        out.append(GridField(grid.origin, grid.spacing, grid.shape, v.reshape(grid.shape)))
    return MeasurementSet(out)


def test_build_dictionary_product_count():
    dico = build_dictionary(half_circle_frames(8), np.linspace(-3, 3, 16), 2.0)
    assert len(dico) == 128
    assert dico.rows.shape == (8, 1, 2) and dico.offsets.shape == (16, 1)


def test_build_dictionary_rejects_duplicates():
    rows = half_circle_frames(4).rows
    frames = FrameSet(np.concatenate([rows, rows[:1]]), "explicit")
    with pytest.raises(DomainError):
        build_dictionary(frames, [0.0, 1.0], 2.0)


def test_build_dictionary_rejects_orbit_duplicates():
    # (A, t) and (-A, -t) describe the same ridge
    fr = Frame(2, 1, np.array([[1.0, 0.0]]))
    fr_neg = Frame(2, 1, np.array([[-1.0, 0.0]]))
    with pytest.raises(DomainError):
        build_dictionary(FrameSet((fr, fr_neg), "explicit"), [0.5, -0.5], 2.0)


def test_build_dictionary_validation():
    with pytest.raises(DomainError):
        build_dictionary(FrameSet(np.zeros((0, 1, 2)), "explicit"), [0.0], 2.0)
    with pytest.raises(DomainError):
        build_dictionary(half_circle_frames(2), [0.0], 1.0)  # s <= d-k
    for s in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            build_dictionary(half_circle_frames(2), [0.0], s)
    # offsets are checked before the duplicate scan, which would name [0.0]
    frames = FrameSet(np.repeat(half_circle_frames(2).rows[:1], 2, axis=0), "explicit")
    with pytest.raises(DomainError, match=r"offsets must have shape \(1,\)"):
        build_dictionary(frames, [0.0, [1.0, 2.0]], 2.0)
    with pytest.raises(DomainError, match="offsets must be finite"):
        build_dictionary(frames, [0.0, np.nan], 2.0)


def test_assemble_zero_functional_row():
    dico = build_dictionary(half_circle_frames(4), [-1.0, 0.0, 1.0], 2.0)
    zero = GridField.zeros(GRID)
    bump = gaussian_bumps(1).functionals[0]
    meas = MeasurementSet([zero, bump])
    g = assemble(dico, meas)
    assert np.all(g[0] == 0.0)
    assert np.any(g[1] != 0.0)


def test_assemble_column_scales_with_atom_weight():
    dico = build_dictionary(half_circle_frames(3), [0.0, 1.0], 2.0)
    meas = gaussian_bumps(4)
    g = assemble(dico, meas)
    scaled = dataclasses.replace(frame_major_atoms(dico)[2], weight=3.0)
    pts = GRID.points()
    col = np.array(
        [GRID.spacing**2 * (h.values.ravel() * ridge_eval(scaled, pts)).sum()
         for h in meas.functionals]
    )
    assert np.allclose(col, 3.0 * g[:, 2], rtol=1e-12)


@pytest.mark.parametrize("other", [GridSpec.centered(2, 64, 0.5),
                                   GridSpec(GRID.origin, 0.2, (32, 128))], ids=["spacing", "shape"])
def test_measurement_set_rejects_functionals_from_another_grid(other):
    # both have GRID's 4096 nodes, so their values would pair without an error
    bump = gaussian_bumps(1).functionals[0]
    with pytest.raises(DomainError, match="measurement functionals must lie on one grid"):
        MeasurementSet([bump, GridField.zeros(other)])
    assert same_grid(MeasurementSet([bump, GridField.zeros(GRID)]).grid, GRID)


def test_assemble_entry_matches_fine_grid_quadrature():
    fr = Frame(2, 1, np.array([[np.cos(0.4), np.sin(0.4)]]))
    atom = RidgeAtom(1.0, fr, np.array([0.7]), profile="gaussian")
    pts = GRID.points()
    h_vals = np.exp(-((pts - np.array([0.5, -0.3])) ** 2).sum(-1) / (2 * 0.8**2))
    h = GridField(GRID.origin, GRID.spacing, GRID.shape, h_vals.reshape(GRID.shape))
    coarse = GRID.spacing**2 * (h.values.ravel() * ridge_eval(atom, pts)).sum()
    fine = GridSpec.centered(2, 256, 0.05)
    fpts = fine.points()
    fh = np.exp(-((fpts - np.array([0.5, -0.3])) ** 2).sum(-1) / (2 * 0.8**2))
    oracle = fine.spacing**2 * (fh * ridge_eval(atom, fpts)).sum()
    assert coarse == pytest.approx(oracle, abs=1e-4)


def test_assemble_frame_major_matches_dense_product():
    # 260 atoms: four full blocks and one padded block of 4
    dico, meas = build_dictionary(half_circle_frames(20), np.linspace(-3, 3, 13), 2.0), \
        gaussian_bumps(10)
    assert len(dico) % BLOCK_ATOMS != 0
    atom_mat = np.stack([ridge_eval(atom, GRID.points()) for atom in frame_major_atoms(dico)])
    h_mat = np.stack([h.values.ravel() for h in meas.functionals])
    expect = GRID.spacing**2 * (h_mat @ atom_mat.T)
    assert np.abs(assemble(dico, meas) - expect).max() <= 1e-15 * np.abs(expect).max()


@pytest.mark.parametrize("d, n, h, n_frames, reach, s, grows", [
    (2, 96, 0.14, 5, 2.0, 2.5, False), (3, 12, 0.5, 4, 1.5, 2.5, False),
    (3, 16, 0.35, 4, 1.5, 2.5, False), (2, 80, 0.3, 7, 9.0, 3.0, True)],
    ids=["96^2", "12^3", "16^3", "80^2-table-growth"])
def test_assemble_and_reconstruct_match_ridge_eval_on_long_rows(d, n, h, n_frames, reach, s,
                                                                grows):
    # a row holds N x (d - 1) projections: 9216 and 8192 fill one row at a time,
    # 3456 two rows at a time; at d = 3 the radius is a sqrt over two axes.  On
    # 80^2 with offsets to +-9 the radii pass the table's initial 12, so the
    # table grows inside assemble, before the reference reads it.
    grid = GridSpec.centered(d, n, h)
    gen = RngSeed(8).generator()
    if d == 2:
        frames = half_circle_frames(n_frames)
        offsets = np.arange(-reach, reach + 0.5)
    else:
        frames = FrameSet(tuple(haar_frame_sample(3, 1, gen) for _ in range(n_frames)), "explicit")
        offsets = list(gen.uniform(-reach, reach, size=(5, 2)))
    dico, meas = build_dictionary(frames, offsets, s), gaussian_bumps(6, grid=grid)
    nodes = len(dico.table.table[0])
    gram = assemble(dico, meas)
    assert (len(dico.table.table[0]) > nodes) == grows
    stack = np.stack([ridge_eval(atom, grid.points()) for atom in frame_major_atoms(dico)])
    h_mat = np.stack([h.values.ravel() for h in meas.functionals])
    expect = h**d * (h_mat @ stack.T)
    assert np.abs(gram - expect).max() <= 1e-15 * np.abs(expect).max()
    a = RngSeed(9).generator().normal(size=len(dico))
    a[::4] = 0.0
    expect = np.zeros(grid.size)
    for coeff, row in zip(a, stack):
        if coeff != 0.0:
            expect += coeff * row
    got = reconstruct(a, dico, grid).values.ravel()
    assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()


def test_assemble_peak_memory_without_atom_matrix():
    # 2048 atoms on 64^2 nodes: a dense atom matrix alone would be 64 MiB
    dico = build_dictionary(half_circle_frames(64), np.linspace(-3, 3, 32), 2.0)
    meas = gaussian_bumps(10)
    tracemalloc.start()
    try:
        gram = assemble(dico, meas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (10, 2048) and np.all(gram[:, ::32] != 0.0)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("where", [_FINITE_BLOCK, -1], ids=["block-start", "last"])
def test_nonfinite_past_first_block_rejected(where):
    fld = GridField(np.zeros(2), 0.1, (2, _FINITE_BLOCK), np.zeros((2, _FINITE_BLOCK)))
    fld.values.flat[where] = np.nan  # GridField checked it when it was finite
    with pytest.raises(DomainError, match="measurement functionals must be finite"):
        MeasurementSet([fld])
    gram = np.zeros((2, _FINITE_BLOCK))
    gram.flat[where] = np.inf
    with pytest.raises(DomainError, match="problem data must be finite"):
        LassoProblem(gram, np.zeros(2), 1.0)


def test_solve_lasso_identity_gram_soft_threshold():
    y = np.array([2.0, -0.5, 0.05, 0.0, 1.0, -3.0])
    lam = 0.2
    prob = LassoProblem(np.eye(6), y, lam, tol=1e-14)
    a = solve_lasso(prob)
    expect = np.sign(y) * np.maximum(np.abs(y) - lam / 2, 0.0)
    assert np.abs(a - expect).max() <= 1e-10


def test_solve_lasso_small_lambda_is_least_squares():
    gen = RngSeed(0).generator()
    g = gen.normal(size=(30, 10))
    y = gen.normal(size=30)
    ls = np.linalg.lstsq(g, y, rcond=None)[0]
    a = solve_lasso(LassoProblem(g, y, 1e-12, tol=1e-16, max_iter=100000))
    assert np.abs(a - ls).max() <= 1e-6


def test_solve_lasso_zero_data():
    g = RngSeed(1).generator().normal(size=(8, 5))
    a = solve_lasso(LassoProblem(g, np.zeros(8), 0.5))
    assert np.all(a == 0.0)


def test_solve_lasso_objective_never_increases():
    gen = RngSeed(2).generator()
    g = gen.normal(size=(20, 40))
    y = gen.normal(size=20)
    lam = 0.3
    prob = LassoProblem(g, y, lam, tol=1e-13, max_iter=5000)
    a = solve_lasso(prob)
    f0 = float(y @ y)
    fa = float((y - g @ a) @ (y - g @ a)) + lam * np.abs(a).sum()
    assert fa <= f0 + 1e-12


def test_solve_lasso_rejects_nonfinite():
    with pytest.raises(DomainError):
        LassoProblem(np.array([[np.inf]]), np.array([1.0]), 0.1)
    with pytest.raises(DomainError):
        LassoProblem(np.eye(2), np.ones(2), -1.0)


@pytest.mark.parametrize("gram,y", [(np.eye(3), np.ones(2)), (np.ones(3), np.ones(3)),
                                    (np.eye(2), np.ones((2, 1))), (np.ones((2, 2, 2)), np.ones(2))])
def test_lasso_problem_rejects_mismatched_shapes(gram, y):
    with pytest.raises(DomainError, match="gram"):
        LassoProblem(gram, y, 0.1)


def test_reg_cost():
    assert reg_cost(np.array([1.0, -2.0, 0.0])) == 3.0
    assert reg_cost(np.zeros(5)) == 0.0
    gen = RngSeed(3).generator()
    a = gen.normal(size=12)
    assert reg_cost(a) == reg_cost(a[::-1])
    assert reg_cost(a) == float(sum(map(fractions.Fraction, np.abs(a).tolist())))


def test_reconstruct_zero_and_single_atom():
    dico = build_dictionary(half_circle_frames(4), [-1.0, 1.0], 2.0)
    grid = GridSpec.centered(2, 24, 0.4)
    zero = reconstruct(np.zeros(len(dico)), dico, grid)
    assert np.all(zero.values == 0.0)
    a = np.zeros(len(dico))
    a[5] = 2.0
    single = reconstruct(a, dico, grid)
    expect = 2.0 * ridge_eval(frame_major_atoms(dico)[5], grid.points()).reshape(grid.shape)
    assert np.abs(single.values - expect).max() <= 1e-12


def test_coefficients_must_be_finite_and_of_dictionary_length():
    dico = build_dictionary(half_circle_frames(4), [-1.0, 1.0], 2.0)
    grid = GridSpec.centered(2, 24, 0.4)
    problem = LassoProblem(np.eye(3, len(dico)), np.ones(3), 0.1)
    a = np.zeros(len(dico))
    a[2] = np.nan  # not above ACTIVE_TOL, so it was dropped without a word
    for bad in (a, np.zeros(len(dico) + 1)):
        with pytest.raises(DomainError, match="coefficients must be"):
            reconstruct(bad, dico, grid)
        with pytest.raises(DomainError, match="coefficients must be"):
            kkt_residuals(problem, bad)


def test_planted_two_atom_recovery():
    dico = build_dictionary(half_circle_frames(12), np.linspace(-3, 3, 16), 2.0)
    meas = gaussian_bumps(50)
    g = assemble(dico, meas)
    j1, j2 = 3 * 16 + 5, 9 * 16 + 11
    a_true = np.zeros(len(dico))
    a_true[j1], a_true[j2] = 1.5, -2.0
    y = g @ a_true
    lam = 1e-3 * np.abs(g.T @ y).max()
    prob = LassoProblem(g, y, lam, tol=1e-12, max_iter=50000)
    a = solve_lasso(prob)

    supp = set(support(a).tolist())
    assert len(supp) <= 50
    # one-grid-cell slack on the recovered support
    neighborhood = {j1, j1 - 1, j1 + 1, j1 - 16, j1 + 16}
    assert supp & neighborhood
    neighborhood2 = {j2, j2 - 1, j2 + 1, j2 - 16, j2 + 16}
    assert supp & neighborhood2

    inactive_excess, active_mismatch = kkt_residuals(prob, a)
    assert inactive_excess <= prob.lam / 2 * prob.tol * 10
    assert active_mismatch <= prob.lam * prob.tol * 10
    # reg_cost is ||a||_1 rounded once; the exact rational sum is the oracle
    assert reg_cost(a) == float(sum(map(fractions.Fraction, np.abs(a).tolist())))
    # numpy's pairwise sum agrees up to the standard summation error bound
    l1 = np.abs(a).sum()
    assert abs(reg_cost(a) - l1) <= len(a) * np.finfo(float).eps * l1


def test_solve_lasso_objective_sequence_non_increasing():
    gen = RngSeed(5).generator()
    g = gen.normal(size=(25, 60))
    y = gen.normal(size=25)
    history = []
    solve_lasso(LassoProblem(g, y, 0.4, tol=1e-13, max_iter=3000), on_iterate=history.append)
    diffs = np.diff(np.array(history))
    assert diffs.max() <= 1e-12


# --- reference rules: the pairwise dedupe and FISTA with the active-set polish -------


def reference_first_duplicate(frames, offsets):
    """The pairwise atom check, with the direct-residual orbit distance."""
    atoms = [(fr, np.atleast_1d(np.asarray(t, dtype=float))) for fr in frames for t in offsets]
    for n, (fr, t) in enumerate(atoms):
        for prev_fr, prev_t in atoms[:n]:
            if orbit_distance(prev_fr.rows, fr.rows) > DEDUP_TOL:
                continue
            v = align_rotation(prev_fr.rows, fr.rows)
            if np.linalg.norm(v @ prev_t - t) <= DEDUP_TOL:
                return f"duplicate atom at frame {fr.rows.tolist()}, offset {t.tolist()}"
    return None


def reference_fista(problem, on_iterate=None):
    """The FISTA solver the homotopy path replaced: five mat-vecs per iteration,
    backtracking, objective restarts, then the active-set polish."""
    g, y, lam = problem.gram, problem.y, problem.lam

    def f_smooth(a):
        r = y - g @ a
        return float(r @ r)

    def objective(a):
        return f_smooth(a) + lam * float(np.abs(a).sum())

    def grad(a):
        return g.T @ (g @ a - y)

    def prox(v, step):
        thr = lam * step / 2.0
        return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)

    a = np.zeros(g.shape[1])
    z = a.copy()
    t_mom = 1.0
    step = 1.0 / max(np.linalg.norm(g, 2) ** 2, 1e-30)
    obj = objective(a)
    for _ in range(problem.max_iter):
        gz = grad(z)
        fz = f_smooth(z)
        while True:
            cand = prox(z - step * gz, step)
            diff = cand - z
            quad = fz + 2.0 * float(gz @ diff) + float(diff @ diff) / step
            if f_smooth(cand) <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            step *= 0.5
            if step < 1e-18:
                break
        new_obj = objective(cand)
        if new_obj > obj:
            t_mom = 1.0
            z = a.copy()
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        z = cand + ((t_mom - 1.0) / t_next) * (cand - a)
        rel_drop = (obj - new_obj) / max(abs(obj), 1e-30)
        a, obj, t_mom = cand, new_obj, t_next
        if on_iterate is not None:
            on_iterate(obj)
        if 0.0 <= rel_drop < problem.tol:
            break
    return reference_polish(problem, a, obj)


def reference_polish(problem, a, obj):
    """Exact solve on the FISTA support and signs, kept only if it preserves the
    signs, inactive optimality and the objective."""
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


def criterion_10_problem():
    dico = build_dictionary(half_circle_frames(12), np.linspace(-3, 3, 16), 2.0)
    g = assemble(dico, gaussian_bumps(50))
    a_true = np.zeros(len(dico))
    a_true[3 * 16 + 5], a_true[9 * 16 + 11] = 1.5, -2.0
    y = g @ a_true
    return g, y, 1e-3 * np.abs(g.T @ y).max(), 1e-12, 50000


def restarting_problem():
    gen = RngSeed(5).generator()
    g = gen.normal(size=(25, 60))
    return g, gen.normal(size=25), 0.4, 1e-13, 3000


def rejoining_problem():
    # atom 1 joins at -mu, drops, and rejoins at +mu within the next step
    gen = RngSeed(6683).generator()
    g = gen.normal(size=(2, 2))
    y = gen.normal(size=2)
    return g, y, 0.5531 * float(np.abs(g.T @ y).max()), 1e-13, 3000


@pytest.mark.parametrize("make", [criterion_10_problem, restarting_problem, rejoining_problem])
def test_solve_lasso_matches_fista_oracle(make):
    g, y, lam, tol, max_iter = make()
    ref_hist, hist = [], []
    ref = reference_fista(LassoProblem(g, y, lam, tol=tol, max_iter=max_iter), ref_hist.append)
    problem = LassoProblem(g, y, lam, tol=tol, max_iter=max_iter)
    a = solve_lasso(problem, hist.append)
    assert np.abs(a - ref).max() <= 1e-10
    assert np.array_equal(support(a), support(ref))
    stats = problem.stats
    assert stats["steps"] == len(hist) > 0
    assert stats["adds"] - stats["drops"] == len(support(a))


def test_solve_lasso_stats_zero_data():
    g = RngSeed(1).generator().normal(size=(8, 5))
    problem = LassoProblem(g, np.zeros(8), 0.5)
    history = []
    a = solve_lasso(problem, history.append)
    assert np.all(a == 0.0)
    assert problem.stats == {"steps": 0, "adds": 0, "drops": 0}
    assert history == []


def test_solve_lasso_step_cap_raises():
    g, y, lam, tol, _ = criterion_10_problem()
    with pytest.raises(DomainError, match="not finished after 3 steps"):
        solve_lasso(LassoProblem(g, y, lam, tol=tol, max_iter=3))


def test_solve_lasso_singular_active_gram_raises(monkeypatch):
    # in exact arithmetic a column in the span of the active ones never joins,
    # so stand in a solver that reports the active Gram singular
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DomainError, match="singular active Gram on 1 atoms"):
        solve_lasso(LassoProblem(np.eye(3), np.array([2.0, 1.0, 0.5]), 0.1))


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -5}, {"tol": 0.0},
                                    {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                                    {"lam": math.nan}, {"lam": math.inf}])
def test_lasso_problem_rejects_bad_limits(kwargs):
    args = {"lam": 0.1, **kwargs}
    with pytest.raises(DomainError):
        LassoProblem(np.eye(2), np.ones(2), **args)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), m=st.integers(1, 12), j=st.integers(1, 12),
       frac=st.floats(1e-3, 0.999))
def test_solve_lasso_path_property(seed, m, j, frac):
    # random G, wide (M < J) and tall (M > J); lambda in (0, lambda_max)
    gen = RngSeed(seed).generator()
    g = gen.normal(size=(m, j))
    y = gen.normal(size=m)
    c_max = float(np.abs(g.T @ y).max())
    problem = LassoProblem(g, y, frac * 2.0 * c_max)
    history = []
    a = solve_lasso(problem, history.append)
    inactive_excess, active_mismatch = kkt_residuals(problem, a)
    assert inactive_excess <= 1e-12 * c_max
    assert active_mismatch <= 1e-12 * c_max
    assert problem.stats["steps"] == len(history) >= 1
    f0 = float(y @ y)
    assert np.all(np.diff([f0, *history]) <= 1e-12 * f0)


@pytest.mark.parametrize("angle", [9 * math.pi / 16, 10 * math.pi / 16])
def test_build_dictionary_rejects_exact_duplicates(angle):
    # the closed-form orbit distance read 1.49e-8 > DEDUP_TOL for these frames
    f = Frame(2, 1, np.array([[math.cos(angle), math.sin(angle)]]))
    with pytest.raises(DomainError, match=r"offset \[0\.0\]"):
        build_dictionary(FrameSet((f, f), "explicit"), [0.0], 2.0)
    with pytest.raises(DomainError, match=r"offset \[0\.5\]"):
        build_dictionary(FrameSet((f, Frame(2, 1, -f.rows)), "explicit"), [0.5, -0.5], 2.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_build_dictionary_matches_pairwise_rule(data):
    d = data.draw(st.sampled_from([2, 3]), label="d")
    m = d - 1  # codimension 1 for d=2, 2 for d=3 (k=1)
    gen = RngSeed(data.draw(st.integers(0, 2**16), label="seed")).generator()
    frames = [haar_frame_sample(d, 1, gen) for _ in range(data.draw(st.integers(1, 4)))]
    # offsets on a coarse lattice, so equal offsets within one frame occur too
    offsets = [gen.integers(-3, 4, size=m) / 2.0 for _ in range(data.draw(st.integers(1, 4)))]
    for _ in range(data.draw(st.integers(0, 2), label="planted")):
        # (U A, U t) parameterizes the same k-plane as (A, t)
        rot = haar_orthogonal_sample(m, gen).mat
        frames.insert(data.draw(st.integers(0, len(frames))),
                      Frame(d, 1, rot @ frames[data.draw(st.integers(0, len(frames) - 1))].rows))
        offsets.insert(data.draw(st.integers(0, len(offsets))),
                       rot @ offsets[data.draw(st.integers(0, len(offsets) - 1))])
    if data.draw(st.booleans(), label="near copy"):
        # an offset within DEDUP_TOL of another but not equal to it
        offsets.append(offsets[data.draw(st.integers(0, len(offsets) - 1))] + 1e-12)
    expect = reference_first_duplicate(frames, offsets)
    if expect is None:
        dico = build_dictionary(FrameSet(tuple(frames), "explicit"), offsets, 2.5)
        assert len(dico) == len(frames) * len(offsets)
        assert np.array_equal(dico.rows, np.stack([fr.rows for fr in frames]))
        assert np.array_equal(dico.offsets, np.stack(offsets))
    else:
        with pytest.raises(DomainError) as err:
            build_dictionary(FrameSet(tuple(frames), "explicit"), offsets, 2.5)
        assert str(err.value) == expect


@pytest.mark.parametrize("as_stack", [False, True], ids=["frames", "frame-set"])
def test_build_dictionary_late_orbit_duplicate_message(as_stack):
    # theta + pi after seven other frames: (-A, -t) is the ridge (A, t), and the
    # error names the same atom as the pairwise rule, whether the frame set was
    # built from Frames or from a row stack
    frames = list(half_circle_frames(8).frames)
    frames.append(Frame(2, 1, -frames[2].rows))
    offsets = [-1.5, -0.5, 0.5, 1.5]
    expect = reference_first_duplicate(frames, offsets)
    assert expect is not None and "offset [-1.5]" in expect
    grid = FrameSet(np.stack([fr.rows for fr in frames]) if as_stack else tuple(frames), "explicit")
    with pytest.raises(DomainError) as err:
        build_dictionary(grid, offsets, 2.0)
    assert str(err.value) == expect
