import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplane import (
    DomainError,
    Frame,
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
from kplane.sparse import DEDUP_TOL, _polish_active_set


def half_circle_frames(n):
    angles = np.pi * np.arange(n) / n
    return [Frame(2, 1, np.array([[np.cos(a), np.sin(a)]])) for a in angles]


GRID = GridSpec.centered(2, 64, 0.2)


def gaussian_bumps(m, seed=123, width=0.8):
    gen = RngSeed(seed).generator()
    pts = GRID.points()
    out = []
    for _ in range(m):
        c = gen.uniform(-2.5, 2.5, size=2)
        v = np.exp(-((pts - c) ** 2).sum(-1) / (2 * width**2))
        out.append(GridField(GRID.origin, GRID.spacing, GRID.shape, v.reshape(GRID.shape)))
    return MeasurementSet(out)


def test_build_dictionary_product_count():
    dico = build_dictionary(half_circle_frames(8), np.linspace(-3, 3, 16), 2.0, 2, 1)
    assert len(dico) == 128
    assert all(atom.weight == 1.0 for atom in dico.atoms)


def test_build_dictionary_rejects_duplicates():
    frames = half_circle_frames(4) + [half_circle_frames(4)[0]]
    with pytest.raises(DomainError):
        build_dictionary(frames, [0.0, 1.0], 2.0, 2, 1)


def test_build_dictionary_rejects_orbit_duplicates():
    # (A, t) and (-A, -t) describe the same ridge
    fr = Frame(2, 1, np.array([[1.0, 0.0]]))
    fr_neg = Frame(2, 1, np.array([[-1.0, 0.0]]))
    with pytest.raises(DomainError):
        build_dictionary([fr, fr_neg], [0.5, -0.5], 2.0, 2, 1)


def test_build_dictionary_validation():
    with pytest.raises(DomainError):
        build_dictionary([], [0.0], 2.0, 2, 1)
    with pytest.raises(DomainError):
        build_dictionary(half_circle_frames(2), [0.0], 1.0, 2, 1)  # s <= d-k


def test_assemble_zero_functional_row():
    dico = build_dictionary(half_circle_frames(4), [-1.0, 0.0, 1.0], 2.0, 2, 1)
    zero = GridField.zeros(GRID)
    bump = gaussian_bumps(1).functionals[0]
    meas = MeasurementSet([zero, bump])
    g = assemble(dico, meas, GRID)
    assert np.all(g[0] == 0.0)
    assert np.any(g[1] != 0.0)


def test_assemble_column_scales_with_atom_weight():
    dico = build_dictionary(half_circle_frames(3), [0.0, 1.0], 2.0, 2, 1)
    meas = gaussian_bumps(4)
    g = assemble(dico, meas, GRID)
    atom = dico.atoms[2]
    scaled = RidgeAtom(3.0, atom.frame, atom.offset, profile="rbf", s=atom.s)
    scaled._table = atom._table
    pts = GRID.points()
    col = np.array(
        [GRID.spacing**2 * (h.values.ravel() * ridge_eval(scaled, pts)).sum()
         for h in meas.functionals]
    )
    assert np.allclose(col, 3.0 * g[:, 2], rtol=1e-12)


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


def test_reg_cost():
    assert reg_cost(np.array([1.0, -2.0, 0.0])) == 3.0
    assert reg_cost(np.zeros(5)) == 0.0
    gen = RngSeed(3).generator()
    a = gen.normal(size=12)
    assert reg_cost(a) == reg_cost(a[::-1])
    assert reg_cost(a) == float(sum(map(fractions.Fraction, np.abs(a).tolist())))


def test_reconstruct_zero_and_single_atom():
    dico = build_dictionary(half_circle_frames(4), [-1.0, 1.0], 2.0, 2, 1)
    grid = GridSpec.centered(2, 24, 0.4)
    zero = reconstruct(np.zeros(len(dico)), dico, grid)
    assert np.all(zero.values == 0.0)
    a = np.zeros(len(dico))
    a[5] = 2.0
    single = reconstruct(a, dico, grid)
    expect = 2.0 * ridge_eval(dico.atoms[5], grid.points()).reshape(grid.shape)
    assert np.abs(single.values - expect).max() <= 1e-12


def test_planted_two_atom_recovery():
    dico = build_dictionary(half_circle_frames(12), np.linspace(-3, 3, 16), 2.0, 2, 1)
    meas = gaussian_bumps(50)
    g = assemble(dico, meas, GRID)
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


# --- reference rules: the pairwise dedupe and the five-mat-vec FISTA loop ---------------


def reference_first_duplicate(frames, offsets):
    """The pairwise atom check, with the direct-residual orbit distance."""
    atoms = [(fr, np.atleast_1d(np.asarray(t, dtype=float))) for fr in frames for t in offsets]
    for n, (fr, t) in enumerate(atoms):
        for prev_fr, prev_t in atoms[:n]:
            if orbit_distance(prev_fr, fr) > DEDUP_TOL:
                continue
            v = align_rotation(prev_fr.rows, fr.rows)
            if np.linalg.norm(v @ prev_t - t) <= DEDUP_TOL:
                return f"duplicate atom at frame {fr.rows.tolist()}, offset {t.tolist()}"
    return None


def reference_fista(problem, on_iterate=None):
    """solve_lasso as it was with one residual per grad, f_smooth and objective call."""
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
    return _polish_active_set(problem, a, obj)


def criterion_10_problem():
    dico = build_dictionary(half_circle_frames(12), np.linspace(-3, 3, 16), 2.0, 2, 1)
    g = assemble(dico, gaussian_bumps(50), GRID)
    a_true = np.zeros(len(dico))
    a_true[3 * 16 + 5], a_true[9 * 16 + 11] = 1.5, -2.0
    y = g @ a_true
    return g, y, 1e-3 * np.abs(g.T @ y).max(), 1e-12, 50000


def restarting_problem():
    gen = RngSeed(5).generator()
    g = gen.normal(size=(25, 60))
    return g, gen.normal(size=25), 0.4, 1e-13, 3000


@pytest.mark.parametrize("make", [criterion_10_problem, restarting_problem])
def test_solve_lasso_matches_reference_loop_bitwise(make):
    g, y, lam, tol, max_iter = make()
    ref_hist, hist = [], []
    ref = reference_fista(LassoProblem(g, y, lam, tol=tol, max_iter=max_iter), ref_hist.append)
    problem = LassoProblem(g, y, lam, tol=tol, max_iter=max_iter)
    a = solve_lasso(problem, hist.append)
    stats = problem.stats
    assert np.array_equal(a, ref)
    assert hist == ref_hist
    assert stats["iterations"] == len(hist) > 0
    assert stats["polished"] is True
    if make is restarting_problem:
        assert stats["restarts"] > 0


def test_solve_lasso_stats_without_polish():
    g = RngSeed(1).generator().normal(size=(8, 5))
    problem = LassoProblem(g, np.zeros(8), 0.5)
    a = solve_lasso(problem)
    assert np.all(a == 0.0)
    assert problem.stats == {"iterations": 1, "restarts": 0, "backtracks": 0,
                             "polished": False}


@pytest.mark.parametrize("angle", [9 * math.pi / 16, 10 * math.pi / 16])
def test_build_dictionary_rejects_exact_duplicates(angle):
    # the closed-form orbit distance read 1.49e-8 > DEDUP_TOL for these frames
    f = Frame(2, 1, np.array([[math.cos(angle), math.sin(angle)]]))
    with pytest.raises(DomainError, match=r"offset \[0\.0\]"):
        build_dictionary([f, f], [0.0], 2.0, 2, 1)
    with pytest.raises(DomainError, match=r"offset \[0\.5\]"):
        build_dictionary([f, Frame(2, 1, -f.rows)], [0.5, -0.5], 2.0, 2, 1)


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
        dico = build_dictionary(frames, offsets, 2.5, d, 1)
        assert len(dico) == len(frames) * len(offsets)
        pairs = [(fr, t) for fr in frames for t in offsets]
        for atom, (fr, t) in zip(dico.atoms, pairs):
            assert atom.frame is fr and np.array_equal(atom.offset, t)
    else:
        with pytest.raises(DomainError) as err:
            build_dictionary(frames, offsets, 2.5, d, 1)
        assert str(err.value) == expect
