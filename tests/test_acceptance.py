"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one pass/fail line
per criterion (names double as the criterion labels; each test also prints a
PASS line with the measured value).
"""

import fractions
import json
import math

import numpy as np
import pytest

import kplane as kp
from kplane import (
    GridSpec,
    LassoProblem,
    MollifiedAtom,
    QuadSpec,
    RngSeed,
    Sinogram,
    TGrid,
)
from kplane.cli import main as cli_main
from kplane.transform import sino_dot, sino_norm


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# --- criterion 1: constants ---------------------------------------------------


def test_criterion_01_constants():
    c21 = kp.c_constant(2, 1)
    c32 = kp.c_constant(3, 2)
    assert abs(c21 - 1 / (4 * math.pi)) <= 1e-12
    assert abs(c32 - 1 / (8 * math.pi**2)) <= 1e-12
    report("criterion-1 constants", f"c21 err {abs(c21 - 1/(4*math.pi)):.2e}")


# --- criterion 2: analytic forward oracle --------------------------------------


def _forward_oracle_error(d, k, frames):
    spec = GridSpec.centered(d, 64, 0.2)
    fld = kp.gaussian_field(spec)
    t_grid = TGrid.centered(d - k, 64, 0.2)
    quad = QuadSpec(6.0, 128)
    sino = kp.forward(fld, frames, t_grid, quad, order=3)
    t_pts = t_grid.points()
    worst = 0.0
    for i, fr in enumerate(frames):
        truth = kp.gaussian_kplane(fr, t_pts, np.zeros(d))
        worst = max(worst, float(np.abs(sino.values[i].ravel() - truth).max() / truth.max()))
    return worst


@pytest.mark.parametrize(
    "d,k,label",
    [(2, 1, "d2k1"), (3, 1, "d3k1"), (3, 2, "d3k2")],
)
def test_criterion_02_forward_oracle(d, k, label):
    if (d, k) == (2, 1):
        frames = kp.frameset_circle(12)
    else:
        frames = kp.frameset_haar(d, k, 3, RngSeed(41 + k))
    err = _forward_oracle_error(d, k, frames)
    assert err <= 1e-3
    report(f"criterion-2 forward oracle {label}", f"max rel err {err:.2e}")


# --- criterion 3: inversion identity --------------------------------------------


def test_criterion_03_inversion_2d():
    spec = GridSpec.centered(2, 64, 0.2)
    mix = kp.mixture_field(spec, [[1.6, 0.8], [-1.2, -0.4]], [1.0, 0.7])
    frames = kp.frameset_circle(180)
    t_grid = TGrid.centered(1, 128, 0.2)
    quad = QuadSpec(9.0, 128)
    sino = kp.forward(mix, frames, t_grid, quad, order=1)
    recon = kp.fbp(sino, spec)
    err = kp.rel_l2_error(recon, mix)
    gain = kp.calibrate_gain(frames, spec, t_grid, quad)
    assert err <= 0.05
    assert abs(gain - 1.0) <= 0.05
    report("criterion-3 inversion d2k1", f"rel L2 {err:.3f}, gain {gain:.3f}")


def test_criterion_03_inversion_3d_xray():
    spec = GridSpec.centered(3, 24, 0.4)
    mix = kp.mixture_field(spec, [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]], [1.0, 0.7])
    frames = kp.frameset_haar(3, 1, 1500, RngSeed(7))
    t_grid = TGrid.centered(2, 48, 0.35)
    quad = QuadSpec(8.0, 48)
    sino = kp.forward(mix, frames, t_grid, quad, order=1)
    recon = kp.fbp(sino, spec)
    err = kp.rel_l2_error(recon, mix)
    gain = kp.calibrate_gain(frames, spec, t_grid, quad)
    assert err <= 0.10
    assert abs(gain - 1.0) <= 0.05
    report("criterion-3 inversion d3k1", f"rel L2 {err:.3f}, gain {gain:.3f}")


def test_criterion_03_inversion_3d_radon():
    spec = GridSpec.centered(3, 24, 0.4)
    mix = kp.mixture_field(spec, [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]], [1.0, 0.7])
    frames = kp.frameset_haar(3, 2, 4000, RngSeed(8))
    t_grid = TGrid.centered(1, 64, 0.3)
    quad = QuadSpec(8.0, 48)
    sino = kp.forward(mix, frames, t_grid, quad, order=1)
    recon = kp.fbp(sino, spec)
    err = kp.rel_l2_error(recon, mix)
    gain = kp.calibrate_gain(frames, spec, t_grid, quad)
    assert err <= 0.10
    assert abs(gain - 1.0) <= 0.05
    report("criterion-3 inversion d3k2", f"rel L2 {err:.3f}, gain {gain:.3f}")


# --- criterion 4: Fourier slice theorem ------------------------------------------


@pytest.mark.parametrize(
    "d,k,n_grid,h,label",
    [(2, 1, 64, 0.2, "d2k1"), (3, 1, 48, 0.25, "d3k1"), (3, 2, 48, 0.25, "d3k2")],
)
def test_criterion_04_fourier_slice(d, k, n_grid, h, label):
    spec = GridSpec.centered(d, n_grid, h)
    means = [[0.8, 0.3], [-0.5, -0.9]] if d == 2 else [[0.8, 0.3, -0.2], [-0.5, -0.9, 0.4]]
    mix = kp.mixture_field(spec, means, [1.0, 0.6])
    quad = QuadSpec(9.0, 128) if d == 2 else QuadSpec(7.5, 96)
    gen = RngSeed(50 + k).generator()
    pairs = []
    for _ in range(20):
        fr = kp.haar_frame_sample(d, k, gen)
        omega = gen.uniform(-1, 1, size=d - k)
        norm = np.linalg.norm(omega)
        if norm > 0:
            omega *= gen.uniform(0, 4) / norm
        pairs.append(kp.slice_pair(mix, fr, omega, quad=quad))
    scale = max(abs(rhs) for _, rhs in pairs)
    worst = max(abs(lhs - rhs) for lhs, rhs in pairs) / scale
    assert worst <= 1e-3
    report(f"criterion-4 fourier slice {label}", f"max rel {worst:.2e}")


# --- criterion 5: range conditions ------------------------------------------------


def test_criterion_05_range_conditions():
    spec = GridSpec.centered(2, 64, 0.2)
    means = [[0.8, 0.3], [-0.5, -0.9]]
    weights = [0.625, 0.375]  # unit total mass: moment 1 equals alpha . centroid
    mix = kp.mixture_field(spec, means, weights)
    frames = kp.frameset_circle(16)
    t_grid = TGrid.centered(1, 127, 0.2)
    quad = QuadSpec(9.0, 128)
    sino = kp.forward(mix, frames, t_grid, quad)

    mass = kp.integrate(mix)
    m0 = kp.moment_integral(sino, 1, 0)
    m0_spread = float((m0.max() - m0.min()) / abs(mass))
    assert np.abs(m0 - mass).max() / abs(mass) <= 1e-3
    assert m0_spread <= 1e-3

    # first moment vs direct grid quadrature of phi(x) (alpha . x); for the
    # unit-mass phantom this is alpha . centroid
    pts = spec.points()
    phi = mix.values.ravel()
    centroid = kp.mixture_centroid(means, weights)
    m1 = kp.moment_integral(sino, 1, 1)
    m1_worst = 0.0
    for i, fr in enumerate(frames):
        oracle = spec.spacing**2 * float((phi * (pts @ fr.rows[0])).sum())
        m1_worst = max(m1_worst, abs(float(m1[i]) - oracle))
        m1_worst = max(m1_worst, abs(float(m1[i]) - float(fr.rows[0] @ centroid)))
    assert m1_worst <= 1e-3

    # isotropy under 10 random rotations of (A, t)
    gen = RngSeed(17).generator()
    t_pts = t_grid.points()
    iso_worst = 0.0
    for _ in range(10):
        u = kp.haar_orthogonal_sample(1, gen).mat
        i = int(gen.integers(0, len(frames)))
        rotated = sino.generator(u @ frames.frames[i].rows, t_pts @ u.T)
        iso_worst = max(iso_worst, float(np.abs(rotated - sino.values[i].ravel()).max()))
    assert iso_worst <= 2e-3

    # same rotation check for a d=3, k=1 Monte-Carlo setting (m = 2 rotations)
    spec3 = GridSpec.centered(3, 32, 0.35)
    mix3 = kp.mixture_field(spec3, [[0.6, -0.2, 0.3]], [1.0])
    frames3 = kp.frameset_haar(3, 1, 4, RngSeed(19))
    t3 = TGrid.centered(2, 31, 0.3)
    sino3 = kp.forward(mix3, frames3, t3, QuadSpec(6.5, 64))
    t3_pts = t3.points()
    iso3_worst = 0.0
    for _ in range(10):
        u = kp.haar_orthogonal_sample(2, gen).mat
        i = int(gen.integers(0, 4))
        rotated = sino3.generator(u @ frames3.frames[i].rows, t3_pts @ u.T)
        iso3_worst = max(iso3_worst, float(np.abs(rotated - sino3.values[i].ravel()).max()))
    assert iso3_worst <= 2e-3

    report(
        "criterion-5 range conditions",
        f"m0 spread {m0_spread:.2e}, m1 err {m1_worst:.2e}, "
        f"isotropy {max(iso_worst, iso3_worst):.2e}",
    )


# --- criterion 6: intertwining ------------------------------------------------------


def test_criterion_06_intertwining():
    worst = 0.0
    # d=2, k=1
    spec = GridSpec.centered(2, 64, 0.2)
    fld = kp.gaussian_field(spec, mean=[0.6, -0.4])
    frames = kp.frameset_circle(16)
    t_grid = TGrid.centered(1, 127, 0.2)
    quad = QuadSpec(9.0, 128)
    smoother = kp.gaussian_spec(0.8)
    sino = kp.forward(fld, frames, t_grid, quad)
    lhs = kp.forward(kp.apply_radial(fld, smoother), frames, t_grid, quad)
    rhs = kp.apply_radial(sino, smoother)
    worst = max(worst, sino_norm(lhs.copy_with(lhs.values - rhs.values, None)) / sino_norm(rhs))
    # d=3, k=2
    spec3 = GridSpec.centered(3, 48, 0.25)
    fld3 = kp.gaussian_field(spec3, mean=[0.4, -0.2, 0.1])
    frames3 = kp.frameset_haar(3, 2, 12, RngSeed(23))
    t3 = TGrid.centered(1, 95, 0.25)
    quad3 = QuadSpec(7.5, 96)
    sino3 = kp.forward(fld3, frames3, t3, quad3)
    lhs3 = kp.forward(kp.apply_radial(fld3, smoother), frames3, t3, quad3)
    rhs3 = kp.apply_radial(sino3, smoother)
    worst = max(worst, sino_norm(lhs3.copy_with(lhs3.values - rhs3.values, None)) / sino_norm(rhs3))
    assert worst <= 1e-2
    report("criterion-6 intertwining", f"rel L2 {worst:.2e}")


# --- criterion 7: projector suite -----------------------------------------------------


def _haar_closure_sinogram(n_frames, delta, seed):
    frames = kp.frameset_haar(3, 1, n_frames, RngSeed(seed))
    t_grid = TGrid.centered(2, 15, 0.45)
    x1 = np.array([0.6, -0.3, 0.2])

    def gen(rows, pts):
        # one (2, 3) frame or an (n, 2, 3) stack, at (P, 2) points
        sq = ((pts - (rows @ x1)[..., None, :]) ** 2).sum(axis=-1)
        return np.exp(-sq / 2.0) * (1.0 + delta * rows[..., 0, 0, None])

    return Sinogram(frames, t_grid, gen(frames.rows, t_grid.points()), gen)


def test_criterion_07_projector_suite():
    # exact O(1) branch on forward sinograms
    spec = GridSpec.centered(2, 64, 0.2)
    mix = kp.mixture_field(spec, [[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
    frames = kp.frameset_circle(180)
    t_grid = TGrid.centered(1, 127, 0.2)
    quad = QuadSpec(9.0, 128)
    sino = kp.forward(mix, frames, t_grid, quad, order=1)
    p1 = kp.project_iso(sino)
    p2 = kp.project_iso(p1)
    exact_defect = float(np.abs(p2.values - p1.values).max())
    assert exact_defect <= 1e-12
    assert sino_norm(p1) <= sino_norm(sino) * (1 + 1e-6)

    # Monte-Carlo branch
    g_mc = _haar_closure_sinogram(240, 0.15, 21)
    q1 = kp.project_iso(g_mc, n_rotations=64, rng=RngSeed(5))
    q2 = kp.project_iso(q1, n_rotations=64, rng=RngSeed(6))
    mc_defect = sino_norm(q1.copy_with(q2.values - q1.values, None)) / sino_norm(q1)
    assert mc_defect <= 2e-2
    assert sino_norm(q1) <= sino_norm(g_mc) * (1 + 1e-6)

    # self-adjointness (MC tolerance)
    f = _haar_closure_sinogram(240, 0.3, 21)
    x2 = np.array([-0.4, 0.5, 0.1])

    def gen2(rows, pts):
        sq = ((pts - (rows @ x2)[..., None, :]) ** 2).sum(axis=-1)
        return np.exp(-sq / 1.5) * (1.0 + 0.3 * rows[..., 1, 2, None])

    g2 = Sinogram(f.frames, f.t_grid, gen2(f.frames.rows, f.t_grid.points()), gen2)
    pf = kp.project_iso(f, 64, RngSeed(7))
    pg = kp.project_iso(g2, 64, RngSeed(7))
    adj_resid = abs(sino_dot(pf, g2) - sino_dot(f, pg)) / (sino_norm(f) * sino_norm(g2))
    assert adj_resid <= 2e-2

    # P_k fixes the range and annihilates the anti-isotropic part
    pk = kp.pk_project(sino, spec, quad, order=1)
    fix_rel = sino_norm(sino.copy_with(pk.values - sino.values, None)) / sino_norm(sino)
    assert fix_rel <= 0.05

    def gen_aniso(rows, pts):
        a = rows[..., 0, :]
        center = (0.8 * a[..., 0] + 0.3 * a[..., 1])[..., None, None]
        sq = ((pts - center) ** 2).sum(axis=-1)
        return np.exp(-sq / 2.0) * (1.0 + 0.5 * a[..., 0, None])

    g_aniso = Sinogram(frames, t_grid, gen_aniso(frames.rows, t_grid.points()), gen_aniso)
    iso_part = kp.project_iso(g_aniso)
    anti = g_aniso.copy_with(g_aniso.values - iso_part.values, None)
    anti_out = kp.pk_project(anti, spec, quad, order=1)
    anti_rel = sino_norm(anti_out) / sino_norm(anti)
    assert anti_rel <= 0.10

    report(
        "criterion-7 projector suite",
        f"idempotence exact {exact_defect:.1e} / mc {mc_defect:.1e}, "
        f"self-adjoint {adj_resid:.1e}, fix {fix_rel:.1e}, anti {anti_rel:.1e}",
    )


# --- criterion 8: ridge/atom identity ---------------------------------------------------


def test_criterion_08_ridge_atom_identity():
    frames = kp.frameset_haar(3, 1, 2000, RngSeed(7))
    a0 = frames.frames[0]
    t0 = np.array([0.8, -0.5])
    eps_t = 1.25
    atom = MollifiedAtom(a0, t0, frame_width=0.1, t_width=eps_t)
    t_grid = TGrid.centered(2, 48, 0.35)
    sino = kp.render_delta_iso(atom, frames, t_grid, n_rotations=64, rng=RngSeed(3))
    grid = GridSpec.centered(3, 16, 0.4)
    recon = kp.backproject(sino, grid)
    pts = grid.points()
    arg = pts @ a0.rows.T - t0
    profile = np.exp(-(arg**2).sum(-1) / (2 * eps_t**2)) / (2 * np.pi * eps_t**2)
    truth = kp.GridField(grid.origin, grid.spacing, grid.shape, profile.reshape(grid.shape))
    err = kp.rel_l2_error(recon, truth)
    assert err <= 0.10
    report("criterion-8 ridge atom", f"rel L2 {err:.3f}")


# --- criterion 9: Hankel / RBF oracles ----------------------------------------------------


def test_criterion_09_hankel_and_green():
    t = np.arange(0.0, 12.0, 0.002)
    rho = np.exp(-(t**2) / 2) / (2 * math.pi) ** 1.5
    omega = np.linspace(0.0, 6.0, 61)
    prof = kp.hankel_profile(t, rho, 3, omega)
    hankel_err = float(np.abs(prof - np.exp(-(omega**2) / 2)).max())
    assert hankel_err <= 1e-6

    table = kp.green_rbf(2.0, 1)
    r = np.linspace(0.0, 8.0, 81)
    green_err = float(np.abs(table(r) - np.exp(-r) / 2).max())
    assert green_err <= 1e-4
    report("criterion-9 hankel/rbf", f"hankel {hankel_err:.1e}, green {green_err:.1e}")


# --- criterion 10: representer-theorem surrogate --------------------------------------------


def test_criterion_10_planted_recovery():
    grid = GridSpec.centered(2, 64, 0.2)
    angles = np.pi * np.arange(12) / 12
    frames = kp.FrameSet(tuple(kp.Frame(2, 1, np.array([[math.cos(a), math.sin(a)]]))
                               for a in angles), "explicit")
    offsets = np.linspace(-3, 3, 16)
    dico = kp.build_dictionary(frames, offsets, 2.0)

    gen = RngSeed(123).generator()
    pts = grid.points()
    functionals = []
    for _ in range(50):
        c = gen.uniform(-2.5, 2.5, size=2)
        v = np.exp(-((pts - c) ** 2).sum(-1) / (2 * 0.8**2))
        functionals.append(kp.GridField(grid.origin, grid.spacing, grid.shape,
                                        v.reshape(grid.shape)))
    gram = kp.assemble(dico, kp.MeasurementSet(functionals))

    j1, j2 = 3 * 16 + 5, 9 * 16 + 11
    a_true = np.zeros(len(dico))
    a_true[j1], a_true[j2] = 1.5, -2.0
    y = gram @ a_true
    lam = 1e-3 * float(np.abs(gram.T @ y).max())
    problem = LassoProblem(gram, y, lam, tol=1e-12, max_iter=50000)
    a = kp.solve_lasso(problem)

    supp = set(kp.support(a).tolist())
    assert len(supp) <= 50
    for j in (j1, j2):  # one-grid-cell slack around each planted atom
        assert supp & {j, j - 1, j + 1, j - 16, j + 16}
    inactive_excess, active_mismatch = kp.kkt_residuals(problem, a)
    assert inactive_excess <= lam / 2 * problem.tol * 10
    assert active_mismatch <= lam * problem.tol * 10
    # reg_cost is ||a||_1 rounded once; the exact rational sum is the oracle
    assert kp.reg_cost(a) == float(sum(map(fractions.Fraction, np.abs(a).tolist())))
    report(
        "criterion-10 planted recovery",
        f"support {len(supp)}, kkt {max(inactive_excess, active_mismatch):.1e}",
    )


# --- criterion 11: reproducibility -----------------------------------------------------------


def test_criterion_11_reproducibility(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "d": 2,
        "k": 1,
        "grid": {"origin": [-6.3, -6.3], "spacing": 0.2, "shape": [64, 64]},
        "frames": {"mode": "monte-carlo", "count": 32, "seed": 5, "stream": 1},
        "t_grid": {"origin": [-12.7], "spacing": 0.2, "shape": [128]},
        "quad": {"halfwidth": 9.0, "nodes": 128},
        "filter": {"pad_factor": 2.0},
        "interp_order": 1,
        "phantom": {"kind": "mixture", "components": [
            {"mean": [1.0, 0.5], "weight": 1.0},
            {"mean": [-0.8, -0.2], "weight": 0.7}]},
        "output": {"dir": str(out)},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for _ in range(2):
        assert cli_main(["phantom", "--config", str(cfg_path)]) == 0
        assert cli_main(["forward", "--config", str(cfg_path)]) == 0
        assert cli_main(["fbp", "--config", str(cfg_path)]) == 0
        blobs.append(tuple((out / name).read_bytes()
                           for name in ("phantom.kpt", "sinogram.kpt", "recon.kpt")))
    assert blobs[0] == blobs[1]
    report("criterion-11 reproducibility", "pipeline outputs byte-identical")
