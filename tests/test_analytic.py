import numpy as np
import pytest

from kplane import (
    DomainError,
    Frame,
    GridSpec,
    QuadSpec,
    RidgeAtom,
    RngSeed,
    TGrid,
    TruncationWarning,
    complete_frame,
    forward,
    frameset_haar,
    gaussian_field,
    gaussian_kplane,
    haar_frame_sample,
    haar_orthogonal_sample,
    integrate,
    isotropic_kplane,
    mixture_field,
    ridge_eval,
    rotate_pair,
    slice_pair,
)


def test_gaussian_kplane_values():
    fr = haar_frame_sample(3, 1, RngSeed(2))
    assert gaussian_kplane(fr, np.zeros(2), np.zeros(3)) == pytest.approx(
        1 / (2 * np.pi), rel=1e-12
    )
    fr2 = Frame(2, 1, np.array([[1.0, 0.0]]))
    assert gaussian_kplane(fr2, np.array([1.0]), np.array([1.0, 0.0])) == pytest.approx(
        (2 * np.pi) ** -0.5, rel=1e-12
    )


def test_gaussian_kplane_peak_at_projected_center():
    gen = RngSeed(3).generator()
    fr = haar_frame_sample(4, 2, gen)
    x0 = gen.normal(size=4)
    peak = gaussian_kplane(fr, fr.rows @ x0, x0)
    assert peak == pytest.approx((2 * np.pi) ** -1.0, rel=1e-12)
    other = gaussian_kplane(fr, fr.rows @ x0 + 0.5, x0)
    assert other < peak


GRID_2D = GridSpec.centered(2, 64, 0.2)
MIX_2D = mixture_field(GRID_2D, [[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
QUAD_WIDE = QuadSpec(9.0, 128)


def test_slice_pair_gaussian_mixture_2d():
    gen = RngSeed(5).generator()
    pairs = []
    for _ in range(20):
        fr = haar_frame_sample(2, 1, gen)
        om = gen.uniform(-4, 4, size=1)
        pairs.append(slice_pair(MIX_2D, fr, om, quad=QUAD_WIDE))
    scale = max(abs(rhs) for _, rhs in pairs)
    worst = max(abs(lhs - rhs) for lhs, rhs in pairs)
    assert worst / scale <= 1e-3


def test_slice_pair_dc_is_mass():
    fr = haar_frame_sample(2, 1, RngSeed(1))
    lhs, rhs = slice_pair(MIX_2D, fr, np.zeros(1), quad=QUAD_WIDE)
    assert lhs.real == pytest.approx(integrate(MIX_2D), abs=1e-4)
    assert abs(lhs.imag) <= 1e-9


def test_slice_pair_shift_phase():
    x0 = np.array([0.9, -0.4])
    fld = gaussian_field(GRID_2D, mean=x0)
    gen = RngSeed(7).generator()
    for _ in range(5):
        fr = haar_frame_sample(2, 1, gen)
        om = gen.uniform(-3, 3, size=1)
        lhs, rhs = slice_pair(fld, fr, om, quad=QUAD_WIDE)
        expected = np.exp(-float(om[0] ** 2) / 2) * np.exp(-1j * float(om[0] * (fr.rows[0] @ x0)))
        assert abs(lhs - rhs) <= 1e-3
        assert abs(rhs - expected) <= 1e-3


def test_slice_pair_rejects_field_of_other_dimension():
    fr = haar_frame_sample(3, 1, RngSeed(1))
    with pytest.raises(DomainError, match=r"field dimension 2 != frame d = 3"):
        slice_pair(MIX_2D, fr, np.zeros(2), quad=QUAD_WIDE)


def gauss_radial(step=0.002, extent=12.0):
    t = np.arange(0.0, extent, step)
    return t, np.exp(-(t**2) / 2) / (2 * np.pi) ** 1.5


def test_isotropic_kplane_gaussian_3d_xray():
    t, rho = gauss_radial()
    tau = np.linspace(0, 5, 26)
    vals = isotropic_kplane(t, rho, 3, 1, tau)
    truth = np.exp(-(tau**2) / 2) / (2 * np.pi)
    assert np.abs(vals - truth).max() <= 1e-4


def test_isotropic_kplane_zero_profile():
    t = np.arange(0.0, 6.0, 0.01)
    vals = isotropic_kplane(t, np.zeros_like(t), 3, 1, np.linspace(0, 3, 7))
    assert np.abs(vals).max() == 0.0


def test_isotropic_kplane_matches_forward_3d_radon():
    t, rho = gauss_radial()
    spec = GridSpec.centered(3, 48, 0.25)
    fld = gaussian_field(spec)
    frames = frameset_haar(3, 2, 5, RngSeed(12))
    tg = TGrid.centered(1, 41, 0.25)
    # the t-grid reaches 5, inside the Gaussian's 1e-6 support radius of 5.3
    with pytest.warns(TruncationWarning, match="truncated"):
        sino = forward(fld, frames, tg, QuadSpec(6.0, 96))
    vals = isotropic_kplane(t, rho, 3, 2, np.abs(tg.axes()[0]))
    for i in range(len(frames)):
        assert np.abs(sino.values[i] - vals).max() / vals.max() <= 1e-3


def test_ridge_eval_peak_and_profile():
    fr = haar_frame_sample(3, 1, RngSeed(9))
    t0 = np.array([0.7, -0.2])
    atom = RidgeAtom(1.0, fr, t0, profile="gaussian")
    # any x with A0 x = t0 is on the ridge crest
    x = fr.rows.T @ t0
    assert ridge_eval(atom, x) == pytest.approx(1 / (2 * np.pi), rel=1e-12)


def test_ridge_eval_constant_along_plane_directions():
    gen = RngSeed(10).generator()
    fr = haar_frame_sample(3, 1, gen)
    atom = RidgeAtom(1.3, fr, np.array([0.2, 0.4]), profile="gaussian")
    b = complete_frame(fr.rows)
    x = gen.normal(size=3)
    base = ridge_eval(atom, x)
    for _ in range(5):
        shift = b @ gen.normal(size=1)
        assert ridge_eval(atom, x + shift) == pytest.approx(base, abs=1e-12)


def test_ridge_eval_rbf_center_value():
    fr = Frame(2, 1, np.array([[0.0, 1.0]]))
    atom = RidgeAtom(2.0, fr, np.array([0.0]), profile="rbf", s=2.0)
    x = np.zeros(2)
    assert ridge_eval(atom, x) == pytest.approx(2.0 * 0.5, abs=2e-4)


def test_ridge_eval_rbf_extends_table():
    fr = Frame(2, 1, np.array([[1.0, 0.0]]))
    atom = RidgeAtom(1.0, fr, np.array([0.0]), profile="rbf", s=2.0)
    far = np.array([20.0, 0.0])
    assert ridge_eval(atom, far) == pytest.approx(np.exp(-20.0) / 2, abs=1e-8)


def test_ridge_rotation_covariance():
    gen = RngSeed(11).generator()
    fr = haar_frame_sample(3, 1, gen)
    t0 = np.array([0.5, -0.8])
    rot = haar_orthogonal_sample(2, gen)
    fr_u, t0_u = rotate_pair(fr, t0, rot)
    a1 = RidgeAtom(1.0, fr, t0, profile="gaussian")
    a2 = RidgeAtom(1.0, fr_u, t0_u, profile="gaussian")
    pts = gen.normal(size=(50, 3))
    assert np.abs(ridge_eval(a1, pts) - ridge_eval(a2, pts)).max() <= 1e-12


def test_ridge_atom_validation():
    fr = haar_frame_sample(3, 1, RngSeed(1))
    with pytest.raises(DomainError):
        RidgeAtom(1.0, fr, np.array([0.0, 0.0]), profile="rbf", s=1.5)  # s <= d-k
    for s in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            RidgeAtom(1.0, fr, np.array([0.0, 0.0]), profile="rbf", s=s)
    with pytest.raises(DomainError):
        RidgeAtom(np.nan, fr, np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        RidgeAtom(1.0, fr, np.array([0.0, 0.0]), profile="wavelet")
