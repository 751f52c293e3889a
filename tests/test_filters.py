import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special

from kplane import (
    DomainError,
    FrameSet,
    GridField,
    GridSpec,
    RngSeed,
    Sinogram,
    TGrid,
    apply_radial,
    bessel_j,
    bessel_spec,
    c_constant,
    gaussian_spec,
    green_rbf,
    hankel_profile,
    haar_frame_sample,
    ramp_filter,
    ramp_spec,
)
from kplane.filters import RadialTable, apply_radial_array, inverse_radial_profile
from kplane.transform import frameset_haar


def gaussian_block(n, h, width=1.0):
    t = -h * (n - 1) / 2 + h * np.arange(n)
    return t, np.exp(-(t**2) / (2 * width**2))


def test_bessel_zero_order_is_identity():
    gen = RngSeed(0).generator()
    vals = gen.normal(size=64)
    out = apply_radial_array(vals, 0.1, bessel_spec(0.0, 1))
    assert np.abs(out - vals).max() <= 1e-12


def test_ramp_annihilates_constant():
    vals = np.full((32,), 3.7)
    out = apply_radial_array(vals, 0.2, ramp_spec(2, 1), pad_factor=1.0)
    assert np.abs(out).max() <= 1e-10


def test_ramp_matches_direct_quadrature():
    # oracle: (c/2pi) int |w| ghat(w) e^{iwt} dw with ghat = sqrt(2pi) e^{-w^2/2}
    t, g = gaussian_block(2401, 0.01)
    out = apply_radial_array(g, 0.01, ramp_spec(2, 1), pad_factor=4.0)
    w = np.arange(0.0, 12.0, 0.002)
    ker = w * np.sqrt(2 * np.pi) * np.exp(-(w**2) / 2)
    c = c_constant(2, 1)
    oracle = np.array([c / np.pi * np.trapezoid(ker * np.cos(w * ti), w) for ti in t[::40]])
    assert np.abs(out[::40] - oracle).max() <= 1e-4


def test_bessel_potential_roundtrip():
    # reciprocal multipliers cancel exactly on the uncropped block
    t, g = gaussian_block(322, 0.05)
    sharp = apply_radial_array(g, 0.05, bessel_spec(1.5, 1), pad_factor=1.0)
    back = apply_radial_array(sharp, 0.05, bessel_spec(1.5, -1), pad_factor=1.0)
    assert np.abs(back - g).max() <= 1e-8


def test_gaussian_multiplier_nonexpansive():
    gen = RngSeed(5).generator()
    vals = gen.normal(size=(48, 48))
    out = apply_radial_array(vals, 0.3, gaussian_spec(0.7))
    assert np.linalg.norm(out) <= np.linalg.norm(vals) * (1 + 1e-12)


def make_sino(n_frames=5, seed=2):
    gen = RngSeed(seed).generator()
    frames = FrameSet(tuple(haar_frame_sample(2, 1, gen) for _ in range(n_frames)), "explicit")
    t_grid = TGrid.centered(1, 64, 0.25)
    t = t_grid.axes()[0]
    values = np.stack([np.exp(-((t - 0.3 * i) ** 2) / 2) for i in range(n_frames)])
    return Sinogram(frames, t_grid, values)


def test_ramp_filter_linearity():
    a = make_sino(seed=2)
    b = make_sino(seed=3)
    b = a.copy_with(np.roll(a.values, 5, axis=1))
    combo = a.copy_with(2.0 * a.values - 0.5 * b.values)
    fa, fb, fc = ramp_filter(a), ramp_filter(b), ramp_filter(combo)
    assert np.abs(fc.values - (2.0 * fa.values - 0.5 * fb.values)).max() <= 1e-12


def test_ramp_filter_commutes_with_frame_reordering():
    sino = make_sino()
    perm = [3, 1, 4, 0, 2]
    reordered = Sinogram(FrameSet(sino.frames.rows[perm], "explicit"), sino.t_grid,
                         sino.values[perm])
    out1 = ramp_filter(sino)
    out2 = ramp_filter(reordered)
    assert np.array_equal(out2.values, out1.values[perm])


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_ramp_filter_is_linear_convolution_with_band_limited_kernel(d, k):
    # d-k = 1: padded to at least 2n - 1 points, each t-block is convolved
    # linearly (no wrap-around) with the kernel of c |w|^k band-limited to pi/h,
    # ker(r h) = (1/pi) int_0^(pi/h) w^k cos(w r h) dw, here by QAWO quadrature
    h, n = 0.25, 64
    frames = frameset_haar(d, k, 3, RngSeed(d))
    t = TGrid.centered(1, n, h).axes()[0]
    values = np.stack([np.exp(-((t - 0.7 * i) ** 2) / 2) + 0.1 * (t > 2) for i in range(3)])
    sino = Sinogram(frames, TGrid.centered(1, n, h), values)
    lags = np.arange(n)
    ker = np.array([integrate.quad(lambda u: u**k, 0, np.pi, weight="cos", wvar=r)[0]
                    for r in lags]) / (np.pi * h ** (k + 1))
    conv = ker[np.abs(lags[:, None] - lags[None, :])]  # (output, input) lag table
    ref = c_constant(d, k) * h * values @ conv.T
    for pad in (2.0, 3.0):
        got = ramp_filter(sino, pad_factor=pad).values
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_ramp_filter_dimension_check():
    sino = make_sino()
    with pytest.raises(DomainError):
        ramp_filter(sino, 3, 1)


def test_apply_radial_on_grid_field():
    spec = GridSpec.centered(2, 32, 0.25)
    pts = spec.points()
    vals = np.exp(-(pts**2).sum(axis=1) / 2).reshape(spec.shape)
    fld = GridField(spec.origin, spec.spacing, spec.shape, vals)
    out = apply_radial(fld, gaussian_spec(0.5))
    assert isinstance(out, GridField)
    assert out.values.max() < vals.max()  # smoothing lowers the peak


@pytest.mark.parametrize("d,k,n_frames,n_t", [(2, 1, 7, 40), (3, 2, 5, 33), (3, 1, 4, 15),
                                               (2, 1, 4, 2**19)])
@pytest.mark.parametrize("spec", [ramp_spec(3, 1), gaussian_spec(0.6), bessel_spec(2.0, -1)])
def test_apply_radial_sinogram_is_per_frame_array_bitwise(d, k, n_frames, n_t, spec):
    # a sinogram's frames are batched in chunks of about 4e6 padded points; the
    # n_t = 2^19 case (2^20 padded points a frame) splits 4 frames as 3 + 1
    frames = frameset_haar(d, k, n_frames, RngSeed(d + k))
    t_grid = TGrid.centered(d - k, n_t, 0.2)
    vals = RngSeed(7).generator().normal(size=(n_frames,) + t_grid.shape)
    out = apply_radial(Sinogram(frames, t_grid, vals), spec)
    ref = np.stack([apply_radial_array(v, 0.2, spec) for v in vals])
    assert np.array_equal(out.values, ref)


def test_apply_radial_rejects_bad_pad_factor():
    for pad in (0.5, float("nan"), float("inf"), 1e300):
        with pytest.raises(DomainError):
            apply_radial_array(np.ones(8), 0.1, gaussian_spec(1.0), pad_factor=pad)


# --- Bessel functions --------------------------------------------------------


def test_bessel_j_special_values():
    assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert bessel_j(0.5, np.pi / 2) == pytest.approx(2 / np.pi, abs=1e-12)


def test_bessel_j_unsupported_order():
    with pytest.raises(DomainError):
        bessel_j(3, 1.0)


def _bessel_integral_oracle(n, x):
    # J_n(x) = (1/pi) int_0^pi cos(n q - x sin q) dq
    q = np.linspace(0.0, np.pi, 20001)
    return np.trapezoid(np.cos(n * q[None, :] - np.outer(x, np.sin(q))), q, axis=1) / np.pi


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_j_integer_orders_vs_integral(order):
    x = np.concatenate([np.linspace(0, 13.9, 57), np.linspace(14.1, 60, 47)])
    mine = bessel_j(order, x)
    oracle = _bessel_integral_oracle(order, x)
    assert np.abs(mine - oracle).max() <= 1e-10


def test_bessel_j_half_orders_closed_forms():
    x = np.linspace(0.01, 40, 300)
    j_half = np.sqrt(2 / (np.pi * x)) * np.sin(x)
    j_three_half = np.sqrt(2 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))
    assert np.abs(bessel_j(0.5, x) - j_half).max() <= 1e-12
    assert np.abs(bessel_j(1.5, x) - j_three_half).max() <= 1e-10


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("x_lo,x_hi,h", [(0.5, 8.0, 0.01), (16.0, 30.0, 0.015)])
def test_bessel_j_ode_residual(order, x_lo, x_hi, h):
    # x^2 J'' + x J' + (x^2 - nu^2) J = 0, via 4th-order stencils
    x = np.linspace(x_lo, x_hi, 150)
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    vals = np.stack([bessel_j(order, x + s) for s in stencil])
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h**2)
    resid = x**2 * d2 + x * d1 + (x**2 - order**2) * vals[2]
    assert np.abs(resid).max() <= 1e-6


# --- Hankel transform --------------------------------------------------------


def test_hankel_gaussian_3d():
    t = np.arange(0.0, 12.0, 0.002)
    rho = np.exp(-(t**2) / 2) / (2 * np.pi) ** 1.5
    omega = np.linspace(0.0, 6.0, 61)
    prof = hankel_profile(t, rho, 3, omega)
    assert np.abs(prof - np.exp(-(omega**2) / 2)).max() <= 1e-6


def test_hankel_gaussian_2d():
    t = np.arange(0.0, 12.0, 0.002)
    rho = np.exp(-(t**2) / 2) / (2 * np.pi)
    omega = np.linspace(0.0, 6.0, 31)
    prof = hankel_profile(t, rho, 2, omega)
    assert np.abs(prof - np.exp(-(omega**2) / 2)).max() <= 1e-5


def test_hankel_zero_profile():
    t = np.arange(0.0, 5.0, 0.01)
    prof = hankel_profile(t, np.zeros_like(t), 3, np.linspace(0, 4, 9))
    assert np.abs(prof).max() == 0.0


def test_hankel_unsupported_dimension():
    t = np.arange(0.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        hankel_profile(t, np.zeros_like(t), 7, np.array([1.0]))


# --- Green's function of the Bessel potential --------------------------------


def test_green_rbf_matches_matern_closed_form():
    table = green_rbf(2.0, 1)
    assert table(0.0) == pytest.approx(0.5, abs=1e-4)
    assert table(3.0) == pytest.approx(math.exp(-3) / 2, abs=1e-4)
    r = np.linspace(0, 8, 50)
    assert np.abs(table(r) - np.exp(-r) / 2).max() <= 1e-4
    # a non-finite radius reads 0 and does not extend the table
    size = table.table[0].size
    assert table(np.array([np.inf, 1.0])) == pytest.approx([0.0, math.exp(-1) / 2], abs=1e-4)
    assert table.table[0].size == size


def matern(s, n, r):
    """rho_s(r) = (2 pi)^(-n/2) 2^(1 - s/2) / Gamma(s/2) r^nu K_nu(r), nu = (s - n)/2,
    through kve in log form where K_nu overflows; Gamma(nu) / ((4 pi)^(n/2) Gamma(s/2)) at 0."""
    nu, r = (s - n) / 2.0, r[1:]
    const = (2 * math.pi) ** (-n / 2) * 2 ** (1 - s / 2) / math.gamma(s / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = const * r**nu * special.kv(nu, r)
    logged = np.exp(math.log(const) + nu * np.log(r) + np.log(special.kve(nu, r)) - r)
    at_zero = math.gamma(nu) / ((4 * math.pi) ** (n / 2) * math.gamma(s / 2))
    return np.concatenate([[at_zero], np.where(np.isfinite(direct), direct, logged)])


@pytest.mark.parametrize("s, n", [
    (1.2, 1), (1.5, 1), (2.0, 1), (2.5, 2), (3.0, 2), (5.0, 3), (12.0, 1),
    (20.0, 1), (40.0, 1), (80.0, 2), (150.0, 1),
    (1.02, 1), (1.1, 1), (2.02, 2), (3.1, 3),  # s - n in {0.02, 0.1}
])
def test_green_rbf_nodes_match_matern_closed_form(s, n):
    # every node within 1e-13 of rho_s(0); the step and limits follow s - n
    radii, values = green_rbf(s, n).table
    exact = matern(s, n, radii)
    assert np.all(np.isfinite(values))
    assert np.abs(values - exact).max() <= 1e-13 * exact[0]


@pytest.mark.parametrize("s", [12.0, 40.0, 150.0, 300.0, 342.0])
def test_green_rbf_unit_mass_by_poisson_summation(s):
    # n = 1: h sum_j rho_s(j h) over Z equals sum_k (1 + (2 pi k / h)^2)^(-s/2) = 1
    # to double precision; the s = 300 atom is wider than the default table
    table = green_rbf(s, 1)
    table(400.0)
    radii, values = table.table
    assert values[-1] <= 1e-60 * values[0]
    assert radii[1] * (values[0] + 2.0 * values[1:].sum()) == pytest.approx(1.0, abs=1e-13)


def test_green_rbf_even_symmetry():
    table = green_rbf(2.5, 1)
    r = np.linspace(0, 5, 11)
    assert np.array_equal(table(r), table(-r))


def test_green_rbf_extends_on_demand():
    table = green_rbf(2.0, 1, r_max=4.0)
    val = table(9.0)
    assert val == pytest.approx(math.exp(-9) / 2, abs=1e-6)
    with pytest.raises(DomainError):  # a table no array can hold
        table(1e300)


def test_green_rbf_nodes_do_not_depend_on_read_order():
    # the integration limits follow each extension's radii, so the table grows by
    # whole doublings: the nodes two read orders share hold the same values
    one, two = green_rbf(2.0, 1), green_rbf(2.0, 1)
    one(np.array([12.5, 13.0, 20.9]))
    two(np.array([12.5, 13.0]))
    two(np.array([12.5, 13.0, 20.9]))
    three = green_rbf(2.0, 1)
    three(np.array([40.0]))
    (r1, v1), (r2, v2), (r3, v3) = one.table, two.table, three.table
    shared = min(r1.size, r2.size)
    assert np.array_equal(r1[:shared], r2[:shared]) and np.array_equal(v1[:shared], v2[:shared])
    assert np.array_equal(v3[:v1.size], v1)


def test_radial_table_extension_keeps_readers_consistent():
    # a reader that arrives while the table grows must see one whole (radii, values) pair
    radii = np.arange(0.0, 2.01, 0.02)
    seen = []

    def extend(r):
        seen.append(table(np.array([0.5, 1.5])))
        return np.exp(-r)

    table = RadialTable(radii, np.exp(-radii), extend=extend)
    out = table(np.array([0.5, 3.0]))
    assert np.allclose(seen[0], np.exp(-np.array([0.5, 1.5])), rtol=1e-3)
    grown_r, grown_v = table.table
    assert grown_r.size == grown_v.size and grown_r[-1] >= 3.0
    assert np.array_equal(grown_r[: radii.size], radii)
    assert np.allclose(out, np.exp(-np.array([0.5, 3.0])), rtol=1e-3)


def test_radial_table_rejects_radii_off_the_uniform_nodes():
    # lerp_t reads node j at r = j * step, so any other layout would be misread
    for radii in ([0.0], [0.1, 0.2, 0.3], [0.0, 0.1, 0.25], np.linspace(0, 1, 11) ** 2):
        with pytest.raises(DomainError, match="j \\* step"):
            RadialTable(radii, np.ones(len(radii)))


def test_radial_table_shared_across_threads():
    # eight threads grow one shared table with a short switch interval
    table = green_rbf(2.0, 1, r_max=1.0)

    def work(i):
        worst = 0.0
        for j in range(25):
            r = np.array([0.3, 1.0 + 0.1 * (8 * j + i)])
            worst = max(worst, float(np.abs(table(r) - np.exp(-r) / 2).max()))
        return worst

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i) for i in range(8)]
            worst = max(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert worst <= 1e-4
    radii, values = table.table
    assert radii.size == values.size and radii[-1] >= 1.0 + 0.1 * 199
    assert table.counts["table_lookups"] == 8 * 25 * 2  # no lost count


def test_green_rbf_domain():
    with pytest.raises(DomainError):
        green_rbf(1.0, 1)
    with pytest.raises(DomainError):
        green_rbf(2.0, 2)
    with pytest.raises(DomainError, match="Gamma"):
        green_rbf(344.0, 1)
    for s in (np.nan, np.inf):  # NaN passed the s <= n test; inf gave a NaN table
        with pytest.raises(DomainError, match="finite"):
            green_rbf(s, 1)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_hankel_gaussian_higher_dims(d):
    t = np.arange(0.0, 12.0, 0.002)
    rho = np.exp(-(t**2) / 2) / (2 * np.pi) ** (d / 2)
    omega = np.linspace(0.0, 5.0, 21)
    prof = hankel_profile(t, rho, d, omega)
    assert np.abs(prof - np.exp(-(omega**2) / 2)).max() <= 1e-5


def test_inverse_radial_profile_is_scaled_hankel_bitwise():
    omega = np.arange(0.0, 8.0, 0.01)
    prof = np.exp(-(omega**2) / 2) * (1 + 0.2 * omega)
    radii = np.concatenate([[0.0], np.linspace(0.05, 4.0, 17)])
    for n in (2, 3, 4, 5):
        ref = hankel_profile(omega, prof, n, radii) / (2 * np.pi) ** n
        assert np.array_equal(inverse_radial_profile(omega, prof, n, radii), ref)


def test_inverse_radial_profile_cosine_case_bitwise():
    # n = 1 is the cosine transform; it must not evaluate omega^(-1/2) at 0
    omega = np.arange(0.0, 8.0, 0.01)
    prof = np.exp(-(omega**2) / 2)
    radii = np.concatenate([[0.0], np.linspace(0.05, 4.0, 17)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = inverse_radial_profile(omega, prof, 1, radii)
    ref = np.array([np.trapezoid(np.cos(r * omega) * prof, omega) / np.pi for r in radii])
    assert np.array_equal(out, ref)


def test_bessel_spec_rejects_bad_sign():
    with pytest.raises(DomainError):
        bessel_spec(1.0, sign=2)


def test_profiles_match_closed_forms_bitwise():
    rho = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
    for d, k in [(2, 1), (3, 2), (3, 1), (5, 3)]:
        assert np.array_equal(ramp_spec(d, k)(rho), c_constant(d, k) * rho**k)
    for s in (0.0, 1.5, 2.0):
        for sign in (1, -1):
            assert np.array_equal(bessel_spec(s, sign)(rho), (1.0 + rho**2) ** (sign * s / 2.0))
    for sigma in (0.5, 0.8, 2.0):
        assert np.array_equal(gaussian_spec(sigma)(rho), np.exp(-(sigma**2) * rho**2 / 2.0))
