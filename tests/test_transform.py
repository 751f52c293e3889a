import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from kplane.fields import interp_t_block
from kplane import transform
from kplane.transform import sino_dot
from kplane import (
    DomainError,
    FieldInterpolator,
    Frame,
    FrameSet,
    GridField,
    GridSpec,
    MollifiedAtom,
    QuadSpec,
    RidgeAtom,
    RngSeed,
    Rotation,
    Sinogram,
    TGrid,
    TruncationWarning,
    backproject,
    calibrate_gain,
    complete_frame,
    fbp,
    field_dot,
    forward,
    forward_at,
    frameset_circle,
    frameset_haar,
    gaussian_field,
    gaussian_kplane,
    haar_orthogonal_sample,
    integrate,
    mixture_centroid,
    mixture_field,
    moment_integral,
    pk_project,
    rel_l2_error,
    render_delta_iso,
    ridge_sum_field,
    sino_dot,
    stiefel_total_mass,
)

GRID_2D = GridSpec.centered(2, 64, 0.2)
QUAD_2D = QuadSpec(6.0, 128)
QUAD_2D_WIDE = QuadSpec(9.0, 128)  # covers off-center mixtures without truncation


def tgrid_1d(n=64, sp=0.2):
    return TGrid.centered(1, n, sp)


def test_frameset_validation():
    for n in (0, 10**30):  # no frames; more than one array can hold
        with pytest.raises(DomainError):
            frameset_circle(n)
    fs = frameset_circle(8)
    assert len(fs) == 8 and fs.mode == "deterministic-circle"
    fs_mc = frameset_haar(3, 1, 5, RngSeed(1))
    assert fs_mc.mode == "monte-carlo" and fs_mc.seed == RngSeed(1)


@pytest.mark.parametrize("n", [1, 7, 240, 360, 1000])
def test_frameset_circle_rows_match_per_frame_frames_bitwise(n):
    # the stack is built in one pass, with the bits of one Frame per angle
    thetas = 2.0 * np.pi * np.arange(n) / n
    frames = [Frame(2, 1, np.array([[np.cos(t), np.sin(t)]])) for t in thetas]
    fs = frameset_circle(n)
    assert fs.rows.shape == (n, 1, 2) and (fs.d, fs.k, len(fs)) == (2, 1, n)
    assert fs.rows.tobytes() == np.stack([fr.rows for fr in frames]).tobytes()


def test_es_transform_nodes_are_solved_once():
    # the Gauss-Legendre rule is cached per process, with unchanged values
    s, w = np.polynomial.legendre.leggauss(4 * transform._ES_WIDTH)
    z = 0.25 * transform._ES_WIDTH * (s + 1.0)
    n = np.arange(-16, 16)
    direct = 0.5 * transform._ES_WIDTH * (
        np.cos((2.0 * np.pi / 64) * np.outer(n, z)) @ (w * transform._es_kernel(z)))
    assert np.array_equal(transform._es_transform(n, 64), direct)
    assert transform._gauss_legendre() is transform._gauss_legendre()


def test_forward_gaussian_center_value_2d():
    fld = gaussian_field(GRID_2D)
    frames = frameset_circle(4)
    sino = forward(fld, frames, tgrid_1d(63), QUAD_2D)
    # node at t = 0 exists on the odd-sized centered grid
    mid = 31
    expect = (2 * np.pi) ** -0.5
    for i in range(len(frames)):
        assert sino.values[i, mid] == pytest.approx(expect, abs=1e-3)


def test_forward_gaussian_center_value_3d():
    spec = GridSpec.centered(3, 48, 0.25)
    fld = gaussian_field(spec)
    frames = frameset_haar(3, 1, 2, RngSeed(5))
    tg = TGrid.centered(2, 25, 0.3)
    sino = forward(fld, frames, tg, QuadSpec(6.0, 96))
    mid = (12, 12)
    expect = 1 / (2 * np.pi)
    for i in range(2):
        assert sino.values[(i,) + mid] == pytest.approx(expect, abs=1e-3)


def test_forward_zero_field():
    fld = GridField.zeros(GRID_2D)
    sino = forward(fld, frameset_circle(6), tgrid_1d(), QUAD_2D)
    assert np.all(sino.values == 0.0)


def test_forward_shifted_peak_location():
    x0 = np.array([1.0, -0.6])
    fld = gaussian_field(GRID_2D, mean=x0)
    frames = frameset_circle(12)
    tg = tgrid_1d(96)
    sino = forward(fld, frames, tg, QUAD_2D_WIDE)
    t_axis = tg.axes()[0]
    for i, fr in enumerate(frames):
        peak_t = t_axis[np.argmax(sino.values[i])]
        assert abs(peak_t - float(fr.rows[0] @ x0)) <= tg.spacing + 1e-12


def test_forward_matches_analytic_everywhere():
    fld = gaussian_field(GRID_2D)
    frames = frameset_circle(10)
    tg = tgrid_1d(64)
    sino = forward(fld, frames, tg, QUAD_2D)
    t_pts = tg.points()
    for i, fr in enumerate(frames):
        truth = gaussian_kplane(fr, t_pts, np.zeros(2))
        err = np.abs(sino.values[i].ravel() - truth).max() / truth.max()
        assert err <= 1e-3


def test_forward_linearity():
    gen = RngSeed(8).generator()
    va = gen.normal(size=GRID_2D.shape)
    vb = gen.normal(size=GRID_2D.shape)
    fa = GridField(GRID_2D.origin, GRID_2D.spacing, GRID_2D.shape, va)
    fb = GridField(GRID_2D.origin, GRID_2D.spacing, GRID_2D.shape, vb)
    combo = GridField(GRID_2D.origin, GRID_2D.spacing, GRID_2D.shape, 2.0 * va - 3.0 * vb)
    frames = frameset_circle(5)
    tg = tgrid_1d(32, 0.4)
    quad = QuadSpec(9.5, 64)
    # noise fills the grid box, whose projection the t-grid does not hold
    with pytest.warns(TruncationWarning, match="truncated"):
        sa = forward(fa, frames, tg, quad)
        sb = forward(fb, frames, tg, quad)
        sc = forward(combo, frames, tg, quad)
    scale = np.abs(sa.values).max()
    assert np.abs(sc.values - (2.0 * sa.values - 3.0 * sb.values)).max() <= 1e-12 * max(1, scale)


def test_forward_truncation_warning():
    # d-k = 1: the quadrature is unused; the warning says the t-grid does not
    # hold the field's support (radius about 5.3) projected on every frame
    fld = gaussian_field(GRID_2D)
    with pytest.warns(TruncationWarning, match="projects outside the t-grid"):
        forward(fld, frameset_circle(3), tgrid_1d(16), QuadSpec(1.0, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        forward(fld, frameset_circle(3), tgrid_1d(63), QuadSpec(1.0, 16))
    # a grid centred at (3, 0): its support projects to 3 cos(theta) +- 5.3, which
    # the t-grid [-6.2, 6.2] holds on the frames (0, +-1) but not on (1, 0)
    spec = GridSpec(GRID_2D.origin + [3.0, 0.0], GRID_2D.spacing, GRID_2D.shape)
    shifted = gaussian_field(spec, mean=[3.0, 0.0])
    vertical = FrameSet((Frame(2, 1, np.array([[0.0, 1.0]])), Frame(2, 1, np.array([[0.0, -1.0]]))),
                        "explicit")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        forward(shifted, vertical, tgrid_1d(63))
    with pytest.warns(TruncationWarning, match="projects outside the t-grid"):
        forward(shifted, frameset_circle(4), tgrid_1d(63))


def test_forward_truncation_warning_plane_quadrature():
    # d-k = 2: a quadrature halfwidth below the support radius warns
    spec = GridSpec.centered(3, 16, 0.4)
    fld = gaussian_field(spec)
    frames = frameset_haar(3, 1, 2, RngSeed(4))
    with pytest.warns(TruncationWarning, match="quadrature halfwidth"):
        forward(fld, frames, TGrid.centered(2, 9, 0.5), QuadSpec(1.0, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        forward(fld, frames, TGrid.centered(2, 9, 0.5), QuadSpec(6.0, 8))


def _transpose_oracle(sino, grid, nodes=None):
    """backproject at d-k = 1 by its definition: Haar mass / n x h_t / h^d x the
    pairing of sino with forward() of each grid node's unit impulse.

    nodes are flat node indices (default: all); the result holds those nodes.
    """
    nodes = np.arange(grid.size) if nodes is None else np.asarray(nodes)
    out = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        impulse = np.zeros(grid.size)
        impulse[node] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fwd = forward(GridField(grid.origin, grid.spacing, grid.shape, impulse),
                          sino.frames, sino.t_grid)
        out[i] = (fwd.values * sino.values).sum()
    scale = sino.t_grid.spacing / grid.spacing**grid.d
    return stiefel_total_mass(sino.d, sino.k) / sino.n_frames * scale * out


def test_backproject_constant_sinogram():
    # d-k >= 2 reads g multilinearly in t, which is exact on a constant: the
    # Haar mass at every node whose A x stays on the t-grid
    frames = frameset_haar(3, 1, 24, RngSeed(24))
    tg = TGrid.centered(2, 33, 0.25)  # covers ||x|| <= 4 for the small grid below
    sino = Sinogram(frames, tg, np.ones((24, 33, 33)))
    fld = backproject(sino, GridSpec.centered(3, 7, 0.5))
    assert np.abs(fld.values - stiefel_total_mass(3, 1)).max() <= 1e-12
    # d-k = 1 is the transpose of the slice forward, which is not exact on a
    # constant (0.98 to 1.06 times the mass here): ones backproject to the
    # t-sums of the forward of each node's impulse
    frames = frameset_circle(24)
    sino = Sinogram(frames, tgrid_1d(64, 0.2), np.ones((24, 64)))
    grid = GridSpec.centered(2, 11, 0.5)
    got = backproject(sino, grid).values.ravel()
    ref = _transpose_oracle(sino, grid)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_backproject_zero():
    frames = frameset_circle(8)
    sino = Sinogram(frames, tgrid_1d(), np.zeros((8, 64)))
    fld = backproject(sino, GridSpec.centered(2, 12, 0.3))
    assert np.all(fld.values == 0.0)


def test_backproject_empty_frames_rejected():
    with pytest.raises(DomainError):
        Sinogram(FrameSet(np.zeros((0, 1, 2)), "explicit"), tgrid_1d(), np.zeros((0, 64)))


def test_backproject_rejects_grid_of_other_dimension():
    frames = frameset_haar(3, 1, 4, RngSeed(2))
    sino = Sinogram(frames, TGrid.centered(2, 8, 0.5), np.ones((4, 8, 8)))
    for grid in (GridSpec.centered(2, 6, 0.5), GridSpec.centered(4, 6, 0.5)):
        with pytest.raises(DomainError, match="grid dimension"):
            backproject(sino, grid)


def test_forward_rejects_field_of_other_dimension():
    # checked before any work, at both rules; both dimensions are named
    fld = gaussian_field(GridSpec.centered(3, 6, 0.5))
    with pytest.raises(DomainError, match=r"field dimension 3 != frame d = 2"):
        forward(fld, frameset_circle(4), tgrid_1d())
    with pytest.raises(DomainError, match=r"field dimension 3 != frame d = 4"):
        forward(fld, frameset_haar(4, 2, 3, RngSeed(1)), TGrid.centered(2, 8, 0.5))


def test_backproject_mollified_atom_is_ridge():
    # analytic Gaussian-profile ridge as oracle for the dual transform
    frames = frameset_haar(3, 1, 2000, RngSeed(7))
    a0 = frames.frames[0]
    t0 = np.array([0.8, -0.5])
    atom = MollifiedAtom(a0, t0, frame_width=0.05, t_width=1.0)
    sino = render_delta_iso(atom, frames, TGrid.centered(2, 48, 0.35), n_rotations=0)
    grid = GridSpec.centered(3, 16, 0.4)
    rec = backproject(sino, grid)
    truth = ridge_sum_field(grid, [RidgeAtom(1.0, a0, t0, profile="gaussian")])
    assert rel_l2_error(rec, truth) <= 0.05


def test_fbp_gaussian_2d():
    fld = gaussian_field(GRID_2D)
    frames = frameset_circle(180)
    sino = forward(fld, frames, tgrid_1d(128), QUAD_2D, order=1)
    rec = fbp(sino, GRID_2D)
    assert rel_l2_error(rec, fld) <= 0.05


def test_fbp_mixture_2d():
    mix = mixture_field(GRID_2D, [[1.6, 0.8], [-1.2, -0.4]], [1.0, 0.7])
    frames = frameset_circle(180)
    sino = forward(mix, frames, tgrid_1d(128), QUAD_2D_WIDE, order=1)
    rec = fbp(sino, GRID_2D)
    assert rel_l2_error(rec, mix) <= 0.05


def test_fbp_zero_sinogram():
    frames = frameset_circle(12)
    sino = Sinogram(frames, tgrid_1d(), np.zeros((12, 64)))
    rec = fbp(sino, GridSpec.centered(2, 10, 0.4))
    assert np.abs(rec.values).max() <= 1e-14


def test_calibrate_gain_2d():
    frames = frameset_circle(180)
    gain = calibrate_gain(frames, GRID_2D, tgrid_1d(128), QUAD_2D)
    assert gain == pytest.approx(1.0, abs=0.02)


def test_moment_zero_order_is_mass():
    mix = mixture_field(GRID_2D, [[0.8, -0.4], [-1.0, 0.2]], [1.0, 0.5])
    frames = frameset_circle(16)
    sino = forward(mix, frames, tgrid_1d(128), QUAD_2D_WIDE)
    m0 = moment_integral(sino, 1, 0)
    mass = integrate(mix)
    assert np.abs(m0 - mass).max() / abs(mass) <= 1e-3
    # frame independence
    assert (m0.max() - m0.min()) / abs(mass) <= 1e-3


def test_moment_first_order_is_centroid_slice():
    means = [[0.8, -0.4], [-1.0, 0.2]]
    weights = [1.0, 0.5]
    mix = mixture_field(GRID_2D, means, weights)
    frames = frameset_circle(16)
    sino = forward(mix, frames, tgrid_1d(128), QUAD_2D_WIDE)
    m1 = moment_integral(sino, 1, 1)
    mass = integrate(mix)
    centroid = mixture_centroid(means, weights)
    for i, fr in enumerate(frames):
        expect = mass * float(fr.rows[0] @ centroid)
        assert abs(m1[i] - expect) <= 1e-3 * max(1.0, abs(mass))


def test_moment_zero_sinogram_and_domain():
    frames = frameset_circle(4)
    sino = Sinogram(frames, tgrid_1d(), np.zeros((4, 64)))
    assert np.all(moment_integral(sino, 1, 0) == 0.0)
    with pytest.raises(DomainError):
        moment_integral(sino, 1, 2)
    with pytest.raises(DomainError):
        moment_integral(sino, 2, 0)


def test_forward_isotropy_under_rotation():
    # (A, t) and (UA, Ut) index the same plane, so values agree
    mix = mixture_field(GRID_2D, [[0.9, 0.3]], [1.0])
    frames = frameset_circle(6)
    tg = tgrid_1d(63)
    sino = forward(mix, frames, tg, QUAD_2D_WIDE)
    gen = RngSeed(17).generator()
    t_pts = tg.points()
    for _ in range(10):
        u = haar_orthogonal_sample(1, gen).mat
        i = int(gen.integers(0, len(frames)))
        rows = frames.frames[i].rows
        rotated = sino.generator(u @ rows, t_pts @ u.T)
        assert np.abs(rotated - sino.values[i].ravel()).max() <= 2e-3


def test_adjointness_of_forward_and_backproject():
    mix = mixture_field(GRID_2D, [[0.5, -0.3]], [1.0])
    frames = frameset_circle(90)
    tg = tgrid_1d(128)
    sino_f = forward(mix, frames, tg, QUAD_2D_WIDE)
    # smooth test sinogram g on the same frames
    t = tg.axes()[0]
    g_vals = np.stack(
        [np.exp(-((t - 0.7 * fr.rows[0, 0]) ** 2) / 1.5) for fr in frames]
    )
    g = Sinogram(frames, tg, g_vals)
    lhs = sino_dot(sino_f, g)
    rhs = field_dot(mix, backproject(g, GRID_2D))
    assert abs(lhs - rhs) / abs(rhs) <= 1e-13


@st.composite
def slice_pairs(draw):
    """A grid, a frame set and a t-grid at d-k = 1: d in {2, 3}, odd and even
    shapes, off-centre origins, circle and Haar frames, t-spacings finer and
    coarser than h."""
    d = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(2, 13 if d == 2 else 7), min_size=d, max_size=d)))
    h = draw(st.sampled_from([0.15, 0.3, 0.5]))
    origin = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    n = draw(st.integers(1, 60))
    if d == 2 and draw(st.booleans()):
        frames = frameset_circle(n)
    else:
        frames = frameset_haar(d, d - 1, n, RngSeed(draw(st.integers(0, 2**16))))
    h_t = h * draw(st.sampled_from([0.3, 0.7, 1.0, 1.6, 3.0]))
    t_lo = draw(st.floats(-8.0, 0.0))
    tg = TGrid(np.array([t_lo]), h_t, (draw(st.integers(2, 90)),))
    return GridSpec(origin, h, shape), frames, tg


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pair=slice_pairs(), seed=st.integers(0, 2**16))
def test_backproject_is_the_transpose_of_the_slice_forward(pair, seed):
    # at d-k = 1 backproject is the transpose of forward with respect to
    # sino_dot and field_dot, to rounding, on random f and g
    grid, frames, tg = pair
    rng = np.random.default_rng(seed)
    f = GridField(grid.origin, grid.spacing, grid.shape, rng.standard_normal(grid.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        sino_f = forward(f, frames, tg)
        # g leans on F f, so that the pairing cannot cancel to about 0
        rms = np.sqrt(np.mean(sino_f.values**2))
        g = sino_f.copy_with(sino_f.values + rms * rng.standard_normal(sino_f.values.shape))
        lhs, rhs = sino_dot(sino_f, g), field_dot(f, backproject(g, grid))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_forward_generator_consistency():
    fld = gaussian_field(GRID_2D)
    frames = frameset_circle(5)
    tg = tgrid_1d(32, 0.4)
    sino = forward(fld, frames, tg, QUAD_2D)
    redo = sino.generator(frames.frames[2].rows, tg.points())
    assert np.abs(redo - sino.values[2].ravel()).max() <= 1e-12


def test_rotation_pair_consistency_k2():
    # d=3, k=2: O(1) flip of the scalar offset
    spec = GridSpec.centered(3, 32, 0.35)
    fld = gaussian_field(spec, mean=[0.4, -0.2, 0.1])
    frames = frameset_haar(3, 2, 4, RngSeed(3))
    tg = TGrid.centered(1, 49, 0.25)
    sino = forward(fld, frames, tg, QuadSpec(6.5, 64))
    flip = Rotation(1, np.array([[-1.0]]))
    t_pts = tg.points()
    for i, fr in enumerate(frames):
        flipped = sino.generator(-fr.rows, -t_pts)
        assert np.abs(flipped - sino.values[i].ravel()).max() <= 2e-3


@pytest.mark.parametrize("threads", [1, 2])
def test_pooled_work_keeps_the_callers_error_state(threads):
    # an overflow raises under the caller's numpy error state, whatever threads
    # says: in backproject's frame sum, and in forward's multilinear reads of a
    # +-1.7e308 checkerboard
    sino = Sinogram(frameset_circle(200), TGrid.centered(1, 16, 0.5),
                    np.full((200, 16), 1.7e308))
    fld = GridField(np.zeros(3), 0.5, (8, 8, 8), 1.7e308 * (-1.0) ** np.indices((8, 8, 8)).sum(0))
    frames = frameset_haar(3, 1, 200, RngSeed(1))
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(FloatingPointError):
            backproject(sino, GridSpec.centered(2, 6, 0.5), threads=threads)
        with pytest.raises(FloatingPointError):
            forward(fld, frames, TGrid.centered(2, 4, 0.5), order=1, threads=threads)


def test_threads_is_ignored():
    # the threads keyword is accepted and has no effect: the same bits as
    # without it, for both rules of forward, backproject and pk_project
    grid_3d = GridSpec.centered(3, 12, 0.4)
    mix_3d = mixture_field(grid_3d, [[0.5, -0.3, 0.2]], [1.0])
    mix_2d = mixture_field(GRID_2D, [[0.5, -0.3]], [1.0])
    quad_3d = QuadSpec(5.0, 32)
    cases = [(mix_2d, frameset_circle(40), tgrid_1d(128), QUAD_2D_WIDE),
             (mix_3d, frameset_haar(3, 1, 30, RngSeed(9)), TGrid.centered(2, 20, 0.5), quad_3d)]
    for fld, frames, tg, quad in cases:
        sino = forward(fld, frames, tg, quad, order=1)
        assert np.array_equal(forward(fld, frames, tg, quad, order=1, threads=4).values,
                              sino.values)
        assert np.array_equal(backproject(sino, fld.spec, threads=4).values,
                              backproject(sino, fld.spec).values)
        assert np.array_equal(pk_project(sino, fld.spec, quad, order=1, threads=4).values,
                              pk_project(sino, fld.spec, quad, order=1).values)


@pytest.mark.parametrize("d,k", [(3, 1), (4, 2)])
def test_order3_forward_matches_scipy_coefficients(monkeypatch, d, k):
    # the order-3 forward on the numpy prefilter against the same forward on
    # scipy.ndimage.spline_filter's coefficients: equal to rounding
    from kplane import fields

    spec = GridSpec.centered(d, {3: 14, 4: 8}[d], 0.4)
    fld = mixture_field(spec, [[0.3, -0.2, 0.1, 0.0][:d]], [1.0])
    frames = frameset_haar(d, k, 6, RngSeed(d, k))
    tg = TGrid.centered(d - k, 7, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # both sides alike
        got = forward(fld, frames, tg, order=3).values
        monkeypatch.setattr(fields, "_spline_coefficients",
                            lambda v: ndimage.spline_filter(v, order=3, mode="constant"))
        ref = forward(fld, frames, tg, order=3).values
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("order", [1, 3])
def test_forward_matches_its_generator_bitwise(order):
    # plane quadrature (d-k = 2): the generator is the same blocked code with one
    # frame, so every frame of a multi-block forward gives the same bits alone
    spec = GridSpec.centered(3, 12, 0.4)
    fld = gaussian_field(spec, mean=[0.4, -0.2, 0.1])
    frames = frameset_haar(3, 1, 70, RngSeed(21))
    tg = TGrid.centered(2, 9, 0.5)
    quad = QuadSpec(4.5, 16)
    assert 1 < transform._block_frames(tg.size, quad, 1) < len(frames) // 2
    sino = forward(fld, frames, tg, quad, order=order)
    for i, rows in enumerate(frames.rows):
        assert np.array_equal(sino.generator(rows, tg.points()), sino.values[i].ravel())


@pytest.mark.parametrize("d,k,n", [(2, 1, 64), (3, 2, 12), (4, 3, 8)])
def test_slice_forward_matches_its_generator_bitwise(d, k, n):
    # Fourier slice (d-k = 1): forward is the generator on the whole stack, whose
    # gather runs in blocks of frames; each frame alone, and a sub-stack that
    # starts mid-block, give the same bits
    spec = GridSpec.centered(d, n, 0.2 if d == 2 else 0.4)
    fld = gaussian_field(spec, mean=[0.3, -0.2, 0.1, 0.2][:d])
    frames = frameset_haar(d, k, 160, RngSeed(20 + d))
    tg = TGrid.centered(1, 40, 0.3)
    top = transform._slice_lattice(spec, tg.spacing)[1]
    block = transform._GATHER_TAPS // (top * transform._ES_WIDTH**d)
    assert 1 < block < len(frames) // 2
    sino = forward(fld, frames, tg)
    for i, rows in enumerate(frames.rows):
        assert np.array_equal(sino.generator(rows, tg.points()), sino.values[i])
    assert np.array_equal(sino.generator(frames.rows[5:117], tg.points()), sino.values[5:117])


def test_slice_generator_shapes():
    # one (1, d) frame or an (n, 1, d) stack, at t points of shape (..., 1)
    spec = GridSpec.centered(3, 12, 0.4)
    frames = frameset_haar(3, 2, 4, RngSeed(2))
    sino = forward(gaussian_field(spec), frames, TGrid.centered(1, 21, 0.4))
    rows = sino.frames.rows
    t = np.linspace(-2.0, 2.0, 10).reshape(2, 5, 1)
    stack = sino.generator(rows, t)
    assert stack.shape == (4, 2, 5)
    assert sino.generator(rows[1], t).shape == (2, 5)
    assert np.array_equal(sino.generator(rows[1], t), stack[1])
    assert np.array_equal(sino.generator(rows, t.reshape(-1, 1)), stack.reshape(4, -1))
    assert sino.generator(rows[2], np.zeros(1)).shape == ()


def test_slice_generator_is_zero_outside_the_projected_box():
    # exact zeros where |t - alpha . c| > R (R the box's half-diagonal, c its
    # centre), at a cost that does not grow with |t|
    spec = GridSpec(np.array([1.0, -2.0, 0.5]), 0.4, (12, 10, 14))
    fld = gaussian_field(spec, mean=[3.2, -0.2, 3.1])
    frames = frameset_haar(3, 2, 6, RngSeed(12))
    sino = forward(fld, frames, TGrid.centered(1, 64, 0.3))
    center = spec.origin + 0.5 * spec.spacing * (np.array(spec.shape) - 1)
    radius = 0.5 * spec.spacing * np.linalg.norm(np.array(spec.shape) - 1)
    reach = frames.rows[:, 0] @ center
    for i, rows in enumerate(frames.rows):
        edge = reach[i] + radius * np.array([-1 - 1e-9, -1 + 1e-9, 1 - 1e-9, 1 + 1e-9])
        vals = sino.generator(rows, edge[:, None])
        assert vals[0] == vals[3] == 0.0 and vals[1] != 0.0 and vals[2] != 0.0
    far = np.concatenate([np.geomspace(1e3, 1e12, 5000), -np.geomspace(1e3, 1e12, 5000)])
    start = time.perf_counter()
    vals = sino.generator(frames.rows, far[:, None])
    assert time.perf_counter() - start < 1.0
    assert np.all(vals == 0.0)
    assert np.all(sino.generator(frames.rows, np.array([[1e6], [-1e6]])) == 0.0)


def test_slice_forward_rejects_one_node_grid():
    fld = GridField(np.zeros(2), 0.5, (1, 1), np.ones((1, 1)))
    with pytest.raises(DomainError, match="more than one node"):
        forward(fld, frameset_circle(3), tgrid_1d(8))


def test_forward_gaussian_4d_hyperplanes():
    # Fourier slice at (4, 3) against the analytic Gaussian plane integral
    spec = GridSpec.centered(4, 16, 0.55)
    fld = gaussian_field(spec)
    frames = frameset_haar(4, 3, 3, RngSeed(63))
    tg = TGrid.centered(1, 37, 0.3)
    sino = forward(fld, frames, tg)
    for i, fr in enumerate(frames):
        truth = gaussian_kplane(fr, tg.points(), np.zeros(4))
        assert np.abs(sino.values[i] - truth).max() / truth.max() <= 1e-3


def test_slice_generator_holds_the_half_spectrum():
    # the generator keeps numpy's rfftn half of the 2x-padded spectrum, plus the
    # columns the kernel reaches past either end of the last axis: 32^3 x 22
    # complex cells here, where the full spectrum (32^4) held 16,781,752 B
    spec = GridSpec.centered(4, 16, 0.55)
    fld = gaussian_field(spec)
    frames = frameset_haar(4, 3, 3, RngSeed(63))
    tg = TGrid.centered(1, 37, 0.3)
    forward(fld, frames, tg)  # numpy imports its fft modules on first use
    tracemalloc.start()
    try:
        sino = forward(fld, frames, tg)
        held = tracemalloc.get_traced_memory()[0] - sino.values.nbytes
    finally:
        tracemalloc.stop()
    assert 32**3 * 22 * 16 <= held <= 0.75 * 16_781_752


def test_adjointness_shared_mc_frames_3d():
    # both sides of the pairing share the same Monte-Carlo frames
    spec = GridSpec.centered(3, 24, 0.4)
    fld = gaussian_field(spec, mean=[0.4, -0.2, 0.1])
    frames = frameset_haar(3, 1, 40, RngSeed(33))
    tg = TGrid.centered(2, 25, 0.45)
    quad = QuadSpec(6.0, 48)
    sino_f = forward(fld, frames, tg, quad, order=1)
    t_pts = tg.points()
    g_vals = np.stack(
        [np.exp(-((t_pts - fr.rows @ np.array([0.3, 0.3, -0.4])) ** 2).sum(-1) / 2.0)
         .reshape(tg.shape) for fr in frames]
    )
    g = Sinogram(frames, tg, g_vals)
    lhs = sino_dot(sino_f, g)
    # the grid box's corners project past the t-grid: those reads are 0
    with pytest.warns(TruncationWarning, match="fell outside the t-grid"):
        rhs = field_dot(fld, backproject(g, spec))
    assert abs(lhs - rhs) / abs(rhs) <= 0.01


def test_forward_default_quadrature():
    # defaults: halfwidth = half grid diagonal, nodes = 2 x max shape
    spec = GridSpec.centered(2, 32, 0.3)
    quad = QuadSpec.default_for(spec)
    assert quad.nodes_per_axis == 64
    assert quad.halfwidth == pytest.approx(0.3 * 31 * np.sqrt(2) / 2, rel=1e-12)
    fld = gaussian_field(spec)
    # the t-grid reaches 4.8, inside the Gaussian's 1e-6 support radius of 5.3
    with pytest.warns(TruncationWarning, match="truncated"):
        sino = forward(fld, frameset_circle(4), tgrid_1d(33, 0.3))
    mid = 16
    assert sino.values[0, mid] == pytest.approx((2 * np.pi) ** -0.5, abs=1e-3)


def test_calibrate_gain_3d_radon_1000_frames():
    spec = GridSpec.centered(3, 24, 0.4)
    frames = frameset_haar(3, 2, 1000, RngSeed(1))
    tg = TGrid.centered(1, 64, 0.3)
    gain = calibrate_gain(frames, spec, tg, QuadSpec(8.0, 48))
    assert gain == pytest.approx(1.0, abs=0.05)


def test_forward_gaussian_4d():
    # generic-dimension check: both the plane (k=2) and line (k=1) transforms in R^4
    spec = GridSpec.centered(4, 32, 0.35)
    fld = gaussian_field(spec)
    for k, tg in [(2, TGrid.centered(2, 17, 0.4)), (1, TGrid.centered(3, 9, 0.5))]:
        frames = frameset_haar(4, k, 2, RngSeed(60 + k))
        sino = forward(fld, frames, tg, QuadSpec(5.5, 48))
        for i, fr in enumerate(frames):
            truth = gaussian_kplane(fr, tg.points(), np.zeros(4))
            err = np.abs(sino.values[i].ravel() - truth).max() / truth.max()
            assert err <= 1e-3


def test_fbp_error_decreases_under_refinement():
    # with the multilinear backprojection the error fell from 32^2 to 64^2
    # (0.0036 at 64^2); the transpose of the slice forward reads 2.5e-4 and
    # 3.8e-4, so it no longer falls with h, and both sizes are held below 1e-3
    errors = []
    for n, h, nt in [(32, 0.4, 64), (64, 0.2, 128)]:
        spec = GridSpec.centered(2, n, h)
        mix = mixture_field(spec, [[1.2, 0.5], [-0.8, -0.3]], [1.0, 0.7])
        frames = frameset_circle(240)
        tg = TGrid.centered(1, nt, h)
        sino = forward(mix, frames, tg, QuadSpec(9.0, 2 * n), order=1)
        errors.append(rel_l2_error(fbp(sino, spec), mix))
    assert max(errors) <= 1e-3


def test_sino_dot_requires_matching_grids():
    frames = frameset_circle(4)
    a = Sinogram(frames, tgrid_1d(16, 0.5), np.ones((4, 16)))
    b = Sinogram(frames, tgrid_1d(16, 0.25), np.ones((4, 16)))
    with pytest.raises(DomainError):
        sino_dot(a, b)


def test_sino_dot_requires_matching_frames():
    # same count, d, k and t-grid, but different frames
    circle = frameset_circle(8)
    haar = frameset_haar(2, 1, 8, RngSeed(3))
    tg = tgrid_1d(16, 0.5)
    a = Sinogram(circle, tg, np.ones((8, 16)))
    b = Sinogram(haar, tg, np.ones((8, 16)))
    with pytest.raises(DomainError, match="share frames"):
        sino_dot(a, b)
    reordered = Sinogram(FrameSet(circle.rows[::-1], "explicit"), tg, np.ones((8, 16)))
    with pytest.raises(DomainError, match="share frames"):
        sino_dot(a, reordered)
    # equal rows held by a distinct frame set still pair
    c = Sinogram(FrameSet(circle.rows.copy(), "explicit"), tg, np.ones((8, 16)))
    assert sino_dot(a, c) == sino_dot(a, a)


def _dense_forward_at(interp, rows, t_pts, quad):
    """The unclipped rule: interpolate every tensor node, then a weighted sum."""
    m, d = rows.shape
    b = complete_frame(Frame(d, d - m, rows).rows)
    nodes, weights = quad.nodes_weights(d - m)
    t_pts = np.asarray(t_pts, dtype=float)
    base = t_pts.reshape(-1, m) @ rows
    pts = base[None, :, :] + (nodes @ b.T)[:, None, :]
    return (weights[:, None] * interp(pts)).sum(axis=0).reshape(t_pts.shape[:-1])


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_forward_at_matches_dense_quadrature(d, k, order):
    n = {2: 24, 3: 10, 4: 6, 5: 5}[d]
    spec = GridSpec.centered(d, n, 0.3)
    rng = np.random.default_rng(10 * d + k)
    fld = GridField(spec.origin, spec.spacing, spec.shape, rng.random(spec.shape) + 0.5)
    interp = FieldInterpolator(fld, order=order)
    quad = QuadSpec.default_for(spec)
    m = d - k
    half = -spec.origin[0]
    t_pts = rng.uniform(-1.2 * half, 1.2 * half, size=(2, 5, m))
    t_pts[0, 0] = 10.0 * half  # this plane misses the box
    t_pts[0, 1] = half  # on a face of the box for the axis-aligned frame
    # a stack one block and three frames long, so the last block is short
    n_frames = transform._block_frames(t_pts[..., 0].size, quad, k) + 3
    frames = [fr.rows for fr in frameset_haar(d, k, n_frames - 2, RngSeed(d, k))]
    frames.append(np.eye(d)[:m])  # axis aligned: the completion B has zero components
    if d == 2:
        frames[-4:-1] = [fr.rows for fr in frameset_circle(4)][1:]  # cos(pi/2) is not exactly 0
    frames.append(-np.eye(d)[::-1][:m])
    stack = np.stack(frames)
    got = forward_at(interp, stack, t_pts, quad)
    assert got.shape == (n_frames, 2, 5)
    for i, rows in enumerate(stack):
        ref = _dense_forward_at(interp, rows, t_pts, quad)
        assert got[i, 0, 0] == 0.0
        assert np.all(np.abs(got[i] - ref) <= 1e-12 * np.abs(ref).max())
    for i in (0, n_frames - 4, n_frames - 1):  # a frame alone gives its bits in the stack
        assert np.array_equal(forward_at(interp, stack[i], t_pts, quad), got[i])
    assert forward_at(interp, stack, t_pts[0, 0], quad).tolist() == [0.0] * n_frames  # no node read


def test_forward_interpolates_only_near_box(monkeypatch):
    # plane quadrature, through forward_at: forward takes it only for d-k >= 2
    spec = GridSpec.centered(3, 16, 0.3)
    fld = gaussian_field(spec)
    frames = frameset_haar(3, 2, 8, RngSeed(5))
    tg = TGrid.centered(1, 24, 0.3)
    quad = QuadSpec.default_for(spec)
    hi = np.array(spec.shape) - 1
    counts = {"points": 0, "inbox": 0}
    read = FieldInterpolator.read

    def counting(self, u):
        counts["points"] += u.shape[1]
        counts["inbox"] += int(np.all((u >= 0) & (u <= hi[:, None]), axis=0).sum())
        return read(self, u)

    monkeypatch.setattr(FieldInterpolator, "read", counting)
    interp = FieldInterpolator(fld, order=1)
    forward_at(interp, frames.rows, tg.points(), quad)
    clipped = dict(counts)
    counts.update(points=0, inbox=0)
    for fr in frames:
        _dense_forward_at(interp, fr.rows, tg.points(), quad)
    assert clipped["inbox"] == counts["inbox"] == clipped["points"] > 0


def test_forward_peak_memory_is_set_by_the_block_budget():
    # plane quadrature, through forward_at, at the radon3d size: 24^3 field, 480
    # frames, 48 t, 32^2 nodes.  Beyond its result, forward_at holds one block's
    # arrays at a time, so its peak is bounded by the block budget, whatever the
    # frame count.
    spec = GridSpec.centered(3, 24, 0.4)
    fld = mixture_field(spec, [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]], [1.0, 0.7])
    frames = frameset_haar(3, 2, 480, RngSeed(1))
    tg = TGrid.centered(1, 48, 0.4)
    quad = QuadSpec(8.0, 32)
    quad.nodes_weights(2)  # cached tensor rule, built once per QuadSpec
    interp = FieldInterpolator(fld, order=1)
    t_pts = tg.points()
    tracemalloc.start()
    try:
        forward_at(interp, frames.rows, t_pts, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # sixteen float64 arrays of the block budget, which is pinned at 4 MiB of them
    assert peak <= 16 * 8 * transform._BLOCK_NODES <= 4 * 2**20


def test_slice_forward_peak_memory_does_not_grow_with_frames():
    # Fourier slice at the radon3d size (24^3 field, 48 t): beyond its result
    # and the result's finiteness mask (one byte a value, in Sinogram), forward
    # holds the padded spectrum and one gather block of a fixed tap budget, so
    # its peak does not grow from 480 to 4,800 frames
    spec = GridSpec.centered(3, 24, 0.4)
    fld = mixture_field(spec, [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]], [1.0, 0.7])
    tg = TGrid.centered(1, 48, 0.4)
    excess = []
    for n in (480, 4800):
        frames = frameset_haar(3, 2, n, RngSeed(1))
        tracemalloc.start()
        try:
            sino = forward(fld, frames, tg, order=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - sino.values.nbytes - sino.values.size)
    assert excess[1] <= excess[0] <= 16 * 2**20


def test_slice_backproject_peak_memory_is_at_most_the_forwards():
    # at the radon3d size (24^3 field, 480 frames, 48 t) the transpose holds one
    # widened half lattice and one block of taps, and no full complex lattice.
    # A pass backprojects while the forward's sinogram still holds its spectrum,
    # so the spread's blocks are half the gather's: its peak stays below 0.7 of
    # the forward's (0.61 measured)
    spec = GridSpec.centered(3, 24, 0.4)
    fld = mixture_field(spec, [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]], [1.0, 0.7])
    frames = frameset_haar(3, 2, 480, RngSeed(1))
    tg = TGrid.centered(1, 48, 0.4)
    sino = forward(fld, frames, tg, order=1)  # numpy imports its fft modules on first use
    backproject(sino, spec)
    peaks = []
    for run in (lambda: forward(fld, frames, tg, order=1), lambda: backproject(sino, spec)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 0.7 * peaks[0]


def _loop_backproject(sino, grid):
    """The per-frame rule: A x for every grid point, then map_coordinates order 1."""
    pts = grid.points()
    tg = sino.t_grid
    total, outside, hi = np.zeros(grid.size), 0, np.array(tg.shape) - 1
    for fr, block in zip(sino.frames, sino.values):
        t = pts @ fr.rows.T
        coords = ((t - tg.origin) / tg.spacing).T
        outside += int(np.count_nonzero(np.any((coords.T < 0) | (coords.T > hi), axis=-1)))
        total += ndimage.map_coordinates(block, coords, order=1, mode="constant", cval=0.0,
                                         prefilter=False)
    mass = stiefel_total_mass(sino.d, sino.k)
    return (mass / sino.n_frames) * total.reshape(grid.shape), outside


def _truncated_reads(caught):
    found = [re.search(r"(\d+) of \d+ backprojection reads", str(w.message)) for w in caught]
    return sum(int(m.group(1)) for m in found if m)


@pytest.mark.parametrize("d,k,n_frames", [(2, 1, 70), (3, 2, 70), (3, 1, 20), (4, 1, 5)])
def test_backproject_matches_per_frame_map_coordinates(d, k, n_frames):
    m = d - k
    # t-grid nodes cover [-2, 2]; grid nodes cover [-2.5, 2.5], so axis-aligned
    # frames put grid points exactly on the t-grid's end nodes and past them
    tg = TGrid(np.full(m, -2.0), 0.25, (17,) * m)
    grid = GridSpec.centered(d, 11, 0.5)
    rows = frameset_haar(d, k, n_frames - 2, RngSeed(d, k)).rows
    frames = FrameSet(np.concatenate([rows, [np.eye(d)[:m], -np.eye(d)[::-1][:m]]]), "explicit")
    rng = np.random.default_rng(d + 10 * k)
    sino = Sinogram(frames, tg, rng.random((n_frames,) + tg.shape) - 0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        got = backproject(sino, grid, threads=1)
    if m == 1:
        # d-k = 1 is the transpose of the slice forward, against its definition
        # at every node in 2-D and at the corners and 56 more nodes in 3-D; the
        # grid box leaves the t-grid, which is the truncation warning
        nodes = None
        if d == 3:
            corners = np.ravel_multi_index(np.indices((2,) * d).reshape(d, -1) * 10, grid.shape)
            nodes = np.concatenate([corners, rng.choice(grid.size, 56, replace=False)])
        ref = _transpose_oracle(sino, grid, nodes)
        got = got.values.ravel()[slice(None) if nodes is None else nodes]
        assert [str(w.message) for w in caught] == [
            "the grid box projects outside the t-grid [-2, 2] on some frames; "
            "the backprojection may be truncated"]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max())
    else:
        ref, ref_outside = _loop_backproject(sino, grid)
        assert ref_outside > 0
        assert _truncated_reads(caught) == ref_outside
        assert np.all(np.abs(got.values - ref) <= 1e-12 * np.abs(ref).max())
    # the nearest-frame lookup reads single t-blocks through the multilinear kernel
    t_pts = rng.uniform(-2.6, 2.6, size=(40, m))
    t_pts[:2] = [np.full(m, -2.0), np.full(m, 2.0)]  # end nodes read exactly
    coords = ((t_pts - tg.origin) / tg.spacing).T
    ref_t = ndimage.map_coordinates(sino.values[0], coords, order=1, mode="constant",
                                    cval=0.0, prefilter=False)
    got_t = interp_t_block(sino.values[0], tg, t_pts)
    assert got_t[0] == sino.values[0][(0,) * m] and got_t[1] == sino.values[0][(-1,) * m]
    assert np.all(np.abs(got_t - ref_t) <= 1e-12 * np.abs(ref_t).max())
    assert np.all(got_t[ref_t == 0.0] == 0.0)


def test_backproject_far_outside_t_grid_is_fast():
    # a t-spacing of 1e-10 puts A x up to 1e10 cells past the t-grid; the cost
    # must not grow with that distance.  d-k = 2 reads multilinearly: constant
    # along t, so rounding in A x, amplified 1e10 times, cannot move a read
    frames = frameset_haar(3, 1, 2, RngSeed(31))
    tg = TGrid.centered(2, 9, 1e-10)
    sino = Sinogram(frames, tg, np.repeat([[1.0], [3.0]], 81, axis=1))
    grid = GridSpec.centered(3, 3, 1.0)
    ref, ref_outside = _loop_backproject(sino, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        start = time.perf_counter()
        got = backproject(sino, grid, threads=1)
        elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert _truncated_reads(caught) == ref_outside == 2 * 26  # all but the centre node
    assert np.array_equal(got.values, ref)
    # d-k = 1 spreads the sigma coefficients of the t-grid, whatever the box's
    # distance from it; the result is the transpose of the forward
    sino = Sinogram(frameset_circle(2), TGrid.centered(1, 9, 1e-10),
                    np.repeat([[1.0], [3.0]], 9, axis=1))
    grid = GridSpec.centered(2, 3, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        start = time.perf_counter()
        got = backproject(sino, grid, threads=1).values.ravel()
        elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(caught) == 1 and "grid box projects outside the t-grid" in str(caught[0].message)
    ref = _transpose_oracle(sino, grid)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_backproject_rule_names_the_rule_that_runs():
    # the transpose uses the forward's sigma samples; the rule needs only the t-grid
    tg = tgrid_1d(128)
    sino = Sinogram(frameset_circle(4), tg, np.zeros((4, 128)))
    rule = {"name": "fourier-slice-transpose", "sigma_samples": 45, "kernel_width": 6}
    assert transform.backproject_rule(GRID_2D, tg) == rule
    assert transform.forward_rule(GRID_2D, sino.frames, tg)["sigma_samples"] == 45
    tg2 = TGrid.centered(2, 8, 0.5)
    sino2 = Sinogram(frameset_haar(3, 1, 4, RngSeed(2)), tg2, np.ones((4, 8, 8)))
    assert transform.backproject_rule(GridSpec.centered(3, 6, 0.5), sino2.t_grid) == {
        "name": "multilinear-gather"}


def test_backproject_truncation_warning_is_geometric_at_hyperplanes():
    # d-k = 1: the warning says the grid box, projected on some frame, leaves
    # the t-grid, whatever the sinogram holds.  The 8^2 box of half-width 1.75
    # projects within 1.75 |alpha|_1 <= 2.48 of 0 (centred grid), or of
    # 3 cos(theta) (grid centred at (3, 0))
    spec = GridSpec.centered(2, 8, 0.5)
    frames = frameset_circle(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        backproject(Sinogram(frames, tgrid_1d(27, 0.2), np.zeros((8, 27))), spec)
    with pytest.warns(TruncationWarning, match="grid box projects outside the t-grid"):
        backproject(Sinogram(frames, tgrid_1d(23, 0.2), np.zeros((8, 23))), spec)
    shifted = GridSpec(spec.origin + [3.0, 0.0], spec.spacing, spec.shape)
    vertical = FrameSet(np.array([[[0.0, 1.0]], [[0.0, -1.0]]]), "explicit")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        backproject(Sinogram(vertical, tgrid_1d(27, 0.2), np.ones((2, 27))), shifted)
    with pytest.warns(TruncationWarning, match="grid box projects outside the t-grid"):
        backproject(Sinogram(frames, tgrid_1d(27, 0.2), np.ones((8, 27))), shifted)


def test_field_pairings_require_matching_grids():
    spec = GridSpec.centered(2, 8, 0.5)
    a = gaussian_field(spec)
    for other in (GridSpec.centered(2, 16, 0.5), GridSpec.centered(2, 8, 0.25),
                  GridSpec(spec.origin + 0.1, 0.5, spec.shape)):
        b = gaussian_field(other)
        with pytest.raises(DomainError, match="fields must share a grid"):
            rel_l2_error(a, b)
        with pytest.raises(DomainError, match="fields must share a grid"):
            field_dot(a, b)
