import re
import time
import warnings

import numpy as np
import pytest
from scipy import ndimage

from kplane.fields import interp_t_block
from kplane.transform import sino_dot
from kplane import (
    DomainError,
    FieldInterpolator,
    Frame,
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
    rel_l2_error,
    render_delta_iso,
    ridge_field,
    sino_dot,
    stiefel_total_mass,
)

GRID_2D = GridSpec.centered(2, 64, 0.2)
QUAD_2D = QuadSpec(6.0, 128)
QUAD_2D_WIDE = QuadSpec(9.0, 128)  # covers off-center mixtures without truncation


def tgrid_1d(n=64, sp=0.2):
    return TGrid.centered(1, n, sp)


def test_frameset_validation():
    with pytest.raises(DomainError):
        frameset_circle(0)
    fs = frameset_circle(8)
    assert len(fs) == 8 and fs.mode == "deterministic-circle"
    fs_mc = frameset_haar(3, 1, 5, RngSeed(1))
    assert fs_mc.mode == "monte-carlo" and fs_mc.seed == RngSeed(1)


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
    sa = forward(fa, frames, tg, quad)
    sb = forward(fb, frames, tg, quad)
    sc = forward(combo, frames, tg, quad)
    scale = np.abs(sa.values).max()
    assert np.abs(sc.values - (2.0 * sa.values - 3.0 * sb.values)).max() <= 1e-12 * max(1, scale)


def test_forward_truncation_warning():
    fld = gaussian_field(GRID_2D)
    with pytest.warns(TruncationWarning):
        forward(fld, frameset_circle(3), tgrid_1d(16), QuadSpec(1.0, 16))


def test_backproject_constant_sinogram():
    frames = frameset_circle(24)
    tg = tgrid_1d(64, 0.2)  # covers ||x|| <= 6.3 for the small grid below
    sino = Sinogram(2, 1, list(frames.frames), tg, np.ones((24, 64)))
    grid = GridSpec.centered(2, 11, 0.5)
    fld = backproject(sino, grid)
    assert np.abs(fld.values - stiefel_total_mass(2, 1)).max() <= 1e-12


def test_backproject_zero():
    frames = frameset_circle(8)
    sino = Sinogram(2, 1, list(frames.frames), tgrid_1d(), np.zeros((8, 64)))
    fld = backproject(sino, GridSpec.centered(2, 12, 0.3))
    assert np.all(fld.values == 0.0)


def test_backproject_empty_frames_rejected():
    with pytest.raises(DomainError):
        Sinogram(2, 1, [], tgrid_1d(), np.zeros((0, 64)))


def test_backproject_rejects_grid_of_other_dimension():
    frames = frameset_haar(3, 1, 4, RngSeed(2))
    sino = Sinogram(3, 1, list(frames.frames), TGrid.centered(2, 8, 0.5), np.ones((4, 8, 8)))
    for grid in (GridSpec.centered(2, 6, 0.5), GridSpec.centered(4, 6, 0.5)):
        with pytest.raises(DomainError, match="grid dimension"):
            backproject(sino, grid)


def test_backproject_mollified_atom_is_ridge():
    # analytic Gaussian-profile ridge as oracle for the dual transform
    frames = frameset_haar(3, 1, 2000, RngSeed(7))
    a0 = frames.frames[0]
    t0 = np.array([0.8, -0.5])
    atom = MollifiedAtom(a0, t0, frame_width=0.05, t_width=1.0)
    sino = render_delta_iso(atom, frames, TGrid.centered(2, 48, 0.35), n_rotations=0)
    grid = GridSpec.centered(3, 16, 0.4)
    rec = backproject(sino, grid)
    truth = ridge_field(RidgeAtom(1.0, a0, t0, profile="gaussian"), grid)
    assert rel_l2_error(rec, truth) <= 0.05


def test_fbp_gaussian_2d():
    fld = gaussian_field(GRID_2D)
    frames = frameset_circle(180)
    sino = forward(fld, frames, tgrid_1d(128), QUAD_2D, order=1)
    rec = fbp(sino, 2, 1, GRID_2D)
    assert rel_l2_error(rec, fld) <= 0.05


def test_fbp_mixture_2d():
    mix = mixture_field(GRID_2D, [[1.6, 0.8], [-1.2, -0.4]], [1.0, 0.7])
    frames = frameset_circle(180)
    sino = forward(mix, frames, tgrid_1d(128), QUAD_2D_WIDE, order=1)
    rec = fbp(sino, 2, 1, GRID_2D)
    assert rel_l2_error(rec, mix) <= 0.05


def test_fbp_zero_sinogram():
    frames = frameset_circle(12)
    sino = Sinogram(2, 1, list(frames.frames), tgrid_1d(), np.zeros((12, 64)))
    rec = fbp(sino, 2, 1, GridSpec.centered(2, 10, 0.4))
    assert np.abs(rec.values).max() <= 1e-14


def test_calibrate_gain_2d():
    frames = frameset_circle(180)
    gain = calibrate_gain(2, 1, frames, GRID_2D, tgrid_1d(128), QUAD_2D)
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
    sino = Sinogram(2, 1, list(frames.frames), tgrid_1d(), np.zeros((4, 64)))
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
    g = Sinogram(2, 1, list(frames.frames), tg, g_vals)
    lhs = sino_dot(sino_f, g)
    rhs = field_dot(mix, backproject(g, GRID_2D))
    assert abs(lhs - rhs) / abs(rhs) <= 0.01


def test_backproject_thread_order_independence():
    # 200 frames span four 64-frame partial sums; every thread count must
    # reproduce the same bits
    mix = mixture_field(GRID_2D, [[0.5, -0.3]], [1.0])
    frames = frameset_circle(200)
    sino = forward(mix, frames, tgrid_1d(128), QUAD_2D_WIDE, order=1)
    spec = GridSpec.centered(3, 12, 0.4)
    frames_3d = frameset_haar(3, 1, 200, RngSeed(8))
    rng = np.random.default_rng(8)
    sino_3d = Sinogram(3, 1, list(frames_3d.frames), TGrid.centered(2, 24, 0.4),
                       rng.random((200, 24, 24)))
    rec1 = fbp(sino, 2, 1, GRID_2D, threads=1)
    back1 = backproject(sino_3d, spec, threads=1)
    for threads in (2, 3, 4):
        assert np.array_equal(fbp(sino, 2, 1, GRID_2D, threads=threads).values, rec1.values)
        assert np.array_equal(backproject(sino_3d, spec, threads=threads).values, back1.values)


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


def test_forward_thread_order_independence():
    mix = mixture_field(GRID_2D, [[0.5, -0.3]], [1.0])
    frames = frameset_circle(16)
    tg = tgrid_1d(64)
    s1 = forward(mix, frames, tg, QUAD_2D_WIDE, threads=1)
    s2 = forward(mix, frames, tg, QUAD_2D_WIDE, threads=4)
    assert np.abs(s1.values - s2.values).max() <= 1e-10


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
    g = Sinogram(3, 1, list(frames.frames), tg, g_vals)
    lhs = sino_dot(sino_f, g)
    rhs = field_dot(fld, backproject(g, spec))
    assert abs(lhs - rhs) / abs(rhs) <= 0.01


def test_forward_default_quadrature():
    # defaults: halfwidth = half grid diagonal, nodes = 2 x max shape
    spec = GridSpec.centered(2, 32, 0.3)
    quad = QuadSpec.default_for(spec)
    assert quad.nodes_per_axis == 64
    assert quad.halfwidth == pytest.approx(0.3 * 31 * np.sqrt(2) / 2, rel=1e-12)
    fld = gaussian_field(spec)
    sino = forward(fld, frameset_circle(4), tgrid_1d(33, 0.3))
    mid = 16
    assert sino.values[0, mid] == pytest.approx((2 * np.pi) ** -0.5, abs=1e-3)


def test_calibrate_gain_3d_radon_1000_frames():
    spec = GridSpec.centered(3, 24, 0.4)
    frames = frameset_haar(3, 2, 1000, RngSeed(1))
    tg = TGrid.centered(1, 64, 0.3)
    gain = calibrate_gain(3, 2, frames, spec, tg, QuadSpec(8.0, 48))
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
    errors = []
    for n, h, nt in [(32, 0.4, 64), (64, 0.2, 128)]:
        spec = GridSpec.centered(2, n, h)
        mix = mixture_field(spec, [[1.2, 0.5], [-0.8, -0.3]], [1.0, 0.7])
        frames = frameset_circle(240)
        tg = TGrid.centered(1, nt, h)
        sino = forward(mix, frames, tg, QuadSpec(9.0, 2 * n), order=1)
        errors.append(rel_l2_error(fbp(sino, 2, 1, spec), mix))
    assert errors[1] < 0.6 * errors[0]


def test_sino_dot_requires_matching_grids():
    frames = frameset_circle(4)
    a = Sinogram(2, 1, list(frames.frames), tgrid_1d(16, 0.5), np.ones((4, 16)))
    b = Sinogram(2, 1, list(frames.frames), tgrid_1d(16, 0.25), np.ones((4, 16)))
    with pytest.raises(DomainError):
        sino_dot(a, b)


def test_sino_dot_requires_matching_frames():
    # same count, d, k and t-grid, but different frames
    circle = frameset_circle(8)
    haar = frameset_haar(2, 1, 8, RngSeed(3))
    tg = tgrid_1d(16, 0.5)
    a = Sinogram(2, 1, list(circle.frames), tg, np.ones((8, 16)))
    b = Sinogram(2, 1, list(haar.frames), tg, np.ones((8, 16)))
    with pytest.raises(DomainError, match="share frames"):
        sino_dot(a, b)
    reordered = Sinogram(2, 1, list(circle.frames)[::-1], tg, np.ones((8, 16)))
    with pytest.raises(DomainError, match="share frames"):
        sino_dot(a, reordered)
    # equal rows held by distinct Frame objects still pair
    c = Sinogram(2, 1, [Frame(2, 1, fr.rows.copy()) for fr in circle.frames], tg, np.ones((8, 16)))
    assert sino_dot(a, c) == sino_dot(a, a)


def _dense_forward_at(interp, rows, t_pts, quad):
    """The unclipped rule: interpolate every tensor node, then a weighted sum."""
    m, d = rows.shape
    b = complete_frame(Frame(d, d - m, rows))
    nodes, weights = quad.nodes_weights(d - m)
    t_pts = np.asarray(t_pts, dtype=float)
    base = t_pts.reshape(-1, m) @ rows
    pts = base[None, :, :] + (nodes @ b.T)[:, None, :]
    return (weights[:, None] * interp(pts)).sum(axis=0).reshape(t_pts.shape[:-1])


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_forward_at_matches_dense_quadrature(d, k, order):
    n = {2: 24, 3: 10, 4: 6}[d]
    spec = GridSpec.centered(d, n, 0.3)
    rng = np.random.default_rng(10 * d + k)
    fld = GridField(spec.origin, spec.spacing, spec.shape, rng.random(spec.shape) + 0.5)
    interp = FieldInterpolator(fld, order=order)
    quad = QuadSpec.default_for(spec)
    m = d - k
    frames = [fr.rows for fr in frameset_haar(d, k, 4, RngSeed(d, k))]
    frames.append(np.eye(d)[:m])  # axis aligned: the completion B has zero components
    if d == 2:
        frames += [fr.rows for fr in frameset_circle(4)]  # cos(pi/2) is not exactly 0
    half = -spec.origin[0]
    t_pts = rng.uniform(-1.2 * half, 1.2 * half, size=(2, 5, m))
    t_pts[0, 0] = 10.0 * half  # this plane misses the box
    t_pts[0, 1] = half  # on a face of the box for the axis-aligned frame
    for rows in frames:
        got = forward_at(interp, rows, t_pts, quad)
        ref = _dense_forward_at(interp, rows, t_pts, quad)
        assert got.shape == (2, 5)
        assert got[0, 0] == 0.0
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max())


def test_forward_interpolates_only_near_box(monkeypatch):
    spec = GridSpec.centered(3, 16, 0.3)
    fld = gaussian_field(spec)
    frames = frameset_haar(3, 2, 8, RngSeed(5))
    tg = TGrid.centered(1, 24, 0.3)
    quad = QuadSpec.default_for(spec)
    hi = spec.origin + spec.spacing * (np.array(spec.shape) - 1)
    counts = {"points": 0, "inbox": 0}
    call = FieldInterpolator.__call__

    def counting(self, pts):
        flat = np.asarray(pts).reshape(-1, 3)
        counts["points"] += flat.shape[0]
        counts["inbox"] += int(np.all((flat >= spec.origin) & (flat <= hi), axis=1).sum())
        return call(self, pts)

    monkeypatch.setattr(FieldInterpolator, "__call__", counting)
    forward(fld, frames, tg, quad, order=1, threads=1)
    clipped = dict(counts)
    counts.update(points=0, inbox=0)
    interp = FieldInterpolator(fld, order=1)
    for fr in frames:
        _dense_forward_at(interp, fr.rows, tg.points(), quad)
    assert clipped["inbox"] == counts["inbox"] == clipped["points"] > 0


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
    frames = list(frameset_haar(d, k, n_frames - 2, RngSeed(d, k)).frames)
    frames += [Frame(d, k, np.eye(d)[:m]), Frame(d, k, -np.eye(d)[::-1][:m])]
    rng = np.random.default_rng(d + 10 * k)
    sino = Sinogram(d, k, frames, tg, rng.random((n_frames,) + tg.shape) - 0.3)
    ref, ref_outside = _loop_backproject(sino, grid)
    assert ref_outside > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        got = backproject(sino, grid, threads=1)
    assert _truncated_reads(caught) == ref_outside
    assert np.all(np.abs(got.values - ref) <= 1e-12 * np.abs(ref).max())
    # the nearest-frame lookup reads single t-blocks through the same kernel
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
    # of a read must not grow with that distance
    frames = frameset_circle(2)
    tg = TGrid.centered(1, 9, 1e-10)
    # constant along t: rounding in A x, amplified 1e10 times, cannot move a read
    sino = Sinogram(2, 1, frames, tg, np.repeat([[1.0], [3.0]], 9, axis=1))
    grid = GridSpec.centered(2, 3, 1.0)
    ref, ref_outside = _loop_backproject(sino, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        start = time.perf_counter()
        got = backproject(sino, grid, threads=1)
        elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert _truncated_reads(caught) == ref_outside == 12
    assert np.array_equal(got.values, ref)


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
