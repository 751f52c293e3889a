import tracemalloc

import numpy as np
import pytest

from kplane import (
    DomainError,
    FrameSet,
    GridSpec,
    MollifiedAtom,
    QuadSpec,
    RngSeed,
    Sinogram,
    TGrid,
    frameset_circle,
    frameset_haar,
    forward,
    haar_orthogonal_sample,
    mixture_field,
    pk_project,
    project_iso,
    ramp_filter,
    render_delta_iso,
    sino_mass,
)
from kplane.fields import interp_t_block
from kplane.geometry import align_rotation, stiefel_total_mass
from kplane.transform import sino_dot, sino_norm

GRID_2D = GridSpec.centered(2, 64, 0.2)
QUAD_2D = QuadSpec(9.0, 128)


def circle_closure_sinogram(n_frames=180, delta=0.5, n_t=63):
    """Smooth non-isotropic sinogram on circle frames, with exact generator."""
    frames = frameset_circle(n_frames)
    tg = TGrid.centered(1, n_t, 0.25)

    def gen(rows, pts):
        # one (1, 2) frame or an (n, 1, 2) stack, at (P, 1) points
        a = rows[..., 0, :]
        center = (0.8 * a[..., 0] + 0.3 * a[..., 1])[..., None, None]
        sq = ((pts - center) ** 2).sum(axis=-1)
        return np.exp(-sq / 2.0) * (1.0 + delta * a[..., 0, None])

    return Sinogram(2, 1, frames, tg, gen(frames.rows, tg.points()), gen)


def haar_closure_sinogram(n_frames=240, delta=0.15, seed=21, x1=(0.6, -0.3, 0.2)):
    """Smooth mildly non-isotropic sinogram on Haar frames in V_2(R^3)."""
    frames = frameset_haar(3, 1, n_frames, RngSeed(seed))
    tg = TGrid.centered(2, 15, 0.45)
    x1 = np.asarray(x1, dtype=float)

    def gen(rows, pts):
        # one (2, 3) frame or an (n, 2, 3) stack, at (P, 2) points
        sq = ((pts - (rows @ x1)[..., None, :]) ** 2).sum(axis=-1)
        return np.exp(-sq / 2.0) * (1.0 + delta * rows[..., 0, 0, None])

    return Sinogram(3, 1, frames, tg, gen(frames.rows, tg.points()), gen)


# --- exact O(1) branch (d - k = 1) -------------------------------------------


def test_sinograms_hold_their_frame_set():
    # one (n, d-k, d) row stack per frame set, shared by every derived sinogram
    frames = frameset_haar(3, 1, 6, RngSeed(2))
    assert frames.rows.shape == (6, 2, 3) and not frames.rows.flags.writeable
    assert all(np.array_equal(frames.rows[i], fr.rows) for i, fr in enumerate(frames))
    assert frames[1:4] == frames.frames[1:4]
    grid, tg, quad = GridSpec.centered(3, 6, 0.5), TGrid.centered(2, 11, 0.5), QuadSpec(3.0, 8)
    sino = forward(mixture_field(grid, [[0.2, 0.0, -0.1]], [1.0]), frames, tg, quad, order=1)
    atom = MollifiedAtom(frames[0], np.zeros(2), frame_width=0.5, t_width=1.0)
    derived = [sino, sino.copy_with(sino.values), ramp_filter(sino),
               project_iso(sino, n_rotations=2), pk_project(sino, grid, quad, order=1),
               render_delta_iso(atom, frames, tg, n_rotations=0)]
    assert all(out.frames is frames for out in derived)
    wrapped = Sinogram(3, 1, list(frames.frames), tg, sino.values)
    assert isinstance(wrapped.frames, FrameSet) and wrapped.frames.mode == "explicit"
    assert np.array_equal(wrapped.frames.rows, frames.rows)
    with pytest.raises(DomainError, match="homogeneous"):
        FrameSet((frames[0], frameset_haar(3, 2, 1, RngSeed(3))[0]), "explicit")


def test_project_iso_even_part_exact():
    sino = circle_closure_sinogram()
    proj = project_iso(sino)
    t_pts = sino.t_grid.points()
    for i, fr in enumerate(sino.frames):
        expect = 0.5 * (
            sino.generator(fr.rows, t_pts) + sino.generator(-fr.rows, -t_pts)
        )
        assert np.abs(proj.values[i].ravel() - expect).max() <= 1e-14


def test_project_iso_o1_is_two_term_average_bitwise():
    # identity term from the stored values, flipped term from the generator or,
    # without one, from the t-block of the nearest stored frame to -A
    sino = circle_closure_sinogram()
    t_pts = sino.t_grid.points()
    rows = sino.frames.rows
    bare = sino.copy_with(sino.values, None)
    proj, proj_bare = project_iso(sino), project_iso(bare)
    for i, fr in enumerate(sino.frames):
        stored = sino.values[i].ravel()
        flipped = sino.generator(-fr.rows, -t_pts)
        assert np.array_equal(proj.values[i].ravel(), 0.5 * (stored + flipped))
        j = int(np.argmin(np.linalg.norm(rows + fr.rows, axis=(1, 2))))
        looked_up = interp_t_block(sino.values[j], sino.t_grid, -t_pts)
        assert np.array_equal(proj_bare.values[i].ravel(), 0.5 * (stored + looked_up))
    assert proj_bare.generator is None
    pts = t_pts[::5] + 0.013
    for fr in sino.frames[::17]:
        expect = 0.5 * (sino.generator(fr.rows, pts) + sino.generator(-fr.rows, -pts))
        assert np.array_equal(proj.generator(fr.rows, pts), expect)


def test_project_iso_idempotent_exact():
    sino = circle_closure_sinogram()
    p1 = project_iso(sino)
    p2 = project_iso(p1)
    assert np.abs(p2.values - p1.values).max() <= 1e-12


def test_project_iso_constant_is_fixed():
    frames = frameset_circle(180)
    tg = TGrid.centered(1, 63, 0.25)
    ones = Sinogram(2, 1, list(frames.frames), tg, np.ones((180, 63)))
    proj = project_iso(ones)  # free-standing: nearest-frame lookup path
    assert np.abs(proj.values - 1.0).max() <= 1e-12


def test_project_iso_forward_sinogram_fixed_point():
    mix = mixture_field(GRID_2D, [[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
    sino = forward(mix, frameset_circle(60), TGrid.centered(1, 95, 0.25), QUAD_2D)
    proj = project_iso(sino)
    scale = np.abs(sino.values).max()
    assert np.abs(proj.values - sino.values).max() <= 1e-10 * scale


def test_project_iso_nonexpansive_exact():
    sino = circle_closure_sinogram()
    proj = project_iso(sino)
    assert sino_norm(proj) <= sino_norm(sino) * (1 + 1e-6)


def test_project_iso_self_adjoint_exact():
    f = circle_closure_sinogram(delta=0.5)
    g = circle_closure_sinogram(delta=-0.7)
    g = f.copy_with(np.roll(f.values, 7, axis=1), None)
    # free-standing g: lookup path; f has its generator
    pf = project_iso(f)
    pg = project_iso(g)
    lhs = sino_dot(pf, g)
    rhs = sino_dot(f, pg)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, sino_norm(f) * sino_norm(g))


def test_project_iso_requires_symmetric_grid():
    frames = frameset_circle(8)
    tg = TGrid(np.array([0.0]), 0.25, (16,))
    sino = Sinogram(2, 1, list(frames.frames), tg, np.zeros((8, 16)))
    with pytest.raises(DomainError):
        project_iso(sino)


# --- Monte-Carlo branch (d - k = 2) -------------------------------------------


def test_project_iso_idempotent_mc():
    sino = haar_closure_sinogram()
    p1 = project_iso(sino, n_rotations=64, rng=RngSeed(5))
    p2 = project_iso(p1, n_rotations=64, rng=RngSeed(6))
    defect = sino_norm(p1.copy_with(p2.values - p1.values)) / sino_norm(p1)
    assert defect <= 2e-2


def test_project_iso_nonexpansive_mc():
    sino = haar_closure_sinogram(delta=0.5)
    proj = project_iso(sino, n_rotations=48, rng=RngSeed(9))
    assert sino_norm(proj) <= sino_norm(sino) * (1 + 1e-6)


def test_project_iso_self_adjoint_mc():
    f = haar_closure_sinogram(delta=0.3)
    frames = f.frames
    x2 = np.array([-0.4, 0.5, 0.1])

    def gen2(rows, pts):
        sq = ((pts - (rows @ x2)[..., None, :]) ** 2).sum(axis=-1)
        return np.exp(-sq / 1.5) * (1.0 + 0.3 * rows[..., 1, 2, None])

    g = Sinogram(3, 1, frames, f.t_grid, gen2(frames.rows, f.t_grid.points()), gen2)
    pf = project_iso(f, 64, RngSeed(7))
    pg = project_iso(g, 64, RngSeed(7))
    resid = abs(sino_dot(pf, g) - sino_dot(f, pg))
    assert resid <= 2e-2 * sino_norm(f) * sino_norm(g)


def test_project_iso_lookup_miss_raises():
    # sparse free-standing Haar frames cannot resolve rotated coordinates; the
    # error names the first miss in (rotation, frame) order
    frames = frameset_haar(3, 1, 10, RngSeed(2))
    tg = TGrid.centered(2, 9, 0.5)
    sino = Sinogram(3, 1, list(frames.frames), tg, np.ones((10, 9, 9)))
    gen = RngSeed(3).generator()
    u = haar_orthogonal_sample(2, gen).mat
    nearest = [np.linalg.norm(frames.rows - u @ rows, axis=(1, 2)).min() for rows in frames.rows]
    first = next(dist for dist in nearest if dist > 0.15)
    with pytest.raises(DomainError, match=rf"tolerance 0.15 \(nearest {first:.3f}\) and the"):
        project_iso(sino, n_rotations=8, rng=RngSeed(3))


def _project_iso_per_frame(sino, rotations):
    """Reference rule: one evaluation per (rotation, frame), in that order."""
    tg, t_pts = sino.t_grid, sino.t_grid.points()
    acc = sino.values.copy() if sino.m == 1 else np.zeros_like(sino.values)
    for u in rotations:
        for i, rows in enumerate(sino.frames.rows):
            rows_u, pts_u = u @ rows, t_pts @ u.T
            if sino.generator is not None:
                vals = sino.generator(rows_u, pts_u)
            else:
                j = int(np.argmin(np.linalg.norm(sino.frames.rows - rows_u, axis=(1, 2))))
                vals = interp_t_block(sino.values[j], tg, pts_u)
            acc[i] += vals.reshape(tg.shape)
    return acc / (2 if sino.m == 1 else len(rotations))


@pytest.mark.parametrize("m,route", [(1, "generator"), (1, "lookup"), (2, "generator"),
                                     (2, "lookup")])
def test_project_iso_matches_per_frame_loop_bitwise(m, route):
    if m == 1:
        sino = circle_closure_sinogram(n_frames=60)
        rotations, kwargs = [-np.eye(1)], {}
    else:
        # dense frames and a wide tolerance, so every rotated frame has a match
        sino = haar_closure_sinogram(n_frames=600 if route == "lookup" else 30, seed=4)
        gen = RngSeed(3).generator()
        rotations = [haar_orthogonal_sample(2, gen).mat for _ in range(5)]
        kwargs = {"n_rotations": 5, "rng": RngSeed(3), "chordal_tol": 1.0}
    if route == "lookup":
        sino = sino.copy_with(sino.values, None)
    proj = project_iso(sino, **kwargs)
    assert np.array_equal(proj.values, _project_iso_per_frame(sino, rotations))
    if route == "generator":
        rows, pts = sino.frames.rows[:7], sino.t_grid.points()[::4] + 0.013
        single = np.stack([proj.generator(r, pts) for r in rows])
        assert np.array_equal(proj.generator(rows, pts), single)


@pytest.mark.parametrize("call", [
    pytest.param(lambda sino, atom: project_iso(sino, n_rotations=0), id="project-0"),
    pytest.param(lambda sino, atom: project_iso(sino, n_rotations=-1), id="project-negative"),
    pytest.param(lambda sino, atom: render_delta_iso(atom, sino.frames, sino.t_grid,
                                                     n_rotations=-3), id="render-negative"),
])
def test_rotation_count_below_minimum_raises(call):
    # at d-k = 2 these returned all-zero sinograms (or failed on a finiteness check)
    sino = haar_closure_sinogram(n_frames=8)
    atom = MollifiedAtom(sino.frames[0], np.zeros(2), frame_width=0.5, t_width=1.0)
    with pytest.raises(DomainError, match="n_rotations"):
        call(sino, atom)


# --- range projector P_k -------------------------------------------------------


def test_pk_project_fixes_forward_range():
    mix = mixture_field(GRID_2D, [[0.8, 0.3], [-0.5, -0.9]], [1.0, 0.6])
    sino = forward(mix, frameset_circle(180), TGrid.centered(1, 127, 0.2), QUAD_2D, order=1)
    proj = pk_project(sino, GRID_2D, QUAD_2D, order=1)
    rel = sino_norm(sino.copy_with(proj.values - sino.values)) / sino_norm(sino)
    assert rel <= 0.05


def test_pk_project_annihilates_anti_isotropic():
    sino = circle_closure_sinogram(n_frames=180, delta=0.5, n_t=95)
    iso = project_iso(sino)
    anti = sino.copy_with(sino.values - iso.values, None)
    out = pk_project(anti, GRID_2D, QUAD_2D, order=1)
    assert sino_norm(out) <= 0.10 * sino_norm(anti)


def test_pk_project_zero():
    frames = frameset_circle(16)
    tg = TGrid.centered(1, 63, 0.25)
    zero = Sinogram(2, 1, list(frames.frames), tg, np.zeros((16, 63)))
    out = pk_project(zero, GridSpec.centered(2, 24, 0.4), QuadSpec(7.0, 48))
    assert np.abs(out.values).max() <= 1e-14


def test_pk_matches_piso_on_forward_range():
    mix = mixture_field(GRID_2D, [[0.8, 0.3]], [1.0])
    sino = forward(mix, frameset_circle(180), TGrid.centered(1, 127, 0.2), QUAD_2D, order=1)
    pk = pk_project(sino, GRID_2D, QUAD_2D, order=1)
    piso = project_iso(sino)
    rel = sino_norm(sino.copy_with(pk.values - piso.values)) / sino_norm(piso)
    assert rel <= 0.10


# --- mollified isotropic atoms -------------------------------------------------


def test_render_delta_iso_unit_mass():
    frames = frameset_haar(3, 1, 600, RngSeed(4))
    a0 = frames.frames[0]
    atom = MollifiedAtom(a0, np.array([0.8, -0.5]), frame_width=0.15, t_width=1.0)
    tg = TGrid.centered(2, 41, 0.4)
    sino = render_delta_iso(atom, frames, tg, n_rotations=32, rng=RngSeed(5))
    assert sino_mass(sino) == pytest.approx(1.0, abs=1e-3)


def test_render_delta_iso_two_bump_closed_form():
    # d - k = 1: the O(1) average is the symmetrized two-bump configuration
    frames = frameset_circle(24)
    a0 = frames.frames[3]
    t0 = np.array([0.7])
    eps_a, eps_t = 0.4, 0.6
    tg = TGrid.centered(1, 41, 0.25)
    atom = MollifiedAtom(a0, t0, frame_width=eps_a, t_width=eps_t)
    sino = render_delta_iso(atom, frames, tg)

    rows = frames.rows
    t = tg.points()
    mass = 2 * np.pi
    expect = np.zeros((24, 41))
    for sign in (+1.0, -1.0):
        w = np.exp(-((rows - sign * a0.rows) ** 2).sum(axis=(1, 2)) / (2 * eps_a**2))
        w /= mass * w.mean()
        tb = np.exp(-((t - sign * t0) ** 2).sum(-1) / (2 * eps_t**2)) / np.sqrt(
            2 * np.pi * eps_t**2
        )
        expect += 0.5 * w[:, None] * tb[None, :]
    assert np.abs(sino.values.reshape(24, 41) - expect).max() <= 1e-14


def test_render_delta_iso_resolvability_check():
    frames = frameset_haar(3, 1, 10, RngSeed(1))
    atom = MollifiedAtom(frames.frames[0], np.zeros(2), frame_width=0.1, t_width=0.3)
    with pytest.raises(DomainError):
        render_delta_iso(atom, frames, TGrid.centered(2, 11, 0.4))


def test_render_delta_iso_alignment_variant_is_isotropic():
    # values depend only on the orbit: g(A_i, t) == g(V A_i, V t) by construction
    frames = frameset_haar(3, 1, 50, RngSeed(8))
    a0 = frames.frames[7]
    atom = MollifiedAtom(a0, np.array([0.5, 0.1]), frame_width=0.3, t_width=1.0)
    tg = TGrid.centered(2, 21, 0.4)
    sino = render_delta_iso(atom, frames, tg, n_rotations=0)
    # the bump at the atom's own frame is centered at its own offset
    peak_idx = np.unravel_index(np.argmax(sino.values[7]), tg.shape)
    peak_t = np.array([tg.axes()[0][peak_idx[0]], tg.axes()[1][peak_idx[1]]])
    assert np.linalg.norm(peak_t - atom.offset) <= tg.spacing * np.sqrt(2) + 1e-12


@pytest.mark.parametrize("d,k", [(3, 1), (4, 2), (5, 3)])
def test_render_delta_iso_alignment_matches_per_frame_loop_bitwise(d, k):
    m, eps_a, eps_t = d - k, 0.5, 1.0
    frames = frameset_haar(d, k, 40, RngSeed(d + k))
    atom = MollifiedAtom(frames.frames[3], np.linspace(0.4, -0.3, m),
                         frame_width=eps_a, t_width=eps_t)
    tg = TGrid.centered(m, 9, 0.4)
    sino = render_delta_iso(atom, frames, tg, n_rotations=0)

    d2 = np.empty(len(frames))
    centres = np.empty((len(frames), m))
    for i, fr in enumerate(frames.frames):
        v = align_rotation(atom.frame.rows, fr.rows)
        d2[i] = ((v @ atom.frame.rows - fr.rows) ** 2).sum()
        centres[i] = v @ atom.offset
    w = np.exp(-d2 / (2.0 * eps_a**2))
    w /= stiefel_total_mass(d, k) * w.mean() * (2.0 * np.pi * eps_t**2) ** (m / 2.0)
    # per frame: weight times one 1-D Gaussian per t-axis, first axis first
    ref = np.empty(sino.values.shape)
    for i, c in enumerate(centres):
        bump = w[i]
        for ax, cj in zip(tg.axes(), c):
            bump = np.multiply.outer(bump, np.exp(-(ax - cj) ** 2 / (2.0 * eps_t**2)))
        ref[i] = bump
    assert np.array_equal(sino.values, ref)

    # the closed form, exp of the summed squared distance, agrees to rounding
    sq = ((tg.points() - centres[:, None, :]) ** 2).sum(axis=-1)
    closed = w[:, None] * np.exp(-sq / (2.0 * eps_t**2))
    np.testing.assert_allclose(sino.values.reshape(len(frames), -1), closed, rtol=1e-15, atol=0)


@pytest.mark.parametrize("n_rotations", [0, 2])
def test_render_delta_iso_peak_allocation(n_rotations):
    # at the ridge3d benchmark size the rendering allocates at most 2.2x its result
    frames = frameset_haar(3, 1, 2000, RngSeed(1))
    atom = MollifiedAtom(frames.frames[0], np.array([0.8, -0.5]), frame_width=0.1, t_width=1.25)
    tg = TGrid.centered(2, 48, 0.35)
    tracemalloc.start()
    try:
        sino = render_delta_iso(atom, frames, tg, n_rotations=n_rotations, rng=RngSeed(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * sino.values.nbytes


def test_render_delta_iso_base_bump_unit_mass():
    # a single rendered bump carries unit discrete mass to 1e-6
    frames = frameset_haar(3, 1, 400, RngSeed(14))
    atom = MollifiedAtom(frames.frames[2], np.array([0.4, -0.2]),
                         frame_width=0.3, t_width=1.0)
    tg = TGrid.centered(2, 41, 0.4)
    sino = render_delta_iso(atom, frames, tg, n_rotations=0)
    assert abs(sino_mass(sino) - 1.0) <= 1e-6
