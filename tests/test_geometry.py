import math

import numpy as np
import pytest

from kplane import (
    DomainError,
    Frame,
    FrameSet,
    RngSeed,
    Rotation,
    align_rotation,
    c_constant,
    complete_frame,
    frameset_haar,
    haar_frame_sample,
    haar_orthogonal_sample,
    orbit_distance,
    rotate_pair,
    sphere_area,
    stiefel_total_mass,
)
from kplane.geometry import _haar_rows, _haar_stack


def test_sphere_area_small_dims():
    assert sphere_area(1) == pytest.approx(2.0, abs=1e-14)
    assert sphere_area(2) == pytest.approx(2 * math.pi, abs=1e-13)
    assert sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-13)


def test_sphere_area_domain():
    with pytest.raises(DomainError):
        sphere_area(0)


def test_c_constant_classical_values():
    assert c_constant(2, 1) == pytest.approx(1 / (4 * math.pi), rel=1e-13)
    assert c_constant(3, 2) == pytest.approx(1 / (8 * math.pi**2), rel=1e-13)
    assert c_constant(3, 1) == pytest.approx(1 / (8 * math.pi**3), rel=1e-13)


def test_c_constant_product_identities():
    assert abs(c_constant(2, 1) * 4 * math.pi - 1) <= 1e-12
    assert abs(c_constant(3, 2) * 8 * math.pi**2 - 1) <= 1e-12


def test_c_constant_domain():
    with pytest.raises(DomainError):
        c_constant(3, 3)
    with pytest.raises(DomainError):
        c_constant(2, 0)


def test_stiefel_total_mass():
    assert stiefel_total_mass(2, 1) == pytest.approx(2 * math.pi, rel=1e-13)
    assert stiefel_total_mass(3, 2) == pytest.approx(4 * math.pi, rel=1e-13)
    assert stiefel_total_mass(3, 1) == pytest.approx(8 * math.pi**2, rel=1e-13)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
def test_haar_frame_orthonormal(d, k):
    gen = RngSeed(11, 3).generator()
    for _ in range(20):
        fr = haar_frame_sample(d, k, gen)
        defect = np.linalg.norm(fr.rows @ fr.rows.T - np.eye(d - k))
        assert defect <= 1e-12


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1)])
def test_rng_seed_rejects_negative(seed, stream):
    with pytest.raises(DomainError, match=">= 0"):
        RngSeed(seed, stream)


def test_haar_frame_deterministic():
    a = haar_frame_sample(4, 2, RngSeed(5, 9))
    b = haar_frame_sample(4, 2, RngSeed(5, 9))
    assert np.array_equal(a.rows, b.rows)
    c = haar_frame_sample(4, 2, RngSeed(5, 10))
    assert not np.array_equal(a.rows, c.rows)


def test_haar_frame_angle_uniform_ks():
    # d=2, k=1: the frame row is a unit vector whose angle must be uniform
    gen = RngSeed(2024, 0).generator()
    n = 100_000
    angles = np.empty(n)
    for i in range(n):
        row = haar_frame_sample(2, 1, gen).rows[0]
        angles[i] = np.arctan2(row[1], row[0])
    sorted_u = np.sort(np.mod(angles, 2 * np.pi)) / (2 * np.pi)
    i = np.arange(1, n + 1)
    ks = max(np.abs(i / n - sorted_u).max(), np.abs(sorted_u - (i - 1) / n).max())
    assert ks < 0.01


def test_haar_orthogonal_o1_frequencies():
    gen = RngSeed(3, 1).generator()
    draws = [haar_orthogonal_sample(1, gen).mat[0, 0] for _ in range(10_000)]
    draws = np.array(draws)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs(np.mean(draws == 1.0) - 0.5) <= 0.01


def test_haar_orthogonal_properties():
    gen = RngSeed(4, 2).generator()
    for m in (2, 3):
        for _ in range(10):
            rot = haar_orthogonal_sample(m, gen)
            assert np.linalg.norm(rot.mat @ rot.mat.T - np.eye(m)) <= 1e-12
            assert abs(abs(rot.det) - 1.0) <= 1e-12


def test_haar_orthogonal_det_split():
    gen = RngSeed(8, 0).generator()
    dets = np.array([haar_orthogonal_sample(2, gen).det for _ in range(100_000)])
    frac_neg = np.mean(dets < 0)
    assert abs(frac_neg - 0.5) <= 0.01


def test_complete_frame_plane():
    fr = Frame(2, 1, np.array([[1.0, 0.0]]))
    b = complete_frame(fr)
    assert b.shape == (2, 1)
    assert abs(abs(b[1, 0]) - 1.0) <= 1e-12 and abs(b[0, 0]) <= 1e-12


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_complete_frame_properties(d, k):
    gen = RngSeed(6, 6).generator()
    for _ in range(10):
        fr = haar_frame_sample(d, k, gen)
        b = complete_frame(fr)
        assert np.linalg.norm(fr.rows @ b) <= 1e-12
        full = np.hstack([fr.rows.T, b])
        assert np.linalg.norm(full @ full.T - np.eye(d)) <= 1e-12
        # the complement projector depends only on the row span
        assert np.linalg.norm(b @ b.T - (np.eye(d) - fr.rows.T @ fr.rows)) <= 1e-12


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
def test_complete_frame_of_frame_set_matches_per_frame_bitwise(d, k):
    gen = RngSeed(d, k).generator()
    frames = FrameSet(tuple(haar_frame_sample(d, k, gen) for _ in range(12)), "explicit")
    stack = complete_frame(frames)
    assert stack.shape == (12, d, k)
    assert np.array_equal(stack, np.stack([complete_frame(fr) for fr in frames]))
    # a bare row stack, or one frame's rows, completes to the same bits
    assert np.array_equal(complete_frame(frames.rows), stack)
    assert np.array_equal(complete_frame(frames.rows[5]), stack[5])


@pytest.mark.parametrize("d,k", [(3, 1), (4, 2), (5, 3)])
def test_align_rotation_of_row_stack_matches_per_frame_bitwise(d, k):
    gen = RngSeed(d, k).generator()
    src = haar_frame_sample(d, k, gen).rows
    rows = np.stack([haar_frame_sample(d, k, gen).rows for _ in range(12)])
    stack = align_rotation(src, rows)
    assert np.array_equal(stack, np.stack([align_rotation(src, r) for r in rows]))


def _loop_haar_rows(d, k, n, seed):
    """The per-frame rule: one draw, rank check and sign-fixed QR per frame."""
    gen, out = seed.generator(), []
    for _ in range(n):
        while True:
            g = gen.normal(size=(d, d - k))
            if np.linalg.matrix_rank(g) == d - k:
                break
        q, r = np.linalg.qr(g)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        out.append((q * signs).T)
    return np.stack(out)


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_frameset_haar_matches_per_frame_draws_bitwise(d, k):
    seed = RngSeed(40 + d, k)
    frames = frameset_haar(d, k, 300, seed)
    assert np.array_equal(frames.rows, _loop_haar_rows(d, k, 300, seed))
    assert np.array_equal(haar_frame_sample(d, k, seed).rows, frames.rows[0])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rotation_stack_matches_per_draw_samples_bitwise(m):
    # the Monte-Carlo rotations: one stacked draw, the bits of n single draws
    seed = RngSeed(60 + m, 2)
    stack = _haar_stack(200, m, m, seed)
    gen = seed.generator()
    assert np.array_equal(stack, np.stack([haar_orthogonal_sample(m, gen).mat
                                           for _ in range(200)]))
    assert np.array_equal(stack, np.swapaxes(_loop_haar_rows(m, 0, 200, seed), -1, -2))


def test_frameset_haar_redraws_rank_deficient_matrices():
    class ZeroFirstFrame(np.random.Generator):
        draws = 0

        def normal(self, *args, **kwargs):
            out = super().normal(*args, **kwargs)
            if self.draws == 0:
                out[1] = 0.0  # a rank-0 matrix for the second frame
            self.draws += 1
            return out

    gen = ZeroFirstFrame(np.random.PCG64(3))
    frames = FrameSet(tuple(Frame(3, 1, r) for r in _haar_rows(3, 1, 4, gen)), "explicit")
    assert gen.draws == 2 and len(frames) == 4


@pytest.mark.parametrize("d,k,n", [(10**150, 1, 1), (3, 1, 0), (3, 1, 10**30)],
                         ids=["d-1e150", "n-0", "n-1e30"])
def test_frameset_haar_rejects_sizes_no_array_can_hold(d, k, n):
    with pytest.raises(DomainError):
        frameset_haar(d, k, n, RngSeed(1))


def test_complement_projector_rotation_invariant():
    gen = RngSeed(12, 1).generator()
    fr = haar_frame_sample(3, 1, gen)
    rot = haar_orthogonal_sample(2, gen)
    fr2, _ = rotate_pair(fr, np.zeros(2), rot)
    b1, b2 = complete_frame(fr), complete_frame(fr2)
    assert np.linalg.norm(b1 @ b1.T - b2 @ b2.T) <= 1e-12


def test_rotate_pair_identity_and_flip():
    fr = Frame(2, 1, np.array([[1.0, 0.0]]))
    ident = Rotation(1, np.array([[1.0]]))
    fr2, t2 = rotate_pair(fr, np.array([3.0]), ident)
    assert np.array_equal(fr2.rows, fr.rows) and t2[0] == 3.0
    flip = Rotation(1, np.array([[-1.0]]))
    fr3, t3 = rotate_pair(fr, np.array([3.0]), flip)
    assert np.allclose(fr3.rows, [[-1.0, 0.0]]) and t3[0] == -3.0


def test_rotate_pair_composition():
    gen = RngSeed(9, 0).generator()
    fr = haar_frame_sample(4, 2, gen)
    t = gen.normal(size=2)
    u1 = haar_orthogonal_sample(2, gen)
    u2 = haar_orthogonal_sample(2, gen)
    fa, ta = rotate_pair(*rotate_pair(fr, t, u1), u2)
    combined = Rotation(2, u2.mat @ u1.mat)
    fb, tb = rotate_pair(fr, t, combined)
    assert np.allclose(fa.rows, fb.rows, atol=1e-12)
    assert np.allclose(ta, tb, atol=1e-12)


def test_rotate_pair_dimension_mismatch():
    fr = Frame(3, 1, haar_frame_sample(3, 1, RngSeed(1)).rows)
    with pytest.raises(DomainError):
        rotate_pair(fr, np.zeros(2), Rotation(3, np.eye(3)))


def test_orbit_distance_and_alignment():
    gen = RngSeed(10, 4).generator()
    fr = haar_frame_sample(3, 1, gen)
    rot = haar_orthogonal_sample(2, gen)
    rotated, _ = rotate_pair(fr, np.zeros(2), rot)
    assert orbit_distance(fr, rotated) <= 1e-7
    v = align_rotation(fr.rows, rotated.rows)
    assert np.linalg.norm(v @ fr.rows - rotated.rows) <= 1e-7
    other = haar_frame_sample(3, 1, gen)
    assert orbit_distance(fr, other) > 1e-3


def test_orbit_distance_of_equal_planes_is_roundoff():
    # the closed form sqrt(2m - 2 sum sigma) read up to 4.2e-8 here
    gen = RngSeed(7).generator()
    for _ in range(20):
        fr = haar_frame_sample(3, 1, gen)
        assert orbit_distance(fr, fr) <= 1e-14
        rotated, _ = rotate_pair(fr, np.zeros(2), haar_orthogonal_sample(2, gen))
        assert orbit_distance(fr, rotated) <= 1e-14
    for angle in (9 * math.pi / 16, 10 * math.pi / 16):
        fr = Frame(2, 1, np.array([[math.cos(angle), math.sin(angle)]]))
        assert orbit_distance(fr, fr) <= 1e-15
        assert orbit_distance(fr, -fr.rows) <= 1e-15


def test_frame_invariant_rejects_bad_rows():
    with pytest.raises(DomainError):
        Frame(3, 1, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        Frame(3, 3, np.zeros((0, 3)))
    with pytest.raises(DomainError):  # NaN passed the defect > tol test
        Frame(2, 1, np.array([[np.nan, 0.0]]))


def test_haar_invariance_under_fixed_rotation():
    # UA is Haar whenever A is: KS test on the azimuth of the rotated first row
    theta = 1.234
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    gen = RngSeed(31, 0).generator()
    n = 20_000
    angles = np.empty(n)
    for i in range(n):
        fr = haar_frame_sample(3, 1, gen)
        row = (u @ fr.rows)[0]
        angles[i] = np.arctan2(row[1], row[0])
    sorted_u = np.sort(np.mod(angles, 2 * np.pi)) / (2 * np.pi)
    idx = np.arange(1, n + 1)
    ks = max(np.abs(idx / n - sorted_u).max(), np.abs(sorted_u - (idx - 1) / n).max())
    assert ks < 0.015


def test_rng_substreams_are_distinct_and_deterministic():
    base = RngSeed(42, 0)
    a = base.substream(0)
    b = base.substream(1)
    assert a != b
    va = a.generator().normal(size=4)
    vb = b.generator().normal(size=4)
    assert not np.array_equal(va, vb)
    assert np.array_equal(va, a.generator().normal(size=4))
