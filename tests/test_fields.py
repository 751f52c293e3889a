import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kplane import (
    DomainError,
    FieldInterpolator,
    FormatError,
    Frame,
    GridField,
    GridSpec,
    QuadSpec,
    RngSeed,
    Sinogram,
    TGrid,
    frameset_haar,
    haar_frame_sample,
    integrate,
    read_kpt,
    write_kpt,
)
from kplane.fields import _FINITE_BLOCK, all_finite


def make_field(d=2, n=10, h=0.5, seed=0):
    spec = GridSpec.centered(d, n, h)
    gen = RngSeed(seed).generator()
    return GridField(spec.origin, spec.spacing, spec.shape, gen.normal(size=spec.shape))


def test_interpolate_node_values():
    fld = make_field()
    spec = fld.spec
    pts = spec.points()
    vals = FieldInterpolator(fld, order=1)(pts)
    assert np.array_equal(vals, fld.values.ravel())


def test_interpolate_outside_is_zero():
    fld = make_field()
    hi = fld.origin + fld.spacing * (np.array(fld.shape) - 1)
    assert FieldInterpolator(fld, order=1)(hi + 0.01) == 0.0
    assert FieldInterpolator(fld, order=1)(fld.origin - 0.01) == 0.0
    assert FieldInterpolator(fld, order=1)(np.array([100.0, 0.0])) == 0.0


def test_interpolate_exact_on_affine():
    spec = GridSpec.centered(3, 8, 0.7)
    fld = GridField.from_function(spec, lambda p: 2.0 * p[:, 0] - 0.3 * p[:, 1] + 0.1)
    gen = RngSeed(4).generator()
    lo = fld.origin + 0.5
    hi = fld.origin + fld.spacing * (np.array(fld.shape) - 1) - 0.5
    pts = gen.uniform(lo, hi, size=(200, 3))
    vals = FieldInterpolator(fld, order=1)(pts)
    truth = 2.0 * pts[:, 0] - 0.3 * pts[:, 1] + 0.1
    assert np.abs(vals - truth).max() <= 1e-12


def test_integrate_constant():
    spec = GridSpec.centered(2, 10, 0.5)
    fld = GridField(spec.origin, spec.spacing, spec.shape, np.ones(spec.shape))
    assert integrate(fld) == pytest.approx(0.5**2 * 10**2, abs=1e-12)
    zero = GridField(spec.origin, spec.spacing, spec.shape, np.zeros(spec.shape))
    assert integrate(zero) == 0.0


def test_integrate_gaussian_mass():
    # unit Gaussian sampled on [-6, 6]^2 at h = 0.1
    n = 121
    spec = GridSpec(np.array([-6.0, -6.0]), 0.1, (n, n))
    pts = spec.points()
    vals = np.exp(-(pts**2).sum(axis=1) / 2) / (2 * np.pi)
    fld = GridField(spec.origin, spec.spacing, spec.shape, vals.reshape(spec.shape))
    assert integrate(fld) == pytest.approx(1.0, abs=1e-6)


def test_quadspec_weights_sum():
    for k in (1, 2, 3):
        quad = QuadSpec(2.5, 9)
        _, w = quad.nodes_weights(k)
        assert w.sum() == pytest.approx((2 * 2.5) ** k, rel=1e-12)


def test_quadspec_nodes_weights_built_once_read_only():
    quad = QuadSpec(2.5, 9)
    for k in (1, 2, 3):
        nodes, weights = quad.nodes_weights(k)
        again = quad.nodes_weights(k)
        assert again[0] is nodes and again[1] is weights
        assert nodes.shape == (9**k, k) and weights.shape == (9**k,)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0
    assert quad == QuadSpec(2.5, 9) and hash(quad) == hash(QuadSpec(2.5, 9))


def test_quadspec_validation():
    with pytest.raises(DomainError):
        QuadSpec(-1.0, 8)
    with pytest.raises(DomainError):
        QuadSpec(1.0, 1)


@pytest.mark.parametrize("build", [
    lambda: QuadSpec(float("nan"), 8),
    lambda: QuadSpec(float("inf"), 8),
    lambda: GridSpec(np.zeros(2), float("nan"), (4, 4)),
    lambda: GridSpec(np.zeros(2), float("inf"), (4, 4)),
    lambda: GridSpec(np.array([0.0, np.inf]), 0.1, (4, 4)),
    lambda: GridSpec(np.array([np.nan, 0.0]), 0.1, (4, 4)),
    lambda: TGrid(np.array([0.0]), float("nan"), (8,)),
    lambda: TGrid(np.array([-np.inf]), 0.1, (8,)),
    lambda: GridField(np.array([np.nan, 0.0]), 0.1, (2, 2), np.zeros((2, 2))),
])
def test_nonfinite_geometry_rejected(build):
    with pytest.raises(DomainError, match="finite"):
        build()


def test_grid_size_is_exact_and_bounded():
    # np.prod wrapped in int64: (2**32, 2**32) had size 0
    assert GridSpec(np.zeros(2), 0.1, (2**30, 2**29)).size == 2**59
    for shape in [(2**32, 2**32), (2**40, 2**40)]:
        with pytest.raises(DomainError, match="too many nodes"):
            GridSpec(np.zeros(2), 0.1, shape)


def test_grid_field_is_a_grid_spec():
    fld = make_field(d=3, n=5, h=0.25)
    assert isinstance(fld, GridSpec)
    assert (fld.d, fld.size, fld.shape) == (3, 125, (5, 5, 5))
    assert np.array_equal(fld.points(), fld.spec.points())


def make_sinogram(seed=3):
    gen = RngSeed(seed).generator()
    frames = [haar_frame_sample(3, 1, gen) for _ in range(4)]
    t_grid = TGrid.centered(2, 6, 0.4)
    values = gen.normal(size=(4, 6, 6))
    return Sinogram(3, 1, frames, t_grid, values)


def test_kpt_roundtrip_grid(tmp_path):
    fld = make_field(d=3, n=7, h=0.3, seed=9)
    path = tmp_path / "field.kpt"
    write_kpt(path, fld)
    back = read_kpt(path)
    assert isinstance(back, GridField)
    assert np.array_equal(back.values, fld.values)
    assert np.array_equal(back.origin, fld.origin)
    assert back.spacing == fld.spacing and back.shape == fld.shape


def test_kpt_roundtrip_sinogram(tmp_path):
    sino = make_sinogram()
    path = tmp_path / "sino.kpt"
    write_kpt(path, sino)
    back = read_kpt(path)
    assert isinstance(back, Sinogram)
    assert (back.d, back.k) == (3, 1)
    assert np.array_equal(back.values, sino.values)
    for fa, fb in zip(sino.frames, back.frames):
        assert np.array_equal(fa.rows, fb.rows)
    assert back.generator is None


def test_kpt_corrupt_magic(tmp_path):
    path = tmp_path / "bad.kpt"
    write_kpt(path, make_field())
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_kpt(path)
    assert err.value.offset == 0


def test_kpt_truncated_payload(tmp_path):
    path = tmp_path / "cut.kpt"
    write_kpt(path, make_field())
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FormatError):
        read_kpt(path)


def test_kpt_file_size_arithmetic(tmp_path):
    spec = GridSpec.centered(3, 64, 0.2)
    fld = GridField.zeros(spec)
    path = tmp_path / "cube.kpt"
    write_kpt(path, fld)
    size = path.stat().st_size
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    assert size == 4 + 4 + header_len + 8 * 64**3


def test_field_validation():
    with pytest.raises(DomainError):
        GridField(np.zeros(2), -0.1, (4, 4), np.zeros((4, 4)))
    with pytest.raises(DomainError):
        GridField(np.zeros(2), 0.1, (4, 4), np.full((4, 4), np.nan))


def test_sinogram_validation():
    sino = make_sinogram()
    with pytest.raises(DomainError):
        Sinogram(3, 1, [], sino.t_grid, np.zeros((0, 6, 6)))
    bad_frame = Frame(3, 2, haar_frame_sample(3, 2, RngSeed(0)).rows)
    with pytest.raises(DomainError):
        Sinogram(3, 1, [bad_frame], sino.t_grid, np.zeros((1, 6, 6)))
    for bad in (np.nan, np.inf, -np.inf):
        values = sino.values.copy()
        values[2, 3, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            Sinogram(3, 1, sino.frames, sino.t_grid, values)


def test_sinogram_equality_is_identity():
    # a sinogram holds arrays, so == is identity (as for every array-holding
    # class): equal values do not make two sinograms equal, and `in` and hashing work
    a = make_sinogram()
    b = Sinogram(a.d, a.k, a.frames, a.t_grid, a.values.copy())
    assert a == a and a != b and not (a == b)
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [_FINITE_BLOCK - 1, _FINITE_BLOCK, -1],
                         ids=["block-end", "block-start", "last"])
def test_all_finite_reads_every_block(bad, where):
    values = np.zeros(2 * _FINITE_BLOCK + 8)
    assert all_finite(values)
    values[where] = bad
    assert not all_finite(values)
    assert not all_finite(values[::-1])  # a view that is not contiguous
    shape = (len(values) // 8, 8)
    with pytest.raises(DomainError, match="field values must be finite"):
        GridField(np.zeros(2), 0.1, shape, values)
    with pytest.raises(DomainError, match="sinogram values must be finite"):
        Sinogram(2, 1, [Frame(2, 1, np.array([[1.0, 0.0]]))],
                 TGrid(np.zeros(1), 0.1, (len(values),)), values[None])


def test_all_finite_peak_memory_below_one_mask():
    # a full isfinite mask of 8 blocks would take 8 * _FINITE_BLOCK bytes
    values = np.zeros((8 * _FINITE_BLOCK // 64, 64))
    for x in (values, values.T):
        tracemalloc.start()
        try:
            assert all_finite(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _FINITE_BLOCK


def test_all_finite_zero_size():
    assert all_finite(np.zeros(0))
    assert all_finite(np.zeros((3, 0, 2)))


def test_cubic_interpolator_outside_is_zero():
    from kplane import FieldInterpolator

    fld = make_field(d=2, n=12, h=0.4, seed=5)
    interp = FieldInterpolator(fld, order=3)
    hi = fld.origin + fld.spacing * (np.array(fld.shape) - 1)
    assert interp(hi + 0.01) == 0.0
    assert interp(fld.origin - 0.01) == 0.0
    # agrees with the samples at interior nodes
    pts = fld.spec.points().reshape(fld.shape + (2,))[3:-3, 3:-3].reshape(-1, 2)
    vals = interp(pts)
    truth = fld.values[3:-3, 3:-3].ravel()
    assert np.abs(vals - truth).max() <= 1e-10


@pytest.mark.parametrize("order", [1, 3])
def test_interpolator_cutoff_at_the_box_faces(order):
    from kplane import FieldInterpolator

    # origin and spacing are exact binary fractions, so index coordinates survive
    # the round trip through physical coordinates
    values = RngSeed(11).generator().normal(size=(12, 9))
    fld = GridField(np.array([-2.75, -2.0]), 0.5, (12, 9), values)
    interp = FieldInterpolator(fld, order=order)
    for axis, n in enumerate(fld.shape):
        idx = np.array([[5.0, 4.0]] * 5)
        idx[:, axis] = [0.0, n - 1, -1e-12, n - 1 + 1e-12, n - 0.5]
        got = interp(fld.origin + fld.spacing * idx)
        assert np.all(got[2:] == 0.0)
        node = [fld.values[tuple(int(i) for i in row)] for row in idx[:2]]
        assert np.abs(got[:2] - node).max() <= (0.0 if order == 1 else 1e-12)


def test_lerp_t_reads_outside_as_zero_and_leaves_u_unchanged():
    from scipy import ndimage

    from kplane.fields import lerp_t

    block = RngSeed(12).generator().normal(size=(7, 5))
    u = [np.array([0.0, 6.0, 2.5, -1e-12, 6.5, -1e12, 3.25, np.nan, 1.0]),
         np.array([4.0, 0.0, 1.75, 2.0, 2.0, 1.0, 4.0 + 1e-12, 1.0, -np.inf])]
    kept = [uj.copy() for uj in u]
    got, outside = lerp_t(block.ravel(), block.shape, u)
    assert all(np.array_equal(uj, keep, equal_nan=True) for uj, keep in zip(u, kept))
    assert outside == 6 and np.all(got[3:] == 0.0)
    ref = ndimage.map_coordinates(block, np.stack(kept)[:, :3], order=1, mode="constant",
                                  cval=0.0, prefilter=False)
    assert np.abs(got[:3] - ref).max() <= 1e-15 * np.abs(ref).max()


SPLINE_SHAPES = [(7,), (1,), (2,), (3,), (24, 5), (1, 4), (2, 1), (5, 6, 7), (3, 3, 3),
                 (2, 3, 5), (1, 4, 4), (3, 2, 1, 4), (4, 1, 2, 3)]


@pytest.mark.parametrize("shape", SPLINE_SHAPES)
def test_spline_kernel_matches_map_coordinates(shape):
    # the order-3 read against scipy's cubic B-spline read of the same
    # coefficients: random inside points, nodes and box faces
    from scipy import ndimage

    from kplane import FieldInterpolator

    gen = RngSeed(sum(shape), len(shape)).generator()
    fld = GridField(np.zeros(len(shape)), 1.0, shape, gen.normal(size=shape))
    hi = np.array(shape, dtype=float)[:, None] - 1
    inside = gen.uniform(size=(len(shape), 400)) * hi
    nodes = np.floor(gen.uniform(size=(len(shape), 50)) * (hi + 1))
    faces = gen.uniform(size=(len(shape), 2 * len(shape))) * hi
    for j in range(len(shape)):
        faces[j, 2 * j:2 * j + 2] = [0.0, hi[j, 0]]
    u = np.concatenate([inside, nodes, faces], axis=1)
    coeff = ndimage.spline_filter(fld.values, order=3, mode="constant")
    ref = ndimage.map_coordinates(coeff, u, order=3, mode="constant", prefilter=False)
    got = FieldInterpolator(fld, order=3).read(u)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("shape", SPLINE_SHAPES + [(64,), (300,)])
def test_spline_coefficients_match_spline_filter(shape):
    # the numpy prefilter against scipy's on the same values (a line of 300 nodes
    # runs the start-value sum to where z^i underflows), and the order-3
    # interpolator built on it reproduces every node value
    from scipy import ndimage

    from kplane.fields import _spline_coefficients

    values = RngSeed(sum(shape), len(shape) + 10).generator().normal(size=shape)
    ref = ndimage.spline_filter(values, order=3, mode="constant")
    assert np.abs(_spline_coefficients(values) - ref).max() <= 2e-15 * np.abs(ref).max()
    nodes = np.indices(shape, dtype=float).reshape(len(shape), -1)
    got = FieldInterpolator(GridField(np.zeros(len(shape)), 1.0, shape, values), order=3)
    assert np.abs(got.read(nodes) - values.ravel()).max() <= 1e-13


@pytest.mark.parametrize("shape", [(6,), (1,), (4, 5), (2, 1, 3), (3, 2, 2, 2)])
def test_spline_kernel_outside_empty_and_concatenation(shape):
    from kplane import FieldInterpolator

    gen = RngSeed(7, len(shape)).generator()
    interp = FieldInterpolator(GridField(np.zeros(len(shape)), 1.0, shape,
                                         gen.normal(size=shape)), order=3)
    d, hi = len(shape), np.array(shape, dtype=float) - 1
    # one coordinate just or far outside, or not finite, the others inside
    bad = [-1e-12, 1e-12, -1e12, 1e12, np.nan, np.inf, -np.inf]
    u = np.repeat((0.5 * hi)[:, None], d * len(bad), axis=1)
    for j in range(d):
        for b, v in enumerate(bad):
            u[j, j * len(bad) + b] = hi[j] + v if v == 1e-12 else v
    kept = u.copy()
    assert np.all(interp.read(u) == 0.0)
    assert np.array_equal(u, kept, equal_nan=True)
    assert interp.read(np.empty((d, 0))).shape == (0,)
    # a read does not depend on the other points of the call, inside or out,
    # nor on where spline_t's 2^13-point blocks begin
    parts = [gen.uniform(-0.5, 1.5, size=(d, n)) * hi[:, None] for n in (5, 9000, 1)]
    parts[1] = np.concatenate([parts[1], u], axis=1)
    whole = interp.read(np.concatenate(parts, axis=1))
    assert np.array_equal(whole, np.concatenate([interp.read(p) for p in parts]))


def test_interpolator_rejects_bad_order():
    from kplane import FieldInterpolator

    with pytest.raises(DomainError):
        FieldInterpolator(make_field(), order=2)


def test_kpt_unknown_kind(tmp_path):
    import json as _json
    import struct as _struct

    header = _json.dumps({"kind": "volume", "shape": [2]}).encode()
    blob = b"KPT1" + _struct.pack("<I", len(header)) + header + b"\0" * 16
    path = tmp_path / "weird.kpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_kpt(path)
    assert err.value.offset == 8


def _kpt_parts(path):
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8 : 8 + hlen]), blob[8 + hlen :]


def _write_parts(path, header, payload):
    raw = json.dumps(header).encode()
    path.write_bytes(b"KPT1" + len(raw).to_bytes(4, "little") + raw + payload)


@pytest.mark.parametrize("obj", [make_field, make_sinogram])
def test_kpt_nonfinite_payload(tmp_path, obj):
    path = tmp_path / "nan.kpt"
    write_kpt(path, obj())
    header, payload = _kpt_parts(path)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[5] = np.nan
    _write_parts(path, header, values.tobytes())
    with pytest.raises(FormatError, match="non-finite") as err:
        read_kpt(path)
    assert err.value.offset == path.stat().st_size - len(payload)


@pytest.mark.parametrize("where", [_FINITE_BLOCK, -1], ids=["block-start", "last"])
def test_kpt_nonfinite_payload_past_first_block(tmp_path, where):
    path = tmp_path / "inf.kpt"
    write_kpt(path, GridField(np.zeros(2), 0.1, (2 * _FINITE_BLOCK // 64 + 1, 64),
                              np.ones(2 * _FINITE_BLOCK + 64)))
    header, payload = _kpt_parts(path)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[where] = np.inf
    _write_parts(path, header, values.tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        read_kpt(path)


def _drop(key):
    return pytest.param(lambda h: {name: v for name, v in h.items() if name != key},
                        id=f"no-{key}")


@pytest.mark.parametrize("mutate", [
    *(_drop(key) for key in ("kind", "d", "k", "origin", "spacing", "shape", "frames")),
    pytest.param(lambda h: {**h, "d": "3"}, id="d-str"),
    pytest.param(lambda h: {**h, "k": 1.0}, id="k-float"),
    pytest.param(lambda h: {**h, "spacing": True}, id="spacing-bool"),
    pytest.param(lambda h: {**h, "origin": 0.0}, id="origin-scalar"),
    pytest.param(lambda h: {**h, "shape": [6, 6.0]}, id="shape-float"),
    pytest.param(lambda h: {**h, "origin": [0.0, "x"]}, id="origin-str"),
    pytest.param(lambda h: {**h, "origin": [0.0]}, id="origin-short"),
    pytest.param(lambda h: {**h, "shape": [6, 6, 1], "origin": [0.0] * 3}, id="shape-vs-d"),
    pytest.param(lambda h: {**h, "frames": {"rows": 1}}, id="frames-dict"),
    pytest.param(lambda h: {**h, "frames": [[[1.0, 0.0]]] * 4}, id="frames-2d"),
    pytest.param(lambda h: {**h, "frames": [[[1.0, 1.0, 0.0]]] * 4}, id="frames-skew"),
    pytest.param(lambda h: {**h, "frames": [[[np.nan, 0, 0], [0, 1, 0]]] * 4}, id="frames-nan"),
    pytest.param(lambda h: {**h, "frames": h["frames"][:3] + [[[1.0, 1.0, 0.0], [0, 1, 0]]]},
                 id="frames-one-skew"),
    pytest.param(lambda h: {**h, "frames": h["frames"][:3] + [[[1.0, 0.0, 0.0], [0, 1]]]},
                 id="frames-one-ragged-row"),
    pytest.param(lambda h: {**h, "frames": h["frames"][:3] + [[[1.0, 0.0, 0.0]]]},
                 id="frames-one-short"),
    pytest.param(lambda h: [h], id="header-list"),
])
def test_kpt_header_schema(tmp_path, mutate):
    path = tmp_path / "bad.kpt"
    write_kpt(path, make_sinogram())
    header, payload = _kpt_parts(path)
    _write_parts(path, mutate(header), payload)
    with pytest.raises(FormatError) as err:
        read_kpt(path)
    assert err.value.offset == 8


@pytest.mark.parametrize("patch,n_values", [
    ({"frames": []}, 0),
    ({"spacing": 0}, 4 * 36),
    ({"shape": [6, 0]}, 0),
    ({"shape": [-2, -3]}, 4 * 6),
], ids=["no-frames", "zero-spacing", "empty-axis", "negative-axes"])
def test_kpt_header_invalid_geometry(tmp_path, patch, n_values):
    # well-typed headers whose payload size matches, but which describe no sinogram
    path = tmp_path / "bad.kpt"
    write_kpt(path, make_sinogram())
    header, _ = _kpt_parts(path)
    _write_parts(path, {**header, **patch}, np.zeros(n_values).tobytes())
    with pytest.raises(FormatError) as err:
        read_kpt(path)
    assert err.value.offset == 8


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SPACING = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _axes(draw, m):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)))
    return np.array(draw(st.lists(_FINITE, min_size=m, max_size=m))), draw(_SPACING), shape


@st.composite
def grid_fields(draw):
    origin, spacing, shape = _axes(draw, draw(st.integers(1, 4)))
    return GridField(origin, spacing, shape, draw(hnp.arrays(np.float64, shape, elements=_FINITE)))


@st.composite
def sinograms(draw):
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d - 1))
    n = draw(st.integers(1, 4))
    frames = frameset_haar(d, k, n, RngSeed(draw(st.integers(0, 2**32))))
    t_grid = TGrid(*_axes(draw, d - k))
    values = draw(hnp.arrays(np.float64, (n,) + t_grid.shape, elements=_FINITE))
    return Sinogram(d, k, frames, t_grid, values)


def _kpt_round_trip(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.kpt"
        write_kpt(path, obj)
        return read_kpt(path)


def _assert_same_bits(a, b):
    """Same kind, geometry, frames and values, compared as bytes (so -0.0 != 0.0)."""
    assert type(a) is type(b)
    grid_a, grid_b = (a, b) if isinstance(a, GridField) else (a.t_grid, b.t_grid)
    assert grid_a.shape == grid_b.shape
    assert grid_a.origin.tobytes() == grid_b.origin.tobytes()
    assert np.float64(grid_a.spacing).tobytes() == np.float64(grid_b.spacing).tobytes()
    assert a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()
    if isinstance(a, Sinogram):
        assert (a.d, a.k) == (b.d, b.k)
        assert a.frames.rows.tobytes() == b.frames.rows.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(obj=st.one_of(grid_fields(), sinograms()))
def test_kpt_round_trip_is_bit_exact(obj):
    # random grids (d = 1..4) and sinograms (d = 2..4, any k): shapes, spacing,
    # origin, frames and values all come back bit for bit
    _assert_same_bits(obj, _kpt_round_trip(obj))


def _small_kpt(kind):
    obj = make_field(d=2, n=4) if kind == "grid" else make_sinogram()
    with tempfile.TemporaryDirectory() as tmp:
        write_kpt(Path(tmp) / "obj.kpt", obj)
        return obj, (Path(tmp) / "obj.kpt").read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["grid", "sinogram"]),
       edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_kpt_header_mutation_reads_valid_or_format_error(kind, edits):
    # bytes of the magic, the header length or the JSON header replaced at random:
    # read_kpt raises FormatError and nothing else, or returns a valid object;
    # KPT1 has no checksum, so a changed digit may describe another valid object,
    # which then round-trips bit for bit itself
    original, blob = _small_kpt(kind)
    head = 8 + int.from_bytes(blob[4:8], "little")
    mutated = bytearray(blob)
    for pos, byte in edits:
        mutated[pos % head] = byte
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.kpt"
        path.write_bytes(bytes(mutated))
        try:
            obj = read_kpt(path)
        except FormatError:
            return
    if bytes(mutated) == blob:
        _assert_same_bits(obj, original)
    _assert_same_bits(obj, _kpt_round_trip(obj))
