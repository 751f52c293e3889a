import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kplane import integrate, read_kpt, transform
from kplane.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, main


def base_config(out_dir, phantom=None):
    return {
        "d": 2,
        "k": 1,
        "grid": {"origin": [-6.3, -6.3], "spacing": 0.2, "shape": [64, 64]},
        "frames": {"mode": "deterministic-circle", "count": 90},
        "t_grid": {"origin": [-12.7], "spacing": 0.2, "shape": [128]},
        "quad": {"halfwidth": 9.0, "nodes": 128},
        "filter": {"pad_factor": 2.0},
        "interp_order": 1,
        "phantom": phantom or {"kind": "gaussian", "mean": [0.0, 0.0]},
        "output": {"dir": str(out_dir)},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_phantom_gaussian_mass(tmp_path):
    cfg = base_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    fld = read_kpt(tmp_path / "out" / "phantom.kpt")
    assert integrate(fld) == pytest.approx(1.0, abs=1e-3)


def test_phantom_empty_mixture_is_zero(tmp_path):
    cfg = base_config(tmp_path / "out", phantom={"kind": "mixture", "components": []})
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    fld = read_kpt(tmp_path / "out" / "phantom.kpt")
    assert np.all(fld.values == 0.0)


def test_phantom_unknown_kind_exit_2(tmp_path):
    cfg = base_config(tmp_path / "out", phantom={"kind": "blob"})
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == EXIT_CONFIG


def test_invalid_schema_exit_2(tmp_path):
    cfg = base_config(tmp_path / "out")
    del cfg["grid"]
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == EXIT_CONFIG


def test_missing_input_exit_3(tmp_path):
    cfg = base_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["forward", "--config", path]) == EXIT_IO


def test_forward_fbp_pipeline_report(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out,
        phantom={
            "kind": "mixture",
            "components": [
                {"mean": [1.6, 0.8], "weight": 1.0},
                {"mean": [-1.2, -0.4], "weight": 0.7},
            ],
        },
    )
    cfg["frames"]["count"] = 180
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    assert main(["fbp", "--config", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rel_l2_vs_reference"] <= 0.05
    assert "timings_ms" in report and "warnings" in report
    assert (out / "recon.slice.csv").read_text().startswith("coord,value")


def test_pipeline_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"] = {"mode": "monte-carlo", "count": 24, "seed": 11, "stream": 2}
    path = write_config(tmp_path, cfg)
    blobs = []
    for _ in range(2):
        assert main(["phantom", "--config", path]) == 0
        assert main(["forward", "--config", path]) == 0
        assert main(["fbp", "--config", path]) == 0
        blobs.append(
            (
                (out / "phantom.kpt").read_bytes(),
                (out / "sinogram.kpt").read_bytes(),
                (out / "recon.kpt").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_seed_override_changes_frames(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"] = {"mode": "monte-carlo", "count": 8, "seed": 11}
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    first = (out / "sinogram.kpt").read_bytes()
    assert main(["forward", "--config", path, "--seed", "99"]) == 0
    second = (out / "sinogram.kpt").read_bytes()
    assert first != second


def test_calibrate_reports_unit_gain(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"]["count"] = 180
    path = write_config(tmp_path, cfg)
    assert main(["calibrate", "--config", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["gain"] - 1.0) <= 0.02


def test_verify_default_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 10
    assert all(ln.startswith("PASS") for ln in lines)
    verdict = json.loads((tmp_path / "verify.json").read_text())
    assert all(entry["pass"] for entry in verdict.values())


def test_verify_zero_tolerance_fails(tmp_path):
    cfg = {"tolerances": {"fbp_rel_l2_2d": 0.0}, "output": {"dir": str(tmp_path)}}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == EXIT_CHECK_FAILED


def planted_sparse():
    return {
        "s": 2.0,
        "frame_count": 12,
        "offset_min": -3.0,
        "offset_max": 3.0,
        "offset_count": 16,
        "measurements": 50,
        "bump_width": 0.8,
        "lambda_rule": 1e-3,
        "seed": 123,
        "planted": [
            {"frame_index": 3, "offset_index": 5, "weight": 1.5},
            {"frame_index": 9, "offset_index": 11, "weight": -2.0},
        ],
        "tol": 1e-12,
        "max_iter": 50000,
    }


def test_reconstruct_planted(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = planted_sparse()
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == 0
    solution = json.loads((out / "solution.json").read_text())
    assert 0 < len(solution["support"]) <= 50
    assert solution["kkt"]["inactive_excess"] <= solution["lambda"] / 2 * 1e-11
    recon = read_kpt(out / "sparse_recon.kpt")
    assert np.all(np.isfinite(recon.values))
    report = json.loads((out / "report.json").read_text())
    timings = report["timings_ms"]
    assert set(timings) == {"dictionary", "assemble", "solve", "reconstruct"}
    assert timings["assemble"] + timings["solve"] <= timings["reconstruct"]
    counters = report["counters"]
    assert set(counters) == {"steps", "adds", "drops"}
    assert counters["steps"] > 0
    assert counters["adds"] - counters["drops"] == len(solution["support"])


@pytest.mark.parametrize("item", [
    {"frame_index": 100, "offset_index": 5, "weight": 1.5},
    {"frame_index": 3, "offset_index": 5},
    {"frame_index": -1, "offset_index": 5, "weight": 1.5},
    {"frame_index": 3, "offset_index": 16, "weight": 1.5},
    {"frame_index": 3, "offset_index": -1, "weight": 1.5},
    {"frame_index": 3, "offset_index": 5, "weight": float("nan")},
    {"frame_index": 3, "offset_index": 5, "weight": "heavy"},
    [3, 5, 1.5],
], ids=["frame-too-large", "no-weight", "frame-negative", "offset-equals-count",
        "offset-negative", "nan-weight", "text-weight", "not-an-object"])
def test_reconstruct_bad_planted_exit_2(tmp_path, capsys, item):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = planted_sparse()
    cfg["sparse"]["planted"][1] = item
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("limits", [{"max_iter": 0}, {"tol": -1.0}, {"tol": 0.0}])
def test_reconstruct_bad_solver_limits_exit_4(tmp_path, capsys, limits):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = {**planted_sparse(), **limits}
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "Traceback" not in err


def test_reconstruct_step_cap_exit_4(tmp_path, capsys):
    # the planted path takes 18 steps; two are not enough
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = {**planted_sparse(), "max_iter": 2}
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "not finished after 2 steps" in err
    assert "Traceback" not in err
    assert not (out / "solution.json").exists()


def test_phantom_ridge_sum(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(
        out,
        phantom={
            "kind": "ridge-sum",
            "atoms": [
                {"frame": [[1.0, 0.0]], "offset": [0.5], "weight": 1.2},
                {"frame": [[0.0, 1.0]], "offset": [-0.3], "weight": 0.8},
            ],
        },
    )
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    fld = read_kpt(out / "phantom.kpt")
    # ridge sum peaks where both crests intersect: x = (0.5, -0.3)
    peak = np.unravel_index(np.argmax(fld.values), fld.shape)
    coords = fld.origin + fld.spacing * np.array(peak)
    assert np.linalg.norm(coords - np.array([0.5, -0.3])) <= fld.spacing * 1.5


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,patch", [
    ("forward", {"frames": {"mode": "deterministic-circle", "count": "abc"}}),
    ("forward", {"d": "two"}),
    ("forward", {"frames": {"mode": "monte-carlo", "count": 4, "seed": "s"}}),
    ("forward", {"interp_order": "x"}),
    ("forward", {"interp_order": 2}),
    ("calibrate", {"interp_order": 2}),
    ("fbp", {"filter": {"pad_factor": "x"}}),
    ("calibrate", {"filter": {"pad_factor": "x"}}),
    ("forward", {"frames": [1]}),
    ("fbp", {"filter": [1]}),
    ("phantom", {"output": [1]}),
    ("verify", {"tolerances": {"constant_c21": "x"}}),
    ("verify", {"tolerances": [1]}),
    ("forward", {"quad": {"halfwidth": NAN, "nodes": 128}}),
    ("forward", {"quad": {"halfwidth": INF, "nodes": 128}}),
    ("forward", {"t_grid": {"origin": [-12.7], "spacing": NAN, "shape": [128]}}),
    ("forward", {"t_grid": {"origin": [-INF], "spacing": 0.2, "shape": [128]}}),
    ("phantom", {"grid": {"origin": [-6.3, NAN], "spacing": 0.2, "shape": [64, 64]}}),
    ("phantom", {"grid": {"origin": [-6.3, -6.3], "spacing": INF, "shape": [64, 64]}}),
])
def test_bad_config_value_exit_2(tmp_path, capsys, command, patch):
    # mistyped or non-finite values are config errors (exit 2), even with the
    # inputs in place; exit 1 is kept for failed verify checks
    good = base_config(tmp_path / "out")
    assert main(["phantom", "--config", write_config(tmp_path, good)]) == 0
    capsys.readouterr()
    path = write_config(tmp_path, {**good, **patch}, name="bad.json")
    assert main([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_numeric_domain_error_exit_4(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = {
        "s": 0.5,  # s <= d-k: unbounded atom, rejected by the dictionary builder
        "frame_count": 4, "offset_min": -1.0, "offset_max": 1.0, "offset_count": 4,
        "measurements": 3,
    }
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == EXIT_NUMERIC


def test_malformed_phantom_component_exit_2(tmp_path):
    cfg = base_config(tmp_path / "out",
                      phantom={"kind": "mixture", "components": [{"weight": 1.0}]})
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == EXIT_CONFIG


def test_reconstruct_from_measured_phantom(tmp_path):
    # phantom built from two dictionary atoms; measuring it reproduces the
    # planted synthesis, so recovery should find both atoms
    out = tmp_path / "out"
    offsets = np.linspace(-3.0, 3.0, 16)
    a3, a9 = np.pi * 3 / 12, np.pi * 9 / 12
    cfg = base_config(
        out,
        phantom={
            "kind": "ridge-sum",
            "atoms": [
                {"frame": [[np.cos(a3), np.sin(a3)]], "offset": [offsets[5]],
                 "weight": 1.5, "profile": "rbf", "s": 2.0},
                {"frame": [[np.cos(a9), np.sin(a9)]], "offset": [offsets[11]],
                 "weight": -2.0, "profile": "rbf", "s": 2.0},
            ],
        },
    )
    cfg["sparse"] = {
        "s": 2.0, "frame_count": 12, "offset_min": -3.0, "offset_max": 3.0,
        "offset_count": 16, "measurements": 50, "bump_width": 0.8,
        "lambda_rule": 1e-3, "seed": 123, "tol": 1e-12, "max_iter": 50000,
    }
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["reconstruct", "--config", path]) == 0
    solution = json.loads((out / "solution.json").read_text())
    supp = set(solution["support"])
    for j in (3 * 16 + 5, 9 * 16 + 11):
        assert supp & {j, j - 1, j + 1, j - 16, j + 16}
    assert len(supp) <= 50


def test_forward_rejects_wrong_input_kind(tmp_path):
    from kplane import Sinogram, TGrid, frameset_circle, write_kpt

    out = tmp_path / "out"
    out.mkdir()
    frames = frameset_circle(4)
    sino = Sinogram(2, 1, list(frames.frames), TGrid.centered(1, 8, 0.5), np.zeros((4, 8)))
    write_kpt(out / "phantom.kpt", sino)
    cfg = base_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["forward", "--config", path]) == EXIT_IO


def test_help_ignores_bad_threads_env(monkeypatch):
    monkeypatch.setenv("KPLANE_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_bad_threads_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("KPLANE_THREADS", "abc")
    assert main(["verify"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "KPLANE_THREADS" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value,expected", [(None, 1), ("", 1), (" ", 1), ("0", 1), ("3", 3)])
def test_threads_env_default(monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("KPLANE_THREADS", raising=False)
    else:
        monkeypatch.setenv("KPLANE_THREADS", value)
    assert transform._thread_count(None) == expected
    assert transform._thread_count(2) == 2


def test_kpt_header_without_origin_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["phantom", "--config", path]) == 0
    blob = (out / "phantom.kpt").read_bytes()
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8 : 8 + hlen])
    del header["origin"]
    raw = json.dumps(header).encode()
    (out / "phantom.kpt").write_bytes(b"KPT1" + len(raw).to_bytes(4, "little") + raw
                                      + blob[8 + hlen :])
    capsys.readouterr()
    assert main(["forward", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "'origin'" in err and "byte offset 8" in err
    assert "Traceback" not in err


def test_fbp_grid_mismatch_exit_4(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["grid"] = {"origin": [-3.1, -3.1], "spacing": 0.2, "shape": [32, 32]}
    cfg["frames"]["count"] = 16
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    cfg["grid"] = {"origin": [-1.5, -1.5], "spacing": 0.2, "shape": [16, 16]}
    small = write_config(tmp_path, cfg, name="small.json")
    capsys.readouterr()
    assert main(["fbp", "--config", small]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "share a grid" in err
    assert "Traceback" not in err


def test_fbp_rejects_wrong_input_kinds(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"]["count"] = 16
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    phantom, sino = (out / "phantom.kpt").read_bytes(), out / "sinogram.kpt"
    sino.write_bytes(phantom)  # a grid where the sinogram should be
    capsys.readouterr()
    assert main(["fbp", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "does not hold a Sinogram" in err
    assert main(["forward", "--config", path]) == 0
    (out / "phantom.kpt").write_bytes(sino.read_bytes())  # a sinogram as the reference
    capsys.readouterr()
    assert main(["fbp", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "does not hold a GridField" in err
    assert "Traceback" not in err


def test_reconstruct_rejects_sinogram_phantom(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"]["count"] = 16
    cfg["sparse"] = {"s": 2.0, "frame_count": 4, "offset_min": -1.0, "offset_max": 1.0,
                     "offset_count": 4, "measurements": 3}
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    (out / "phantom.kpt").write_bytes((out / "sinogram.kpt").read_bytes())
    capsys.readouterr()
    assert main(["reconstruct", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "does not hold a GridField" in err


def small_config(out_dir):
    """A 2-D config that runs every command in a few milliseconds."""
    return {
        "d": 2,
        "k": 1,
        "grid": {"origin": [-2.0, -2.0], "spacing": 0.5, "shape": [9, 9]},
        "frames": {"mode": "monte-carlo", "count": 8, "seed": 1, "stream": 0},
        "t_grid": {"origin": [-3.0], "spacing": 0.5, "shape": [13]},
        "quad": {"halfwidth": 3.0, "nodes": 16},
        "filter": {"pad_factor": 2.0},
        "interp_order": 1,
        "phantom": {"kind": "ridge-sum", "atoms": [
            {"frame": [[1.0, 0.0]], "offset": [0.5], "weight": 1.2},
            {"frame": [[0.0, 1.0]], "offset": [-0.3], "profile": "rbf", "s": 2.0},
        ]},
        "sparse": {"s": 2.0, "frame_count": 4, "offset_min": -1.0, "offset_max": 1.0,
                   "offset_count": 4, "measurements": 3, "seed": 0, "stream": 0,
                   "planted": [{"frame_index": 1, "offset_index": 2, "weight": 1.0}]},
        "output": {"dir": str(out_dir)},
    }


def _cases_exit_2():
    commands = ["phantom", "forward", "fbp", "calibrate", "reconstruct"]
    cases = [(c, {"output": {"dir": bad}}, [], f"{c}-dir-{bad!r}")
             for c in commands for bad in (None, 5, [1], {}, NAN)]
    cases += [("phantom", {"output": {"phantom": 3}}, [], "phantom-name-3"),
              ("reconstruct", {"sparse": {"seed": "x"}}, [], "sparse-seed-str"),
              ("reconstruct", {"sparse": {"stream": [1]}}, [], "sparse-stream-list"),
              ("reconstruct", {"sparse": {"offset_count": -1}}, [], "offset-count-negative"),
              ("phantom", {"output": {"dir": "a\0b"}}, [], "phantom-dir-nul"),
              ("phantom", {"grid": {"shape": [INF, 9]}}, [], "grid-shape-inf"),
              ("phantom", {"grid": {"shape": [2**40, 2**40]}}, [], "grid-2^40")]
    for c in ("forward", "calibrate", "reconstruct"):
        sec = "sparse" if c == "reconstruct" else "frames"
        cases += [(c, {sec: {"seed": -1}}, [], f"{c}-seed-negative"),
                  (c, {sec: {"stream": -1}}, [], f"{c}-stream-negative"),
                  (c, {}, ["--seed", "-1"], f"{c}-seed-arg-negative")]
    return [pytest.param(*case[:3], id=case[3]) for case in cases]


@pytest.mark.parametrize("command,patch,args", _cases_exit_2())
def test_bad_value_without_traceback_exit_2(tmp_path, capsys, command, patch, args):
    # each of these ended in a TypeError, ValueError or MemoryError traceback
    out = tmp_path / "out"
    cfg = small_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    for sec, values in patch.items():
        cfg[sec] = {**cfg[sec], **values}
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path, cfg, "bad.json"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command,patch", [
    pytest.param("phantom", {("phantom", "atoms", 1, "s"): 1e300}, id="atom-s"),  # math.gamma
    pytest.param("forward", {("d",): 1e300}, id="d"),  # numpy's array size limit in the Haar draw
    pytest.param("forward", {("frames", "count"): 1e300}, id="frames-count"),
    # an array numpy refuses to allocate at once (MemoryError), so nothing is allocated
    pytest.param("forward", {("d",): 1e9, ("frames", "count"): 1}, id="d-1e9-one-frame"),
])
def test_large_finite_value_without_traceback_exit_4(tmp_path, capsys, command, patch):
    out = tmp_path / "out"
    cfg = small_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    for key_path, value in patch.items():
        owner = cfg
        for key in key_path[:-1]:
            owner = owner[key]
        owner[key_path[-1]] = value
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path, cfg, "bad.json")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "Traceback" not in err


def _key_paths(obj, prefix=()):
    """Every key path into a JSON value: object keys and list indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


_SMALL_PATHS = list(_key_paths(small_config(".")))


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    path = write_config(out, small_config(out))
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    return {name: (out / name).read_bytes() for name in ("phantom.kpt", "sinogram.kpt")}


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["phantom", "forward", "fbp", "calibrate", "reconstruct"]),
       key_path=st.sampled_from(_SMALL_PATHS),
       value=st.sampled_from(["x", "", [], [1, "x"], {}, {"a": None}, None, NAN, -1]))
def test_mutated_config_exits_with_documented_code(small_inputs, command, key_path, value):
    # one value anywhere in a valid config replaced by a wrong type, null, NaN
    # or -1: the command ends with 0, 2, 3 or 4 and never raises
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, blob in small_inputs.items():
            Path(name).write_bytes(blob)
        cfg = small_config(tmp)
        owner = cfg
        for key in key_path[:-1]:
            owner = owner[key]
        owner[key_path[-1]] = value
        Path("cfg.json").write_text(json.dumps(cfg))
        assert main([command, "--config", "cfg.json"]) in (0, 2, 3, 4)
