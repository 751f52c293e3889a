import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import kplane
from kplane import FormatError, integrate, read_kpt, write_kpt
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
    # grid half-diagonal 6.3 sqrt(2) over the spacing 0.2: sigma_0 .. sigma_44
    rule = json.loads((out / "sinogram.report.json").read_text())["rule"]
    assert rule == {"name": "fourier-slice", "sigma_samples": 45}
    assert main(["fbp", "--config", path]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rule"] == {"name": "fourier-slice-transpose", "sigma_samples": 45,
                              "kernel_width": 6}
    assert report["rel_l2_vs_reference"] <= 0.05
    assert "timings_ms" in report and "warnings" in report
    timings = report["timings_ms"]
    assert set(timings) == {"fbp", "ramp", "backproject"}
    assert 0 < timings["ramp"] + timings["backproject"] <= timings["fbp"]
    assert (out / "recon.slice.csv").read_text().startswith("coord,value")


def test_forward_report_names_the_plane_quadrature_rule(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg.update(d=3, k=1, grid={"origin": [-1.5] * 3, "spacing": 0.5, "shape": [7, 7, 7]},
               frames={"mode": "monte-carlo", "count": 3},
               t_grid={"origin": [-2.0, -2.0], "spacing": 0.5, "shape": [9, 9]},
               quad={"halfwidth": 3.0, "nodes": 12}, phantom={"kind": "gaussian"})
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    rule = json.loads((out / "sinogram.report.json").read_text())["rule"]
    assert rule == {"name": "plane-quadrature", "quad_nodes": 12}
    for command in ("fbp", "calibrate"):
        assert main([command, "--config", path]) == 0
        assert json.loads((out / "report.json").read_text())["rule"] == {
            "name": "multilinear-gather"}


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
    assert report["rule"] == {"name": "fourier-slice-transpose", "sigma_samples": 45,
                              "kernel_width": 6}


def test_verify_default_passes(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 10
    assert all(ln.startswith("PASS") for ln in lines)
    verdict = json.loads((tmp_path / "verify.json").read_text())
    assert all(entry["pass"] for entry in verdict.values())
    assert verdict["adjoint_2d"]["tolerance"] == 1e-12


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
    assert set(counters) == {"steps", "adds", "drops", "green_nodes", "table_lookups"}
    assert counters["steps"] > 0
    assert counters["adds"] - counters["drops"] == len(solution["support"])
    # one table for the dictionary: the Gram reads every atom, the image the support
    assert 0 < counters["green_nodes"] < 200
    assert counters["table_lookups"] == (12 * 16 + len(solution["support"])) * 64 * 64


def test_reconstruct_s_just_above_n(tmp_path):
    # s - n = 0.1 once made green_rbf divide 0 by 0 at r = 0 and exit 4
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sparse"] = {**planted_sparse(), "s": 1.1}
    path = write_config(tmp_path, cfg)
    assert main(["reconstruct", "--config", path]) == 0
    recon = read_kpt(out / "sparse_recon.kpt")
    assert np.all(np.isfinite(recon.values)) and np.any(recon.values != 0.0)


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
    ("verify", {"tolerances": {"constant_c21": NAN}}),
    ("verify", {"tolerances": {"constant_c21": -1}}),
    ("reconstruct", {"sparse": {**planted_sparse(), "bump_width": 0.0}}),
    ("reconstruct", {"sparse": {**planted_sparse(), "bump_width": NAN}}),
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
    sino = Sinogram(frames, TGrid.centered(1, 8, 0.5), np.zeros((4, 8)))
    write_kpt(out / "phantom.kpt", sino)
    cfg = base_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["forward", "--config", path]) == EXIT_IO


def test_threads_flag_and_env_are_ignored(tmp_path, monkeypatch):
    # --threads parses and is ignored, and KPLANE_THREADS is not read: the
    # same KPT bytes as a run without either, with exit 0
    cfg = base_config(tmp_path / "out")
    cfg["frames"] = {"mode": "monte-carlo", "count": 24, "seed": 11, "stream": 2}
    blobs = []
    for name, extra, env in (("plain", [], None), ("flag", ["--threads", "3"], None),
                             ("env", [], "abc")):
        out = tmp_path / name
        path = write_config(tmp_path, {**cfg, "output": {"dir": str(out)}}, name=f"{name}.json")
        if env is None:
            monkeypatch.delenv("KPLANE_THREADS", raising=False)
        else:
            monkeypatch.setenv("KPLANE_THREADS", env)
        for command in ("phantom", "forward", "fbp"):
            assert main([command, "--config", path, *extra]) == 0, (name, command)
        blobs.append([(out / f).read_bytes() for f in ("phantom.kpt", "sinogram.kpt", "recon.kpt")])
    assert blobs[0] == blobs[1] == blobs[2]


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
    assert main(["fbp", "--config", path]) == 0
    outputs = [out / name for name in ("recon.kpt", "recon.slice.csv", "report.json")]
    before = [f.read_bytes() for f in outputs]
    cfg["grid"] = {"origin": [-1.5, -1.5], "spacing": 0.2, "shape": [16, 16]}
    small = write_config(tmp_path, cfg, name="small.json")
    capsys.readouterr()
    assert main(["fbp", "--config", small]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "share a grid" in err
    assert "Traceback" not in err
    # the comparison fails before any write: the previous outputs are untouched
    assert [f.read_bytes() for f in outputs] == before


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


@pytest.mark.parametrize("bad_row", [[[1.0, 1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
                         ids=["non-orthonormal", "ragged", "two-rows"])
def test_fbp_on_sinogram_with_one_bad_frame_exits_3(tmp_path, capsys, bad_row):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["frames"]["count"] = 16
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    sino = out / "sinogram.kpt"
    blob = sino.read_bytes()
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + hlen])
    header["frames"][11] = bad_row
    raw = json.dumps(header).encode()
    sino.write_bytes(blob[:4] + len(raw).to_bytes(4, "little") + raw + blob[8 + hlen:])
    with pytest.raises(FormatError):
        read_kpt(sino)
    capsys.readouterr()
    assert main(["fbp", "--config", path]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err


def test_fbp_overflow_exits_4(tmp_path, capsys):
    # a sinogram that the ramp filter keeps finite (alternating in t) but whose
    # 200-frame sum overflows exits 4 with an overflow message
    out = tmp_path / "out"
    cfg = small_config(out)
    cfg["frames"]["count"] = 200
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    sino = read_kpt(out / "sinogram.kpt")
    alternating = 1e307 * (-1.0) ** np.arange(sino.values.shape[-1])
    write_kpt(out / "sinogram.kpt", sino.copy_with(np.broadcast_to(alternating, sino.values.shape)))
    capsys.readouterr()
    assert main(["fbp", "--config", path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: overflow") and "Traceback" not in err


def test_forward_overflow_in_the_plane_sums_exits_4(tmp_path, capsys):
    # plane quadrature (d-k = 2) sums each plane with bincount, outside numpy's
    # error state; a finite field whose plane integrals overflow is still
    # reported as an overflow, not as a non-finite sinogram
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg.update(d=3, k=1, grid={"origin": [-1.75] * 3, "spacing": 0.5, "shape": [8, 8, 8]},
               frames={"mode": "monte-carlo", "count": 200, "seed": 1},
               t_grid={"origin": [-1.0, -1.0], "spacing": 0.5, "shape": [5, 5]},
               quad={"halfwidth": 3.0, "nodes": 16})
    path = write_config(tmp_path, cfg)
    out.mkdir()
    write_kpt(out / "phantom.kpt", kplane.GridField(np.full(3, -1.75), 0.5, (8, 8, 8),
                                                     np.full((8, 8, 8), 1.7e308)))
    capsys.readouterr()
    assert main(["forward", "--config", path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: overflow") and "Traceback" not in err


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


@pytest.mark.parametrize("stale", [
    {"d": 3, "grid": {"origin": [-2.0] * 3, "spacing": 0.5, "shape": [5] * 3},
     "t_grid": {"origin": [-3.0] * 2, "spacing": 0.5, "shape": [13] * 2},
     "phantom": {"kind": "gaussian"}},
    {"grid": {"origin": [-4.0, -4.0], "spacing": 0.5, "shape": [17, 17]}},
    {"grid": {"origin": [-1.0, -1.0], "spacing": 0.25, "shape": [9, 9]}},
], ids=["d3", "shape", "spacing"])
def test_stale_inputs_exit_3_or_4_without_traceback(tmp_path, capsys, stale):
    # a phantom and a sinogram left in the output dir by a config of another d or
    # grid: each command that reads them stops with its error prefix
    out = tmp_path / "out"
    other = write_config(tmp_path, {**small_config(out), **stale}, name="other.json")
    assert main(["phantom", "--config", other]) == 0
    assert main(["forward", "--config", other]) == 0
    cfg = small_config(out)
    del cfg["sparse"]["planted"]  # reconstruct then measures the phantom
    path = write_config(tmp_path, cfg)
    for command in ("forward", "fbp", "reconstruct"):
        capsys.readouterr()
        assert main([command, "--config", path]) in (EXIT_IO, EXIT_NUMERIC), command
        err = capsys.readouterr().err
        assert err.startswith(("i/o error:", "numeric error:")) and "Traceback" not in err


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
              ("phantom", {"grid": {"shape": [2**40, 2**40]}}, [], "grid-2^40"),
              ("reconstruct", {"sparse": {"bump_width": 0.0}}, [], "bump-width-0"),
              ("reconstruct", {"sparse": {"bump_width": NAN}}, [], "bump-width-nan")]
    # a 400-digit JSON integer overflows float64 while the config is read
    huge = 10**400
    cases += [("phantom", {"phantom": {"kind": "mixture", "components": [
                  {"mean": [0.0, 0.0], "weight": huge}]}}, [], "mixture-weight-10^400"),
              ("phantom", {"phantom": {"atoms": [{"frame": [[1.0, 0.0]], "offset": [0.5],
                                                  "weight": huge}]}}, [], "atom-weight-10^400"),
              ("phantom", {"phantom": {"atoms": [{"frame": [[1.0, 0.0]], "offset": [huge]}]}},
               [], "atom-offset-10^400")]
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
    # arrays no machine can hold: each checked before anything is allocated
    *[pytest.param(c, {("frames", "mode"): "deterministic-circle", ("frames", "count"): 1e300},
                   id=f"{c}-circle-count") for c in ("forward", "calibrate")],
    *[pytest.param(c, {("filter", "pad_factor"): 1e300}, id=f"{c}-pad-factor")
      for c in ("fbp", "calibrate")],
    *[pytest.param("reconstruct", {("sparse", key): 1e300}, id=f"sparse-{key}")
      for key in ("frame_count", "offset_count", "measurements")],
    # float overflow once the config is read
    pytest.param("reconstruct", {("sparse", "offset_min"): -1e300}, id="sparse-offset-min"),
    pytest.param("reconstruct", {("sparse", "offset_max"): 1e300}, id="sparse-offset-max"),
    pytest.param("phantom", {("phantom", "atoms", 1, "offset"): [1e300]}, id="rbf-atom-offset"),
    *[pytest.param(c, {("grid", "spacing"): 1e300}, id=f"{c}-grid-spacing")
      for c in ("reconstruct", "calibrate")],
])
def test_large_finite_value_without_traceback_exit_4(tmp_path, capsys, command, patch):
    out = tmp_path / "out"
    cfg = small_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0  # fbp reads the sinogram
    capsys.readouterr()
    bad = write_config(tmp_path, _patched(cfg, patch), "bad.json")
    assert main([command, "--config", bad]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "Traceback" not in err


def _patched(cfg, patch):
    for key_path, value in patch.items():
        owner = cfg
        for key in key_path[:-1]:
            owner = owner[key]
        owner[key_path[-1]] = value
    return cfg


@pytest.mark.parametrize("command,patch", [
    pytest.param("forward", {("interp_order",): 3.7}, id="interp-order-3.7"),
    pytest.param("forward", {("interp_order",): True}, id="interp-order-true"),
    pytest.param("forward", {("frames", "count"): 60.9}, id="frames-count-60.9"),
    pytest.param("forward", {("frames", "count"): True}, id="frames-count-true"),
    pytest.param("forward", {("frames", "seed"): 1.5}, id="frames-seed-1.5"),
    pytest.param("forward", {("d",): 2.5}, id="d-2.5"),
    pytest.param("forward", {("quad", "nodes"): 16.5}, id="quad-nodes-16.5"),
    pytest.param("forward", {("quad", "halfwidth"): True}, id="quad-halfwidth-true"),
    pytest.param("phantom", {("grid", "shape"): [9.5, 9]}, id="grid-shape-9.5"),
    pytest.param("phantom", {("grid", "shape"): [9, True]}, id="grid-shape-true"),
    pytest.param("phantom", {("grid", "spacing"): True}, id="grid-spacing-true"),
    pytest.param("phantom", {("phantom", "atoms", 0, "weight"): False}, id="atom-weight-false"),
    pytest.param("fbp", {("filter", "pad_factor"): True}, id="pad-factor-true"),
    pytest.param("reconstruct", {("sparse", "frame_count"): 4.5}, id="sparse-frames-4.5"),
    pytest.param("reconstruct", {("sparse", "measurements"): True}, id="sparse-meas-true"),
    pytest.param("reconstruct", {("sparse", "s"): True}, id="sparse-s-true"),
    pytest.param("reconstruct", {("sparse", "planted", 0, "frame_index"): 1.5},
                 id="planted-frame-1.5"),
    pytest.param("reconstruct", {("sparse", "planted", 0, "offset_index"): True},
                 id="planted-offset-true"),
    pytest.param("reconstruct", {("sparse", "planted", 0, "weight"): True},
                 id="planted-weight-true"),
])
def test_boolean_or_fractional_number_exits_2(tmp_path, capsys, command, patch):
    # these used to be truncated by int() or read as 0/1 and run with exit 0
    cfg = small_config(tmp_path / "out")
    path = write_config(tmp_path, cfg)
    assert main(["phantom", "--config", path]) == 0
    assert main(["forward", "--config", path]) == 0
    capsys.readouterr()
    bad = write_config(tmp_path, _patched(cfg, patch), "bad.json")
    assert main([command, "--config", bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err


def test_integral_float_config_values_run(tmp_path):
    cfg = _patched(small_config(tmp_path / "out"), {
        ("interp_order",): 1.0, ("frames", "count"): 8.0, ("quad", "nodes"): 16.0,
        ("grid", "shape"): [9.0, 9], ("sparse", "planted", 0, "frame_index"): 1.0})
    path = write_config(tmp_path, cfg)
    for command in ("phantom", "forward", "reconstruct"):
        assert main([command, "--config", path]) == 0


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
       value=st.sampled_from(["x", "", [], [1, "x"], {}, {"a": None}, None, NAN, -1,
                              1e300, 10**400]))
def test_mutated_config_exits_with_documented_code(small_inputs, command, key_path, value):
    # one value anywhere in a valid config replaced by a wrong type, null, NaN,
    # -1, a huge float or an integer past float64: the command ends with 0, 2, 3
    # or 4 and never raises
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_mutated_sinogram_header_fbp_exits_3(small_inputs, edits):
    # random bytes in the sinogram's magic, header length or JSON header: a file
    # read_kpt rejects makes fbp exit 3 with a one-line message; one it accepts
    # (a changed digit can describe another valid sinogram) ends in 0, 3 or 4;
    # no other exception escapes main
    blob = small_inputs["sinogram.kpt"]
    head = 8 + int.from_bytes(blob[4:8], "little")
    mutated = bytearray(blob)
    for pos, byte in edits:
        mutated[pos % head] = byte
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("phantom.kpt").write_bytes(small_inputs["phantom.kpt"])
        Path("sinogram.kpt").write_bytes(bytes(mutated))
        Path("cfg.json").write_text(json.dumps(small_config(tmp)))
        try:
            read_kpt("sinogram.kpt")
            expected = (0, 3, 4)
        except FormatError:
            expected = (3,)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["fbp", "--config", "cfg.json"])
    assert code in expected
    assert code == 0 or (err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue())


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import kplane
from kplane import FieldInterpolator, GridSpec, RngSeed, TGrid, bessel_j, cli, isotropy, transform
from kplane.fields import gaussian_field

LAZY = ("scipy.ndimage", "scipy.special", "concurrent.futures")
loaded = {"import": [m for m in LAZY if m in sys.modules]}
for d, k, n in ((2, 1, 12), (3, 2, 10)):
    spec = GridSpec.centered(d, n, 0.5)
    sino = transform.forward(gaussian_field(spec), transform.frameset_haar(d, k, 6, RngSeed(1)),
                             TGrid.centered(1, 2 * n, 0.5))
    transform.backproject(transform.ramp_filter(sino), spec)
frames = transform.frameset_haar(3, 1, 40, RngSeed(2))
atom = isotropy.MollifiedAtom(frames.frames[0], np.array([0.3, -0.2]), 0.5, 0.6)
sino = isotropy.render_delta_iso(atom, frames, TGrid.centered(2, 11, 0.3))
transform.backproject(sino, GridSpec.centered(3, 6, 0.5))
spec3 = GridSpec.centered(3, 8, 0.5)
sino3 = transform.forward(gaussian_field(spec3), transform.frameset_haar(3, 1, 4, RngSeed(3)),
                          TGrid.centered(2, 5, 0.5), order=3)
isotropy.project_iso(sino3, n_rotations=2, rng=RngSeed(4))  # through sino3's generator
isotropy.pk_project(sino3, spec3)
for command in ("phantom", "forward", "fbp", "calibrate", "reconstruct"):
    assert cli.main([command, "--config", sys.argv[2]]) == 0, command
loaded["pipelines"] = [m for m in LAZY if m in sys.modules]
out = json.load(open(sys.argv[2]))["output"]["dir"]
loaded["report_env"] = json.load(open(out + "/report.json"))["env"]
fld = gaussian_field(GridSpec.centered(2, 9, 0.5))
loaded["spline_at_node"] = float(FieldInterpolator(fld, order=3)(np.array([0.5, -1.0])))
loaded["node"] = float(fld.values[5, 2])
loaded["j_half"] = bessel_j(0.5, np.pi / 2)
loaded["first_use"] = [m for m in LAZY if m in sys.modules]
print(json.dumps(loaded))
"""


def test_d_minus_k_1_pipelines_run_without_scipy(tmp_path):
    # `import kplane`, every d - k = 1 path (forward, ramp, backprojection, the
    # O(1) projector rendering, the CLI pipeline), the order-3 forward at (3, 1)
    # with the Monte-Carlo and range projectors on it, and order-3 interpolation
    # run on numpy alone; only bessel_j loads scipy (scipy.special), on first
    # use, in a fresh interpreter.  No path loads concurrent.futures.
    src = str(Path(kplane.__file__).resolve().parent.parent)
    cfg = write_config(tmp_path, small_config(tmp_path / "out"))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, src, cfg],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == loaded["pipelines"] == []
    assert loaded["report_env"]["scipy_loaded"] is False
    assert loaded["spline_at_node"] == pytest.approx(loaded["node"], rel=1e-12)
    assert loaded["j_half"] == pytest.approx(2 / np.pi, rel=1e-12)
    # scipy.special imports numpy.testing, which imports concurrent.futures
    assert loaded["first_use"] == ["scipy.special", "concurrent.futures"]


def test_forward_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the slice rule's sigma sum is one BLAS product per frame: a 2-D forward on
    # 360 circle frames writes the same sinogram bytes on one and on two BLAS threads
    src = str(Path(kplane.__file__).resolve().parent.parent)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        cfg = base_config(out, phantom={"kind": "mixture", "components": [
            {"mean": [1.6, 0.8], "weight": 1.0}, {"mean": [-1.2, -0.4], "weight": 0.7}]})
        cfg["frames"]["count"] = 360
        path = write_config(tmp_path, cfg, name=f"cfg{threads}.json")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        for command in ("phantom", "forward"):
            proc = subprocess.run([sys.executable, "-m", "kplane", command, "--config", path],
                                  capture_output=True, text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
        blobs.append((out / "sinogram.kpt").read_bytes())
    assert blobs[0] == blobs[1]


def test_every_command_report_is_stamped(tmp_path):
    # schema_version and env on every command report; solution.json holds the
    # solution only
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(out))
    reports = {}
    for command in ("phantom", "forward", "fbp", "calibrate", "reconstruct"):
        assert main([command, "--config", path]) == 0
        name = {"phantom": "phantom.report.json", "forward": "sinogram.report.json"}
        reports[command] = json.loads((out / name.get(command, "report.json")).read_text())
    for command, report in reports.items():
        assert report["schema_version"] == 3, command
        assert report["env"] == {
            "kplane": kplane.__version__, "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "scipy_loaded": report["env"]["scipy_loaded"],
        }, command
        assert isinstance(report["env"]["scipy_loaded"], bool)
    assert "env" not in json.loads((out / "solution.json").read_text())
