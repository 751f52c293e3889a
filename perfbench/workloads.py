"""The benchmark's four workloads.

Each workload is a closed loop with one caller: ``setup`` builds one input
set from the workload seed, ``run`` is one timed pass over it, and ``check``
applies the correctness gates to the pass's outputs outside the timer.  All
library calls pass ``threads=1``.  Gate tolerances are the ones pinned in
``tests/test_acceptance.py``; none is looser.

Why each workload exists, and where its time goes (self time per layer in
a traced run, one set-up plus one pass, on a 2-core x86-64 VM with Python
3.11.7, numpy 2.4.6 and scipy 1.17.1; README.md has the full table):

* ``radon3d`` -- bulk plane-quadrature throughput (d=3, k=2).  The forward
  projector (interpolator 53%, ``forward_at`` 33%, quadrature nodes 5%) is
  90% of the time, and only 15% of its quadrature points fall inside the
  grid box, so support clipping and Fourier-slice forward projectors move
  it.  Backprojection is 10%.
* ``ridge3d`` -- backprojection (80%: ``interp_t_block`` 49%,
  ``backproject`` 31%) with no ``forward`` call (d=3, k=1); the rest is
  ``render_delta_iso`` 13% and Haar frame sampling in set-up 8%.  A
  forward-only optimisation is predicted not to move it; batched
  backprojection should.
* ``iso-mc`` -- about 1000 small ``forward_at`` calls per pass (interpolator
  63%, ``forward_at`` 17%, 2.7 ms a call) through sinogram generators, plus
  the O(n^2) nearest-frame lookup inside ``project_iso`` (16%).  Per-call
  set-up cost matters here; a bulk-only forward change that adds per-call
  cost shows as a loss.  The only workload for the ``isotropy`` projectors.
* ``cli2d`` -- the ``kplane`` command line in-process: ``solve_lasso`` 32%,
  ``build_dictionary`` 21%, forward projection 37%, KPT I/O under 1%.
  ``transform`` is a minority of it, so a forward win should show only
  weakly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from kplane import analytic, cli, geometry, isotropy, transform
from kplane.fields import GridField, GridSpec, QuadSpec, TGrid
from kplane.geometry import Frame, RngSeed

OUT = Path(__file__).resolve().parent / "out"  # spans and CLI scratch directories

# Pinned in tests/test_acceptance.py.
TOL_INVERSION_2D = 0.05      # criterion 3, d=2
TOL_INVERSION_3D = 0.10      # criterion 3, d=3; also criterion 8
TOL_GAIN = 0.05              # criterion 3
TOL_IDEMPOTENT_EXACT = 1e-12  # criterion 7, O(1) branch
TOL_NORM_GROWTH = 1e-6       # criterion 7, projection never increases the norm
TOL_PK_FIX = 0.05            # criterion 7, P_k fixes the range


class PassAborted(Exception):
    """A stage of a pass raised or exited non-zero; the pass stops there."""


class Ops:
    """Operation ledger of one pass.

    Every library call or CLI command the pass makes is one operation, and
    so is every correctness gate.  A raised exception, a non-zero exit code
    or a failed gate counts as one failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            raise PassAborted(name) from exc

    def cli(self, argv: list[str]) -> None:
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            self.failed += 1
            self.errors.append(f"kplane {' '.join(argv)}: exit {code}")
            raise PassAborted(argv[0])

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"gate {name} failed: {detail}")


def _shift(seed: int, index: int) -> np.ndarray:
    """Seeded offsets of up to 0.3 for the two centres of a 2-D phantom."""
    return RngSeed(seed, index).generator().uniform(-0.3, 0.3, size=(2, 2))


MIX3_MEANS = [[1.2, 0.0, 0.6], [-1.0, -0.8, 0.0]]
MIX3_WEIGHTS = [1.0, 0.7]


class Radon3d:
    """Criterion-3 d=3, k=2 inversion: forward -> ramp_filter -> backproject.

    Frames are a spherical Fibonacci set under a Haar rotation drawn from the
    seed, so every frame is Haar distributed but the set covers the sphere
    evenly.  With independent Haar frames the rel-L2 error is Monte-Carlo
    noise: 0.11-0.15 at 1200-2400 frames on seeds 1 and 3, over the 0.10
    gate.  The rotated set holds 0.044 on every seed from 400 frames.  The
    t-grid (48 at 0.4) and quadrature (32 nodes per axis) are coarser than
    criterion 3 (64 at 0.3, 48 nodes), a third of the points per frame, so a
    pass fits several times in one run; the error is unchanged.
    """

    name = "radon3d"

    def __init__(self, frames: int = 480) -> None:
        self.n_frames = frames

    def setup(self, seed: int, index: int) -> dict:
        spec = GridSpec.centered(3, 24, 0.4)
        mix = analytic.mixture_field(spec, MIX3_MEANS, MIX3_WEIGHTS)
        i = np.arange(self.n_frames) + 0.5
        z = 1.0 - 2.0 * i / self.n_frames
        r = np.sqrt(1.0 - z * z)
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        normals = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        rot = geometry.haar_orthogonal_sample(3, RngSeed(seed, index)).mat
        frames = transform.FrameSet(
            tuple(Frame(3, 2, n[None, :]) for n in normals @ rot.T), "monte-carlo"
        )
        return {
            "spec": spec, "mix": mix, "frames": frames,
            "t_grid": TGrid.centered(1, 48, 0.4),
            "quad": QuadSpec(8.0, 32),
        }

    def run(self, inp: dict, ops: Ops) -> dict:
        sino = ops.call("forward", transform.forward, inp["mix"], inp["frames"],
                        inp["t_grid"], inp["quad"], order=1, threads=1)
        filtered = ops.call("ramp_filter", transform.ramp_filter, sino, 3, 2)
        recon = ops.call("backproject", transform.backproject, filtered, inp["spec"],
                         threads=1)
        return {"recon": recon}

    def check(self, inp: dict, out: dict, ops: Ops) -> float:
        err = transform.rel_l2_error(out["recon"], inp["mix"])
        ops.gate("rel_l2", err <= TOL_INVERSION_3D, f"rel_l2 {err:.4f} > {TOL_INVERSION_3D}")
        return err


class Ridge3d:
    """Criterion-8 ridge/atom identity: render_delta_iso -> backproject.

    Criterion 8 averages over 64 Monte-Carlo rotations.  Here the rotation
    average is the exact alignment transport (``n_rotations=0``): rotation
    noise alone spread rel-L2 from 0.046 to 0.076 over seeds 1-6 at 32
    rotations, against 0.028-0.041 over seeds 1-8 without it.  It also leaves
    backprojection (onto 20^3 at h=0.3; criterion 8 uses 16^3 at 0.4) about
    80% of the pass.
    """

    name = "ridge3d"

    def __init__(self, frames: int = 2000) -> None:
        self.n_frames = frames

    def setup(self, seed: int, index: int) -> dict:
        frames = transform.frameset_haar(3, 1, self.n_frames, RngSeed(seed, index))
        atom = isotropy.MollifiedAtom(frames.frames[0], np.array([0.8, -0.5]),
                                      frame_width=0.1, t_width=1.25)
        return {
            "frames": frames, "atom": atom,
            "t_grid": TGrid.centered(2, 48, 0.35),
            "grid": GridSpec.centered(3, 20, 0.3),
        }

    def run(self, inp: dict, ops: Ops) -> dict:
        sino = ops.call("render_delta_iso", isotropy.render_delta_iso, inp["atom"],
                        inp["frames"], inp["t_grid"], n_rotations=0)
        recon = ops.call("backproject", transform.backproject, sino, inp["grid"], threads=1)
        return {"recon": recon}

    def check(self, inp: dict, out: dict, ops: Ops) -> float:
        atom, grid = inp["atom"], inp["grid"]
        arg = grid.points() @ atom.frame.rows.T - atom.offset
        width = atom.t_width
        ridge = np.exp(-(arg**2).sum(-1) / (2 * width**2)) / (2 * np.pi * width**2)
        truth = GridField(grid.origin, grid.spacing, grid.shape, ridge)
        err = transform.rel_l2_error(out["recon"], truth)
        ops.gate("rel_l2", err <= TOL_INVERSION_3D, f"rel_l2 {err:.4f} > {TOL_INVERSION_3D}")
        return err


class IsoMC:
    """Criterion-7 projectors.

    (a) d=3, k=1: ``forward`` (order 3) then Monte-Carlo ``project_iso``
    through the sinogram's generator -- frames x rotations ``forward_at``
    calls of 15^2 x 48 points each.
    (b) d=2: the exact O(1) branch on circle frames without a generator
    (nearest-frame lookup, O(n^2) distance evaluations), twice for
    idempotence, once with the generator for comparison, then ``pk_project``.
    rel_l2 is the P_k range-fixing residual ||P_k g - g|| / ||g||.  The seed
    draws the 3-D frames and rotations, and shifts the 2-D phantom centres.
    """

    name = "iso-mc"

    def __init__(self, frames_3d: int = 40, rotations: int = 8, frames_2d: int = 240) -> None:
        self.frames_3d, self.rotations, self.frames_2d = frames_3d, rotations, frames_2d

    def setup(self, seed: int, index: int) -> dict:
        spec3 = GridSpec.centered(3, 24, 0.4)
        spec2 = GridSpec.centered(2, 64, 0.2)
        means2 = np.array([[0.8, 0.3], [-0.5, -0.9]]) + _shift(seed, index)
        return {
            "field3": analytic.mixture_field(spec3, MIX3_MEANS, MIX3_WEIGHTS),
            "frames3": transform.frameset_haar(3, 1, self.frames_3d, RngSeed(seed, index)),
            "t3": TGrid.centered(2, 15, 0.45),
            "quad3": QuadSpec(8.0, 48),
            "rot_seed": RngSeed(seed, 1000 + index),
            "spec2": spec2,
            "field2": analytic.mixture_field(spec2, means2, [1.0, 0.6]),
            "frames2": transform.frameset_circle(self.frames_2d),
            "t2": TGrid.centered(1, 127, 0.2),
            "quad2": QuadSpec(9.0, 128),
        }

    def run(self, inp: dict, ops: Ops) -> dict:
        g3 = ops.call("forward", transform.forward, inp["field3"], inp["frames3"], inp["t3"],
                      inp["quad3"], order=3, threads=1)
        q3 = ops.call("project_iso", isotropy.project_iso, g3, n_rotations=self.rotations,
                      rng=inp["rot_seed"])
        g2 = ops.call("forward", transform.forward, inp["field2"], inp["frames2"], inp["t2"],
                      inp["quad2"], order=1, threads=1)
        bare = g2.copy_with(g2.values, None)
        p1 = ops.call("project_iso", isotropy.project_iso, bare)
        p2 = ops.call("project_iso", isotropy.project_iso, p1)
        p1_gen = ops.call("project_iso", isotropy.project_iso, g2)
        pk = ops.call("pk_project", isotropy.pk_project, g2, inp["spec2"], inp["quad2"],
                      order=1, threads=1)
        return {"g3": g3, "q3": q3, "g2": g2, "p1": p1, "p2": p2, "p1_gen": p1_gen, "pk": pk}

    def check(self, inp: dict, out: dict, ops: Ops) -> float:
        norm = transform.sino_norm
        g3, q3, g2, p1 = out["g3"], out["q3"], out["g2"], out["p1"]
        ops.gate("mc_norm", norm(q3) <= norm(g3) * (1 + TOL_NORM_GROWTH),
                 f"{norm(q3)!r} > {norm(g3)!r}")
        ops.gate("o1_norm", norm(p1) <= norm(g2) * (1 + TOL_NORM_GROWTH),
                 f"{norm(p1)!r} > {norm(g2)!r}")
        idem = float(np.abs(out["p2"].values - p1.values).max())
        ops.gate("o1_idempotent", idem <= TOL_IDEMPOTENT_EXACT, f"defect {idem:.3e}")
        lookup = float(np.abs(out["p1_gen"].values - p1.values).max())
        ops.gate("lookup_eq_generator", lookup <= TOL_IDEMPOTENT_EXACT, f"diff {lookup:.3e}")
        fix = norm(g2.copy_with(out["pk"].values - g2.values, None)) / norm(g2)
        ops.gate("pk_fix", fix <= TOL_PK_FIX, f"residual {fix:.4f}")
        return fix


class Cli2d:
    """phantom -> forward -> fbp -> calibrate -> reconstruct through ``kplane.cli.main``.

    The seed moves the two phantom centres.  The sparse block keeps the
    measurement seed of criterion 10 (123) because the FISTA iteration count
    depends on the measurement draw, and with it the pass time.  Frames are
    the deterministic circle: 360 Monte-Carlo frames gave fbp rel-L2 from
    0.07 to 0.12 across seeds 1-4, above the 2-D gate of 0.05.
    """

    name = "cli2d"
    COMMANDS = ("phantom", "forward", "fbp", "calibrate", "reconstruct")
    OFFSETS = 16
    FISTA_TOL = 1e-12  # criterion 10; its KKT bounds scale with this tolerance

    def __init__(self, frames: int = 360, dict_frames: int = 16, measurements: int = 60) -> None:
        self.n_frames, self.dict_frames, self.measurements = frames, dict_frames, measurements
        self._dirs: list[str] = []

    def setup(self, seed: int, index: int) -> dict:
        shift = _shift(seed, index)
        OUT.mkdir(exist_ok=True)
        out = tempfile.mkdtemp(prefix="cli2d-", dir=OUT)
        self._dirs.append(out)
        cfg = {
            "d": 2, "k": 1,
            "grid": {"origin": [-6.3, -6.3], "spacing": 0.2, "shape": [64, 64]},
            "frames": {"mode": "deterministic-circle", "count": self.n_frames},
            "t_grid": {"origin": [-12.7], "spacing": 0.2, "shape": [128]},
            "quad": {"halfwidth": 9.0, "nodes": 128},
            "interp_order": 1,
            "filter": {"pad_factor": 2.0},
            "phantom": {"kind": "mixture", "components": [
                {"mean": [1.6 + shift[0, 0], 0.8 + shift[0, 1]], "weight": 1.0},
                {"mean": [-1.2 + shift[1, 0], -0.4 + shift[1, 1]], "weight": 0.7}]},
            "sparse": {
                "s": 2.0, "frame_count": self.dict_frames, "offset_min": -3.0,
                "offset_max": 3.0, "offset_count": self.OFFSETS,
                "measurements": self.measurements, "bump_width": 0.8,
                "lambda_rule": 1e-3, "tol": self.FISTA_TOL, "max_iter": 50000, "seed": 123,
                "planted": [{"frame_index": 3, "offset_index": 5, "weight": 1.5},
                            {"frame_index": 9, "offset_index": 11, "weight": -2.0}],
            },
            "output": {"dir": out},
        }
        path = Path(out) / "config.json"
        path.write_text(json.dumps(cfg))
        return {"config": str(path), "out": Path(out)}

    def run(self, inp: dict, ops: Ops) -> dict:
        reports = {}
        for command in self.COMMANDS:
            ops.cli([command, "--config", inp["config"], "--threads", "1"])
            if command in ("fbp", "calibrate", "reconstruct"):
                reports[command] = json.loads((inp["out"] / "report.json").read_text())
        reported = {c: r["timings_ms"][c] / 1000.0 for c, r in reports.items()}
        return {"reports": reports, "reported_s": reported}

    def check(self, inp: dict, out: dict, ops: Ops) -> float:
        fbp, cal = out["reports"]["fbp"], out["reports"]["calibrate"]
        err = float(fbp["rel_l2_vs_reference"])
        ops.gate("rel_l2", err <= TOL_INVERSION_2D, f"rel_l2 {err:.4f} > {TOL_INVERSION_2D}")
        gain = float(cal["gain"])
        ops.gate("gain", abs(gain - 1.0) <= TOL_GAIN, f"gain {gain:.4f}")
        sol = json.loads((inp["out"] / "solution.json").read_text())
        supp, lam, n_off = set(sol["support"]), sol["lambda"], self.OFFSETS
        for item in (3 * n_off + 5, 9 * n_off + 11):  # one-cell slack, as criterion 10
            near = {item, item - 1, item + 1, item - n_off, item + n_off}
            ops.gate("planted", bool(supp & near), f"atom {item} not in support {sorted(supp)}")
        kkt, tol = sol["kkt"], self.FISTA_TOL
        ops.gate("kkt_inactive", kkt["inactive_excess"] <= lam / 2 * tol * 10, str(kkt))
        ops.gate("kkt_active", kkt["active_mismatch"] <= lam * tol * 10, str(kkt))
        return err

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


WORKLOADS = {cls.name: cls for cls in (Radon3d, Ridge3d, IsoMC, Cli2d)}
