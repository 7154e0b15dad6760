"""Seeded inputs for the benchmark workloads, and the checks on their outputs.

An op is one experiment run through the CLI. A workload is a fixed mix of
op kinds, repeated in passes; pass k draws its configs from the generator
seeded with (workload seed, k), so the same seed always gives the same
inputs. Within a workload every op of a kind uses the same resolution; the
seed varies only the loop shape, patch, Bloch states or noise draws, so
each kind's op time stays unimodal.

Parameter ranges keep every hard check passing:

* usb circle loops keep s0 - a >= 0.35, clear of the dark-frame
  singularity P = S = 0;
* qubit berry loops keep theta0 at least 0.35 from the poles;
* the sweeps' leakage oscillates with the loop and T; where the leakage
  at T = 200 or 50 passes a node, the program's leakage_monotone check
  fails. Qubit sweep loops draw theta0 from [1.05, 1.45], between the
  T = 200 node near 0.84 and the T = 50 node near 1.6, where the T = 800
  leakage's envelope (<= 1.6e-5) stays below the T = 200 leakage
  (>= 4.9e-5). Four-level sweep loops are drawn from USB_SWEEP_LOOPS,
  loops that passed every check with a factor-2 margin on each ratio;
* Bloch triples have no pair more than ~143 degrees apart (orthogonal
  states sit at 180) and no vertex near -z, the antipode of the
  solid-angle fan's reference vertex.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# op kind -> CLI experiment name
EXPERIMENT = {
    "berry-qubit": "berry-qubit",
    "usb-holonomy": "usb-holonomy",
    "adiabatic-sweep-usb": "adiabatic-sweep",
    "adiabatic-sweep-qubit": "adiabatic-sweep",
    "noise-study": "noise-study",
    "curvature-map": "curvature-map",
    "pancharatnam": "pancharatnam",
}

# CSV header per experiment, as fixed in docs/formats.md
COLUMNS = {
    "berry-qubit": ["samples", "phase", "oracle_phase", "abs_error"],
    "curvature-map": [
        "theta", "phi", "curvature", "area_normalized", "plaquette_edge", "flagged",
    ],
    "usb-holonomy": [
        "samples", "eta_dtheta_form", "eta_line_form", "distance_to_closed_form",
        "unitarity_defect", "eta_from_matrix",
    ],
    "adiabatic-sweep": ["ramp_time", "steps", "distance_to_wilson", "leakage"],
    "noise-study": [
        "amplitude", "mean_projected_shift", "std_projected_shift",
        "mean_raw_shift", "std_raw_shift", "discarded",
    ],
    "pancharatnam": ["states", "phase", "solid_angle", "half_area_cross_check", "abs_diff"],
}

# The four-level sweep fails the program's slope gate [-1.5, -0.5] by design
# (README: the in-block second-order term cancels, slope ~ -2.04 for every
# loop). The benchmark's own bookkeeping accepts that one check when the
# slope stays within SWEEP_USB_SLOPE_TOL of -2.04; the program's gate and
# its FAIL in the report are left as they are.
SWEEP_USB_SLOPE = -2.04
SWEEP_USB_SLOPE_TOL = 0.15

# Built-in default config of each kind: the first op of each kind in a run,
# comparable with ROADMAP's per-experiment baseline table. The qubit sweep
# has no built-in default of its own; it uses configs/adiabatic_sweep_qubit.json.
DEFAULT_CONFIG = {
    "adiabatic-sweep-qubit": {
        "experiment": "adiabatic-sweep",
        "model": "qubit",
        "path": {"family": "azimuthal", "params": {"theta0": math.pi / 3}},
        "Ts": [50.0, 200.0, 800.0],
    },
}

# Per-kind resolution, the same for every op of the kind in a workload.
RESOLUTION = {
    "full": {
        "berry-qubit": {"ladder": [512, 8192, 65536]},
        "usb-holonomy": {"ladder": [512, 8192, 65536]},
        "adiabatic-sweep-usb": {"Ts": [50.0, 200.0, 800.0]},
        "adiabatic-sweep-qubit": {"Ts": [50.0, 200.0, 800.0]},
        "noise-study": {},
        "curvature-map": {},
        "pancharatnam": {},
    },
    "smoke": {
        "berry-qubit": {"ladder": [1024]},
        "usb-holonomy": {"ladder": [512], "eta_samples": 4096},
        # the sweeps' loops are vetted at full resolution only
        "adiabatic-sweep-usb": {"Ts": [50.0, 200.0, 800.0]},
        "adiabatic-sweep-qubit": {"Ts": [50.0, 200.0, 800.0]},
        "noise-study": {"samples": 256, "noise": {"realizations": 8}},
        "curvature-map": {"grid": {"cells": [4, 4]}},
        "pancharatnam": {},
    },
}


# (s0, a, q0, b) of four-level circle loops for the sweep: drawn by
# _usb_circle from seed 20261017, kept where every ratio of consecutive
# distances and leakages at T = 50, 200, 800 is >= 3 and the slope is
# within 0.1 of -2.04 (17 of 28 draws). The leakage nodes are dense in
# loop space: a freshly drawn loop fails leakage_monotone now and then.
USB_SWEEP_LOOPS = (
    (1.3793, 0.403, 0.7316, 0.4078),
    (1.1831, 0.4708, -0.2182, 0.2544),
    (0.9899, 0.4016, -0.3546, 0.3254),
    (1.2513, 0.3012, 0.7564, 0.1758),
    (1.0818, 0.4796, -0.4148, 0.1248),
    (0.8077, 0.4313, 0.7172, 0.4448),
    (1.4709, 0.3682, 0.2901, 0.1648),
    (0.8083, 0.303, 0.2298, 0.4931),
    (1.3253, 0.4663, 0.2823, 0.2516),
    (0.9843, 0.3966, 0.1248, 0.4099),
    (1.1262, 0.4278, 0.472, 0.1668),
    (1.3041, 0.4527, -0.7671, 0.4606),
    (1.4816, 0.5962, 0.5593, 0.2647),
    (0.8116, 0.288, 0.2786, 0.4536),
    (0.9478, 0.3937, 0.5852, 0.3595),
    (1.3878, 0.5651, 0.3966, 0.2495),
    (1.323, 0.426, -0.4833, 0.1847),
)


@dataclass(frozen=True)
class Workload:
    why: str
    mix: tuple[tuple[str, int], ...]  # (op kind, ops per pass), in pass order


# Pass mixes give each kind a comparable share of a pass's time, so that
# wall_s moves when any one kind slows down.
WORKLOADS = {
    "holonomy-batch": Workload(
        why=(
            "usb-holonomy and berry-qubit at 512/8192/65536 samples: batched "
            "eigh, the per-link SVD loop and eta quadratures; no integrator"
        ),
        mix=(("usb-holonomy", 1), ("berry-qubit", 2)),
    ),
    "dynamics": Workload(
        why=(
            "adiabatic-sweep at T = 50/200/800 on four-level and qubit loops: "
            "per-step eigh, propagator einsum and matmul loop; one Wilson line per op"
        ),
        mix=(("adiabatic-sweep-usb", 1), ("adiabatic-sweep-qubit", 2)),
    ),
    "many-small": Workload(
        why=(
            "noise-study, curvature-map and pancharatnam: many tiny scalar and "
            "4-corner calls, where per-call and per-op fixed costs show"
        ),
        mix=(("noise-study", 1), ("curvature-map", 25), ("pancharatnam", 300)),
    ),
}


@dataclass
class Op:
    kind: str
    config: dict | None  # None: the experiment's built-in default config

    @property
    def experiment(self) -> str:
        return EXPERIMENT[self.kind]


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _usb_circle(rng: np.random.Generator) -> dict:
    s0 = float(rng.uniform(0.8, 1.5))
    a = float(rng.uniform(0.2, min(0.6, s0 - 0.35)))
    return {
        "family": "circle",
        "params": {
            "s0": s0,
            "a": a,
            "q0": float(rng.uniform(-0.8, 0.8)),
            "b": float(rng.uniform(0.1, 0.5)),
        },
    }


def _bloch_triple(rng: np.random.Generator) -> list[list[float]]:
    while True:
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        dots = np.sum(v * np.roll(v, -1, axis=0), axis=1)
        if np.all(dots > -0.8) and np.all(v[:, 2] > -0.9):
            return v.tolist()


def _draw(kind: str, rng: np.random.Generator) -> dict:
    if kind == "berry-qubit":
        theta0 = float(rng.uniform(0.35, math.pi - 0.35))
        radius = float(rng.uniform(0.5, 2.0))
        return {"path": {"family": "azimuthal", "params": {"theta0": theta0, "radius": radius}}}
    if kind == "usb-holonomy":
        return {"path": _usb_circle(rng)}
    if kind == "adiabatic-sweep-usb":
        s0, a, q0, b = USB_SWEEP_LOOPS[rng.integers(len(USB_SWEEP_LOOPS))]
        return {"model": "usb", "path": {"family": "circle", "params": {"s0": s0, "a": a, "q0": q0, "b": b}}}
    if kind == "adiabatic-sweep-qubit":
        theta0 = float(rng.uniform(1.05, 1.45))
        return {"model": "qubit", "path": {"family": "azimuthal", "params": {"theta0": theta0}}}
    if kind == "noise-study":
        return {"noise": {"seed": int(rng.integers(0, 2**32))}}
    if kind == "curvature-map":
        d_theta = float(rng.uniform(-0.2, 0.2))
        phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
        t_theta = float(rng.uniform(-0.3, 0.3))
        t_phi = float(rng.uniform(0.0, 2.0 * math.pi))
        return {
            "grid": {
                "theta": [0.4 + d_theta, math.pi - 0.4 + d_theta],
                "phi": [phi0, phi0 + 2.0 * math.pi],
            },
            "tiling": {"theta": [0.7 + t_theta, 1.9 + t_theta], "phi": [t_phi, t_phi + 1.5]},
        }
    if kind == "pancharatnam":
        return {"states": {"bloch": _bloch_triple(rng)}}
    raise KeyError(kind)


def default_ops(workload: str) -> list[Op]:
    """One built-in-default op per kind of the workload."""
    return [Op(kind, DEFAULT_CONFIG.get(kind)) for kind, _ in WORKLOADS[workload].mix]


def pass_ops(workload: str, seed: int, index: int, scale: str = "full") -> list[Op]:
    """The seeded ops of pass `index`; the same (seed, index) gives the same ops."""
    rng = np.random.default_rng([seed, index])
    ops = []
    for kind, count in WORKLOADS[workload].mix:
        for _ in range(1 if scale == "smoke" else count):
            config = _merge(_draw(kind, rng), RESOLUTION[scale][kind])
            config["experiment"] = EXPERIMENT[kind]
            ops.append(Op(kind, config))
    return ops


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    oracle_err: float | None = None
    discarded: int = 0
    realizations: int = 0


def check_outputs(op: Op, rc, csv_path: Path) -> Outcome:
    """Whether an op's report exists, parses, and passes its checks.

    Besides the program's own hard checks, the qubit loop oracle and the
    Pancharatnam triangle phase are recomputed here from closed forms.
    """
    meta_path = csv_path.with_suffix(".json")
    if rc is None:
        return Outcome(False, "raised")
    if not csv_path.is_file() or not meta_path.is_file():
        return Outcome(False, f"report missing (exit {rc})")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    with open(csv_path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    if meta.get("experiment") != op.experiment or table[0] != COLUMNS[op.experiment]:
        return Outcome(False, "report schema mismatch")
    rows = [dict(zip(table[0], (float(x) for x in r))) for r in table[1:]]
    if not rows or not meta.get("checks"):
        return Outcome(False, "report has no rows or no checks")

    failed = [c for c in meta["checks"] if not c["pass"]]
    if (rc == 0) != (not failed):
        return Outcome(False, f"exit {rc} disagrees with the report's checks")
    if op.kind == "adiabatic-sweep-usb":
        failed = [
            c for c in failed
            if not (
                c["name"] == "loglog_slope_in_window"
                and abs(c["value"] - SWEEP_USB_SLOPE) <= SWEEP_USB_SLOPE_TOL
            )
        ]
    if failed:
        return Outcome(False, "failed checks: " + ", ".join(c["name"] for c in failed))

    config = meta["config"]
    out = Outcome(True)
    if op.experiment == "berry-qubit":
        theta0 = config["path"]["params"]["theta0"]
        oracle = -math.pi * (1.0 - math.cos(theta0))
        # the program's oracle is a >= 4096-gon, within ~2e-7 of the circle
        if any(abs(math.remainder(r["oracle_phase"] - oracle, 2.0 * math.pi)) > 1e-5 for r in rows):
            return Outcome(False, "solid-angle oracle disagrees with the closed form")
        if abs(math.remainder(rows[-1]["phase"] - oracle, 2.0 * math.pi)) > config["tolerance"]:
            return Outcome(False, "final loop phase disagrees with -Omega/2")
        out.oracle_err = max(r["abs_error"] for r in rows)
    elif op.experiment == "usb-holonomy":
        out.oracle_err = max(r["distance_to_closed_form"] for r in rows)
    elif op.experiment == "adiabatic-sweep":
        out.oracle_err = rows[-1]["distance_to_wilson"]
    elif op.experiment == "curvature-map":
        if any(r["flagged"] for r in rows):
            return Outcome(False, "curvature cells flagged")
        out.oracle_err = next(
            c["value"] for c in meta["checks"] if c["name"] == "worst_cell_error"
        )
    elif op.experiment == "pancharatnam":
        a, b, c = (np.asarray(v, dtype=float) for v in config["states"]["bloch"])
        a, b, c = (v / np.linalg.norm(v) for v in (a, b, c))
        half_omega = math.atan2(
            float(a @ np.cross(b, c)), 1.0 + float(a @ b + b @ c + c @ a)
        )
        if abs(math.remainder(rows[0]["phase"] + half_omega, 2.0 * math.pi)) > 1e-9:
            return Outcome(False, "triangle phase disagrees with -Omega/2")
        out.oracle_err = rows[0]["abs_diff"]
    elif op.experiment == "noise-study":
        out.discarded = int(sum(r["discarded"] for r in rows))
        out.realizations = len(rows) * int(config["noise"]["realizations"])
    return out
