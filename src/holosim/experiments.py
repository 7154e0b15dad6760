"""Reproducible experiments binding models, phase engines, and the
integrator, with JSON-configurable parameters and CSV/JSON reports.

Each experiment is declared once in REGISTRY. Its run_* takes a config
dict resolved once by resolve_config (user input and flags over the
registry defaults) and returns an ExperimentReport whose hard checks
drive the CLI exit code. Everything is deterministic given (config,
seed): noise realizations draw from per-index seed sequences, and report
rows are emitted in declared key order.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from . import abelian, adiabatic, holonomy, linalg, models
from .report import ConfigError, ExperimentReport


class Knob(NamedTuple):
    """The config key a CLI flag sets, and the value that flag n sets it to."""

    key: str
    value: Callable[[int], object] = lambda n: n

    def set(self, config: dict, n: int) -> None:
        *parents, leaf = self.key.split(".")
        for key in parents:
            config = config.setdefault(key, {})
        config[leaf] = self.value(n)

    def __str__(self) -> str:
        return f"{self.key} = " + str(self.value("N")).replace("'", "")


class Experiment(NamedTuple):
    """One experiment's built-in config, CSV columns and the knobs that the
    --samples and --seed flags set (None: the flag does not apply). The
    runner of experiment "a-b" is the module function run_a_b, looked up
    at call time."""

    defaults: dict
    columns: tuple[str, ...]
    samples: Knob | None = None
    seed: Knob | None = None


REGISTRY: dict[str, Experiment] = {
    "berry-qubit": Experiment(
        defaults={
            "model": "qubit",
            "path": {"family": "azimuthal", "params": {"theta0": math.pi / 3, "radius": 1.0}},
            "band": 0,
            "ladder": [64, 256, 1024, 4096],
            "reverse": False,
            "tolerance": 1e-4,
        },
        columns=("samples", "phase", "oracle_phase", "abs_error"),
        samples=Knob("ladder", lambda n: [n]),
    ),
    "curvature-map": Experiment(
        defaults={
            "model": "qubit",
            "radius": 1.0,
            "band": 0,
            "grid": {
                "theta": [0.4, math.pi - 0.4],
                "phi": [0.0, 2.0 * math.pi],
                "cells": [20, 20],
            },
            "plaquette_edge": 0.01,
            "tiling": {"theta": [0.7, 1.9], "phi": [0.5, 2.0], "cells": [6, 6]},
            "tolerance": 1e-3,
        },
        columns=("theta", "phi", "curvature", "area_normalized", "plaquette_edge", "flagged"),
        samples=Knob("grid.cells", lambda n: [n, n]),
    ),
    "usb-holonomy": Experiment(
        defaults={
            "model": "usb",
            "path": {"family": "circle", "params": {}},
            "ladder": [512, 2048, 8192],
            "eta_samples": 2**14,
            "distance_tolerance": 1e-3,
            "eta_tolerance": 1e-6,
        },
        columns=(
            "samples", "eta_dtheta_form", "eta_line_form", "distance_to_closed_form",
            "unitarity_defect", "eta_from_matrix",
        ),
        samples=Knob("ladder", lambda n: [n]),
    ),
    "adiabatic-sweep": Experiment(
        defaults={
            "model": "usb",
            "path": {"family": "circle", "params": {}},
            "Ts": [50.0, 200.0, 800.0],
            "steps_per_T": None,
            "reference_samples": 8192,
            # None: the window of the adiabatic order the model predicts
            "slope_window": None,
        },
        columns=("ramp_time", "steps", "distance_to_wilson", "leakage"),
        samples=Knob("reference_samples"),
    ),
    "noise-study": Experiment(
        defaults={
            "model": "qubit",
            "path": {"family": "azimuthal", "params": {"theta0": math.pi / 3, "radius": 1.0}},
            "band": 0,
            "samples": 2048,
            "noise": {
                "amplitude_ladder": [0.01, 0.02, 0.04],
                "realizations": 16,
                "modes": 3,
                "seed": 20240811,
            },
            "slope_gate": 1.5,
        },
        columns=(
            "amplitude", "mean_projected_shift", "std_projected_shift", "mean_raw_shift",
            "std_raw_shift", "discarded",
        ),
        samples=Knob("samples"),
        seed=Knob("noise.seed"),
    ),
    "pancharatnam": Experiment(
        defaults={
            "states": {"bloch": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            "tolerance": 1e-6,
        },
        columns=("states", "phase", "solid_angle", "half_area_cross_check", "abs_diff"),
    ),
}

EXPERIMENTS = tuple(REGISTRY)

# Log-log slope window of the sweep distance, per model. The qubit sweep
# converges at first order in 1/T. The four-level bright levels sit at +-R
# with identical couplings to the dark pair, so the first-order in-block
# term cancels and the distance falls off as T^-2.
PREDICTED_SLOPE_WINDOW = {"qubit": [-1.5, -0.5], "usb": [-2.5, -1.5]}


def resolve_config(
    experiment: str,
    user: dict | None = None,
    *,
    seed: int | None = None,
    samples: int | None = None,
) -> dict:
    """Merge the user fragment over the experiment's defaults.

    A "samples" field in the fragment's path sets the --samples knob; the
    seed and samples flags are applied last, so they win over both, and
    are echoed under "flag_overrides".
    """
    if experiment not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name '{experiment}' "
            f"(expected one of {', '.join(EXPERIMENTS)})"
        )
    user = dict(_require_object({} if user is None else user, "config"))
    declared = user.pop("experiment", None)
    if declared not in (None, experiment):
        raise ConfigError(
            f"config.experiment '{declared}' does not match the requested "
            f"experiment '{experiment}'"
        )
    hint = None
    pathspec = user.get("path")
    if isinstance(pathspec, dict) and "samples" in pathspec:
        user["path"] = {k: v for k, v in pathspec.items() if k != "samples"}
        hint = pathspec["samples"]
    merged = _merge(copy.deepcopy(REGISTRY[experiment].defaults), user, path="config")
    merged["experiment"] = experiment
    if hint is not None:
        n = _positive_int(hint, "config.path.samples", 8)
        _knob(experiment, "samples").set(merged, n)
    flags = {k: n for k, n in (("seed", seed), ("samples", samples)) if n is not None}
    for flag, n in flags.items():
        _knob(experiment, flag).set(merged, n)
    if flags:
        merged["flag_overrides"] = flags
    return merged


def _knob(experiment: str, flag: str) -> Knob:
    knob = getattr(REGISTRY[experiment], flag)
    if knob is None:
        users = [name for name, e in REGISTRY.items() if getattr(e, flag) is not None]
        raise ConfigError(
            f"--{flag} does not apply to {experiment} (only to {', '.join(users)})"
        )
    return knob


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _merge(base: dict, override: dict, path: str) -> dict:
    out = dict(base)
    for key, value in _require_object(override, path).items():
        if key not in base:
            raise ConfigError(f"{path}.{key}: unknown field")
        if (
            key == "path"
            and isinstance(value, dict)
            and value.get("family") not in (None, base[key].get("family"))
        ):
            # switching pulse family replaces the params wholesale
            out[key] = _merge({**base[key], "params": {}}, value, f"{path}.{key}")
        elif key == "params" and isinstance(value, dict):
            # pulse-family parameters are validated by the family constructor
            out[key] = {**base[key], **value}
        elif isinstance(base[key], dict) and key != "states":
            out[key] = _merge(base[key], value, f"{path}.{key}")
        else:
            out[key] = value
    return out


def run_experiment(
    experiment: str,
    config: dict | None = None,
    *,
    seed: int | None = None,
    samples: int | None = None,
) -> ExperimentReport:
    resolved = resolve_config(experiment, config, seed=seed, samples=samples)
    # looked up at call time, so a re-bound module attribute is the one run
    runner = globals()["run_" + experiment.replace("-", "_")]
    t0 = time.perf_counter()
    report = runner(resolved)
    report.elapsed_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return report


def _report(experiment: str, rows: list, config: dict) -> ExperimentReport:
    return ExperimentReport(experiment, list(REGISTRY[experiment].columns), rows, config)


def _positive_int(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# berry-qubit
# ---------------------------------------------------------------------------


def run_berry_qubit(config: dict) -> ExperimentReport:
    """Discrete loop phase vs the solid-angle oracle over a resolution ladder."""
    if config.get("model") != "qubit":
        raise ConfigError("config.model: berry-qubit requires the qubit model")
    model, path = models.build_model_and_path(config)
    if config.get("reverse"):
        path = models.reversed_path(path)
    if not path.closed:
        raise ConfigError("config.path: berry-qubit requires a closed loop")
    ladder = [
        _positive_int(n, f"config.ladder[{i}]", 8)
        for i, n in enumerate(config["ladder"])
    ]
    band = _positive_int(config["band"], "config.band", 0)

    rows = []
    for n in ladder:
        chain = abelian.band_state_chain(model, path, band, n)
        phase = abelian.discrete_geometric_phase(chain).phase
        # the oracle is evaluated on a finer sampling than the chain so the
        # row error reflects the chain's own convergence, not a correlated
        # discretization of the same grid
        lams = path.sample(max(4096, 4 * n))
        dirs = lams / np.linalg.norm(lams, axis=1)[:, None]
        omega = abelian.solid_angle(dirs)
        oracle = -0.5 * omega
        err = abs(linalg.wrap_angle(phase - oracle))
        rows.append((n, phase, oracle, err))

    report = _report("berry-qubit", rows, config)
    tol = float(config["tolerance"])
    final_err = rows[-1][3]
    report.add_check(
        "final_resolution_error", final_err < tol, final_err, f"< {tol:g}"
    )
    return report


# ---------------------------------------------------------------------------
# curvature-map
# ---------------------------------------------------------------------------


def run_curvature_map(config: dict) -> ExperimentReport:
    """Curvature samples over a (theta, phi) patch plus flux/boundary check."""
    if config.get("model") != "qubit":
        raise ConfigError("config.model: curvature-map requires the qubit model")
    model = models.SphereQubitModel(float(config["radius"]))
    band = _positive_int(config["band"], "config.band", 0)
    grid = config["grid"]
    th_lo, th_hi = (float(x) for x in grid["theta"])
    ph_lo, ph_hi = (float(x) for x in grid["phi"])
    n_th, n_ph = (
        _positive_int(x, "config.grid.cells", 2) for x in grid["cells"]
    )
    if not (0.0 < th_lo < th_hi < math.pi):
        raise ConfigError("config.grid.theta: need 0 < lo < hi < pi (avoid the poles)")
    a = float(config["plaquette_edge"])
    if a <= 0.0:
        raise ConfigError("config.plaquette_edge: must be positive")

    thetas = np.linspace(th_lo, th_hi - a, n_th)
    phis = np.linspace(ph_lo, ph_hi - a, n_ph, endpoint=False)
    rows = []
    normalized_values = []
    for th in thetas:
        for ph in phis:
            try:
                sample = abelian.berry_curvature_plaquette(
                    model, band, [th, ph], plane=(0, 1), a=a
                )
            except (abelian.DegenerateBandError, abelian.OverlapTooSmallError):
                rows.append((float(th), float(ph), math.nan, math.nan, a, 1))
                continue
            cell_area = (math.cos(th) - math.cos(th + a)) * a
            normalized = sample.loop_phase / cell_area
            normalized_values.append(normalized)
            rows.append(
                (float(th), float(ph), sample.value, normalized, a, 0)
            )

    flux, boundary = abelian.plaquette_flux_and_boundary(
        model,
        band,
        origin=[float(config["tiling"]["theta"][0]), float(config["tiling"]["phi"][0])],
        plane=(0, 1),
        extents=(
            float(config["tiling"]["theta"][1]) - float(config["tiling"]["theta"][0]),
            float(config["tiling"]["phi"][1]) - float(config["tiling"]["phi"][0]),
        ),
        cells=tuple(
            _positive_int(x, "config.tiling.cells", 1) for x in config["tiling"]["cells"]
        ),
    )

    report = _report("curvature-map", rows, config)
    tol = float(config["tolerance"])
    vals = np.array(normalized_values)
    mean_err = abs(float(np.mean(vals)) - (-0.5))
    worst_err = float(np.max(np.abs(vals - (-0.5)))) if len(vals) else math.inf
    flux_err = abs(linalg.wrap_angle(flux - boundary))
    report.add_check("mean_curvature_error", mean_err < tol, mean_err, f"< {tol:g}")
    report.add_check("worst_cell_error", worst_err < tol, worst_err, f"< {tol:g}")
    report.add_check(
        "flux_equals_boundary_phase", flux_err < 1e-10, flux_err, "< 1e-10"
    )
    return report


# ---------------------------------------------------------------------------
# usb-holonomy
# ---------------------------------------------------------------------------


def run_usb_holonomy(config: dict) -> ExperimentReport:
    """Wilson line vs the closed-form rotation over a resolution ladder."""
    if config.get("model") != "usb":
        raise ConfigError("config.model: usb-holonomy requires the usb model")
    _, path = models.build_model_and_path(config)
    ladder = [
        _positive_int(n, f"config.ladder[{i}]", 16)
        for i, n in enumerate(config["ladder"])
    ]
    eta_samples = _positive_int(config["eta_samples"], "config.eta_samples", 256)

    eta_theta_ref, eta_line_ref = holonomy.usb_eta_pair(path, eta_samples)
    b_ref = holonomy.usb_holonomy_closed_form(eta_theta_ref)

    rows = []
    for n in ladder:
        e_theta, e_line = holonomy.usb_eta_pair(path, n)
        result = holonomy.usb_wilson_line(path, n)
        dist = holonomy.holonomy_distance(result.matrix, b_ref)
        rows.append(
            (n, e_theta, e_line, dist, result.unitarity_defect, result.eta_estimate)
        )

    report = _report("usb-holonomy", rows, config)
    dist_tol = float(config["distance_tolerance"])
    eta_tol = float(config["eta_tolerance"])
    final_dist = rows[-1][3]
    eta_gap = abs(eta_theta_ref - eta_line_ref)
    report.add_check(
        "final_distance_to_closed_form", final_dist < dist_tol, final_dist, f"< {dist_tol:g}"
    )
    report.add_check(
        "eta_quadrature_agreement", eta_gap < eta_tol, eta_gap, f"< {eta_tol:g}"
    )
    worst_defect = max(r[4] for r in rows)
    report.add_check(
        "wilson_unitarity_defect", worst_defect < 1e-8, worst_defect, "< 1e-8"
    )
    return report


# ---------------------------------------------------------------------------
# adiabatic-sweep
# ---------------------------------------------------------------------------


def _sweep_block_and_frame(model, path):
    if isinstance(model, models.UsbModel):
        block = holonomy.USB_DARK_BLOCK
        phi1, phi2 = models.usb_dark_frame(path(np.array([0.0]))[0])
        frame0 = np.stack([phi1, phi2], axis=1)
    else:
        block = holonomy.BandBlock(0, 1)
        frame0 = models.qubit_ground_state(path(np.array([0.0]))[0])[:, None]
    return block, frame0


def run_adiabatic_sweep(config: dict) -> ExperimentReport:
    """Exact-evolution vs Wilson-line distance across a ladder of ramp times."""
    model, path = models.build_model_and_path(config)
    ts = [float(t) for t in config["Ts"]]
    if len(ts) < 3 or sorted(ts) != ts:
        raise ConfigError("config.Ts: need at least 3 ascending ramp times")
    steps = config.get("steps_per_T")
    if steps is not None:
        steps = [
            _positive_int(s, f"config.steps_per_T[{i}]", 16)
            for i, s in enumerate(steps)
        ]
        if len(steps) != len(ts):
            raise ConfigError("config.steps_per_T: length must match config.Ts")
    block, frame0 = _sweep_block_and_frame(model, path)
    if config["slope_window"] is None:
        config["slope_window"] = list(PREDICTED_SLOPE_WINDOW[config["model"]])
    window = config["slope_window"]
    finite = isinstance(window, (list, tuple)) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        for x in window
    )
    if not (finite and len(window) == 2 and window[0] < window[1]):
        raise ConfigError(
            f"config.slope_window: need two finite numbers lo < hi, got {window!r}"
        )
    lo, hi = (float(x) for x in window)

    sweep = adiabatic.convergence_sweep(
        model,
        path,
        block,
        ts,
        steps_per_t=steps,
        reference_samples=_positive_int(
            config["reference_samples"], "config.reference_samples", 256
        ),
        initial_frame=frame0,
    )
    rows = [
        (r.total_time, r.steps, r.distance, r.leakage) for r in sweep.rows
    ]
    report = _report("adiabatic-sweep", rows, config)
    report.diagnostics = {
        "integrator": [
            {
                "ramp_time": r.total_time,
                "steps": r.steps,
                "norm_drift": r.norm_drift,
                "step_error_estimate": r.step_error_estimate,
            }
            for r in sweep.rows
        ]
    }
    dists = sweep.distances()
    leaks = sweep.leakages()
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    leak_mono = all(b < a for a, b in zip(leaks, leaks[1:]))
    report.add_check(
        "distance_strictly_decreasing", decreasing, min(dists), "each T smaller"
    )
    report.add_check(
        "loglog_slope_in_window", lo <= sweep.slope <= hi, sweep.slope, f"[{lo:g}, {hi:g}]"
    )
    report.add_check("leakage_monotone", leak_mono, max(leaks), "decreasing in T")
    return report


# ---------------------------------------------------------------------------
# noise-study
# ---------------------------------------------------------------------------


def _fourier_deformation(rng: np.random.Generator, s: np.ndarray, modes: int) -> np.ndarray:
    """Smooth zero-mean periodic deformation field, unit RMS magnitude."""
    d = np.zeros((len(s), 3))
    for j in range(1, modes + 1):
        coeff_cos = rng.normal(size=3)
        coeff_sin = rng.normal(size=3)
        d += np.outer(np.cos(2.0 * math.pi * j * s), coeff_cos)
        d += np.outer(np.sin(2.0 * math.pi * j * s), coeff_sin)
    rms = math.sqrt(float(np.mean(np.sum(d**2, axis=1))))
    return d / rms


def _noise_validate(config: dict) -> None:
    noise = config["noise"]
    ladder = noise["amplitude_ladder"]
    if not ladder:
        raise ConfigError("config.noise.amplitude_ladder: must not be empty")
    for i, eps in enumerate(ladder):
        if not 0.0 <= float(eps) <= 0.2:
            raise ConfigError(
                f"config.noise.amplitude_ladder[{i}]: amplitude must lie in [0, 0.2]"
            )
    if _positive_int(noise["realizations"], "config.noise.realizations") < 8:
        raise ConfigError("config.noise.realizations: need at least 8 realizations")
    _positive_int(noise["modes"], "config.noise.modes")
    if not isinstance(noise["seed"], (int, np.integer)) or noise["seed"] < 0:
        raise ConfigError("config.noise.seed: need a non-negative integer seed")


def run_noise_study(config: dict) -> ExperimentReport:
    """Phase robustness under smooth loop deformations.

    Each realization draws a low-order Fourier deformation d(s); the raw
    perturbed loop is lambda + eps * scale * d, and the area-preserving
    variant first projects out the first-order change of the enclosed
    solid angle along a fixed polar-push direction. Mean |phase shift| of
    the projected loops must scale like eps^2 (log-log slope gate), while
    the raw shift is reported without a bound.
    """
    if config.get("model") != "qubit":
        raise ConfigError("config.model: noise-study supports the qubit model")
    _noise_validate(config)
    model, path = models.build_model_and_path(config)
    band = _positive_int(config["band"], "config.band", 0)
    n = _positive_int(config["samples"], "config.samples", 64)
    noise = config["noise"]
    realizations = int(noise["realizations"])
    modes = int(noise["modes"])
    seed = int(noise["seed"])

    s = np.arange(n) / n
    base = path(s)
    scale = float(np.sqrt(np.mean(np.sum(base**2, axis=1))))

    def chain_phase(points: np.ndarray) -> float:
        states = np.array([models.qubit_ground_state(pt) for pt in points])
        chain = abelian.StateChain(states, closed=True)
        return abelian.discrete_geometric_phase(chain).phase

    def area(points: np.ndarray) -> float:
        dirs = points / np.linalg.norm(points, axis=1)[:, None]
        return abelian.solid_angle(dirs)

    chi0 = chain_phase(base)

    # fixed area-changing reference direction: uniform polar push
    theta_hat = _polar_push(base)
    h = 1e-4
    d_area_ref = (area(base + h * scale * theta_hat) - area(base - h * scale * theta_hat)) / (
        2.0 * h
    )
    if abs(d_area_ref) < 1e-9:
        raise ConfigError(
            "config.path: the loop's enclosed area is stationary under the polar "
            "push; the area-preserving projection is ill-defined for it"
        )

    def one_realization(index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        d = _fourier_deformation(rng, s, modes)
        d_area = (area(base + h * scale * d) - area(base - h * scale * d)) / (2.0 * h)
        d_proj = d - (d_area / d_area_ref) * theta_hat
        return d, d_proj

    deformations = [one_realization(index) for index in range(realizations)]

    rows = []
    eps_values = []
    proj_means = []
    for eps in (float(e) for e in noise["amplitude_ladder"]):
        proj_devs, raw_devs = [], []
        discarded = 0
        for d, d_proj in deformations:
            try:
                chi_raw = chain_phase(base + eps * scale * d)
                chi_proj = chain_phase(base + eps * scale * d_proj)
            except (models.ZeroFieldError, abelian.OverlapTooSmallError):
                discarded += 1
                continue
            raw_devs.append(abs(linalg.wrap_angle(chi_raw - chi0)))
            proj_devs.append(abs(linalg.wrap_angle(chi_proj - chi0)))
        mean_proj = float(np.mean(proj_devs)) if proj_devs else math.nan
        rows.append(
            (
                eps,
                mean_proj,
                float(np.std(proj_devs)) if proj_devs else math.nan,
                float(np.mean(raw_devs)) if raw_devs else math.nan,
                float(np.std(raw_devs)) if raw_devs else math.nan,
                discarded,
            )
        )
        if eps > 0.0:
            eps_values.append(eps)
            proj_means.append(mean_proj)

    report = _report("noise-study", rows, config)
    if len(eps_values) >= 2 and all(m > 0.0 for m in proj_means):
        slope = float(
            np.polyfit(np.log(eps_values), np.log(proj_means), 1)[0]
        )
    else:
        slope = math.nan
    gate = float(config["slope_gate"])
    report.add_check(
        "projected_shift_loglog_slope", slope >= gate, slope, f">= {gate:g}"
    )
    zero_rows = [r for r in rows if r[0] == 0.0]
    if zero_rows:
        report.add_check(
            "zero_amplitude_zero_shift",
            zero_rows[0][1] == 0.0 and zero_rows[0][2] == 0.0,
            zero_rows[0][1],
            "== 0",
        )
    return report


def _polar_push(points: np.ndarray) -> np.ndarray:
    """Unit vector of increasing polar angle at each loop point; the
    reference deformation whose area derivative is projected out. Its
    normalization cancels in the projection ratio."""
    rho = np.hypot(points[:, 0], points[:, 1])
    theta = np.arctan2(rho, points[:, 2])
    phi = np.arctan2(points[:, 1], points[:, 0])
    return np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# pancharatnam
# ---------------------------------------------------------------------------


def run_pancharatnam(config: dict) -> ExperimentReport:
    """Cyclic overlap phase of a list of states, with the geodesic cross-check."""
    states_spec = config["states"]
    if not isinstance(states_spec, dict) or not (
        "bloch" in states_spec or "amplitudes" in states_spec
    ):
        raise ConfigError(
            "config.states: expected {'bloch': [[x,y,z], ...]} or "
            "{'amplitudes': [[[re,im], ...], ...]}"
        )
    omega = None
    dirs = None
    if "bloch" in states_spec:
        dirs = np.asarray(states_spec["bloch"], dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != 3 or dirs.shape[0] < 3:
            raise ConfigError("config.states.bloch: need at least 3 three-vectors")
        chain = abelian.bloch_chain(dirs)
    else:
        amps = np.asarray(states_spec["amplitudes"], dtype=float)
        if amps.ndim != 3 or amps.shape[2] != 2 or amps.shape[0] < 3:
            raise ConfigError(
                "config.states.amplitudes: need >= 3 states of [re, im] pairs"
            )
        chain = abelian.StateChain(amps[..., 0] + 1j * amps[..., 1], closed=True)
    # the phase first: an orthogonal pair is the contract error here, and it
    # must win over geometric complaints about the direction polygon
    phase = abelian.pancharatnam_phase(chain)
    if dirs is not None:
        omega = abelian.solid_angle(dirs)

    if omega is not None:
        cross = -0.5 * omega
        diff = abs(linalg.wrap_angle(phase - cross))
        rows = [(len(chain), phase, omega, cross, diff)]
    else:
        rows = [(len(chain), phase, math.nan, math.nan, math.nan)]

    report = _report("pancharatnam", rows, config)
    if omega is not None:
        tol = float(config["tolerance"])
        report.add_check(
            "phase_matches_half_area", rows[0][4] < tol, rows[0][4], f"< {tol:g}"
        )
    return report
