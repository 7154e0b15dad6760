"""Reproducible experiments binding models, phase engines, and the
integrator, with JSON-configurable parameters and CSV/JSON reports.

Each experiment is declared once in REGISTRY, each of its config fields
once (see schema). Its run_* takes a config dict resolved once by
resolve_config (user input and flags over the declared defaults),
validates it and returns an ExperimentReport whose hard checks drive the
CLI exit code. Everything is deterministic given (config, seed): noise
realizations draw from per-index seed sequences, and report rows are
emitted in declared key order.
"""

from __future__ import annotations

import contextlib
import copy
import math
import time
from typing import NamedTuple

import numpy as np

from . import abelian, adiabatic, holonomy, linalg, models, schema
from .report import ConfigError, DegenerateInputError, ExperimentReport
from .schema import Bool, Int, Interval, Knob, List, Model, Number, Optional, Path, Positive
from .schema import Section, States


class Experiment(NamedTuple):
    """One experiment's config fields and CSV columns. The runner of
    experiment "a-b" is the module function run_a_b, looked up at call
    time; it validates the config it receives."""

    fields: schema.Field
    columns: tuple[str, ...]

    def knob(self, flag: str) -> Knob | None:
        """What the --samples or --seed flag sets, if anything."""
        knobs = (f.knob._replace(key=k) for k, f in schema.leaves(self.fields) if f.knob)
        return next((knob for knob in knobs if knob.flag == flag), None)


REGISTRY: dict[str, Experiment] = {
    "berry-qubit": Experiment(
        Section(
            model=Model("qubit"),
            path=Path("azimuthal", models.PATH_FAMILIES["qubit"]["azimuthal"][1].default),
            band=Int(0, min=0, max=1),
            ladder=List(Int(min=8), [64, 256, 1024, 4096], knob=Knob("samples", lambda n: [n])),
            reverse=Bool(False),
            tolerance=Positive(1e-4),
        ),
        columns=("samples", "phase", "oracle_phase", "abs_error"),
    ),
    "curvature-map": Experiment(
        Section(
            model=Model("qubit"),
            radius=Positive(1.0, hi=models.PARAM_BOUND),
            band=Int(0, min=0, max=1),
            grid=Section(
                theta=Interval([0.4, math.pi - 0.4], within=(0.0, math.pi)),
                phi=Interval([0.0, 2.0 * math.pi]),
                cells=List(Int(min=2), [20, 20], length=2, knob=Knob("samples", lambda n: [n, n])),
            ),
            plaquette_edge=Number(0.01, lo=1e-6),
            tiling=Section(
                theta=Interval([0.7, 1.9]),
                phi=Interval([0.5, 2.0]),
                cells=List(Int(min=1), [6, 6], length=2),
            ),
            tolerance=Positive(1e-3),
        ),
        columns=("theta", "phi", "curvature", "area_normalized", "plaquette_edge", "flagged"),
    ),
    "usb-holonomy": Experiment(
        Section(
            model=Model("usb"),
            path=Path("circle", {}),
            ladder=List(Int(min=16), [512, 2048, 8192], knob=Knob("samples", lambda n: [n])),
            eta_samples=Int(2**14, min=256),
            distance_tolerance=Positive(1e-3),
            eta_tolerance=Positive(1e-6),
        ),
        columns=(
            "samples", "eta_dtheta_form", "eta_line_form", "distance_to_closed_form",
            "unitarity_defect", "eta_from_matrix",
        ),
    ),
    "adiabatic-sweep": Experiment(
        Section(
            model=Model("usb", "qubit"),
            # null: the model's first family, named in the echoed config
            path=Path(None, {}),
            Ts=List(Positive(), [50.0, 200.0, 800.0], min_len=3, ascending=True),
            steps_per_T=Optional(List(Int(min=16), length="Ts")),
            reference_samples=Int(8192, min=256, knob=Knob("samples")),
            # null: the window of the adiabatic order the model predicts
            slope_window=Optional(Interval()),
        ),
        columns=("ramp_time", "steps", "distance_to_wilson", "leakage"),
    ),
    "noise-study": Experiment(
        Section(
            model=Model("qubit"),
            path=Path("azimuthal", models.PATH_FAMILIES["qubit"]["azimuthal"][1].default),
            band=Int(0, min=0, max=1),
            samples=Int(2048, min=64, knob=Knob("samples")),
            noise=Section(
                amplitude_ladder=List(Number(lo=0.0, hi=0.2), [0.01, 0.02, 0.04]),
                realizations=Int(16, min=8),
                modes=Int(3, min=1),
                seed=Int(20240811, min=0, knob=Knob("seed")),
            ),
            slope_gate=Number(1.5),
        ),
        columns=(
            "amplitude", "mean_projected_shift", "std_projected_shift", "mean_raw_shift",
            "std_raw_shift", "discarded",
        ),
    ),
    "pancharatnam": Experiment(
        Section(
            states=States({"bloch": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
            tolerance=Positive(1e-6),
        ),
        columns=("states", "phase", "solid_angle", "half_area_cross_check", "abs_diff"),
    ),
}

EXPERIMENTS = tuple(REGISTRY)

# Log-log slope window of the sweep distance, per model. The qubit sweep
# converges at first order in 1/T. The four-level bright levels sit at +-R
# with identical couplings to the dark pair, so the first-order in-block
# term cancels and the distance falls off as T^-2.
PREDICTED_SLOPE_WINDOW = {"qubit": [-1.5, -0.5], "usb": [-2.5, -1.5]}


def validate(experiment: str, config: dict) -> None:
    """Check every declared field of a resolved config; ConfigError names
    the first bad one as config.<path>[i]. Values are not changed."""
    schema.check(REGISTRY[experiment].fields, config, "config", experiment, config)


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
    are echoed under "flag_overrides". The runner validates the result.
    """
    if experiment not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name '{experiment}' "
            f"(expected one of {', '.join(EXPERIMENTS)})"
        )
    user = dict(schema.as_object({} if user is None else user, "config"))
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
    fields = REGISTRY[experiment].fields
    merged = schema.merge(fields, copy.deepcopy(fields.default), user, "config")
    merged["experiment"] = experiment
    if hint is not None:
        schema.check(Int(min=8), hint, "config.path.samples", experiment, merged)
        _knob(experiment, "samples").set(merged, hint)
    flags = {k: n for k, n in (("seed", seed), ("samples", samples)) if n is not None}
    for flag, n in flags.items():
        _knob(experiment, flag).set(merged, n)
    if flags:
        merged["flag_overrides"] = flags
    return merged


def _knob(experiment: str, flag: str) -> Knob:
    knob = REGISTRY[experiment].knob(flag)
    if knob is None:
        users = [name for name, e in REGISTRY.items() if e.knob(flag) is not None]
        raise ConfigError(
            f"--{flag} does not apply to {experiment} (only to {', '.join(users)})"
        )
    return knob


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


_helper = linalg.helper_thread  # for the half of each ladder rung that a run reads second


# ---------------------------------------------------------------------------
# berry-qubit
# ---------------------------------------------------------------------------


def run_berry_qubit(config: dict) -> ExperimentReport:
    """Loop phase (abelian.band_loop_phase) vs the solid-angle oracle over a resolution ladder."""
    validate("berry-qubit", config)
    model, path = models.build_model_and_path(config)
    if config["reverse"]:
        path = models.reversed_path(path)
    if not path.closed:
        raise ConfigError("config.path: berry-qubit requires a closed loop")

    rows = []
    with _helper() as pool:
        # the oracle, -Omega/2 on band 0 and +Omega/2 on band 1, is evaluated on a
        # finer sampling than the chain so the row error reflects the chain's own
        # convergence, not a correlated discretization of the same grid
        grids = (models.PathSamples(path, max(4096, 4 * n)) for n in config["ladder"])
        omegas = [pool.submit(_fanned_solid_angle, grid) for grid in grids]
        for n, omega in zip(config["ladder"], omegas):
            phase = abelian.band_loop_phase(model, path, config["band"], n)
            oracle = (config["band"] - 0.5) * omega.result()
            rows.append((n, phase, oracle, abs(linalg.wrap_angle(phase - oracle))))

    report = _report("berry-qubit", rows, config)
    tol = float(config["tolerance"])
    final_err = rows[-1][3]
    report.add_check("final_resolution_error", final_err < tol, final_err, f"< {tol:g}")
    return report


def _fanned_solid_angle(grid) -> float:
    """solid_angle fanned from +z, or from -z where +z faces a vertex; else the +z error."""
    try:
        return abelian.solid_angle(grid)
    except DegenerateInputError as error:
        with contextlib.suppress(DegenerateInputError):
            return abelian.solid_angle(grid, reference=(0.0, 0.0, -1.0))
        raise error


# ---------------------------------------------------------------------------
# curvature-map
# ---------------------------------------------------------------------------


def run_curvature_map(config: dict) -> ExperimentReport:
    """Curvature samples over a (theta, phi) patch plus flux/boundary check."""
    validate("curvature-map", config)
    model = models.SphereQubitModel(config["radius"])
    band, grid, a = config["band"], config["grid"], float(config["plaquette_edge"])
    th_lo, th_hi = (float(x) for x in grid["theta"])
    ph_lo, ph_hi = (float(x) for x in grid["phi"])
    n_th, n_ph = grid["cells"]
    if a >= min(th_hi - th_lo, ph_hi - ph_lo):
        raise ConfigError(
            f"config.plaquette_edge: {a:g} must be below the grid's theta extent "
            f"{th_hi - th_lo:g} and phi extent {ph_hi - ph_lo:g}"
        )

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
            except DegenerateInputError:
                rows.append((float(th), float(ph), math.nan, math.nan, a, 1))
                continue
            cell_area = (math.cos(th) - math.cos(th + a)) * a
            normalized = sample.loop_phase / cell_area
            normalized_values.append(normalized)
            rows.append((float(th), float(ph), sample.value, normalized, a, 0))

    t_lo, t_hi = (float(x) for x in config["tiling"]["theta"])
    p_lo, p_hi = (float(x) for x in config["tiling"]["phi"])
    flux, boundary = abelian.plaquette_flux_and_boundary(
        model,
        band,
        origin=[t_lo, p_lo],
        plane=(0, 1),
        extents=(t_hi - t_lo, p_hi - p_lo),
        cells=tuple(config["tiling"]["cells"]),
    )

    report = _report("curvature-map", rows, config)
    tol = float(config["tolerance"])
    vals = np.array(normalized_values)
    mean_err = abs(float(np.mean(vals)) - (band - 0.5))  # -1/2 on band 0, +1/2 on band 1
    worst_err = float(np.max(np.abs(vals - (band - 0.5)))) if len(vals) else math.inf
    flux_err = abs(linalg.wrap_angle(flux - boundary))
    report.add_check("mean_curvature_error", mean_err < tol, mean_err, f"< {tol:g}")
    report.add_check("worst_cell_error", worst_err < tol, worst_err, f"< {tol:g}")
    report.add_check("flux_equals_boundary_phase", flux_err < 1e-10, flux_err, "< 1e-10")
    return report


# ---------------------------------------------------------------------------
# usb-holonomy
# ---------------------------------------------------------------------------


def run_usb_holonomy(config: dict) -> ExperimentReport:
    """Wilson line vs the closed-form rotation over a resolution ladder."""
    validate("usb-holonomy", config)
    _, path = models.build_model_and_path(config)
    rows, links = [], []
    with _helper() as pool:
        lines = [pool.submit(holonomy.usb_wilson_line, path, n) for n in config["ladder"]]
        eta_theta_ref, eta_line_ref = holonomy.usb_eta_pair(path, config["eta_samples"])
        b_ref = holonomy.usb_holonomy_closed_form(eta_theta_ref)
        for n, line in zip(config["ladder"], lines):
            e_theta, e_line = holonomy.usb_eta_pair(path, n)
            result = line.result()
            dist = holonomy.holonomy_distance(result.matrix, b_ref)
            rows.append((n, e_theta, e_line, dist, result.unitarity_defect, result.eta_estimate))
            links.append({"samples": n, "min_link_singular_value": result.min_link_singular_value})

    report = _report("usb-holonomy", rows, config)
    report.diagnostics = {"links": links}
    dist_tol = float(config["distance_tolerance"])
    eta_tol = float(config["eta_tolerance"])
    final_dist = rows[-1][3]
    eta_gap = abs(eta_theta_ref - eta_line_ref)
    report.add_check(
        "final_distance_to_closed_form", final_dist < dist_tol, final_dist, f"< {dist_tol:g}"
    )
    report.add_check("eta_quadrature_agreement", eta_gap < eta_tol, eta_gap, f"< {eta_tol:g}")
    worst_defect = max(r[4] for r in rows)
    report.add_check("wilson_unitarity_defect", worst_defect < 1e-8, worst_defect, "< 1e-8")
    return report


# ---------------------------------------------------------------------------
# adiabatic-sweep
# ---------------------------------------------------------------------------


def run_adiabatic_sweep(config: dict) -> ExperimentReport:
    """Exact-evolution vs Wilson-line distance across a ladder of ramp times."""
    validate("adiabatic-sweep", config)
    if config["path"]["family"] is None:
        config["path"]["family"] = next(iter(models.PATH_FAMILIES[config["model"]]))
    model, path = models.build_model_and_path(config)
    # the four-level sweep is based at the analytic dark pair, the qubit's at its own state
    block, frame0 = holonomy.BandBlock(0, 1), None
    if isinstance(model, models.UsbModel):
        block, frame0 = holonomy.USB_DARK_BLOCK, model.dark_frame_batch(path(np.array([0.0])))[0]
    if config["slope_window"] is None:
        config["slope_window"] = list(PREDICTED_SLOPE_WINDOW[config["model"]])
    lo, hi = (float(x) for x in config["slope_window"])

    sweep = adiabatic.convergence_sweep(
        model, path, block, [float(t) for t in config["Ts"]], steps_per_t=config["steps_per_T"],
        reference_samples=config["reference_samples"], initial_frame=frame0,
    )
    rows = [(r.total_time, r.steps, r.distance, r.leakage) for r in sweep.rows]
    report = _report("adiabatic-sweep", rows, config)
    report.diagnostics = {"integrator": [
        {"ramp_time": r.total_time, "steps": r.steps, "steps_integrated": r.steps_integrated,
         "norm_drift": r.norm_drift, "step_error_estimate": r.step_error_estimate,
         "under_resolved": not r.step_error_estimate <= adiabatic.STEP_TOL}
        for r in sweep.rows
    ]}
    dists = sweep.distances()
    leaks = sweep.leakages()
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    leak_mono = all(b < a for a, b in zip(leaks, leaks[1:]))
    report.add_check("distance_strictly_decreasing", decreasing, min(dists), "each T smaller")
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


def run_noise_study(config: dict) -> ExperimentReport:
    """Phase robustness under smooth loop deformations.

    Every chain holds the raw closed-form states of the configured band.
    Each realization draws a low-order Fourier deformation d(s); the raw
    perturbed loop is lambda + eps * scale * d, and the area-preserving
    variant first projects out the first-order change of the enclosed
    solid angle along a fixed polar-push direction. Mean |phase shift| of
    the projected loops must scale like eps^2 (log-log slope gate), while
    the raw shift is reported without a bound.
    """
    validate("noise-study", config)
    model, path = models.build_model_and_path(config)
    n, noise = config["samples"], config["noise"]
    modes, seed = int(noise["modes"]), int(noise["seed"])

    s = np.arange(n) / n
    base = path(s)
    scale = float(np.sqrt(np.mean(np.sum(base**2, axis=1))))

    def deformed_phase(points: np.ndarray) -> float:
        return abelian._loop_phase(models.qubit_band_states(points, config["band"]))[0]

    def area_rate(d: np.ndarray, h: float = 1e-4) -> float:
        area = abelian.solid_angle  # of the loop's directions, normalised there
        return (area(base + h * scale * d) - area(base - h * scale * d)) / (2.0 * h)

    # the undeformed loop through the model's sampler, which names s where a band is degenerate
    chi0 = abelian.band_loop_phase(model, path, config["band"], n)

    # fixed area-changing reference direction: uniform polar push
    theta_hat = _polar_push(base)
    d_area_ref = area_rate(theta_hat)
    if abs(d_area_ref) < 1e-9:
        raise ConfigError(
            "config.path: the loop's enclosed area is stationary under the polar "
            "push; the area-preserving projection is ill-defined for it"
        )

    def one_realization(index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        d = _fourier_deformation(rng, s, modes)
        return d, d - (area_rate(d) / d_area_ref) * theta_hat

    deformations = [one_realization(index) for index in range(noise["realizations"])]

    def mean_std(devs: list) -> tuple[float, float]:
        return (float(np.mean(devs)), float(np.std(devs))) if devs else (math.nan, math.nan)

    rows = []
    for eps in (float(e) for e in noise["amplitude_ladder"]):
        proj_devs, raw_devs = [], []
        for d, d_proj in deformations:
            try:
                chi_raw = deformed_phase(base + eps * scale * d)
                chi_proj = deformed_phase(base + eps * scale * d_proj)
            except DegenerateInputError:
                continue
            raw_devs.append(abs(linalg.wrap_angle(chi_raw - chi0)))
            proj_devs.append(abs(linalg.wrap_angle(chi_proj - chi0)))
        discarded = len(deformations) - len(raw_devs)
        rows.append((eps, *mean_std(proj_devs), *mean_std(raw_devs), discarded))

    report = _report("noise-study", rows, config)
    positive = [(r[0], r[1]) for r in rows if r[0] > 0.0]
    slope = math.nan
    if len(positive) >= 2 and all(m > 0.0 for _, m in positive):
        eps_values, proj_means = zip(*positive)
        slope = float(np.polyfit(np.log(eps_values), np.log(proj_means), 1)[0])
    gate = float(config["slope_gate"])
    report.add_check("projected_shift_loglog_slope", slope >= gate, slope, f">= {gate:g}")
    zero = next((r for r in rows if r[0] == 0.0), None)
    if zero is not None:
        report.add_check("zero_amplitude_zero_shift", zero[1] == zero[2] == 0.0, zero[1], "== 0")
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
    validate("pancharatnam", config)
    states = config["states"]
    if "bloch" in states:
        dirs = np.asarray(states["bloch"], dtype=float)
        chain = abelian.bloch_chain(dirs)
    else:
        amps = np.asarray(states["amplitudes"], dtype=float)
        chain = abelian.StateChain(amps[..., 0] + 1j * amps[..., 1], closed=True)
    # the phase first: an orthogonal pair is the contract error here, and it
    # must win over geometric complaints about the direction polygon
    phase = abelian.pancharatnam_phase(chain)
    if "amplitudes" in states:
        return _report("pancharatnam", [(len(chain), phase, math.nan, math.nan, math.nan)], config)

    # a vertex opposite the fan's reference is ambiguous; n vertices cannot face n + 1 points
    u = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    t = np.arange(len(u) + 1) * (2.0 * math.pi / (len(u) + 1))
    refs = [u[0], (0.0, 0.0, 1.0), *np.column_stack([np.cos(t), np.sin(t), 0.0 * t])]
    ref = next(r for r in refs if np.min(np.sum((u + r) ** 2, axis=1)) > 1e-16)
    omega = abelian.solid_angle(dirs, reference=ref)
    cross = -0.5 * omega
    diff = abs(linalg.wrap_angle(phase - cross))
    report = _report("pancharatnam", [(len(chain), phase, omega, cross, diff)], config)
    tol = float(config["tolerance"])
    report.add_check("phase_matches_half_area", diff < tol, diff, f"< {tol:g}")
    return report
