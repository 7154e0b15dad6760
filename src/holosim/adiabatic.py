"""Direct time-dependent Schrodinger integration along parameter paths.

The exact dynamics against which the geometric predictions are tested:
the fourth-order commutator-free scheme CF4:2 (Alvermann & Fehske, J.
Comput. Phys. 230, 5930 (2011)) with step-doubling error control. Its
exponentials are unitary by construction, so leakage measures physics
rather than solver drift. hbar = 1, couplings are dimensionless, total
times T are in inverse coupling units, and the schedule is s(t) = t/T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    angle_distance, dagger, max_abs, nearest_unitary, near_identity_product, propagator_increments,
)
from .holonomy import BandBlock, HolonomyResult, block_frames, holonomy_distance, wilson_line
from .models import HamiltonianModel, ParameterPath

_CHUNK = 8192  # exponentials per chunk (two per step); bounds its memory
_FIRST_STEPS, _MAX_STEPS = 64, 2**20  # step doubling's first and last N
STEP_TOL = 1e-9  # largest accepted step-doubling error estimate; above it, warn

# CF4:2: Gauss nodes c = 1/2 -+ sqrt(3)/6 of a step, and the weights of
# (H1, H2) in the first- and second-applied exponents. Swapping the rows
# leaves a second-order scheme.
_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 6.0

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


@dataclass
class AdiabaticRun:
    """One integration: model, path, total time, step count (None: chosen
    by step doubling) and initial state, a dim-vector or a (dim, m) frame
    whose columns are evolved together.
    """

    model: HamiltonianModel
    path: ParameterPath
    total_time: float
    steps: int | None
    initial_state: np.ndarray

    def __post_init__(self):
        if self.total_time <= 0.0:
            raise ValueError("total_time must be positive")
        if self.steps is not None and self.steps < 16:
            raise ValueError("need at least 16 integration steps")
        state = np.asarray(self.initial_state, dtype=complex)
        if state.ndim == 1:
            state = state[:, None]
        if state.shape[0] != self.model.dim:
            raise ValueError(
                f"state dimension {state.shape[0]} does not match model dim "
                f"{self.model.dim}"
            )
        self.initial_state = state


@dataclass
class AdiabaticResult:
    final_states: np.ndarray  # (dim, m)
    total_time: float
    steps: int
    norm_drift: float
    step_error_estimate: float
    dynamical_phase: float | None = None
    leakage: float | None = None
    overlap_matrix: np.ndarray | None = None  # dynamical phase stripped
    overlap_matrix_raw: np.ndarray | None = None

    def final_state(self) -> np.ndarray:
        """The evolved state for single-column runs."""
        if self.final_states.shape[1] != 1:
            raise ValueError("run evolved a frame; use final_states")
        return self.final_states[:, 0]


def _cf4(run: AdiabaticRun, steps: int) -> np.ndarray:
    """The initial frame after `steps` CF4:2 steps over [0, T].

    A chunk's exponentials are kept as increments U - I (closed form for
    the shipped models: a real combination of two traceless 2x2 matrices,
    or of two zero-hub stars, keeps the {-R, 0, +R} spectrum) and
    multiplied in log depth before they act on the state, so no step
    rounds 1 + O(dt^2) and the norm drift stays at a few eps per chunk.
    """
    dt = run.total_time / steps
    dim = run.model.dim
    state = run.initial_state.copy()
    for start in range(0, steps, _CHUNK // 2):
        k = np.arange(start, min(start + _CHUNK // 2, steps))
        s = ((k[:, None] + _NODES) / steps).ravel()
        hs = run.model.evaluate_batch(run.path(s)).reshape(len(k), 2, dim * dim)
        # exponents in time order, W[0] . (H1, H2) then W[1] . (H1, H2) per
        # step; later exponentials act from the left
        exponents = (_WEIGHTS @ hs).reshape(-1, dim, dim)
        chunk = near_identity_product(propagator_increments(exponents, dt)[::-1])
        state = state + chunk @ state
    return state


def evolve_schrodinger(run: AdiabaticRun) -> AdiabaticResult:
    """Integrate i d|psi>/dt = H(lambda(t/T)) |psi> with the CF4:2 scheme.

    The error of the returned frame psi_N is estimated by step doubling
    as max |psi_N - psi_{N//2}| / 15 (the scheme is fourth order). With
    run.steps = None, N doubles from 2 * 64 until that estimate is at most
    STEP_TOL, or N reaches 2^20; an explicit run.steps is N itself. The
    run warns when the returned estimate exceeds STEP_TOL.
    """
    steps = 2 * _FIRST_STEPS if run.steps is None else run.steps
    coarse = _cf4(run, steps // 2)
    while True:
        state = _cf4(run, steps)
        error = max_abs(state - coarse) / 15.0
        if run.steps is not None or error <= STEP_TOL or steps >= _MAX_STEPS:
            break
        coarse, steps = state, 2 * steps

    if error > STEP_TOL:
        warnings.warn(
            f"integration may be under-resolved: step-doubling error estimate {error:.2e} at "
            f"{steps} steps exceeds {STEP_TOL:.0e}; increase steps", RuntimeWarning, stacklevel=2,
        )
    initial_norms = np.linalg.norm(run.initial_state, axis=0)
    drift = float(np.max(np.abs(np.linalg.norm(state, axis=0) - initial_norms)))
    return AdiabaticResult(
        final_states=state, total_time=run.total_time, steps=steps, norm_drift=drift,
        step_error_estimate=error,
    )


def dynamical_phase(
    model: HamiltonianModel,
    path: ParameterPath,
    total_time: float,
    band: int,
    n_samples: int = 4096,
) -> float:
    """delta = -integral of the band energy over [0, T], by quadrature.

    Uses the model's band energies (closed-form where the model provides
    them, so an identically-zero band yields exactly 0.0). The band must
    stay gapped along the path.
    """
    s = np.linspace(0.0, 1.0, n_samples + 1)
    w = model.energies_batch(path(s))
    scale = max(1.0, float(np.max(np.abs(w))))
    tol = 1e-9 * scale
    for neighbor in (band - 1, band + 1):
        if not 0 <= neighbor < w.shape[1]:
            continue
        gap = np.abs(w[:, band] - w[:, neighbor])
        # A persistently degenerate neighbor shares the band energy and is
        # harmless; a gap that closes somewhere but is open elsewhere is a
        # genuine crossing where the sorted branch loses its identity.
        if np.min(gap) <= tol and np.max(gap) > 10.0 * tol:
            k = int(np.argmin(gap))
            raise ValueError(
                f"band {band} crosses band {neighbor} at s = {s[k]:.6f}; the "
                "dynamical phase of a single sorted branch is undefined there"
            )
    eps = w[:, band]
    return float(-total_time * _trapezoid(eps, s))


def adiabatic_holonomy(
    model: HamiltonianModel,
    loop: ParameterPath,
    total_time: float,
    block: BandBlock,
    steps: int | None,
    initial_frame: np.ndarray | None = None,
) -> AdiabaticResult:
    """Evolve an initial eigenframe around a closed loop and project back.

    The overlap matrix is (evolved frame)^dag (initial frame) with the
    independently quadratured dynamical phase stripped as a scalar factor
    e^{i delta}; as T grows its unitarization converges to the Wilson line
    of the same loop. Leakage is the mean squared weight outside the
    target eigenspace at the basepoint.
    """
    if not loop.closed:
        raise ValueError("adiabatic holonomy is defined for closed loops")
    # instantaneous eigenspace at the basepoint = target space for a loop
    target = block_frames(model, loop(np.array([0.0])), block, [0.0])[0]
    if initial_frame is None:
        frame0 = target
    else:
        frame0 = np.asarray(initial_frame, dtype=complex)
        if frame0.ndim == 1:
            frame0 = frame0[:, None]
    run = AdiabaticRun(
        model=model,
        path=loop,
        total_time=total_time,
        steps=steps,
        initial_state=frame0,
    )
    result = evolve_schrodinger(run)
    evolved = result.final_states

    delta = dynamical_phase(model, loop, total_time, band=block.start)
    raw = dagger(evolved) @ frame0
    stripped = np.exp(1j * delta) * raw

    weights = np.linalg.norm(dagger(target) @ evolved, axis=0) ** 2
    leakage = float(np.mean(1.0 - np.clip(weights, 0.0, 1.0)))

    result.dynamical_phase = delta
    result.leakage = leakage
    result.overlap_matrix = stripped
    result.overlap_matrix_raw = raw
    return result


@dataclass
class SweepRow:
    total_time: float
    steps: int
    distance: float
    leakage: float
    norm_drift: float
    step_error_estimate: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    reference: HolonomyResult
    slope: float

    def distances(self) -> list[float]:
        return [r.distance for r in self.rows]

    def leakages(self) -> list[float]:
        return [r.leakage for r in self.rows]


def convergence_sweep(
    model: HamiltonianModel,
    loop: ParameterPath,
    block: BandBlock,
    total_times: list[float],
    steps_per_t: list[int] | None = None,
    reference_samples: int = 8192,
    initial_frame: np.ndarray | None = None,
) -> SweepResult:
    """Distance between exact evolution and the Wilson line versus T, both
    based at initial_frame (default: the model's frame at s = 0).

    Rows are (T, distance, leakage); for one-dimensional blocks the
    distance column is the wrapped phase error (the global-phase-quotient
    metric is identically zero there), for larger blocks it is
    holonomy_distance of the unitarized overlap matrix.
    """
    if len(total_times) < 3:
        raise ValueError("need at least 3 T values")
    if sorted(total_times) != list(total_times):
        raise ValueError("T values must be ascending")
    if steps_per_t is None:
        steps_per_t = [None] * len(total_times)
    if len(steps_per_t) != len(total_times):
        raise ValueError("steps_per_t must match total_times")

    frame0 = initial_frame
    if frame0 is None:
        frame0 = block_frames(model, loop(np.array([0.0])), block, [0.0])[0]
    reference = wilson_line(model, loop, block, reference_samples, initial_frame=frame0)

    rows = []
    for t, steps in zip(total_times, steps_per_t):
        res = adiabatic_holonomy(
            model, loop, t, block, steps, initial_frame=frame0
        )
        measured = nearest_unitary(res.overlap_matrix)
        if block.size == 1:
            dist = angle_distance(np.angle(measured[0, 0]), np.angle(reference.matrix[0, 0]))
        else:
            dist = holonomy_distance(measured, reference.matrix)
        rows.append(
            SweepRow(
                total_time=t,
                steps=res.steps,
                distance=dist,
                leakage=res.leakage,
                norm_drift=res.norm_drift,
                step_error_estimate=res.step_error_estimate,
            )
        )

    logs_t = np.log(np.array(total_times))
    logs_d = np.log(np.maximum([r.distance for r in rows], 1e-300))
    slope = float(np.polyfit(logs_t, logs_d, 1)[0])
    return SweepResult(rows=rows, reference=reference, slope=slope)
