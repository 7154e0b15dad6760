"""Direct time-dependent Schrodinger integration along parameter paths.

The exact dynamics against which the geometric predictions are tested:
the fourth-order commutator-free scheme CF4:2 (Alvermann & Fehske, J.
Comput. Phys. 230, 5930 (2011)) with step-doubling error control. Its
exponentials are unitary by construction, so leakage measures physics
rather than solver drift. hbar = 1, couplings are dimensionless, total
times T are in inverse coupling units, and the schedule is s(t) = t/T.

The gap rule and the basepoint frame are the holonomy layer's
(linalg.closed_gap, holonomy.basepoint_frame), so a run and the Wilson
line it is compared with reject the same loops and frames.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    angle_distance, closed_gap, dagger, helper_thread, max_abs, nearest_unitary,
)
from .holonomy import (
    BandBlock, GapClosureError, HolonomyResult, basepoint_frame, block_frames, holonomy_distance,
    wilson_line,
)
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
        if not 0.0 < self.total_time < math.inf:
            raise ValueError("total_time must be positive and finite")
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
    steps_integrated: int  # over every CF4 run, step doubling's included
    dynamical_phase: float | None = None
    leakage: float | None = None
    overlap_matrix: np.ndarray | None = None  # dynamical phase stripped
    overlap_matrix_raw: np.ndarray | None = None
    distance: float | None = None  # to the Wilson line, set by convergence_sweep


def _cf4(run: AdiabaticRun, steps: int) -> np.ndarray:
    """The initial frame after `steps` CF4:2 steps over [0, T].

    A chunk's exponentials come from the model as increments U - I
    (HamiltonianModel.propagator_increments: closed form for the shipped
    models, dense otherwise), stack-last and latest first, and are
    multiplied in log depth (HamiltonianModel.chunk_increment) before they
    act on the state, so no step rounds 1 + O(dt^2) and the norm drift stays
    at a few eps per chunk. UsbModel's are real in the basis D = diag(1, i, 1, 1)
    (see its chunk_increment), so their product is taken in float64.
    """
    dt = run.total_time / steps
    state = run.initial_state.copy()
    for start in range(0, steps, _CHUNK // 2):
        k = np.arange(start, min(start + _CHUNK // 2, steps))
        # per step, the Gauss-node pair (H1, H2), weighted by W[0] then W[1]
        lams = run.path(((k[:, None] + _NODES) / steps).ravel()).reshape(len(k), 2, -1)
        state = state + run.model.chunk_increment(lams, _WEIGHTS, dt) @ state
    return state


def evolve_schrodinger(run: AdiabaticRun) -> AdiabaticResult:
    """Integrate i d|psi>/dt = H(lambda(t/T)) |psi> with the CF4:2 scheme.

    The error of the returned frame psi_N is estimated by step doubling
    as max |psi_N - psi_{N//2}| / 15 (the scheme is fourth order). With
    run.steps = None, N doubles from 2 * 64 until that estimate is at most
    STEP_TOL, is not finite, or N reaches 2^20; an explicit run.steps is N
    itself. The run warns unless the returned estimate is at most STEP_TOL.
    """
    steps = 2 * _FIRST_STEPS if run.steps is None else run.steps
    coarse, integrated = _cf4(run, steps // 2), steps // 2
    while True:
        state, integrated = _cf4(run, steps), integrated + steps
        error = max_abs(state - coarse) / 15.0
        if run.steps is not None or not STEP_TOL < error < math.inf or steps >= _MAX_STEPS:
            break
        coarse, steps = state, 2 * steps

    if not error <= STEP_TOL:
        warnings.warn(
            f"integration may be under-resolved: step-doubling error estimate {error:.2e} at "
            f"{steps} steps is not at most {STEP_TOL:.0e}; increase steps", RuntimeWarning,
            stacklevel=2,
        )
    initial_norms = np.linalg.norm(run.initial_state, axis=0)
    drift = float(np.max(np.abs(np.linalg.norm(state, axis=0) - initial_norms)))
    return AdiabaticResult(
        final_states=state, total_time=run.total_time, steps=steps, norm_drift=drift,
        step_error_estimate=error, steps_integrated=integrated,
    )


def dynamical_phase(
    model: HamiltonianModel,
    path: ParameterPath,
    total_time: float,
    block: BandBlock,
    n_samples: int = 4096,
) -> float:
    """delta = -integral of the block's energy over [0, T], by quadrature.

    A degenerate cluster is one block, whose levels share the model's energy
    (closed form where provided: an identically-zero band yields exactly 0.0).
    Where the block's gap closes on the path (linalg.closed_gap), GapClosureError names s.
    """
    s = path.sample_s(n_samples, include_endpoint=True)
    w = model.energies_batch(path(s))
    closure = closed_gap(w, block.start, block.stop)
    if closure is not None:
        raise GapClosureError(float(s[closure[0]]), closure[1])
    return float(-total_time * _trapezoid(w[:, block.start], s))


def adiabatic_holonomy(
    model: HamiltonianModel,
    loop: ParameterPath,
    total_time: float,
    block: BandBlock,
    steps: int | None,
    initial_frame: np.ndarray | None = None,
) -> AdiabaticResult:
    """Evolve the block's basepoint frame around a closed loop and project back.

    The frame is holonomy.basepoint_frame (initial_frame, checked as wilson_line
    checks it, or the model's frame at s = 0). The overlap matrix is (evolved
    frame)^dag (initial frame) with the block's independently quadratured
    dynamical phase stripped as a scalar factor e^{i delta}; as T grows its
    unitarization converges to the Wilson line of the same loop. Leakage is
    the mean squared weight outside the block's eigenspace at the basepoint.
    """
    if not loop.closed:
        raise ValueError("adiabatic holonomy is defined for closed loops")
    # instantaneous eigenspace at the basepoint = target space for a loop
    target = block_frames(model, loop(np.array([0.0])), block, [0.0])[0]
    frame0 = basepoint_frame(target, initial_frame)
    result = evolve_schrodinger(AdiabaticRun(model, loop, total_time, steps, frame0))
    evolved = result.final_states

    delta = dynamical_phase(model, loop, total_time, block)
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
class SweepResult:
    """The runs in T order, each with its distance to the reference Wilson
    line set, that reference, and the log-log slope of distance versus T."""

    rows: list[AdiabaticResult]
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

    Rows are the adiabatic_holonomy runs with their distance set: for
    one-dimensional blocks the wrapped phase error (the global-phase-quotient
    metric is identically zero there), for larger blocks holonomy_distance of
    the unitarized overlap matrix. The last ramp runs on linalg.helper_thread while
    this thread takes the reference and the rest; read in T order, errors come as with one.
    """
    if len(total_times) < 3:
        raise ValueError("need at least 3 T values")
    if sorted(total_times) != list(total_times):
        raise ValueError("T values must be ascending")
    if steps_per_t is None:
        steps_per_t = [None] * len(total_times)
    if len(steps_per_t) != len(total_times):
        raise ValueError("steps_per_t must match total_times")

    ramps = [functools.partial(adiabatic_holonomy, model, loop, t, block, steps, initial_frame)
             for t, steps in zip(total_times, steps_per_t)]
    with helper_thread() as pool:
        ramps[-1] = pool.submit(ramps[-1]).result  # the longest ramp
        reference = wilson_line(model, loop, block, reference_samples, initial_frame)
        reference_phase = np.angle(reference.matrix[0, 0])
        rows = []
        for ramp in ramps:
            res = ramp()
            measured = nearest_unitary(res.overlap_matrix)
            if block.size == 1:
                res.distance = angle_distance(np.angle(measured[0, 0]), reference_phase)
            else:
                res.distance = holonomy_distance(measured, reference.matrix)
            rows.append(res)

    logs_t = np.log(np.array(total_times))
    logs_d = np.log(np.maximum([r.distance for r in rows], 1e-300))
    slope = float(np.polyfit(logs_t, logs_d, 1)[0])
    return SweepResult(rows=rows, reference=reference, slope=slope)
