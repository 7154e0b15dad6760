"""Non-Abelian holonomy over degenerate eigenspaces.

Frames spanning a gapped eigenvalue block are sampled along a parameter
path in the model's gauge (block_frames), and their raw links are
multiplied pairwise into a discretized Wilson line: a change of gauge at
any frame but the basepoint cancels between neighbouring links. Tracked
frames are gauge-smoothed by the polar factors of the raw links (closed
form up to 2x2, see linalg.link_polar) and one log-depth prefix product
(transport). A scalar phase is the m = 1 case: the abelian module uses
the same sampler and transport. For the four-level model the result is
checked against the closed-form rotation B(eta) with eta = loop integral
of sin(phi) d theta.

Link/product conventions: W_k = R_k^dag R_{k+1}; the Wilson line is
W_0 W_1 ... W_{N-2} W_close with W_close = R_{N-1}^dag R_0, unitarized,
expressed in the basis of the initial frame R_0. An evolved frame G
compared as G^dag R_0 converges to this product in the adiabatic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    check_links,
    closed_gap,
    dagger,
    link_overlaps,
    link_polar,
    max_abs,
    nearest_unitary,
    ordered_product,
    prefix_products,
    unitarity_defect,
    wrap_angle,
)
from .models import (
    DARK_SINGULAR_TOL,
    BandBlock,
    DarkFrameSingularError,
    HamiltonianModel,
    ParameterPath,
    UsbModel,
    ZeroFieldError,
)

SUBSPACE_OVERLAP_TOL = 1e-6


class GapClosureError(ValueError):
    """The tracked cluster loses its spectral gap somewhere on the path."""

    def __init__(self, s: float, gap: float):
        self.s = s
        self.gap = gap
        super().__init__(
            f"eigenvalue cluster loses its gap at s = {s:.6f} (gap = {gap:.3e})"
        )


class IllConditionedLinkError(ValueError):
    """A link overlap matrix is nearly singular: the subspace jumped."""

    def __init__(self, index: int, sigma_min: float):
        self.index = index
        self.sigma_min = sigma_min
        super().__init__(
            f"link {index} overlap has smallest singular value {sigma_min:.3e} "
            f"<= {SUBSPACE_OVERLAP_TOL:.1e}; the tracked subspace is not continuous"
        )


USB_DARK_BLOCK = BandBlock(1, 3)


@dataclass
class FramePath:
    """Gauge-smoothed orthonormal frames along a sampled path.

    frames has shape (n_samples, dim, m); consecutive raw overlaps were
    well conditioned (min_link_singular_value) and each smoothed link
    F_k^dag F_{k+1} is Hermitian positive up to the geometry's torsion.
    For closed paths the last frame is NOT re-aligned to the first: that
    mismatch is the holonomy, which wilson_line takes from the raw links.
    """

    frames: np.ndarray
    min_link_singular_value: float

    @property
    def samples(self) -> int:
        return self.frames.shape[0]


@dataclass
class HolonomyResult:
    matrix: np.ndarray
    unitarity_defect: float
    samples: int
    min_link_singular_value: float
    eta_estimate: float | None = None


def block_frames(
    model: HamiltonianModel, lams, block: BandBlock, s_values=None, error=GapClosureError
) -> np.ndarray:
    """The block's frames (k, dim, m) at each point of lams, in the model's gauge.

    The block must stay gapped: where it is not, the caller's error(s, gap)
    is raised with s from s_values (None without them).
    """
    if block.stop > model.dim:
        raise ValueError(f"block [{block.start}, {block.stop}) out of range for dim {model.dim}")
    try:
        w, frames = model.band_states_batch(lams, block)
    except ZeroFieldError:  # n = 0 is a closed gap too: reported below, with its s
        w, frames = model.energies_batch(lams), None
    closure = closed_gap(w, block.start, block.stop)
    if closure is not None:
        k, gap = closure
        raise error(None if s_values is None else float(s_values[k]), gap)
    return frames


def transport(
    raw: np.ndarray, closed: bool, tol: float, error: type[Exception]
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed frames F_k = R_k G_k of an (n, dim, m) raw stack, and each raw
    link's smallest singular value; a link with one not above tol raises the
    caller's error(k, sigma), and closed paths add the wrap link. F_0 = R_0; the
    gauges G_k = P_{k-1}^dag ... P_0^dag come from the polar factors P_k of the
    raw links R_k^dag R_{k+1} by one log-depth prefix product (tracked frames only)."""
    polar, sigma = link_polar(link_overlaps(raw, closed))
    check_links(sigma, tol, error)
    # (P_0 ... P_{k-1})^dag for k = 1 .. n-1
    gauges = dagger(prefix_products(polar[: len(raw) - 1]))
    return np.concatenate([raw[:1], raw[1:] @ gauges]), sigma


def basepoint_frame(frame: np.ndarray, initial_frame=None) -> np.ndarray:
    """The basepoint frame a holonomy is reported in: the block's (dim, m)
    frame at the basepoint, or initial_frame (a 1-D state is one column) once
    its columns are checked orthonormal and to span the block there."""
    if initial_frame is None:
        return frame
    f0 = np.asarray(initial_frame, dtype=complex).reshape(frame.shape)
    if max_abs(dagger(f0) @ f0 - np.eye(f0.shape[1])) > 1e-10:
        raise ValueError("initial_frame columns are not orthonormal")
    residual = max_abs(f0 - frame @ (dagger(frame) @ f0))
    if residual > 1e-8:
        raise ValueError(
            "initial_frame does not span the requested eigenvalue block "
            f"(projection residual {residual:.3e})"
        )
    return f0


def _sample_frames(
    model: HamiltonianModel, path: ParameterPath, block: BandBlock, n_samples: int, initial_frame
) -> np.ndarray:
    """The block's raw frames R_k at the path's n_samples points, with R_0 the
    basepoint_frame; R_0 fixes the basis the holonomy is reported in."""
    if n_samples < 16:
        raise ValueError(f"need at least 16 samples, got {n_samples}")
    s_values = path.sample_s(n_samples)
    raw = block_frames(model, path(s_values), block, s_values)
    raw[0] = basepoint_frame(raw[0], initial_frame)
    return raw


def eigenframe_path(
    model: HamiltonianModel, path: ParameterPath, block: BandBlock, n_samples: int,
    initial_frame: np.ndarray | None = None,
) -> FramePath:
    """Track the block's eigenframe along the path with smoothed gauge.

    The model's raw frames R_k carry an arbitrary gauge; transport turns
    them into F_k = R_k G_k, so that neighbouring frames differ only by the
    geometry. An explicit initial_frame F_0 (e.g. the analytic dark pair)
    replaces R_0 and fixes the basis of the tracked frames.
    """
    raw = _sample_frames(model, path, block, n_samples, initial_frame)
    frames, sigma = transport(raw, path.closed, SUBSPACE_OVERLAP_TOL, IllConditionedLinkError)
    return FramePath(frames, min_link_singular_value=float(np.min(sigma)))


def wilson_line(
    model: HamiltonianModel, path: ParameterPath, block: BandBlock, n_samples: int,
    initial_frame: np.ndarray | None = None,
) -> HolonomyResult:
    """The block's Wilson line around a closed path, unitarized.

    Discretizes the path-ordered holonomy as nearest_unitary(W_0 W_1 ...
    W_close) over the raw links W_k = R_k^dag R_{k+1} of n_samples frames,
    multiplied pairwise, in the basis of R_0 = initial_frame (default: the
    model's frame at s = 0). Invariant under a change of gauge at every frame
    but the basepoint, so the frames are not smoothed. Converges to the
    continuum limit as the sampling is refined and reduces to e^{i chi} with
    the chain phase chi for one-dimensional blocks.
    """
    if not path.closed:
        raise ValueError("the Wilson line is defined for closed paths only")
    raw = _sample_frames(model, path, block, n_samples, initial_frame)
    links = link_overlaps(raw, closed=True)
    sigma = link_polar(links)[1]
    check_links(sigma, SUBSPACE_OVERLAP_TOL, IllConditionedLinkError)
    matrix = nearest_unitary(ordered_product(links))
    return HolonomyResult(matrix, unitarity_defect(matrix), len(links), float(np.min(sigma)))


# ---------------------------------------------------------------------------
# Four-level dark-space quantities
# ---------------------------------------------------------------------------


def _usb_samples(path: ParameterPath, n_samples: int) -> np.ndarray:
    lams = path.sample(n_samples, include_endpoint=True)
    hyp2 = lams[:, 0] ** 2 + lams[:, 1] ** 2
    bad = np.nonzero(hyp2 < DARK_SINGULAR_TOL**2)[0]
    if len(bad):
        s = bad[0] / n_samples
        raise DarkFrameSingularError(f"dark-frame angle singular at s = {s:.6f} (P = S = 0)")
    return lams


def usb_eta_pair(path: ParameterPath, n_samples: int = 2**14) -> tuple[float, float]:
    """The rotation angle eta by two independent quadratures.

    First form: trapezoidal integral of sin(phi) d theta with theta
    unwrapped along the path. Second form (closed loops): trapezoidal sum
    of the explicit line integrand Q (S dP - P dS) / ((P^2+S^2) R) with
    R = sqrt(P^2+S^2+Q^2). Both converge O(1/N^2) to the same value; their
    agreement is the internal consistency check for shipped loops.
    """
    lams = _usb_samples(path, n_samples)
    pp, ss, qq = lams[:, 0], lams[:, 1], lams[:, 2]
    hyp = np.hypot(pp, ss)
    theta = np.unwrap(np.arctan2(pp, ss))
    sin_phi = qq / np.hypot(hyp, qq)

    d_theta = np.diff(theta)
    eta_theta = float(np.sum(0.5 * (sin_phi[:-1] + sin_phi[1:]) * d_theta))

    r = np.hypot(hyp, qq)
    f = qq / (hyp**2 * r)
    fs, fp = f * ss, f * pp
    dp, ds = np.diff(pp), np.diff(ss)
    eta_line = float(
        np.sum(0.5 * (fs[:-1] + fs[1:]) * dp) - np.sum(0.5 * (fp[:-1] + fp[1:]) * ds)
    )
    return eta_theta, eta_line


def usb_eta(path: ParameterPath, n_samples: int = 2**14) -> float:
    """eta from the sin(phi) d theta quadrature (the primary form)."""
    return usb_eta_pair(path, n_samples)[0]


def usb_holonomy_closed_form(eta: float) -> np.ndarray:
    """Closed-form dark-space holonomy: rotation ((cos, sin), (-sin, cos))."""
    c, s = math.cos(eta), math.sin(eta)
    return np.array([[c, s], [-s, c]])


def usb_wilson_line(path: ParameterPath, n_samples: int) -> HolonomyResult:
    """Wilson line over the dark pair, based at the analytic dark frame.

    The initial frame is pinned to the analytic (Phi1, Phi2) at the loop
    basepoint so the result is directly comparable to the closed-form
    rotation; eta_estimate is read off the matrix as atan2(V01, V00).
    """
    model = UsbModel()
    f0 = model.dark_frame_batch(path(np.array([0.0])))[0]
    result = wilson_line(model, path, USB_DARK_BLOCK, n_samples, initial_frame=f0)
    result.eta_estimate = float(
        math.atan2(result.matrix[0, 1].real, result.matrix[0, 0].real)
    )
    return result


# ---------------------------------------------------------------------------
# Unitary comparison
# ---------------------------------------------------------------------------


def holonomy_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of the max-entry norm ||e^{i a} U - V||.

    Zero iff the two unitaries agree up to a global phase. The minimum is
    located by a coarse phase scan refined by golden-section search, with
    the Frobenius-optimal phase included as a candidate.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")

    def f(alpha: float) -> float:
        return max_abs(np.exp(1j * alpha) * u - v)

    grid = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
    values = np.abs(np.exp(1j * grid)[:, None, None] * u - v).max(axis=(1, 2))
    k = int(np.argmin(values))
    candidates = [(float(values[k]), grid[k])]
    trace = np.trace(dagger(u) @ v)
    if abs(trace) > 1e-14:
        alpha_f = float(np.angle(trace))
        candidates.append((f(alpha_f), alpha_f))
    best_val, best_alpha = min(candidates)

    span = grid[1] - grid[0]
    lo, hi = best_alpha - span, best_alpha + span
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(best_val, fc, fd)


def eigenangle_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between the eigenvalue multisets of two unitaries.

    Eigenangles are sorted on the circle and matched over cyclic shifts;
    invariant under basis conjugation of either argument.
    """
    au = np.sort(np.angle(np.linalg.eigvals(u)))
    av = np.sort(np.angle(np.linalg.eigvals(v)))
    if len(au) != len(av):
        raise ValueError("dimension mismatch")
    m = len(au)
    best = math.inf
    for shift in range(m):
        diffs = wrap_angle(au - np.roll(av, shift))
        best = min(best, float(np.max(np.abs(diffs))))
    return best
