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
    blocks,
    check_links,
    closed_gap,
    dagger,
    link_overlaps,
    link_polar,
    link_sigma_min,
    max_abs,
    nearest_unitary,
    ordered_product,
    prefix_products,
    unitarity_defect,
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
from .report import DegenerateInputError

SUBSPACE_OVERLAP_TOL = 1e-6


class GapClosureError(DegenerateInputError):
    """The tracked cluster loses its spectral gap somewhere on the path."""

    def __init__(self, s: float, gap: float):
        self.s = s
        self.gap = gap
        super().__init__(
            f"eigenvalue cluster loses its gap at s = {s:.6f} (gap = {gap:.3e})"
        )


class IllConditionedLinkError(DegenerateInputError):
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
        closure = closed_gap(w, block.start, block.stop)
    except ZeroFieldError:
        # degenerate levels close the block's gap: reported below, with its s;
        # a block that spans every level has no gap to report
        closure = closed_gap(model.energies_batch(lams), block.start, block.stop)
        if closure is None:
            raise
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
    f0 = f0 if np.any(f0.imag) else f0.real  # so that real frames stay float64
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
    f0 = basepoint_frame(raw[0], initial_frame)
    raw = raw.astype(np.result_type(raw, f0), copy=False)  # a complex basepoint promotes them
    raw[0] = f0
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

    Streamed per linalg.blocks of links: links [a, b) take block_frames of samples
    [a, b], frame n being R_0, and their products, multiplied pairwise, give the whole
    path's bit for bit. Each block's gap verdict is final, so the errors come in path
    order: a gap closure, then the basepoint check (held to the end), then a bad link.
    """
    if not path.closed:
        raise ValueError("the Wilson line is defined for closed paths only")
    if n_samples < 16:
        raise ValueError(f"need at least 16 samples, got {n_samples}")
    s_values = path.sample_s(n_samples)
    held, products, sigma = None, [], np.empty(n_samples)
    for part in blocks(n_samples):
        span = s_values[part.start : part.stop + 1]
        try:
            frames = block_frames(model, path(span), block, span)
        except ZeroFieldError:  # a block of every level has no gap: name the path's sample
            block_frames(model, path(s_values), block)
            raise
        if part.start == 0:
            try:
                frame0 = basepoint_frame(frames[0], initial_frame).copy()
            except ValueError as error:
                held, frame0 = error, frames[0]
            frames = frames.astype(np.result_type(frames, frame0), copy=False)
            frames[0] = frame0
        if part.stop == n_samples:  # the wrap link: frame n is R_0, in the frames' layout
            dtype = np.result_type(frames, frame0)
            ends = np.empty_like(frames, dtype, shape=(len(frames) + 1, *frames.shape[1:]))
            ends[:-1], ends[-1] = frames, frame0
            frames = ends
        links = link_overlaps(frames, closed=False)
        sigma[part] = link_sigma_min(links)
        products.append(ordered_product(links))
    if held is not None:
        raise held
    check_links(sigma, SUBSPACE_OVERLAP_TOL, IllConditionedLinkError)
    matrix = nearest_unitary(ordered_product(np.stack(products)))
    return HolonomyResult(matrix, unitarity_defect(matrix), n_samples, float(np.min(sigma)))


# ---------------------------------------------------------------------------
# Four-level dark-space quantities
# ---------------------------------------------------------------------------


def usb_eta_pair(path: ParameterPath, n_samples: int = 2**14) -> tuple[float, float]:
    """The rotation angle eta by two independent quadratures.

    First form: trapezoidal integral of sin(phi) d theta, each d theta the angle
    that (S, P) turns through between neighbouring samples, as arctan2 of their
    cross and dot products (unwrapped theta's increment wherever |d theta| < pi). Second form
    (closed loops): trapezoidal sum of the explicit line integrand
    Q (S dP - P dS) / ((P^2+S^2) R) with R = sqrt(P^2+S^2+Q^2). Both converge
    O(1/N^2) to the same value; their agreement is the internal consistency check
    for shipped loops. Sums of squares, not hypot: PARAM_BOUND keeps every product
    finite, and the P = S = 0 screen every denominator nonzero.
    """
    lams = path.sample(n_samples, include_endpoint=True)
    pp, ss, qq = lams[:, 0], lams[:, 1], lams[:, 2]
    hyp2 = pp * pp + ss * ss
    bad = np.nonzero(hyp2 < DARK_SINGULAR_TOL**2)[0]
    if len(bad):
        s = bad[0] / n_samples
        raise DarkFrameSingularError(f"dark-frame angle singular at s = {s:.6f} (P = S = 0)")
    r = np.sqrt(hyp2 + qq * qq)
    sin_phi = qq / r

    p0, p1, s0, s1 = pp[:-1], pp[1:], ss[:-1], ss[1:]
    d_theta = np.arctan2(s0 * p1 - p0 * s1, s0 * s1 + p0 * p1)
    eta_theta = float(np.sum(0.5 * (sin_phi[:-1] + sin_phi[1:]) * d_theta))

    f = qq / (hyp2 * r)
    fs, fp = f * ss, f * pp
    dp, ds = p1 - p0, s1 - s0
    eta_line = float(
        np.sum(0.5 * (fs[:-1] + fs[1:]) * dp) - np.sum(0.5 * (fp[:-1] + fp[1:]) * ds)
    )
    return eta_theta, eta_line


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

    Zero iff the two unitaries agree up to a global phase. Each entry's
    |e^{i a} u_k - v_k| has one minimum per period, so the minimum of their
    maximum lies at one entry's own minimum or where two entries cross; the
    least maximum over those finitely many phases is the exact minimum.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    # phases b count from the Frobenius phase a0: with w = e^{i a0} u, the form
    # |e^{ib} w_k - v_k|^2 = p_k + q_k (cos b - 1) + s_k sin b does not cancel as U nears V
    a0 = float(np.angle(np.vdot(u, v)))
    w, vk = np.exp(1j * a0) * u.ravel(), v.ravel()
    c = vk.conj() * w
    p, q, s = np.abs(w - vk) ** 2, -2.0 * c.real, 2.0 * c.imag
    # entries j and k cross at the roots t = tan(b/2) of e2 t^2 + e1 t + e0, taken
    # without cancellation; b = 2 atan2 needs no division, and a spare root costs nothing
    j, k = np.triu_indices(len(w), 1)
    e0 = p[j] - p[k]
    e1, e2 = 2.0 * (s[j] - s[k]), e0 - 2.0 * (q[j] - q[k])
    root = -0.5 * (e1 + np.copysign(np.sqrt(np.maximum(e1 * e1 - 4.0 * e2 * e0, 0.0)), e1))
    b = np.concatenate(([0.0], -np.angle(c), 2.0 * np.arctan2(root, e2), 2.0 * np.arctan2(e0, root)))
    return float(np.abs(np.exp(1j * (a0 + b))[:, None] * u.ravel() - vk).max(axis=1).min())
