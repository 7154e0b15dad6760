"""Scalar geometric phases: cyclic overlap invariants, parallel transport,
connection/curvature estimators, and the solid-angle oracle.

A band is the one-dimensional block of the holonomy module: its states
come from holonomy.block_frames and parallel_transport is
holonomy.transport on 1-D frames.

Sign convention (fixed once, everywhere): loop phases are reported as
arg prod_k <psi_k|psi_{k+1}> with the chain ordered in increasing s and
the wrap pair included. Under this convention the qubit *lower* band
acquires -Omega/2 (mod 2 pi) on a counterclockwise-from-+z loop and the *upper*
band +Omega/2, where Omega is the signed solid angle from solid_angle below. The
connection A_i = i <psi|d_i psi> keeps its textbook sign, so its loop integral
equals the *negative* of the chain phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holonomy import block_frames, transport
from .linalg import blocks, check_links, gauge_fix, link_overlaps, wrap_angle
from .models import BandBlock, HamiltonianModel, ParameterPath, PathSamples, qubit_band_states
from .report import DegenerateInputError
from .schema import PARAM_BOUND

OVERLAP_TOL = 1e-8
ANTIPODAL_TOL = 1e-12
ANTIPODE_SCREEN = -0.999  # solid_angle's screen on v_k . v_{k+1} and r . v_k


class OverlapTooSmallError(DegenerateInputError):
    """A consecutive pair of chain states is (numerically) orthogonal."""

    def __init__(self, index: int, overlap: float, successor: int | None = None):
        self.index = index
        self.overlap = overlap
        successor = index + 1 if successor is None else successor
        super().__init__(
            f"consecutive states ({index}, {successor}) have |overlap| = "
            f"{overlap:.3e} <= {OVERLAP_TOL:.1e}; the phase is undefined there"
        )


class DegenerateBandError(DegenerateInputError):
    """Band degenerate at the requested point; scalar-phase machinery
    does not apply — use the holonomy module's frame tracking instead."""


@dataclass
class StateChain:
    """Ordered unit-norm states of equal dimension.

    pancharatnam_phase closes the chain with the wrap pair (last, first); the
    first state is *not* repeated at the end.
    """

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2:
            raise ValueError(f"expected (n, dim) state stack, got shape {states.shape}")
        norms = np.linalg.norm(states, axis=1)
        if np.any(zero := norms < 1e-12):
            raise DegenerateInputError(f"chain contains a zero state at index {np.argmax(zero)}")
        self.states = states / norms[:, None]

    def __len__(self) -> int:
        return self.states.shape[0]

    def reversed(self) -> "StateChain":
        return StateChain(self.states[::-1].copy())


@dataclass
class CurvatureSample:
    point: np.ndarray
    plane: tuple[int, int]
    value: float  # loop phase / a^2, i.e. F_ij in parameter units^-2
    plaquette_size: float
    loop_phase: float


def _loop_phase(states: np.ndarray) -> tuple[float, np.ndarray]:
    """arg prod_k <psi_k|psi_{k+1}> over the cyclic chain of an (n, dim)
    state stack, and the checked |overlap| of each link."""
    overlaps = link_overlaps(states[..., None], closed=True)[..., 0, 0]
    magnitudes = np.abs(overlaps)
    n = len(states)
    check_links(magnitudes, OVERLAP_TOL, lambda k, o: OverlapTooSmallError(k, o, (k + 1) % n))
    return float(np.angle(np.prod(overlaps))), magnitudes


def pancharatnam_phase(chain: StateChain) -> float:
    """arg of the cyclic product of consecutive overlaps, wrap pair included.

    For three states this is the elementary three-vertex invariant
    arg <1|2><2|3><3|1>; chains of n > 3 states use the standard n-vertex
    cyclic extension. Exactly invariant under per-state phase changes
    (every redefinition cancels inside the product); for a chain sampled
    along a loop it converges to the continuum loop phase under refinement,
    and orientation reversal negates it (mod 2 pi).
    """
    if len(chain) < 3:
        raise ValueError(f"need at least 3 states, got {len(chain)}")
    return _loop_phase(chain.states)[0]


def parallel_transport(chain: StateChain) -> StateChain:
    """Rephase states so every consecutive overlap is real positive.

    The 1-D case of holonomy.transport. The first state is untouched and
    each state keeps its ray. The wrap overlap of the output carries the
    whole loop phase: arg <out[-1]|out[0]> equals pancharatnam_phase of the
    input.
    """
    out, _ = transport(chain.states[..., None], False, OVERLAP_TOL, OverlapTooSmallError)
    return StateChain(out[..., 0])


def band_loop_phase(model: HamiltonianModel, path: ParameterPath, band: int, n: int) -> float:
    """Loop phase of one gapped band around a closed path, sampled at s = k/n: the cyclic
    product of the raw band states' links, which is gauge invariant, so no gauge is fixed.
    A sample where the band is degenerate raises DegenerateBandError naming its s."""
    if not path.closed or n < 3:
        raise ValueError(f"need a closed path and at least 3 samples, got n = {n}")
    s = path.sample_s(n)
    return _loop_phase(_band_states(model, path(s), band, s))[0]


def _band_states(model: HamiltonianModel, lams, band: int, s_values=None) -> np.ndarray:
    """States (k, dim) of one band at each point of lams; the band must stay gapped."""
    def degenerate(s, gap):
        where = f" at s = {s:.6f}" if s is not None else ""
        return DegenerateBandError(
            f"band {band} degenerate{where} (gap = {gap:.3e}); treat the "
            "cluster as a frame with holonomy.wilson_line"
        )

    return block_frames(model, lams, BandBlock(band, band + 1), s_values, degenerate)[..., 0]


def berry_connection_fd(
    model: HamiltonianModel,
    band: int,
    lam,
    direction: int,
    h: float = 1e-5,
) -> float:
    """Central-difference estimate of A_i = i <psi | d_i psi>.

    Evaluated in the gauge of linalg.gauge_fix (largest component real
    positive), and gauge dependent by nature: only closed-loop integrals of
    A are physical. The loop integral of A equals the negative of the loop
    phase from band_loop_phase.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    lam = np.asarray(lam, dtype=float).ravel()
    step = np.zeros_like(lam)
    step[direction] = h
    points = np.stack([lam, lam + step, lam - step])
    psi0, psi_plus, psi_minus = gauge_fix(_band_states(model, points, band))
    derivative = (psi_plus - psi_minus) / (2.0 * h)
    return float(np.real(1j * np.vdot(psi0, derivative)))


def berry_curvature_plaquette(
    model: HamiltonianModel,
    band: int,
    lam,
    plane: tuple[int, int],
    a: float,
) -> CurvatureSample:
    """Gauge-invariant curvature from the 4-corner overlap product.

    The square plaquette with edge a in the (i, j) plane is traversed
    i-first (lam -> +a e_i -> +a e_i + a e_j -> +a e_j -> lam); value is
    the loop phase divided by a^2 and converges to F_ij as a -> 0.
    Antisymmetric under plane swap by construction.
    """
    if a <= 0.0:
        raise ValueError("plaquette edge must be positive")
    i, j = plane
    lam = np.asarray(lam, dtype=float).ravel()
    ei = np.zeros_like(lam)
    ej = np.zeros_like(lam)
    ei[i] = a
    ej[j] = a
    corners = np.stack([lam, lam + ei, lam + ei + ej, lam + ej])
    loop_phase = _loop_phase(_band_states(model, corners, band))[0]
    return CurvatureSample(
        point=lam,
        plane=(i, j),
        value=loop_phase / a**2,
        plaquette_size=a,
        loop_phase=loop_phase,
    )


def plaquette_flux_and_boundary(
    model: HamiltonianModel,
    band: int,
    origin,
    plane: tuple[int, int],
    extents: tuple[float, float],
    cells: tuple[int, int],
) -> tuple[float, float]:
    """Tile a rectangular patch with plaquettes; return (flux sum, boundary phase).

    All plaquettes and the boundary chain share one eigenvector grid, so
    interior links cancel exactly in the product and the two numbers agree
    mod 2 pi up to rounding.
    """
    i, j = plane
    ni, nj = cells
    li, lj = extents
    origin = np.asarray(origin, dtype=float).ravel()
    grid = np.tile(origin, (ni + 1, nj + 1, 1))
    ii, jj = np.meshgrid(np.arange(ni + 1), np.arange(nj + 1), indexing="ij")
    grid[..., i] += ii * (li / ni)
    grid[..., j] += jj * (lj / nj)
    states = _band_states(model, grid.reshape(-1, len(origin)), band)
    states = states.reshape(ni + 1, nj + 1, -1, 1)
    # u_i[p, q] = <p, q|p + 1, q> and u_j[p, q] = <p, q|p, q + 1>
    u_i = link_overlaps(states, closed=False)[..., 0, 0]
    u_j = link_overlaps(states.swapaxes(0, 1), closed=False)[..., 0, 0].T
    # an error names the link's vertices, row-major: u_i's k-th link joins
    # k and k + nj + 1, u_j's joins v = k + k // nj and v + 1
    check_links(abs(u_i).ravel(), OVERLAP_TOL, lambda k, o: OverlapTooSmallError(k, o, k + nj + 1))
    check_links(abs(u_j).ravel(), OVERLAP_TOL, lambda k, o: OverlapTooSmallError(k + k // nj, o))

    plaq = u_i[:, :-1] * u_j[1:] * np.conjugate(u_i[:, 1:]) * np.conjugate(u_j[:-1])
    flux = float(np.sum(np.angle(plaq)))
    # the boundary, counterclockwise from the origin
    sides = [u_i[:, 0], u_j[ni], np.conjugate(u_i[::-1, nj]), np.conjugate(u_j[0, ::-1])]
    boundary = np.prod(np.concatenate(sides))
    return flux, float(np.angle(boundary))


def solid_angle(directions, reference=(0.0, 0.0, 1.0)) -> float:
    """Signed solid angle of a closed chain of directions on the sphere.

    Independent oracle: the loop is fanned into spherical triangles
    (reference, v_k, v_{k+1}) and their signed excesses (van Oosterom-
    Strackee) are summed. Positive for loops traversed counterclockwise
    as seen from outside the sphere on the reference side; the default
    reference +z makes a counterclockwise-from-+z loop at polar angle
    theta0 come out as +2 pi (1 - cos theta0).

    The directions are an (n, 3) array, or a models.PathSamples whose grid is never
    built. The chain is closed implicitly (wrap pair included); consecutive antipodal
    directions, or a vertex antipodal to the reference, are rejected as geometrically
    ambiguous, and a zero or non-finite direction, each by its first index. Layout: per
    linalg.BLOCK vertices, rows a..b taken in one call (row n is row 0, v_0) as one unit
    (3, b - a + 1) array, whose norms and v_k . v_{k+1} are one einsum each; its product with
    the frame (e1, e2, r), a signed axis permutation at r = +-z, gives px, py and c = r . v_k,
    and r . (v_k x v_{k+1}) = px_k py_{k+1} - py_k px_{k+1}. arctan2 writes the half terms
    into one (n,) array, summed once and doubled, bit for bit at any BLOCK.
    """
    if not isinstance(directions, PathSamples):
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError(f"expected (n, 3) directions, got shape {directions.shape}")
    n = len(directions)
    ref = np.asarray(reference, dtype=float).ravel()
    ref_norm = float(np.linalg.norm(ref)) if np.abs(ref).max(initial=0.0) <= PARAM_BOUND else np.nan
    if ref.shape != (3,) or not ref_norm >= 1e-12:
        raise ValueError(
            f"`reference` must be a finite nonzero 3-vector with entries of at most {PARAM_BOUND:g} "
            f"in magnitude, got {reference!r}"
        )
    rx, ry, rz = r = ref / ref_norm
    # the right-handed orthonormal frame (e1, e2, r) of Duff et al., JCGT 6(1), 2017
    sign = 1.0 if rz >= 0.0 else -1.0
    h = -1.0 / (sign + rz)
    frame = np.array([[1.0 + sign * rx * rx * h, sign * rx * ry * h, -sign * rx],
                      [rx * ry * h, sign + ry * ry * h, -ry], r])

    terms = np.empty(n)
    for block in blocks(n):
        a, b = block.start, block.stop
        rows = np.arange(a, b + 1)
        rows[-1] = b % n
        u = np.ascontiguousarray(directions[rows].T)  # a path's points are stack-last already
        squares = np.einsum("ik,ik->k", u, u)
        if not (squares.min() >= 1e-24 and squares.max() < np.inf):
            k = int(np.argmax(~(squares < np.inf) | (squares < 1e-24)))
            what = "a zero vector" if squares[k] < 1e-24 else "a non-finite entry"
            raise DegenerateInputError(f"direction chain contains {what} at index {(a + k) % n}")
        u /= np.sqrt(squares)
        dot = np.einsum("ik,ik->k", u[:, :-1], u[:, 1:])  # v_k . v_{k+1}
        px, py, c = frame @ u  # v_k in the frame (e1, e2, r)
        # |v + w|^2 = 2 + 2 v . w for unit rows, so a pair or vertex that an exact test
        # rejects has v . w or r . v within 1e-15 of -1; no smooth loop comes near the screen
        near = np.flatnonzero(dot < ANTIPODE_SCREEN)
        x, y, z = u[:, near] + u[:, near + 1]
        antipodal = near[x * x + y * y + z * z < ANTIPODAL_TOL**2]
        if antipodal.size:
            k = a + int(antipodal[0])
            raise DegenerateInputError(
                f"consecutive directions ({k}, {(k + 1) % n}) are antipodal; the geodesic "
                "between them is ambiguous"
            )
        near = np.flatnonzero(c[:-1] < ANTIPODE_SCREEN)
        x, y, z = u[:, near]
        opposite = near[(x + rx) ** 2 + (y + ry) ** 2 + (z + rz) ** 2 < 1e-18]
        if opposite.size:
            raise DegenerateInputError(
                f"chain direction {a + int(opposite[0])} is antipodal to the reference "
                "vertex; pass a different `reference`"
            )
        det = px[:-1] * py[1:] - py[:-1] * px[1:]  # r . (v_k x v_{k+1})
        np.arctan2(det, 1.0 + c[:-1] + dot + c[1:], out=terms[block])
    return 2.0 * float(np.sum(terms))  # exactly the sum of the doubled terms


def bloch_chain(directions) -> StateChain:
    """Lower-band qubit states for an (n, 3) chain of field directions.

    Each direction d maps to the closed-form ground state of d . sigma, in the
    reflector gauge of models.qubit_band_states. The chain phase, a product of raw
    links, does not see the gauge: that of a geodesic polygon equals
    -solid_angle(directions)/2. A zero direction raises models.ZeroFieldError
    naming its index.
    """
    dirs = np.asarray(directions, dtype=float).reshape(-1, 3)
    return StateChain(qubit_band_states(dirs, 0))


__all__ = [
    "OVERLAP_TOL",
    "StateChain",
    "CurvatureSample",
    "OverlapTooSmallError",
    "DegenerateBandError",
    "pancharatnam_phase",
    "parallel_transport",
    "band_loop_phase",
    "berry_connection_fd",
    "berry_curvature_plaquette",
    "plaquette_flux_and_boundary",
    "solid_angle",
    "bloch_chain",
    "wrap_angle",
]
