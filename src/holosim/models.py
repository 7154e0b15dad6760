"""Parametrized Hamiltonians and the parameter-path abstraction.

Two concrete families ship:

* a qubit H = n . sigma, either with Cartesian parameters n in R^3 or
  pinned to a sphere of fixed radius with (theta, phi) parameters;
* a four-level system with one level coupled to the other three by
  couplings (P, S, Q), whose zero-eigenvalue pair ("dark space") carries
  the non-Abelian holonomy.

A config names its loop by one of the model's families in PATH_FAMILIES, which
declares each family's parameters as schema fields.

Angle conventions used throughout: theta = atan2(P, S) and
phi = atan2(Q, sqrt(P^2 + S^2)). With these, the dark vectors below are
exact null vectors of the four-level Hamiltonian; along a path, d theta is
the angle (S, P) turns through between adjacent samples (|d theta| < pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import schema
from .linalg import RANK_TOL, eigh_batch, near_identity_product_last, propagator_increments
from .report import ConfigError, DegenerateInputError
from .schema import PARAM_BOUND, List, Param, Positive, Section

CLOSURE_TOL = 1e-12
DARK_SINGULAR_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_SPOKES = [0, 2, 3]  # the four-level model's levels that (P, S, Q) couple to its hub, 1
_D_PHASES = np.outer([1, 1j, 1, 1], [1, -1j, 1, 1])  # D M D^dag = _D_PHASES M, D = diag(1, i, 1, 1)


class DarkFrameSingularError(DegenerateInputError):
    """P = S = 0: the dark-frame angle theta is undefined there."""


class ZeroFieldError(DegenerateInputError):
    """n = 0 (qubit) or R = 0 (four-level): the levels are degenerate and the
    closed-form band states undefined."""


def qubit_band_states(ns, band: int, r: np.ndarray | None = None) -> np.ndarray:
    """Closed-form eigenvectors of n . sigma for one band, (..., 3) -> (..., 2), stack-last.

    The reflector gauge, in + - * / sqrt only: with r = |n| (the caller's, if given),
    w = r + |z|, c = 1 / sqrt(2 r w), P = (x - i y) c and W = w c, band 0 is (P, -W) where
    z >= 0 (-0.0 too) and (W, -conj P) where z < 0; band 1 is (W, conj P) and (P, W). The
    band of sign(z) r is the Householder vector u + sign(z) e_0 of u = (z, x + i y) / r, the
    first column of n . sigma / r (Golub & Van Loan, Matrix Computations, 5.1), normalized;
    w >= r leaves no cancellation. The gauge jumps where z changes sign, which raw links
    cancel. n = 0 raises ZeroFieldError; a NaN field gives NaN states.
    """
    if band not in (0, 1):
        raise ValueError(f"qubit band must be 0 or 1, got {band}")
    ns = np.asarray(ns, dtype=float)
    x, y, z = ns[..., 0], ns[..., 1], ns[..., 2]
    r = np.sqrt(x * x + y * y + z * z) if r is None else r
    zero = r < RANK_TOL
    if zero.any():
        index = np.unravel_index(int(np.argmax(zero)), zero.shape)
        raise ZeroFieldError(
            f"qubit band state undefined at index [{', '.join(map(str, index))}]: "
            "n = 0 (degenerate levels)"
        )
    w = r + np.abs(z)
    c = 1.0 / np.sqrt(2.0 * r * w)
    p = (x - 1j * y) * c
    w *= c
    swap = z >= 0.0 if band else z < 0.0  # where the state starts with W
    states = np.empty((2, *z.shape), dtype=complex)
    states[0] = np.where(swap, w, p)
    states[1] = np.where(swap, p.conj(), w) if band else np.where(swap, -p.conj(), -w)
    return states.transpose(*range(1, states.ndim), 0)


# ---------------------------------------------------------------------------
# Parameter paths
# ---------------------------------------------------------------------------


@dataclass
class ParameterPath:
    """Map s in [0,1] -> parameter vector, with a closed-loop flag.

    evaluate is vectorized: an (k,) array of s values yields a (k, dim)
    array; the shipped families return a view of stack-last (dim, k) memory.
    Consumers accept either layout; the one a kernel reads is part of its bit-exact
    contract (_rodrigues views stack-last points and copies any other). Closed
    paths are built so that lambda(0) == lambda(1) bitwise (constructors
    reduce s modulo 1); the constructor still verifies the closure invariant.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    parameter_dim: int
    closed: bool
    label: str = ""

    def __post_init__(self):
        if self.closed:
            ends = self.evaluate(np.array([0.0, 1.0]))
            gap = float(np.linalg.norm(ends[0] - ends[1]))
            if not gap < CLOSURE_TOL:
                raise ValueError(
                    f"path '{self.label}' flagged closed but "
                    f"|lambda(0)-lambda(1)| = {gap:.3e}"
                )

    def __call__(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.evaluate(s)

    def sample_s(self, n: int, include_endpoint: bool = False) -> np.ndarray:
        """Sample grid: closed paths use k/n (endpoint implied by the wrap);
        open paths and endpoint-inclusive quadratures use k/(n-1) or k/n."""
        if include_endpoint or not self.closed:
            return np.linspace(0.0, 1.0, n + 1 if include_endpoint else n)
        return np.arange(n) / n

    def sample(self, n: int, include_endpoint: bool = False) -> np.ndarray:
        return self(self.sample_s(n, include_endpoint))


@dataclass(frozen=True)
class PathSamples:
    """path.sample(n) of a closed path, evaluated only at the rows taken (a slice or an
    integer array): row k is path(k / n), bit for bit as in the (n, dim) grid, which is
    never built."""

    path: ParameterPath
    n: int

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice | np.ndarray) -> np.ndarray:
        rows = np.arange(*rows.indices(self.n)) if isinstance(rows, slice) else rows
        s = rows.astype(float)  # float rows, divided in place: no mixed-type ufunc
        s /= self.n
        return self.path(s)


def cos_sin(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos a and sin a of (k,) angles as the rows of out (2, k), new if None, within 4.5e-16:
    (1 - t^2)/(1 + t^2) and 2t/(1 + t^2), t = tan(a/2), as numpy vectorizes tan (not cos, sin)."""
    c, s = out = np.empty((2, len(a))) if out is None else out
    denominator = 1.0 + np.square(np.tan(np.multiply(a, 0.5, out=s), out=s), out=c)
    np.divide(np.subtract(1.0, c, out=c), denominator, out=c)
    np.divide(np.multiply(s, 2.0, out=s), denominator, out=s)
    return out


def constant_path(lam, label: str = "constant") -> ParameterPath:
    lam = np.asarray(lam, dtype=float).ravel()

    def evaluate(s: np.ndarray) -> np.ndarray:
        return np.tile(lam[:, None], len(s)).T

    return ParameterPath(evaluate, len(lam), closed=True, label=label)


def make_azimuthal_loop(theta0: float, radius: float = 1.0) -> ParameterPath:
    """Closed qubit loop at fixed polar angle theta0, azimuth 2 pi s.

    Counterclockwise as seen from +z; encloses solid angle
    2 pi (1 - cos theta0) around the +z axis.
    """
    if not 0.0 < theta0 < math.pi:
        raise ConfigError(f"config.path.params.theta0: {theta0} is not in (0, pi)")
    st, ct = math.sin(theta0), math.cos(theta0)

    def evaluate(s: np.ndarray) -> np.ndarray:
        points = np.empty((3, len(s)))
        plane = cos_sin(2.0 * math.pi * (s - np.floor(s)), out=points[:2])
        plane *= st
        plane *= radius
        points[2] = ct * radius
        return points.T

    return ParameterPath(evaluate, 3, closed=True, label=f"azimuthal(theta0={theta0:g})")


def reversed_path(path: ParameterPath) -> ParameterPath:
    """The same trace with orientation flipped: s -> lambda(1 - s)."""

    def evaluate(s: np.ndarray) -> np.ndarray:
        return path(1.0 - np.asarray(s, dtype=float))

    return ParameterPath(
        evaluate, path.parameter_dim, closed=path.closed, label=path.label + "[reversed]"
    )


def _usb_circle(s0, a, q0, b) -> ParameterPath:
    def evaluate(s: np.ndarray) -> np.ndarray:
        points = np.empty((3, len(s)))
        cos_w, sin_w = cos_sin(2.0 * math.pi * (s - np.floor(s)), out=points[1:])
        np.multiply(a, sin_w, out=points[0])
        np.add(q0, np.multiply(b, sin_w, out=points[2]), out=points[2])
        np.add(s0, np.multiply(a, cos_w, out=points[1]), out=points[1])
        return points.T

    label = f"usb-circle(s0={s0:g},a={a:g},q0={q0:g},b={b:g})"
    return ParameterPath(evaluate, 3, closed=True, label=label)


# Each model's path families: the builder, which takes the parameters by
# name, and the declaration of those parameters. The first is the default.
PATH_FAMILIES = {
    "qubit": {
        "azimuthal": (
            make_azimuthal_loop,
            Section(theta0=Param(math.pi / 3), radius=Positive(1.0, hi=PARAM_BOUND)),
        ),
        "constant": (
            lambda n: constant_path(n, label="qubit-constant"),
            Section(n=List(Param(), [0.0, 0.0, 1.0], length=3)),
        ),
    },
    "usb": {
        "circle": (
            _usb_circle, Section(s0=Param(1.0), a=Param(0.5), q0=Param(0.5), b=Param(0.25))
        ),
        "constant": (
            lambda p, s, q: constant_path([p, s, q], label="usb-constant"),
            Section(p=Param(0.0), s=Param(1.0), q=Param(0.0)),
        ),
    },
}


def _family_path(model: str, family: str | None, params: dict | None) -> ParameterPath:
    """The path of one of a model's families (None: its first), built from
    the params laid over the family's defaults and checked against them."""
    families = PATH_FAMILIES[model]
    family = next(iter(families)) if family is None else family
    if family not in families:
        raise ConfigError(
            f"config.path.family: unknown {model} family '{family}' (expected {'|'.join(families)})"
        )
    build, fields = families[family]
    cfg = schema.merge(fields, fields.default, params or {}, "config.path.params")
    schema.check(fields, cfg, "config.path.params", f"the {family} family", cfg)
    return build(**cfg)


def make_usb_loop(family: str | None = None, params: dict | None = None) -> ParameterPath:
    """Closed loop in (P, S, Q) space from a usb family of PATH_FAMILIES:

      circle   -- P = a sin(2 pi s), S = s0 + a cos(2 pi s),
                  Q = q0 + b sin(2 pi s); keeps P^2+S^2 >= (s0-a)^2 when
                  s0 > a > 0. This is the shipped default.
      constant -- fixed (p, s, q).

    The dark frame must stay defined (P^2 + S^2 > 0); the loop is checked
    at 4097 points and rejected with the offending s.
    """
    path = _family_path("usb", family, params)
    # odd point count so midpoints like s = 1/2 land on the grid exactly
    sgrid = np.linspace(0.0, 1.0, 4097)
    lam = path(sgrid)
    hyp = np.hypot(lam[:, 0], lam[:, 1])
    floor = max(DARK_SINGULAR_TOL, 1e-3 * float(np.max(hyp)))
    k = int(np.argmin(hyp))
    if hyp[k] < floor:
        raise DarkFrameSingularError(
            f"loop '{path.label}' passes within {hyp[k]:.3e} of the dark-frame "
            f"singularity P=S=0 at s = {sgrid[k]:.6f}"
        )
    return path


# ---------------------------------------------------------------------------
# Hamiltonian models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandBlock:
    """Contiguous range [start, stop) of ascending-eigenvalue indices."""

    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop:
            raise ValueError(f"invalid band block [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> slice:
        return slice(self.start, self.stop)


class HamiltonianModel:
    """Provider of a Hermitian matrix H(lambda) for any parameter point.

    Subclasses implement evaluate_batch. energies_batch, band_states_batch and
    propagator_increments default to dense diagonalization (linalg.eigh_batch), and
    chunk_increment to the product of propagator_increments' steps. Every shipped model
    overrides the first three with closed forms, which are exact (the dark-band dynamical
    phase is identically zero rather than ~1e-16) and take no dense eigensolve. A closed
    form holds only for the matrix it was derived from, so a class that defines its own
    evaluate_batch gets all four dense forms back, bar any it defines itself."""

    dim: int
    parameter_dim: int
    label: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "evaluate_batch" in vars(cls):
            for name in ("energies_batch", "band_states_batch", "propagator_increments", "chunk_increment"):
                if name not in vars(cls):
                    setattr(cls, name, vars(HamiltonianModel)[name])

    def evaluate_batch(self, lams: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def energies_batch(self, lams: np.ndarray) -> np.ndarray:
        return eigh_batch(self.evaluate_batch(lams))[0]

    def band_states_batch(self, lams: np.ndarray, block: BandBlock) -> tuple[np.ndarray, np.ndarray]:
        """Energies (k, dim), ascending, and the block's frames (k, dim, m) in any gauge;
        the shipped closed forms' frames view a stack-last (dim, m, k) array."""
        w, v = eigh_batch(self.evaluate_batch(lams))
        # a copy, so the full eigenvector stack is freed on return
        return w, v[:, :, block.indices()].copy()

    def propagator_increments(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i dt A) - I of each exponent A = sum_q weights[e, q] H(lams[j, q]) of a
        (k, q, p) stack of parameter points, as a (dim, dim, k e) stack, latest (j, e)
        first. Dense by default: linalg.propagator_increments, copied stack-last."""
        hs = self.evaluate_batch(lams.reshape(-1, lams.shape[-1])).reshape(*lams.shape[:2], -1)
        exponents = (weights @ hs).reshape(-1, self.dim, self.dim)
        return np.moveaxis(propagator_increments(exponents, dt)[::-1], 0, -1).copy()

    def chunk_increment(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """The product of propagator_increments' propagators, latest first, minus I: (dim, dim)."""
        return near_identity_product_last(self.propagator_increments(lams, weights, dt))


def _rodrigues(couplings: np.ndarray, weights: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """For H linear in a (k, q, c) coupling stack: the (c, k e) rows sum_q w_q c_q of
    propagator_increments' exponents, latest first; R^2; and, as exp(-i dt H) - I =
    -i (sin(R dt)/R) H + ((cos(R dt) - 1)/R^2) H^2 wherever H^3 = R^2 H, those two
    coefficients: dt sinc(x) and -(dt^2/2) sinc(x/2)^2 at x = R dt / pi, finite at R = 0.
    Bit for bit: one gemm on a (c k, q) view of stack-last couplings; c is C-contiguous."""
    rows = couplings.transpose(2, 0, 1).reshape(-1, couplings.shape[1]) @ weights.T
    c = np.ascontiguousarray(rows.reshape(couplings.shape[2], -1)[:, ::-1])
    r2 = np.einsum("in,in->n", c, c)
    x = np.sqrt(r2) * (dt / np.pi)
    return c, r2, dt * np.sinc(x), (-0.5 * dt**2) * np.sinc(0.5 * x) ** 2


def _plus_minus_norm(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Energies (-r, 0, ..., 0, r) of a (k, 3) stack, r = |v| as np.linalg.norm(axis=1) gives
    it bit for bit, viewing a stack-last (dim, k) array, so each level's row is contiguous."""
    w = np.zeros((dim, len(vectors)))
    x, y, z = vectors.T
    np.negative(np.sqrt(x * x + y * y + z * z, out=w[-1]), out=w[0])
    return w.T


class QubitModel(HamiltonianModel):
    """Qubit H = n . sigma with Cartesian parameters lambda = n in R^3, with energies,
    band states and propagator_increments in closed form. band_states_batch hands its
    energies' norm r to qubit_band_states, so r is taken once."""

    dim = 2
    parameter_dim = 3
    label = "qubit"

    def field(self, lams: np.ndarray) -> np.ndarray:
        """The field n of each parameter point, (k, 3)."""
        return np.asarray(lams, dtype=float).reshape(-1, 3)

    def evaluate_batch(self, lams: np.ndarray) -> np.ndarray:
        return np.einsum("ki,ijl->kjl", self.field(lams), PAULI)

    def energies_batch(self, lams: np.ndarray) -> np.ndarray:
        return _plus_minus_norm(self.field(lams), 2)

    def band_states_batch(self, lams: np.ndarray, block: BandBlock) -> tuple[np.ndarray, np.ndarray]:
        ns = self.field(lams)
        w = _plus_minus_norm(ns, 2)
        if block.size == 2:  # any basis is an eigenframe of the whole space, also at n = 0
            return w, np.tile(np.eye(2, dtype=complex), (len(ns), 1, 1))
        return w, qubit_band_states(ns, block.start, w[:, 1])[:, :, None]  # one norm pass

    def propagator_increments(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """In closed form from the combined fields n: H^2 = R^2 I."""
        n, r2, sin_r, cos_r = _rodrigues(self.field(lams).reshape(*lams.shape[:2], 3), weights, dt)
        e = np.empty((2, 2, len(r2)), dtype=complex)  # each entry's (k e,) slice written in place
        e.real[1, 1] = np.multiply(cos_r, r2, out=e.real[0, 0])
        np.negative(np.multiply(sin_r, n[2], out=e.imag[1, 1]), out=e.imag[0, 0])
        np.negative(np.multiply(sin_r, n[1], out=e.real[1, 0]), out=e.real[0, 1])
        e.imag[1, 0] = np.negative(np.multiply(sin_r, n[0], out=e.imag[0, 1]), out=e.imag[0, 1])
        return e


class SphereQubitModel(QubitModel):
    """Qubit pinned to |n| = radius with lambda = (theta, phi)."""

    parameter_dim = 2

    def __init__(self, radius: float = 1.0):
        if not 0.0 < radius <= PARAM_BOUND:
            raise ValueError(f"radius must be positive and at most {PARAM_BOUND:g}, got {radius}")
        self.radius = float(radius)
        self.label = f"qubit-sphere(r={radius:g})"

    def directions(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=float).reshape(-1, 2)
        th, ph = lams[:, 0], lams[:, 1]
        return np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
        )

    def field(self, lams: np.ndarray) -> np.ndarray:
        return self.radius * self.directions(lams)


class UsbModel(HamiltonianModel):
    """Four-level star-coupled model, lambda = (P, S, Q).

    Spectrum is {-R, 0, 0, +R} with R = sqrt(P^2+S^2+Q^2); the middle
    zero pair is the dark space. Energies, every block's frames
    (band_states_batch) and propagator_increments are in closed form. The
    frames are real, float64. So are the propagators in the basis
    D = diag(1, i, 1, 1): the coupling is bipartite, hub 1
    against spokes 0, 2, 3 (a tripod; Unanyan, Shore & Bergmann 1999), so
    D^dag (-i H) D is real and antisymmetric. chunk_increment multiplies a chunk's
    increments in float64 in that basis and rotates only its (4, 4) product back.
    """

    dim = 4
    parameter_dim = 3
    label = "usb"

    def evaluate_batch(self, lams: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=float).reshape(-1, 3)
        h = np.zeros((len(lams), 4, 4), dtype=complex)
        h[:, 1, _SPOKES] = h[:, _SPOKES, 1] = lams
        return h

    def energies_batch(self, lams: np.ndarray) -> np.ndarray:
        return _plus_minus_norm(np.asarray(lams, dtype=float).reshape(-1, 3), 4)

    def band_states_batch(self, lams: np.ndarray, block: BandBlock) -> tuple[np.ndarray, np.ndarray]:
        """Energies (k, 4) and the block's frames (k, 4, m), in closed form.

        H = |1><c| + |c><1| with c = R b and b = (P, S, Q) / R on levels
        (0, 2, 3). The bright pair (-+|1> + b) / sqrt(2) has energies -+R.
        The dark pair is the P and S columns, e_j - (b_j / (1 + |b_Q|)) v, of the
        Householder reflector I - 2 v v^T / v^T v with v = b + sign(b_Q) e_Q on the fixed
        Q axis, sign -1 where b_Q < 0 and +1 elsewhere (Golub & Van Loan, Matrix
        Computations, 5.1). As v^T v = 2 (1 + |b_Q|) >= 2, no pivot is searched and the
        pair has no singularity, also at P = S = 0; its gauge jumps only where Q changes
        sign, which raw links cancel. R = 0 raises ZeroFieldError. Built elementwise
        into a stack-last (4, m, k) array; no (k, 4, 4) stack is formed.
        """
        lams = np.asarray(lams, dtype=float).reshape(-1, 3)
        w = UsbModel.energies_batch(self, lams)  # R from lams, whatever a subclass overrides
        r = w[:, 3]
        if np.any(r < RANK_TOL):
            k = int(np.argmax(r < RANK_TOL))
            raise ZeroFieldError(
                f"four-level band states undefined at index [{k}]: R = 0 (degenerate levels)"
            )
        frames = np.zeros((4, block.size, len(r)))
        b = lams.T / r  # (3, k)
        v = (b[0], b[1], b[2] + np.where(b[2] < 0.0, -1.0, 1.0))  # -0.0 counts as +
        scale = 1.0 / (1.0 + np.abs(b[2]))  # 2 / v^T v
        for col, band in enumerate(range(block.start, block.stop)):
            if band in (0, 3):
                frames[_SPOKES, col] = math.sqrt(0.5) * b
                frames[1, col] = math.sqrt(0.5) * (1.0 if band == 3 else -1.0)
            else:  # the reflector's P (band 1) or S (band 2) column
                c = -(scale * b[band - 1])
                for level, v_level in zip(_SPOKES, v):
                    np.multiply(c, v_level, out=frames[level, col])
                frames[_SPOKES[band - 1], col] += 1.0
        return w, frames.transpose(2, 0, 1)

    def propagator_increments(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """In closed form from the combined couplings: H = |1><c| + |c><1| with
        c = (P, 0, S, Q), so H^2 = R^2 |1><1| + |c><c|: _real_increments, rotated out of D."""
        return _D_PHASES[..., None] * self._real_increments(lams, weights, dt)

    def chunk_increment(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """The chunk's product, in float64 in the basis D; only the (4, 4) result is rotated."""
        return _D_PHASES * near_identity_product_last(self._real_increments(lams, weights, dt))

    def _real_increments(self, lams: np.ndarray, weights: np.ndarray, dt: float) -> np.ndarray:
        """D^dag (exp(-i dt A) - I) D, with D = diag(1, i, 1, 1): real, float64 (4, 4, k e)."""
        c, r2, sin_r, cos_r = _rodrigues(np.asarray(lams, dtype=float), weights, dt)
        e = np.empty((4, 4, len(r2)))  # each entry's (k e,) slice written in place
        np.multiply(cos_r, r2, out=e[1, 1])
        for a, i in enumerate(_SPOKES):
            np.negative(np.multiply(sin_r, c[a], out=e[i, 1]), out=e[1, i])
            for b, j in enumerate(_SPOKES[a:], a):  # c_i c_j == c_j c_i exactly: once per pair
                e[j, i] = np.multiply(np.multiply(c[a], c[b], out=e[i, j]), cos_r, out=e[i, j])
        return e

    def dark_frame_batch(self, lams: np.ndarray) -> np.ndarray:
        """Analytic dark frames, shape (k, 4, 2); principal angle branch."""
        lams = np.asarray(lams, dtype=float).reshape(-1, 3)
        pp, ss, qq = lams[:, 0], lams[:, 1], lams[:, 2]
        hyp = np.hypot(pp, ss)
        if np.any(hyp < DARK_SINGULAR_TOL):
            k = int(np.argmin(hyp))
            raise DarkFrameSingularError(
                f"dark frame undefined at sample {k}: P^2+S^2 = {hyp[k]**2:.3e}"
            )
        theta = np.arctan2(pp, ss)
        phi = np.arctan2(qq, hyp)
        ct, st = np.cos(theta), np.sin(theta)
        cf, sf = np.cos(phi), np.sin(phi)
        frames = np.zeros((len(pp), 4, 2))
        frames[:, 0, 0] = ct
        frames[:, 2, 0] = -st
        frames[:, 0, 1] = sf * st
        frames[:, 2, 1] = sf * ct
        frames[:, 3, 1] = -cf
        return frames


def build_model_and_path(fragment: dict) -> tuple[HamiltonianModel, ParameterPath]:
    """Construct (model, path) from the CLI config fragment.

    Schema: {"model": "qubit"|"usb",
             "path": {"family": ..., "params": {...}}}
    with a family of that model in PATH_FAMILIES (default: its first) and
    params that are config values, laid over the family's defaults.
    """
    name, pathspec = fragment.get("model"), fragment.get("path", {})
    family, params = pathspec.get("family"), pathspec.get("params")
    if name == "qubit":
        return QubitModel(), _family_path(name, family, params)
    if name == "usb":
        return UsbModel(), make_usb_loop(family, params)
    raise ConfigError(f"config.model: unknown model '{name}' (expected qubit|usb)")
