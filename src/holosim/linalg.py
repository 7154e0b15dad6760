"""Batched complex linear algebra for small Hermitian problems.

Everything here operates on plain numpy arrays (complex128; the links and
products keep float64 input real) of small matrices (dim <= 16 for the
shipped models); determinism matters more than scale. Link polar factors up
to 2x2 have closed forms; dense LAPACK (eigh_batch, a batched SVD) serves
generic models and larger links. The log-depth products run with the stack
axis last: on an (m, m, n) stack as given, or on one (m, m, n) copy of an
(n, m, m) stack.

The walkers that sample their own path (the Wilson line, the solid-angle fan) stream
BLOCK samples at a time (blocks), so the elementwise model kernels they call see one
block; link_overlaps, handed whole chains, keeps its own loop to bound its conjugate
copy. Each writes into one full-length output that any reduction reads once, or reduces
each block and then the block results, as the Wilson line's pairwise product does: for
BLOCK a power of two, an aligned block's pairwise tree is a subtree of the whole one.
Results are bit for bit the same at any BLOCK (a power of two for the Wilson line).
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

# Tolerances (absolute, relative to max(1, scale) where noted).
HERMITIAN_TOL = 1e-10
DEGENERACY_TOL = 1e-9
RANK_TOL = 1e-12
BLOCK = 8192  # samples per block of the streamed kernels; a power of two


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity check; carries the defect."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        problem = "is not Hermitian" if defect < np.inf else "has a non-finite entry"
        super().__init__(
            f"matrix {problem}: max |M - M^dag| entry = {defect:.3e} exceeds tolerance {tol:.1e}"
        )


class RankDeficientError(ValueError):
    """Matrix is numerically singular; carries the offending singular value."""

    def __init__(self, sigma_min: float, tol: float):
        self.sigma_min = sigma_min
        super().__init__(
            f"matrix is numerically rank-deficient: smallest singular value "
            f"{sigma_min:.3e} <= {tol:.1e}"
        )


def blocks(n: int) -> list[slice]:
    """The consecutive slices of BLOCK samples (the last may be shorter) that cover range(n)."""
    return [slice(a, min(a + BLOCK, n)) for a in range(0, n, BLOCK)]


@contextlib.contextmanager
def helper_thread():
    """One thread for numpy work the caller reads later; on exit it cancels what is queued."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="holosim-helper")
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def max_abs(m: np.ndarray) -> float:
    """Max-entry norm, used for all defect and matrix-distance reporting."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def gauge_fix(v: np.ndarray) -> np.ndarray:
    """Rephase each vector of a (..., dim) stack so its largest-magnitude
    component is real positive; (near-)zero vectors are left unchanged.

    Ties are broken by the lowest index (the strict > of a sweep over the
    components, each one (...) slice). This is the fixed, deterministic gauge
    convention used for eigenvectors; it carries no physical meaning on its own.
    """
    v = np.asarray(v, dtype=complex)
    pivot = v[..., 0]
    for j in range(1, v.shape[-1]):
        pivot = np.where(np.abs(v[..., j]) > np.abs(pivot), v[..., j], pivot)
    mag = np.abs(pivot)
    phase = np.conjugate(pivot) / np.maximum(mag, RANK_TOL)
    return v * np.where(mag < RANK_TOL, 1.0, phase)[..., None]


def eigh_batch(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Hermitian eigendecomposition over a (..., n, n) stack.

    No per-vector gauge fixing (call sites that need smooth frames align
    gauges themselves); returns (eigenvalues, eigenvectors) LAPACK-ordered.
    Raises NonHermitianError unless max_abs(H - H^dag) < HERMITIAN_TOL * max(1, max_abs(H)).
    """
    hs = np.asarray(hs, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN or inf entry gives a NaN or inf defect
        defect = max_abs(hs - dagger(hs))
    tol = HERMITIAN_TOL * max(1.0, max_abs(hs))
    if not defect < tol:
        raise NonHermitianError(defect, tol)
    return np.linalg.eigh(hs)


def propagator_increments(hs: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) - I = V diag(exp(-i w dt) - 1) V^dag for every H of a (k, d, d)
    Hermitian stack: the generic form of HamiltonianModel.propagator_increments.

    The identity is left out so that a product of many near-identity steps
    (near_identity_product_last) never rounds 1 + O(dt^2) per step, which would
    bias the norm by up to half an ulp per step.
    """
    w, v = eigh_batch(hs)
    # exp(-i a) - 1 = -2 sin^2(a/2) - i sin(a), without cancellation
    steps = -2.0 * np.sin(0.5 * w * dt) ** 2 - 1j * np.sin(w * dt)
    return np.einsum("kij,kj,klj->kil", v, steps, np.conjugate(v))


def closed_gap(w: np.ndarray, start: int, stop: int) -> tuple[int, float] | None:
    """Sample index and size of the first gap between the eigenvalue block [start, stop)
    and its neighbours in an (n, dim) stack of ascending eigenvalues that is at or below
    DEGENERACY_TOL * max(1, max_j |w_kj|), the larger end of its own row; else None."""
    gaps = [w[:, e] - w[:, e - 1] for e in (start, stop) if 0 < e < w.shape[1]]
    if not gaps:
        return None
    gap = functools.reduce(np.minimum, gaps)
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1.0)
    closed = np.flatnonzero(gap <= DEGENERACY_TOL * scale)
    return (int(closed[0]), float(gap[closed[0]])) if closed.size else None


def link_overlaps(frames: np.ndarray, closed: bool) -> np.ndarray:
    """Links L_k = F_k^dag F_{k+1} along axis 0 of an (n, ..., dim, m) frame stack.

    Closed paths add the wrap link F_{n-1}^dag F_0 as the last of n links.
    States are the m = 1 case: pass states[..., None] and read the
    overlaps <psi_k|psi_{k+1}> at [..., 0, 0]. Layout: links keep the frames' memory order
    (stack-last frames give stack-last links); einsum fills them BLOCK links at a time, bit
    for bit at any BLOCK, and the wrap link alone; only a complex block's conjugate is a copy.
    """
    count, m = len(frames) - (not closed), frames.shape[-1]
    links = np.empty_like(frames, shape=(count, *frames.shape[1:-2], m, m))
    spans = [(block, slice(block.start + 1, block.stop + 1)) for block in blocks(len(frames) - 1)]
    wrap = [(slice(-1, None), slice(1))] if closed else []  # F_{n-1}^dag F_0
    for block, nxt in spans + wrap:  # .conj() of a real block is the block itself, no copy
        np.einsum("...im,...in->...mn", frames[block].conj(), frames[nxt], out=links[block])
    return links


def link_polar(links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factor and smallest singular value of each link of a (..., m, m) stack.

    m = 1: z/|z| and |z|; m > 2: one batched SVD; m = 2 in closed form (see _polar).
    Zero and singular links get sigma = 0, NaN links NaN, and no warning. Float64 2x2
    links must have entries below about 1e154 (overlaps of unit frames are at most 1).
    """
    polar, sigma, _ = _polar(links)
    return polar(), sigma


def link_sigma_min(links: np.ndarray) -> np.ndarray:
    """link_polar's smallest singular values alone, bit for bit, under its bound on entries."""
    return _polar(links)[1]


def _polar(links: np.ndarray) -> tuple:
    """link_polar's polar factors, as a function that forms them when called, and its
    smallest singular values, and the largest ones.

    m = 2 in closed form (Higham 1986): for M = [[a, b], [c, d]] = U diag(s1, s2) V^dag,
    phase = det/|det| and C = phase adj(M)^dag = U diag(s2, s1) V^dag,
    M +- C = [[p, q], [-phase q*, phase p*]] with p = a +- phase d*, q = b -+ phase c*,
    so s1 +- s2 = hypot(|p|, |q|) (unlike sqrt(||M||_F^2 - 2|det|), no cancellation
    near I), U V^dag = (M + C)/(s1 + s2) and s2 = |det|/s1. Real (float64) links take
    phase = sign(det), no conjugates, and sqrt(p^2 + q^2) for the hypot: their entries
    (of unit frames) are at most 1, so no square overflows. Layout: a ... d are (...)
    slices, contiguous for stack-last links; the polar factors view a stack-last array.
    """
    if links.shape[-1] > 2:
        u, s, vh = np.linalg.svd(links)
        return lambda: u @ vh, s[..., -1], s[..., 0]
    tiny = np.finfo(float).tiny  # + tiny turns 0/0 into 0 and moves no other sum
    if links.shape[-1] == 1:
        size = np.abs(links[..., 0, 0])
        return lambda: links * (1.0 / (np.abs(links) + tiny)), size, size
    a, b, c, d = links[..., 0, 0], links[..., 0, 1], links[..., 1, 0], links[..., 1, 1]
    det = a * d - b * c
    abs_det = np.abs(det)
    if links.dtype == np.float64:
        phase = np.sign(det)
        phase_d, phase_c = d * phase, c * phase
        norm = lambda x, y: np.sqrt(x * x + y * y)
    else:
        phase = det * (1.0 / (abs_det + tiny))
        # each complex product takes its temporary first: numpy elides a large right-hand
        # temporary by swapping the operands, which moves the last bit of an FMA product
        phase_d, phase_c = np.conj(d) * phase, np.conj(c) * phase
        norm = lambda x, y: np.hypot(np.abs(x), np.abs(y))
    p, q = a + phase_d, b - phase_c
    s_sum = norm(p, q) + tiny
    s_max = 0.5 * (s_sum + norm(a - phase_d, b + phase_c))

    def polar():
        factors = np.stack([p, q, -phase * np.conj(q), np.conj(p) * phase]) * (1.0 / s_sum)
        return np.moveaxis(factors.reshape(2, 2, *a.shape), (0, 1), (-2, -1))

    return polar, abs_det / s_max, s_max


def check_links(sigma: np.ndarray, tol: float, error: type[Exception]) -> None:
    """Raise the caller's error(k, sigma[k]) at the first link k with sigma[k] not above tol."""
    bad = np.flatnonzero(~(sigma > tol))
    if bad.size:
        raise error(int(bad[0]), float(sigma[bad[0]]))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A_k B_k for every k of two (m, m, n) stacks, which the products take as they
    are or as one stack-last copy of an (n, m, m) stack: each entry is one elementwise
    pass along the stack axis, where matmul over (n, m, m) makes n tiny products."""
    return np.einsum("ijk,jlk->ilk", a, b)


def _pairwise(mats: np.ndarray, pair) -> np.ndarray:
    """Reduce an (m, m, n) stack in order by combining neighbours in log depth;
    mats itself is neither copied nor written."""
    while mats.shape[-1] > 1:
        paired = pair(mats[..., :-1:2], mats[..., 1::2])
        mats = np.concatenate([paired, mats[..., -1:]], -1) if mats.shape[-1] % 2 else paired
    return mats[..., 0]


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """M_0 M_1 ... M_{n-1} of an (n, m, m) stack, in log depth on its (m, m, n) view or copy."""
    return _pairwise(np.ascontiguousarray(np.moveaxis(mats, 0, -1)), _mul)


def near_identity_product_last(es: np.ndarray) -> np.ndarray:
    """(I + E_0)(I + E_1) ... (I + E_{n-1}) - I of an (m, m, n) stack of increments,
    in log depth: (I + A)(I + B) - I = A B + A + B."""
    return _pairwise(es, lambda a, b: _mul(a, b) + a + b)


def prefix_products(mats: np.ndarray) -> np.ndarray:
    """All prefixes M_0 M_1 ... M_k of an (n, m, m) stack, by a log-depth scan:
    the prefixes of the pair products M_{2j} M_{2j+1} are the odd prefixes,
    and each even prefix is the odd one before it times one more factor."""
    return np.moveaxis(_scan(np.moveaxis(mats, 0, -1).copy()), -1, 0).copy()


def _scan(mats: np.ndarray) -> np.ndarray:
    """prefix_products of an (m, m, n) stack, in place."""
    if mats.shape[-1] > 1:
        odd = _scan(_mul(mats[..., :-1:2], mats[..., 1::2]))
        mats[..., 2::2] = _mul(odd[..., : (mats.shape[-1] - 1) // 2], mats[..., 2::2])
        mats[..., 1::2] = odd
    return mats


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar factor of m: the unitary minimizing ||U - m||.

    The one-link case of link_polar (closed form up to 2x2). Rejects
    matrices whose smallest singular value is not above the numerical-rank
    floor RANK_TOL * max(1, largest singular value).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    polar, s_min, s_max = _polar(m[None])
    tol = RANK_TOL * max(1.0, float(s_max[0]))
    if not s_min[0] > tol:
        raise RankDeficientError(float(s_min[0]), tol)
    return polar()[0]


def unitarity_defect(m: np.ndarray) -> float:
    """Max-entry norm of M^dag M - I; zero iff M is unitary."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    eye = np.eye(m.shape[0], dtype=complex)
    return max_abs(dagger(m) @ m - eye)


def wrap_angle(x) -> np.ndarray | float:
    """Wrap angle(s) to the principal interval (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    wrapped = -np.mod(-x + np.pi, 2.0 * np.pi) + np.pi
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def angle_distance(a: float, b: float) -> float:
    """Circular distance |a - b| mod 2pi, in [0, pi]."""
    return abs(wrap_angle(a - b))
