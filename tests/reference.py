"""Naive references for the fast kernels, one element at a time.

Each function is the slow, obvious form of a holosim kernel (or a random
input, or an oracle such as eigenangle_distance, that the tests share). test_differential.py checks every kernel against
its reference within a stated bound; a kernel rewrite adds a row there.
Imports only the standard library, numpy and holosim.
"""

import csv
import math

import numpy as np

from holosim import abelian, adiabatic, holonomy, linalg, models
from holosim.report import DegenerateInputError


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def eigh_gauged(h):
    """eigh_batch with each eigenvector (column) in the gauge of gauge_fix."""
    w, v = linalg.eigh_batch(h)
    return w, linalg.gauge_fix(np.swapaxes(v, -1, -2)).swapaxes(-1, -2)


def gauge_fixed_vector(v):
    """gauge_fix of one vector: its largest component made real positive."""
    k = int(np.argmax(np.abs(v)))
    if abs(v[k]) < linalg.RANK_TOL:
        return v.copy()
    return v * (np.conjugate(v[k]) / abs(v[k]))


def argmax_gauge_fix(v):
    """gauge_fix as it picked its pivot before: np.argmax over the last axis."""
    v = np.asarray(v, dtype=complex)
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    mag = np.abs(pivot)
    phase = np.conjugate(pivot) / np.maximum(mag, linalg.RANK_TOL)
    return v * np.where(mag < linalg.RANK_TOL, 1.0, phase)


def eigh_propagators(hs, dt):
    """The diagonalization form exp(-i H dt) = V diag(exp(-i w dt)) V^dag."""
    w, v = np.linalg.eigh(hs)
    return np.einsum("kij,kj,klj->kil", v, np.exp(-1j * w * dt), np.conjugate(v))


def sequential_prefixes(mats):
    acc, prefixes = np.eye(mats.shape[-1], dtype=complex), []
    for mat in mats:
        acc = acc @ mat
        prefixes.append(acc)
    return np.stack(prefixes)


def sequential_near_identity(es):
    """(I + E_0)(I + E_1) ... (I + E_{n-1}) - I, one factor at a time."""
    eye = np.eye(es.shape[-1])
    return sequential_prefixes(es + eye)[-1] - eye


def reference_closed_gap(w, start, stop):
    """closed_gap one sample at a time: the first k at which the gap at an edge of the
    block [start, stop) is at or below DEGENERACY_TOL * max(1, max_j |w_kj|), and that gap."""
    for k, row in enumerate(w.tolist()):
        gaps = [row[e] - row[e - 1] for e in (start, stop) if 0 < e < len(row)]
        if gaps and min(gaps) <= linalg.DEGENERACY_TOL * max(1.0, *map(abs, row)):
            return k, min(gaps)
    return None


def matmul_pairwise(mats, pair=np.matmul):
    """The log-depth reduction the products had before they went stack-last:
    pair() applied by np.matmul to (n, m, m) stacks."""
    while len(mats) > 1:
        paired = pair(mats[0 : len(mats) - 1 : 2], mats[1::2])
        mats = np.concatenate([paired, mats[-1:]]) if len(mats) % 2 else paired
    return mats[0]


def batched_rodrigues(couplings, weights, dt):
    """models._rodrigues as it was: the couplings copied (k, q, c)-contiguous, one
    (e, q) @ (q, c) gemm per step, the rows reversed and transposed to (c, k e)."""
    couplings = np.ascontiguousarray(couplings)
    c = np.ascontiguousarray((weights @ couplings).reshape(-1, couplings.shape[-1])[::-1].T)
    r2 = np.einsum("in,in->n", c, c)
    x = np.sqrt(r2) * (dt / np.pi)
    return c, r2, dt * np.sinc(x), (-0.5 * dt**2) * np.sinc(0.5 * x) ** 2


def scattered_qubit_increments(model, lams, weights, dt):
    """QubitModel.propagator_increments as it was: batched_rodrigues, a (3, k e) stack
    of sin_r n, and whole-row assignments into the complex stack."""
    couplings = model.field(lams).reshape(*lams.shape[:2], 3)
    n, r2, sin_r, cos_r = batched_rodrigues(couplings, weights, dt)
    sx, sy, sz = sin_r * n
    e = np.empty((2, 2, len(r2)), dtype=complex)
    e.real[0, 0] = e.real[1, 1] = cos_r * r2
    e.imag[0, 0], e.imag[1, 1] = -sz, sz
    e.real[0, 1], e.real[1, 0] = -sy, sy
    e.imag[0, 1] = e.imag[1, 0] = -sx
    return e


def scattered_usb_increments(lams, weights, dt):
    """UsbModel._real_increments as it was: batched_rodrigues, a zero-filled stack, a
    fancy-index scatter and a (3, 3, k e) stack of spoke products."""
    c, r2, sin_r, cos_r = batched_rodrigues(np.asarray(lams, dtype=float), weights, dt)
    spokes = [0, 2, 3]
    e = np.zeros((4, 4, len(r2)))
    e[1, 1] = cos_r * r2
    e[spokes, 1] = sin_r * c
    e[1, spokes] = -e[spokes, 1]
    e[np.ix_(spokes, spokes)] = c[:, None] * c * cos_r
    return e


def scattered_increments(model, lams, weights, dt):
    """propagator_increments of the shipped qubit and four-level models as it was."""
    if isinstance(model, models.UsbModel):
        return models._D_PHASES[..., None] * scattered_usb_increments(lams, weights, dt)
    return scattered_qubit_increments(model, lams, weights, dt)


def scattered_chunk_increment(model, lams, weights, dt):
    """chunk_increment of the shipped qubit and four-level models as it was."""
    if isinstance(model, models.UsbModel):
        es = scattered_usb_increments(lams, weights, dt)
        return models._D_PHASES * linalg.near_identity_product_last(es)
    return linalg.near_identity_product_last(scattered_qubit_increments(model, lams, weights, dt))


def complex_usb_increments(lams, weights, dt):
    """UsbModel.propagator_increments as it was written in complex128, entry by entry:
    the hub-spoke entries imaginary, the rest real."""
    c, r2, sin_r, cos_r = models._rodrigues(np.asarray(lams, dtype=float), weights, dt)
    spokes = [0, 2, 3]
    e = np.zeros((4, 4, len(r2)), dtype=complex)
    e.real[1, 1] = cos_r * r2
    e.imag[1, spokes] = e.imag[spokes, 1] = -sin_r * c
    e.real[np.ix_(spokes, spokes)] = c[:, None] * c * cos_r
    return e


def chunked_cf4(run, steps, chunk_increment):
    """adiabatic._cf4 with each chunk's product from chunk_increment(model, lams, weights, dt)."""
    dt = run.total_time / steps
    state = run.initial_state.copy()
    for start in range(0, steps, adiabatic._CHUNK // 2):
        k = np.arange(start, min(start + adiabatic._CHUNK // 2, steps))
        lams = run.path(((k[:, None] + adiabatic._NODES) / steps).ravel()).reshape(len(k), 2, -1)
        state = state + chunk_increment(run.model, lams, adiabatic._WEIGHTS, dt) @ state
    return state


def complex_usb_cf4(run, steps):
    """adiabatic._cf4 on the four-level model as it was: each chunk's increments in
    complex128 (complex_usb_increments), multiplied in complex128."""
    return chunked_cf4(
        run, steps, lambda model, *a: linalg.near_identity_product_last(complex_usb_increments(*a))
    )


def scattered_cf4(run, steps):
    """adiabatic._cf4 with each chunk's product as scattered_chunk_increment formed it."""
    return chunked_cf4(run, steps, scattered_chunk_increment)


def sequential_eigh_evolution(run):
    """Reference integrator: the same CF4:2 scheme, one eigendecomposed
    exponential applied to the state at a time, in time order.

    Each exponential acts as its increment U - I, so a step does not round
    the state's O(1) part; a rounded U would drift by about one ulp per
    exponential, coherently along the qubit's symmetric loop."""
    dt = run.total_time / run.steps
    c = math.sqrt(3.0) / 6.0
    state = run.initial_state.copy()
    for start in range(0, run.steps, 4096):
        k = np.arange(start, min(start + 4096, run.steps))
        h1 = run.model.evaluate_batch(run.path((k + 0.5 - c) / run.steps))
        h2 = run.model.evaluate_batch(run.path((k + 0.5 + c) / run.steps))
        increments = []
        for a, b in ((0.25 + c, 0.25 - c), (0.25 - c, 0.25 + c)):
            w, v = linalg.eigh_batch(a * h1 + b * h2)
            # exp(-i w dt) - 1 without cancellation
            phases = -2.0 * np.sin(0.5 * w * dt) ** 2 - 1j * np.sin(w * dt)
            increments.append(np.einsum("kij,kj,klj->kil", v, phases, np.conjugate(v)))
        for first, second in zip(*increments):
            state = state + first @ state
            state = state + second @ state
    return state


def reference_band_state(n, band):
    """Per-point reflector gauge of one qubit band, one direction at a time, in Python
    floats: with r = |n|, w = r + |z|, c = 1/sqrt(2 r w), P = (x - i y) c and W = w c,
    band 0 is (P, -W) where z >= 0 (-0.0 included) and (W, -conj P) where z < 0, and
    band 1 is (W, conj P) and (P, W)."""
    x, y, z = (float(v) for v in n)
    r = math.sqrt(x * x + y * y + z * z)
    w = r + abs(z)
    c = 1.0 / math.sqrt(2.0 * r * w)
    p, big = complex(x, -y) * c, w * c
    if z >= 0.0:
        pair = (p, -big) if band == 0 else (big, p.conjugate())
    else:
        pair = (big, -p.conjugate()) if band == 0 else (p, big)
    return np.array(pair, dtype=complex)


def half_angle_band_states(ns, band):
    """The trigonometric gauge of one qubit band, (sin(theta/2), -e^{i phi} cos(theta/2))
    for band 0 and (cos(theta/2), e^{i phi} sin(theta/2)) for band 1, (..., 3) -> (..., 2):
    the same rays as models.qubit_band_states, in another gauge."""
    x, y, z = np.moveaxis(np.asarray(ns, dtype=float), -1, 0)
    half = 0.5 * np.arctan2(np.hypot(x, y), z)
    phase = np.exp(1j * np.arctan2(y, x))
    if band == 0:
        return np.stack([np.sin(half), -phase * np.cos(half)], axis=-1)
    return np.stack([np.cos(half) + 0j, phase * np.sin(half)], axis=-1)


def read_csv(path):
    """Read back a report CSV as (columns, raw string rows)."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def final_state(result):
    """The evolved state of a single-column adiabatic.AdiabaticResult."""
    if result.final_states.shape[1] != 1:
        raise ValueError("run evolved a frame; use final_states")
    return result.final_states[:, 0]


def reflector_dark_pair(b):
    """The four-level dark pair of one unit coupling direction b = (P, S, Q) / R, as
    (4, 2): the P and S columns of the Householder reflector I - 2 v v^T / v^T v with
    v = b + sign(b_Q) e_Q, sign -1 where b_Q < 0 and +1 elsewhere, on levels (0, 2, 3)."""
    v = np.array(b, dtype=float)
    v[2] += -1.0 if v[2] < 0.0 else 1.0
    reflector = np.eye(3) - 2.0 * np.outer(v, v) / (v @ v)
    pair = np.zeros((4, 2))
    pair[[0, 2, 3]] = reflector[:, :2]
    return pair


def cumulative_angle_transport(chain):
    """The phase-angle form of parallel transport:
    out_k = in_k exp(-i sum_{j<k} arg <in_j|in_{j+1}>)."""
    states = chain.states
    overlaps = np.einsum("ki,ki->k", states[:-1].conj(), states[1:])
    cum = np.concatenate([[0.0], np.cumsum(np.angle(overlaps))])
    return abelian.StateChain(states * np.exp(-1j * cum)[:, None], closed=chain.closed)


def reference_frames(model, path, block, n, f0):
    """The sequential smoothing loop: each raw frame times the dagger of the
    polar factor of its overlap with the previous smoothed frame."""
    _, v = np.linalg.eigh(model.evaluate_batch(path(path.sample_s(n))))
    raw = v[:, :, block.indices()]
    frames = np.empty_like(raw)
    frames[0] = f0
    for k in range(1, n):
        overlap = frames[k - 1].conj().T @ raw[k]
        frames[k] = raw[k] @ linalg.nearest_unitary(overlap).conj().T
    return frames


def reference_wilson_line(frames):
    """The link loop: W_0 W_1 ... W_close multiplied one link at a time."""
    product = np.eye(frames.shape[2], dtype=complex)
    for k in range(len(frames)):
        product = product @ (frames[k].conj().T @ frames[(k + 1) % len(frames)])
    return linalg.nearest_unitary(product)


def whole_path_wilson_line(model, path, block, n, f0=None):
    """holonomy.wilson_line over whole-path arrays, as it was before it streamed
    blocks: every frame, every link and one pairwise product of all n links.
    Returns the matrix, the smallest link singular value and the unitarity defect."""
    raw = holonomy._sample_frames(model, path, block, n, f0)
    links = linalg.link_overlaps(raw, closed=True)
    sigma = linalg.link_sigma_min(links)
    linalg.check_links(sigma, holonomy.SUBSPACE_OVERLAP_TOL, holonomy.IllConditionedLinkError)
    matrix = linalg.nearest_unitary(linalg.ordered_product(links))
    return matrix, float(np.min(sigma)), linalg.unitarity_defect(matrix)


def reference_link_polar(links):
    """Polar factor U V^dag and smallest singular value, one SVD per link."""
    polar, sigma = np.empty_like(links), np.empty(links.shape[:-2])
    for k in np.ndindex(links.shape[:-2]):
        u, s, vh = np.linalg.svd(links[k])
        polar[k], sigma[k] = u @ vh, s[-1]
    return polar, sigma


def tan_half_cos_sin(a):
    """cos a and sin a as (1 - t^2) / (1 + t^2) and 2t / (1 + t^2) with t = tan(a/2),
    each formed from scratch."""
    t = np.tan(a / 2.0)
    return (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)


def stacked_azimuthal(s, theta0, radius=1.0):
    """make_azimuthal_loop's points as they were formed before the paths went
    stack-last: s wrapped by np.mod, the coordinates stacked along axis 1."""
    cos_a, sin_a = tan_half_cos_sin(2.0 * math.pi * np.mod(s, 1.0))
    st, ct = math.sin(theta0), math.cos(theta0)
    return radius * np.stack([st * cos_a, st * sin_a, np.full_like(cos_a, ct)], axis=1)


def stacked_usb_circle(s, s0=1.0, a=0.5, q0=0.5, b=0.25):
    """The usb circle family's points in the same earlier form."""
    cos_w, sin_w = tan_half_cos_sin(2.0 * math.pi * np.mod(s, 1.0))
    return np.stack([a * sin_w, s0 + a * cos_w, q0 + b * sin_w], axis=1)


def stacked_constant(s, lam):
    """constant_path's points in the same earlier form: one (k, p) row per s."""
    return np.tile(np.asarray(lam, dtype=float).ravel(), (len(s), 1))


def reference_loop_phase(states):
    """arg prod_k <psi_k|psi_{k+1}> around a closed chain, one np.vdot at a time."""
    product = 1.0 + 0.0j
    for k in range(len(states)):
        product *= np.vdot(states[k], states[(k + 1) % len(states)])
    return math.atan2(product.imag, product.real)


def reference_flux_and_boundary(model, band, origin, plane, extents, cells):
    """plaquette_flux_and_boundary one cell at a time: the summed loop phases of
    each cell's four corners, and the loop phase of the patch's edge. Each
    corner gets its own np.linalg.eigh, so no two cells share a gauge."""

    def state(p, q):
        lam = np.array(origin, dtype=float)
        lam[list(plane)] += (extents[0] * p / cells[0], extents[1] * q / cells[1])
        return np.linalg.eigh(model.evaluate_batch(lam[None])[0])[1][:, band]

    (ni, nj), square = cells, ((0, 0), (1, 0), (1, 1), (0, 1))
    flux = sum(reference_loop_phase([state(p + a, q + b) for a, b in square])
               for p in range(ni) for q in range(nj))
    edge = [(p, 0) for p in range(ni)] + [(ni, q) for q in range(nj)]
    edge += [(p, nj) for p in range(ni, 0, -1)] + [(0, q) for q in range(nj, 0, -1)]
    return flux, reference_loop_phase([state(p, q) for p, q in edge])


def reference_solid_angle(directions, reference=(0.0, 0.0, 1.0)):
    """Signed solid angle of a closed chain of directions: one van Oosterom-
    Strackee triangle (reference, a, b) at a time, in math, and their exactly
    rounded sum (a running sum of 65,536 same-signed terms drifts by 2e-12)."""
    vectors = [reference] + np.asarray(directions, dtype=float).tolist()
    r, *dirs = ([x / math.hypot(*v) for x in v] for v in vectors)
    terms = []
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        # (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}
        det = sum(r[i] * (a[i - 2] * b[i - 1] - a[i - 1] * b[i - 2]) for i in range(3))
        denom = 1.0 + sum(a[i] * r[i] + a[i] * b[i] + b[i] * r[i] for i in range(3))
        terms.append(2.0 * math.atan2(det, denom))
    return math.fsum(terms)


def cross_matrix_solid_angle(directions, reference=(0.0, 0.0, 1.0), screen=-0.5):
    """abelian.solid_angle as it was before it fanned in the reference's own frame: per
    linalg.BLOCK vertices, r . (v_k x v_{k+1}) as (r x v_k) . v_{k+1} through a cross
    matrix and one einsum, r . v_k as one matvec, and only the pairs with v_k . v_{k+1}
    and the vertices with r . v_k below `screen` (-0.5 then) given the exact antipode
    tests. screen=np.inf runs both exact tests on every row."""
    n = len(directions)
    rx, ry, rz = r = np.asarray(reference, dtype=float) / np.linalg.norm(reference)
    cross = np.array([[0.0, -rz, ry], [rz, 0.0, -rx], [-ry, rx, 0.0]])  # r x v = cross @ v
    terms = np.empty(n)
    for block in linalg.blocks(n):
        a, b = block.start, block.stop
        rows = np.arange(a, b + 1)
        rows[-1] = b % n
        u = np.ascontiguousarray(directions[rows].T)
        squares = np.einsum("ik,ik->k", u, u)
        if not (squares.min() >= 1e-24 and squares.max() < np.inf):
            k = int(np.argmax(~(squares < np.inf) | (squares < 1e-24)))
            what = "a zero vector" if squares[k] < 1e-24 else "a non-finite entry"
            raise DegenerateInputError(f"direction chain contains {what} at index {(a + k) % n}")
        u /= np.sqrt(squares)
        v0, v1 = u[:, :-1], u[:, 1:]
        dot = np.einsum("ik,ik->k", v0, v1)
        along = r @ u
        near = np.flatnonzero(dot < screen)
        x, y, z = u[:, near] + u[:, near + 1]
        antipodal = near[x * x + y * y + z * z < abelian.ANTIPODAL_TOL**2]
        if antipodal.size:
            k = a + int(antipodal[0])
            raise DegenerateInputError(
                f"consecutive directions ({k}, {(k + 1) % n}) are antipodal; the geodesic "
                "between them is ambiguous"
            )
        near = np.flatnonzero(along[:-1] < screen)
        x, y, z = u[:, near]
        opposite = near[(x + rx) ** 2 + (y + ry) ** 2 + (z + rz) ** 2 < 1e-18]
        if opposite.size:
            raise DegenerateInputError(
                f"chain direction {a + int(opposite[0])} is antipodal to the reference "
                "vertex; pass a different `reference`"
            )
        det = np.einsum("ik,ik->k", cross @ v0, v1)
        np.arctan2(det, 1.0 + along[:-1] + dot + along[1:], out=terms[block])
    return 2.0 * float(np.sum(terms))


def reference_usb_eta_pair(path, n_samples):
    """eta by both trapezoid sums, one sample interval at a time, in math:
    sin(phi) d theta, with d theta the angle that (S, P) turns through, and
    the line integrand Q (S dP - P dS) / ((P^2 + S^2) R)."""
    lams = path.sample(n_samples, include_endpoint=True).tolist()
    eta_theta = eta_line = 0.0
    for (p0, s0, q0), (p1, s1, q1) in zip(lams, lams[1:]):
        h0, h1 = p0 * p0 + s0 * s0, p1 * p1 + s1 * s1
        r0, r1 = math.sqrt(h0 + q0 * q0), math.sqrt(h1 + q1 * q1)
        eta_theta += 0.5 * (q0 / r0 + q1 / r1) * math.atan2(s0 * p1 - p0 * s1, s0 * s1 + p0 * p1)
        f0, f1 = q0 / (h0 * r0), q1 / (h1 * r1)
        eta_line += 0.5 * ((f0 * s0 + f1 * s1) * (p1 - p0) - (f0 * p0 + f1 * p1) * (s1 - s0))
    return eta_theta, eta_line


def unwrapped_usb_eta_pair(path, n_samples):
    """holonomy.usb_eta_pair as it was before its d theta came from neighbouring
    samples: theta = atan2(P, S) unwrapped along the path, and hypot norms."""
    lams = path.sample(n_samples, include_endpoint=True)
    if np.any(lams[:, 0] ** 2 + lams[:, 1] ** 2 < models.DARK_SINGULAR_TOL**2):
        raise models.DarkFrameSingularError("P = S = 0")
    pp, ss, qq = lams[:, 0], lams[:, 1], lams[:, 2]
    hyp = np.hypot(pp, ss)
    r = np.hypot(hyp, qq)
    theta = np.unwrap(np.arctan2(pp, ss))
    sin_phi = qq / r
    eta_theta = float(np.sum(0.5 * (sin_phi[:-1] + sin_phi[1:]) * np.diff(theta)))
    f = qq / (hyp**2 * r)
    fs, fp = f * ss, f * pp
    dp, ds = np.diff(pp), np.diff(ss)
    eta_line = float(
        np.sum(0.5 * (fs[:-1] + fs[1:]) * dp) - np.sum(0.5 * (fp[:-1] + fp[1:]) * ds)
    )
    return eta_theta, eta_line


def stacked_energies(model, lams):
    """The closed-form energies (-r, 0, ..., 0, r) as they were formed before they went
    stack-last: r by np.linalg.norm(axis=1), the levels by one (k, dim) np.stack."""
    r = np.linalg.norm(model.field(lams) if model.dim == 2 else np.reshape(lams, (-1, 3)), axis=1)
    zero = np.zeros_like(r)
    return np.stack([-r, *[zero] * (model.dim - 2), r], axis=1)


def reference_holonomy_distance(u, v, n=2**16):
    """min of max |e^{ia} U - V| over the phases a = 2 pi k / n, one entry at a
    time and unrefined. An entry of a unitary U moves by at most |da|, so the
    distance lies within pi / n below this scan."""
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    worst = np.zeros(n)
    for (i, j), u_ij in np.ndenumerate(u):
        np.maximum(worst, np.abs(phases * u_ij - v[i, j]), out=worst)
    return float(worst.min())


def eigenangle_distance(u, v):
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
        diffs = linalg.wrap_angle(au - np.roll(av, shift))
        best = min(best, float(np.max(np.abs(diffs))))
    return best


class DenseUsb(models.UsbModel):
    band_states_batch = models.HamiltonianModel.band_states_batch  # one eigh_batch


class ComplexUsb(models.UsbModel):
    """The four-level model with its closed-form frames cast to complex128."""

    def band_states_batch(self, lams, block):
        w, frames = super().band_states_batch(lams, block)
        return w, frames.astype(complex)


class DenseQubit(models.QubitModel):
    band_states_batch = models.HamiltonianModel.band_states_batch  # one eigh_batch


class HubDetunedUsb(models.UsbModel):
    """The four-level model with a hub detuning D = H[1, 1]: the bright levels
    move to (D +- sqrt(D^2 + 4R^2))/2, breaking the +-R symmetry, while the
    dark pair, its Wilson line and B(eta) stay put. Its frames are dense."""

    detuning = 0.5

    def evaluate_batch(self, lams):
        h = super().evaluate_batch(lams)
        h[:, 1, 1] = self.detuning
        return h

    def energies_batch(self, lams):
        r = np.linalg.norm(np.asarray(lams, dtype=float).reshape(-1, 3), axis=1)
        root = np.sqrt(self.detuning**2 + 4.0 * r**2)
        zero = np.zeros_like(r)
        lower = 0.5 * (self.detuning - root)
        upper = 0.5 * (self.detuning + root)
        return np.stack([lower, zero, zero, upper], axis=1)
