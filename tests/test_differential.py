"""Every fast kernel against its naive reference from reference.py.

A row names the kernel, its reference, the inputs both take, the seed those
are drawn with and the bound on max_abs(kernel - reference). A kernel
rewrite adds a row; a kernel streamed in linalg.BLOCK blocks also runs at a
small BLOCK against one block, bit for bit. Rows that take a model run on the
shipped loops and on the hub-detuned four-level model, whose frames are dense.
The four-level matrix is real, so its loop phases are 0 or pi: the qubit rows
carry the rest.
"""

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
import reference as ref

from holosim import abelian, adiabatic, holonomy, linalg, models
from holosim.report import DegenerateInputError


class Row(NamedTuple):
    kernel: Callable  # the fast code: inputs -> an array, or a tuple of arrays
    reference: Callable  # its naive form, on the same inputs
    inputs: Callable  # rng -> the arguments of both
    seed: object  # of the rng given to inputs; None where they draw nothing
    bound: float | tuple  # on max_abs(kernel - reference), or one per output
    one_sided: bool = False  # the kernel may also not exceed its reference


MODELS = {"usb": models.UsbModel, "qubit": models.QubitModel, "hub": ref.HubDetunedUsb}


def shipped(name, n=None):
    """The model, its shipped loop and block, n, and the basepoint frame:
    the arguments of eigenframe_path and wilson_line."""
    if name == "qubit":
        path = models.make_azimuthal_loop(math.pi / 3)
        frame = models.qubit_band_states(path(0.0), 0).T
        return models.QubitModel(), path, models.BandBlock(0, 1), n, frame
    path = models.make_usb_loop("circle")
    frame = models.UsbModel().dark_frame_batch(path(0.0))[0]
    return MODELS[name](), path, holonomy.USB_DARK_BLOCK, n, frame


def links(name, n):
    return linalg.link_overlaps(holonomy._sample_frames(*shipped(name, n)), closed=True)


def hamiltonians(name, dt):
    model, path = shipped(name)[:2]
    return model.evaluate_batch(path.sample(512)), dt


def evolution(name, total_time, steps):
    model, path, _, _, frame = shipped(name)
    return (adiabatic.AdiabaticRun(model, path, total_time, steps, frame),)


def cf4_points(path, steps, count):
    """The Gauss-node parameter pairs of _cf4's first `count` steps, (count, 2, p)."""
    s = (np.arange(count)[:, None] + adiabatic._NODES) / steps
    return path(s.ravel()).reshape(count, 2, -1)


def cf4_chunk(name, total_time=200.0, steps=2**12):
    """The stack-last increments of _cf4's first chunk, latest first, as it multiplies them."""
    model, path = shipped(name)[:2]
    lams = cf4_points(path, steps, adiabatic._CHUNK // 2)
    es = model.propagator_increments(lams, adiabatic._WEIGHTS, total_time / steps)
    assert es.shape[-1] == adiabatic._CHUNK
    return (es,)


def model_increments(model, lams, dt):
    """I + the model's increments, stack-first."""
    es = model.propagator_increments(lams, adiabatic._WEIGHTS, dt)
    return np.moveaxis(es, -1, 0) + np.eye(model.dim)


def combined_propagators(model, lams, dt):
    """exp(-i dt A) of each CF4 exponent, latest first, by eigh of the combined matrix."""
    hs = model.evaluate_batch(lams.reshape(-1, lams.shape[-1])).reshape(len(lams), 2, -1)
    exponents = (adiabatic._WEIGHTS @ hs).reshape(-1, model.dim, model.dim)
    return ref.eigh_propagators(exponents[::-1], dt)


# the sphere model's loop: the qubit's shipped one, as (theta, phi)
SPHERE_LOOP = models.ParameterPath(
    lambda s: np.stack([np.full_like(s, math.pi / 3), 2.0 * math.pi * np.mod(s, 1.0)], axis=1),
    2, closed=True,
)
INCREMENT_MODELS = {
    "qubit": (models.QubitModel(), shipped("qubit")[1]),
    "sphere": (models.SphereQubitModel(1.0), SPHERE_LOOP),
    "usb": (models.UsbModel(), shipped("usb")[1]),
}


def near_identity_links(rng, m):
    # overlaps of neighbouring frames: a unitary close to I times a
    # contraction close to I, so sigma = 1 - O(1e-6)
    hs = np.stack([ref.random_hermitian(rng, m) for _ in range(256)])
    unitary = np.eye(m) + linalg.propagator_increments(hs, 1e-3)
    return (unitary @ (np.eye(m) - 1e-6 * hs @ hs),)


def random_chain(rng):
    states = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    return (abelian.StateChain(states),)


def both_ways(product):
    """A product of a stack and of its reversed view, which _cf4 passes."""
    return lambda mats: (product(mats), product(mats[::-1]))


def tracked(*args):
    return holonomy.eigenframe_path(*args).frames, holonomy.wilson_line(*args).matrix


def tracked_reference(*args):
    frames = ref.reference_frames(*args)
    return frames, ref.reference_wilson_line(frames)


def bits(points):
    """The bit patterns of a float array: rows on them are exact down to the sign of a zero."""
    return np.ascontiguousarray(points).view(np.uint64)


def path_s_values():
    """s in [0, 1), s = 1, signed zeros and subnormals, negative and large s, and the
    CF4 Gauss-node grid with its reversal 1 - s."""
    nodes = ((np.arange(4096)[:, None] + adiabatic._NODES) / 4096).ravel()
    edges = [1.0, 0.0, -0.0, 5e-324, -5e-324, -1e-20, 1.0 - 2.0**-53, 7.25, -3.5, 1e17]
    grid = np.arange(4096) / 4096
    return (np.concatenate([grid, edges, -np.arange(1, 600) / 97, nodes, 1.0 - nodes]),)


def frame_checks(model, path, block, n, f0):
    """The block's eigen-residual and projector, and the Wilson line built from its frames."""
    lams = path.sample(n)
    w, frames = model.band_states_batch(lams, block)
    residual = model.evaluate_batch(lams) @ frames - frames * w[:, None, block.indices()]
    line = holonomy.wilson_line(model, path, block, n, f0)
    return residual, frames @ linalg.dagger(frames), line.matrix, line.min_link_singular_value


ROWS = {}
for n, m in ((n, m) for n in (1, 2, 7, 64, 101) for m in (1, 2, 3, 4)):
    ROWS[f"ordered_product-n{n}-m{m}"] = Row(
        both_ways(linalg.ordered_product), both_ways(lambda s: ref.sequential_prefixes(s)[-1]),
        lambda rng, n=n, m=m: (np.stack([ref.random_unitary(rng, m) for _ in range(n)]),),
        (53, n, m), 1e-13,
    )
    ROWS[f"near_identity_product-n{n}-m{m}"] = Row(
        both_ways(lambda es: linalg.near_identity_product_last(np.moveaxis(es, 0, -1).copy())),
        both_ways(ref.sequential_near_identity),
        lambda rng, n=n, m=m: (
            1e-2 * (rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))),
        ),
        (59, n, m), 1e-14,
    )
ROWS["ordered_product-usb-links-65536"] = Row(
    linalg.ordered_product, ref.matmul_pairwise, lambda rng: (links("usb", 2**16),), None, 1e-12
)
for m in (1, 2, 3):
    ROWS[f"nearest_unitary-random-m{m}"] = Row(
        linalg.nearest_unitary, lambda a: ref.reference_link_polar(a[None])[0][0],
        lambda rng, m=m: (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)),), 37 + m, 1e-13,
    )
    ROWS[f"link_polar-near-identity-m{m}"] = Row(
        linalg.link_polar, ref.reference_link_polar, lambda rng, m=m: near_identity_links(rng, m),
        67 + m, (1e-13, 1e-15),
    )
EXACT = np.nextafter(0.0, 1.0)  # a bound no nonzero deviation is below
for name in MODELS:
    ROWS[f"link_polar-{name}-links"] = Row(
        linalg.link_polar, ref.reference_link_polar,
        lambda rng, k=name: (links(k, 512),), None, (1e-13, 1e-15),
    )
    ROWS[f"prefix_products-{name}-polar-factors"] = Row(
        linalg.prefix_products, ref.sequential_prefixes,
        lambda rng, k=name: (linalg.link_polar(links(k, 512))[0][:-1],), None, 1e-13,
    )
    ROWS[f"propagator_increments-{name}"] = Row(
        lambda hs, dt: linalg.propagator_increments(hs, dt) + np.eye(hs.shape[-1]),
        ref.eigh_propagators, lambda rng, k=name: hamiltonians(k, 0.37), None, 1e-14,
    )
    ROWS[f"cf4_chunk-{name}"] = Row(
        linalg.near_identity_product_last,
        lambda es: ref.matmul_pairwise(np.moveaxis(es, -1, 0), lambda a, b: a @ b + a + b),
        lambda rng, k=name: cf4_chunk(k), None, 1e-12,
    )
    for n in (512, 8192) if name == "usb" else (512,):
        ROWS[f"eigenframe_path-wilson_line-{name}-{n}"] = Row(
            tracked, tracked_reference, lambda rng, k=name, n=n: shipped(k, n), None, 1e-12
        )
    for total_time, steps in ((50.0, 4096), (200.0, 22628))[: 1 if name == "hub" else 2]:
        ROWS[f"evolve_schrodinger-{name}-T{total_time:g}-{steps}"] = Row(
            lambda run: adiabatic.evolve_schrodinger(run).final_states,
            ref.sequential_eigh_evolution,
            lambda rng, a=(name, total_time, steps): evolution(*a), None, 1e-12,
        )
# the raw-link line from the stack-last closed-form frames, against the naive
# link-at-a-time product over dense frames (a gauge the raw links cancel)
ROWS["wilson_line-usb-65536"] = Row(
    lambda *args: holonomy.wilson_line(*args).matrix,
    lambda model, *args: ref.reference_wilson_line(holonomy._sample_frames(ref.DenseUsb(), *args)),
    lambda rng: shipped("usb", 2**16), None, 1e-12,
)
for name, (model, path) in INCREMENT_MODELS.items():
    for dt in (1e-3, 0.37, 5.0):
        ROWS[f"model_increments-{name}-dt{dt:g}"] = Row(
            model_increments, combined_propagators,
            lambda rng, a=(model, path, dt): (a[0], cf4_points(a[1], 512, 512), a[2]), None, 1e-14,
        )
# the four-level increments, chunk products and runs, real in the basis D = diag(1, i, 1, 1),
# bit for bit against the complex128 forms they replace; 8192 and 9000 steps take 2 and 3 chunks
USB_LOOP = shipped("usb")[1]
ROWS["model_increments-usb-complex-form"] = Row(
    models.UsbModel().propagator_increments, ref.complex_usb_increments,
    lambda rng: (cf4_points(USB_LOOP, 512, 512), adiabatic._WEIGHTS, 0.37), None, EXACT,
)
ROWS["chunk_increment-usb-complex-form"] = Row(
    models.UsbModel().chunk_increment,
    lambda *a: linalg.near_identity_product_last(ref.complex_usb_increments(*a)),
    lambda rng: (cf4_points(USB_LOOP, 4096, 4096), adiabatic._WEIGHTS, 200.0 / 4096), None, EXACT,
)
for total_time, steps in ((10.0, 64), (50.0, 1024), (200.0, 4096), (800.0, 8192), (800.0, 9000)):
    ROWS[f"cf4-usb-complex-form-T{total_time:g}-{steps}"] = Row(
        adiabatic._cf4, ref.complex_usb_cf4,
        lambda rng, a=(total_time, steps): (evolution("usb", a[0], a[1])[0], a[1]), None, EXACT,
    )
# the one-gemm _rodrigues and the in-place fills, bit for bit against the per-step gemms and
# scattered fills they replace: stack-last, (k, 3)-contiguous and zero (R = 0) couplings
QUBIT_LOOP = shipped("qubit")[1]
RODRIGUES_INPUTS = {
    "usb-stack-last": lambda: cf4_points(USB_LOOP, 4096, 4096),
    "qubit-stack-last-partial": lambda: cf4_points(QUBIT_LOOP, 9000, 808),
    "sphere-contiguous": lambda: INCREMENT_MODELS["sphere"][0].field(
        cf4_points(SPHERE_LOOP, 512, 512)).reshape(512, 2, 3),
    "constant": lambda: cf4_points(models.constant_path([0.3, -1.2, 0.7]), 512, 512),
    "constant-contiguous": lambda: ref.stacked_constant(np.arange(1024), [0.3, -1.2, 0.7]).reshape(
        512, 2, 3),
    "zero": lambda: np.zeros((64, 2, 3)),
}
for name, couplings in RODRIGUES_INPUTS.items():
    for dt in (1e-3, 0.37):
        ROWS[f"rodrigues-{name}-dt{dt:g}-parent-form"] = Row(
            models._rodrigues, ref.batched_rodrigues,
            lambda rng, a=(couplings, dt): (a[0](), adiabatic._WEIGHTS, a[1]), None, EXACT,
        )
for name, (model, path) in INCREMENT_MODELS.items():
    for dt in (1e-3, 0.37, 200.0 / 4096):
        for kernel, reference in (
            ("propagator_increments", ref.scattered_increments),
            ("chunk_increment", ref.scattered_chunk_increment),
        ):
            ROWS[f"{kernel}-{name}-dt{dt:g}-parent-form"] = Row(
                lambda model, lams, dt, k=kernel: getattr(model, k)(lams, adiabatic._WEIGHTS, dt),
                lambda model, lams, dt, r=reference: r(model, lams, adiabatic._WEIGHTS, dt),
                lambda rng, a=(model, path, dt): (a[0], cf4_points(a[1], 4096, 4096), a[2]),
                None, EXACT,
            )
CF4_RUNS = ((10.0, 64), (50.0, 1024), (200.0, 4096), (800.0, 8192), (800.0, 9000))
for name in ("qubit", "usb"):
    for total_time, steps in CF4_RUNS:
        ROWS[f"cf4-{name}-parent-form-T{total_time:g}-{steps}"] = Row(
            adiabatic._cf4, ref.scattered_cf4,
            lambda rng, a=(name, total_time, steps): (evolution(*a)[0], a[2]), None, EXACT,
        )
for name in ("qubit", "usb"):
    # a zero field: the increments are exactly 0 (no float is below the smallest subnormal)
    ROWS[f"model_increments-{name}-zero-field"] = Row(
        lambda model, lams: model.propagator_increments(lams, adiabatic._WEIGHTS, 0.37),
        lambda model, lams: np.zeros((model.dim, model.dim, 2 * len(lams))),
        lambda rng, k=name: (MODELS[k](), np.zeros((64, 2, 3))), None, np.nextafter(0.0, 1.0),
    )


def every_block(closed_gap):
    """closed_gap of every block [start, stop) of each (n, dim) stack, as (k, gap) rows;
    (-1, 0) where no sample closes the block's gap."""
    return lambda stacks: np.array([
        closed_gap(w, start, stop) or (-1, 0.0)
        for w in stacks
        for start in range(w.shape[1])
        for stop in range(start + 1, w.shape[1] + 1)
    ])


def gap_stacks(rng):
    """Ascending energies whose rows span 1e-3 to 1e12, a few with one gap drawn around its
    row's closure threshold; and each shipped model's energies on its loop, the four-level
    one also on a loop whose energy scale spans 100 orders of magnitude."""
    stacks = []
    for dim in (2, 3, 4):
        w = np.sort(rng.normal(size=(512, dim)), axis=1) * 10.0 ** rng.uniform(-3, 12, (512, 1))
        rows = np.flatnonzero(rng.random(512) < 1 / 32)
        edge = rng.integers(1, dim, size=len(rows))
        threshold = linalg.DEGENERACY_TOL * np.maximum(1.0, np.abs(w[rows]).max(axis=1))
        w[rows, edge] = w[rows, edge - 1] + threshold * rng.uniform(0.0, 2.0, size=len(rows))
        stacks.append(np.sort(w, axis=1))
    wide = models.make_usb_loop("circle", {"b": 1e100})
    loops = [*INCREMENT_MODELS.values(), (models.UsbModel(), wide)]
    return (stacks + [model.energies_batch(loop.sample(1024)) for model, loop in loops],)


ROWS["closed_gap-per-sample"] = Row(
    every_block(linalg.closed_gap), every_block(ref.reference_closed_gap), gap_stacks, 97, EXACT,
)
for name, dense, ns in (("usb", ref.DenseUsb, (512, 8192)), ("qubit", ref.DenseQubit, (512,))):
    for n in ns:
        ROWS[f"block_frames-closed-vs-dense-{name}-{n}"] = Row(
            frame_checks, lambda model, *a, dense=dense: frame_checks(dense(), *a),
            lambda rng, k=name, n=n: shipped(k, n), None, 1e-12,
        )
for seed in ((67, 1), (67, 2), (67, 3), (67, 4), (98, 2), (269, 3), (324, 4)):
    # a phase scan at 2^16 points brackets the distance: it lies within pi / 2^16 below it.
    # A search over the phase overshot the scan on the last three seeds, by up to 7.8e-4
    m = seed[1]
    ROWS[f"holonomy_distance-m{m}" + (f"-seed{seed[0]}" if seed[0] != 67 else "")] = Row(
        lambda pairs: [holonomy.holonomy_distance(u, v) for u, v in pairs],
        lambda pairs: [ref.reference_holonomy_distance(u, v) for u, v in pairs],
        lambda rng, m=m: ([[ref.random_unitary(rng, m) for _ in "uv"] for _ in range(15)],),
        seed, math.pi / 2**16, one_sided=True,
    )
for dim in (1, 2, 3, 4):
    # ties, zero and tiny vectors: the pivot sweep picks the component np.argmax picked
    ROWS[f"gauge_fix-argmax-form-dim{dim}"] = Row(
        lambda v: bits(linalg.gauge_fix(v)), lambda v: bits(ref.argmax_gauge_fix(v)),
        lambda rng, d=dim: (np.concatenate([
            np.round(complex_normal(rng, 400, d)), complex_normal(rng, 100, d),
            np.zeros((3, d)), np.full((3, d), 1e-13 - 1e-13j), np.eye(d) * (1 - 1j),
        ]),), (89, dim), EXACT,
    )
ROWS["qubit_band_states-random"] = Row(
    lambda ns: tuple(models.qubit_band_states(ns, band) for band in (0, 1)),
    lambda ns: tuple(np.array([ref.reference_band_state(n, band) for n in ns]) for band in (0, 1)),
    lambda rng: (np.concatenate([
        [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -2, 0]],
        (rng.normal(size=(500, 3)) * rng.uniform(0.1, 10.0, size=(500, 1)))[4:],
    ]),),
    8, 1e-15,
)
QUBIT_EDGES = np.array([
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 3.0], [0.0, -0.0, -3.0],  # poles, rho = 0
    [1.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.0, -2.0, 0.0], [-0.5, 0.5, -0.0],  # z = +-0.0
    [1e-9, -1e-9, 1.0], [-1e-9, 1e-9, -1.0], [1e-300, 0.0, 2.0], [0.0, 1e-300, -2.0],
    [1.1e-12, 0.0, 0.0], [0.0, 0.0, -1.0000001e-12], [7e-13, -7e-13, 5e-13],  # |n| >~ RANK_TOL
    [3e-13, 6e-13, -9e-13], [1e90, -1e90, -1e90], [0.3, 0.4, -1e-200],
])


def qubit_fields(rng):
    """QUBIT_EDGES and random fields over both hemispheres, the z < 0 half among them."""
    fields = rng.normal(size=(400, 3)) * rng.uniform(0.1, 10.0, size=(400, 1))
    fields[::2, 2] = -np.abs(fields[::2, 2])
    return np.concatenate([QUBIT_EDGES, fields])


ROWS["qubit_band_states-edges"] = Row(
    ROWS["qubit_band_states-random"].kernel, ROWS["qubit_band_states-random"].reference,
    lambda rng: (qubit_fields(rng),), 81, 1e-15,
)
for band in (0, 1):  # the energies' norm, shared: the states of the kernel's own, bit for bit
    ROWS[f"qubit_band_states-band{band}-shared-norm"] = Row(
        lambda ns, b=band: bits(models.QubitModel().band_states_batch(
            ns, models.BandBlock(b, b + 1))[1][:, :, 0]),
        lambda ns, b=band: bits(models.qubit_band_states(ns, b)),
        lambda rng: (qubit_fields(rng),), 82, EXACT,
    )
for key, kernel, reference in (
    ("pancharatnam_phase", abelian.pancharatnam_phase,
     lambda c: ref.reference_loop_phase(c.states)),
    ("parallel_transport", lambda c: abelian.parallel_transport(c).states,
     lambda c: ref.cumulative_angle_transport(c).states),
):
    ROWS[f"{key}-qubit-band-4096"] = Row(
        kernel, reference,
        lambda rng: (abelian.bloch_chain(shipped("qubit")[1].sample(4096)),), None, 1e-12,
    )
    ROWS[f"{key}-random"] = Row(kernel, reference, random_chain, 97, 1e-12)
# the loop phase of berry-qubit and noise-study against the one-vdot-at-a-time product of
# per-point band states, on both bands, both orientations and ladders down to 8 samples
for key, path in (
    ("azimuthal", models.make_azimuthal_loop(1.0, 1.7)),
    ("reversed", models.reversed_path(models.make_azimuthal_loop(2.2))),
    ("usb-circle", models.make_usb_loop("circle", {"q0": 0.3})),
):
    for band, n in ((band, n) for band in (0, 1) for n in (8, 12, 4096)):
        ROWS[f"band_loop_phase-{key}-band{band}-{n}"] = Row(
            abelian.band_loop_phase,
            lambda model, path, band, n: ref.reference_loop_phase(
                [ref.reference_band_state(point, band) for point in path.sample(n)]
            ),
            lambda rng, p=path, b=band, n=n: (models.QubitModel(), p, b, n), None, 1e-12,
        )


def unit_circle_angles(rng):
    """[0, 2 pi) on a grid and at random, its quadrant points, and a = 2 pi s at
    s = 1 - 2^-52, the last angle a closed path evaluates."""
    quadrants = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi * (1.0 - 2.0**-52)]
    grid = 2.0 * math.pi * np.arange(2**16) / 2**16
    return (np.concatenate([quadrants, grid, 2.0 * math.pi * rng.random(2**16)]),)


# the tan-half unit circle of the path families, within 2 ulp of 1 of np.cos and np.sin
ROWS["cos_sin-unit-circle"] = Row(
    lambda a: tuple(models.cos_sin(a)), lambda a: (np.cos(a), np.sin(a)),
    unit_circle_angles, 83, 4.5e-16,
)
for key, args in (
    ("sphere", (models.SphereQubitModel(1.0), 0, [0.5, 0.3], (0, 1), (1.0, 1.5), (4, 6))),
    ("qubit", (models.QubitModel(), 1, [0.3, -0.2, 1.0], (0, 1), (1.0, 0.8), (3, 3))),
    ("hub", (ref.HubDetunedUsb(), 0, [0.3, 1.0, 0.5], (0, 2), (0.8, 0.6), (3, 4))),
):
    ROWS[f"plaquette_flux_and_boundary-{key}"] = Row(
        abelian.plaquette_flux_and_boundary, ref.reference_flux_and_boundary,
        lambda rng, a=args: a, None, 1e-12,
    )
# every shipped path family, bit for bit against its (k, p)-stacked np.mod form;
# parameters that are not powers of two, so a reassociated product shows
for key, path, stacked in (
    ("azimuthal", models.make_azimuthal_loop(1.0, 1.7),
     lambda s: ref.stacked_azimuthal(s, 1.0, 1.7)),
    ("usb-circle", models.make_usb_loop("circle", {"a": 0.4, "q0": 0.3, "b": 0.15}),
     lambda s: ref.stacked_usb_circle(s, a=0.4, q0=0.3, b=0.15)),
    ("constant", models.constant_path([0.3, -0.0, 2.0]),
     lambda s: ref.stacked_constant(s, [0.3, -0.0, 2.0])),
):
    for name, kernel, reference in (
        (key, path, stacked),
        (key + "-reversed", models.reversed_path(path), lambda s, f=stacked: f(1.0 - s)),
    ):
        ROWS[f"path-{name}"] = Row(
            lambda s, p=kernel: bits(p(s)), lambda s, f=reference: bits(f(s)),
            lambda rng: path_s_values(), None, EXACT,
        )
for key, inputs, seed in (
    ("azimuthal", lambda rng: (models.make_azimuthal_loop(1.0).sample(4096),), None),
    ("usb-loop", lambda rng: (models.make_usb_loop("circle").sample(4096),), None),
    ("south-cap", lambda rng: (models.make_azimuthal_loop(2.9).sample(4096), (0, 0, -1.0)), None),
):
    ROWS[f"solid_angle-{key}-4096"] = Row(
        abelian.solid_angle, ref.reference_solid_angle, inputs, seed, 1e-12
    )
# the berry-qubit oracle's inputs: loop points of radius 0.5 to 2.0, not normalised
# by the caller, up to 2^16 points (the experiment takes up to 2^18)
for radius, n in ((0.5, 4096), (2.0, 4096), (2.0, 2**16)):
    ROWS[f"solid_angle-radius{radius:g}-{n}"] = Row(
        abelian.solid_angle, ref.reference_solid_angle,
        lambda rng, r=radius, n=n: (models.make_azimuthal_loop(1.0, r).sample(n),), None, 1e-12,
    )
ROWS["solid_angle-usb-loop-65536"] = Row(
    abelian.solid_angle, ref.reference_solid_angle,
    lambda rng: (models.make_usb_loop("circle").sample(2**16),), None, 1e-12,
)
for key, params in (("shipped", {}), ("q0-b", {"q0": 0.3, "b": 0.15}), ("a", {"a": 0.4})):
    ROWS[f"usb_eta_pair-{key}-4096"] = Row(
        holonomy.usb_eta_pair, ref.reference_usb_eta_pair,
        lambda rng, p=params: (models.make_usb_loop("circle", p), 2**12), None, 1e-12,
    )
# d theta from neighbouring samples and norms from sums of squares, against the unwrapped
# hypot form they replace: the shipped loop, the closest to P = S = 0 that the benchmark
# draws (s0 - a = 0.35) and one whose Q spans 100 orders of magnitude
for key, params in (("shipped", {}), ("s0-a-0.35", {"a": 0.65}), ("b1e100", {"b": 1e100})):
    for n in (512, 8192, 2**16):
        ROWS[f"usb_eta_pair-{key}-{n}-unwrapped-form"] = Row(
            holonomy.usb_eta_pair, ref.unwrapped_usb_eta_pair,
            lambda rng, p=params, n=n: (models.make_usb_loop("circle", p), n), None, 1e-14,
        )


def blocked(kernel, size):
    """kernel run with linalg.BLOCK = size; None runs every input as one block."""
    def run(*args):
        with mock.patch.object(linalg, "BLOCK", size or 2**62):
            return kernel(*args)
    return run


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def stack_last(array):
    """The (n, ...) view of an (..., n) array, as the shipped paths and frames come."""
    return np.moveaxis(array, -1, 0)


def overlaps(closed):
    return lambda frames: linalg.link_overlaps(frames, closed)


# the streamed kernels at BLOCK = 7, bit for bit against one block, for n below, at,
# a multiple of and a remainder past BLOCK, both as samples (n) and as open links (n - 1)
BLOCK_INPUTS = {
    "solid_angle": (abelian.solid_angle, lambda rng, n: (stack_last(rng.normal(size=(3, n))),)),
    "link_overlaps-closed-3d": (overlaps(True), lambda rng, n: (complex_normal(rng, n, 4, 2),)),
    "link_overlaps-open-3d": (
        overlaps(False), lambda rng, n: (stack_last(complex_normal(rng, 3, 1, n)),)
    ),
    "link_overlaps-closed-4d": (
        overlaps(True), lambda rng, n: (stack_last(complex_normal(rng, 3, 4, 2, n)),)
    ),
    "link_overlaps-open-4d": (overlaps(False), lambda rng, n: (complex_normal(rng, n, 2, 3, 1),)),
}
for key, (kernel, inputs) in BLOCK_INPUTS.items():
    for n in (5, 7, 8, 21, 22, 25):
        ROWS[f"{key}-blocks-{n}"] = Row(
            blocked(kernel, 7), blocked(kernel, None), lambda rng, f=inputs, n=n: f(rng, n),
            (73, n), EXACT,
        )


def fan_bits(kernel):
    """kernel's solid angle as the bits of a (1,) array."""
    return lambda *args: bits(np.array([kernel(*args)]))


def fan_inputs(theta0, reference, form, n):
    loop = models.make_azimuthal_loop(theta0, 1.7)
    return (models.PathSamples(loop, n) if form == "samples" else loop.sample(n)), reference


# the fan in the reference's frame against the cross-matrix form it replaced: bit for bit
# from +-z, where the frame is a signed permutation of the axes, on loops north and south
# of the equator, of radius 1.7, as a PathSamples grid and as an array, past one block and
# at BLOCK = 7; from a general reference, within 1e-12 of the exactly summed reference
for theta0 in (0.4, 1.2, 2.2, 2.75):
    for pole, reference in (("+z", (0.0, 0.0, 1.0)), ("-z", (0.0, 0.0, -1.0))):
        for form in ("samples", "array"):
            for n, size in ((2 * linalg.BLOCK + 5, None), (25, 7)):
                key = f"solid_angle-theta{theta0:g}-from{pole}-{form}-{n}-cross-matrix-form"
                ROWS[key] = Row(
                    blocked(fan_bits(abelian.solid_angle), size),
                    blocked(fan_bits(ref.cross_matrix_solid_angle), size),
                    lambda rng, args=(theta0, reference, form, n): fan_inputs(*args), None, EXACT,
                )
    ROWS[f"solid_angle-theta{theta0:g}-general-reference-16384"] = Row(
        abelian.solid_angle, ref.reference_solid_angle,
        lambda rng, t=theta0: fan_inputs(t, (0.3, -0.2, -1.0), "array", 2**14), None, 1e-12,
    )
ROWS["solid_angle-usb-loop-general-reference-65536"] = Row(
    abelian.solid_angle, ref.reference_solid_angle,
    lambda rng: (models.make_usb_loop("circle").sample(2**16), (0.3, -0.2, -1.0)), None, 1e-12,
)


def real_result(kernel):
    """kernel, checked to return float64 arrays."""
    def run(*args):
        out = kernel(*args)
        assert out.dtype == np.float64
        return out
    return run


def on_complex(kernel):
    """kernel on its float64 input cast to complex128, in the same memory order."""
    return lambda array: kernel(array.astype(complex))


def relative_to_complex(kernel):
    """kernel's float64 result over its result on the input cast to complex, minus 1."""
    return lambda array: real_result(kernel)(array) / on_complex(kernel)(array) - 1.0


def energies_and_gaps(energies):
    """The bit patterns of a model's (k, dim) energies and closed_gap of each of their blocks."""
    def run(model, lams):
        w = energies(model, lams)
        return bits(w), every_block(linalg.closed_gap)([w])
    return run


def near_identity(rng, *shape):
    return np.eye(shape[-1]) + 0.01 * rng.normal(size=shape)


# the kernels that keep float64 input real (the four-level frames, links and products),
# bit for bit against the same input cast to complex, within and past one BLOCK; above
# 256 kB numpy elides a temporary of a complex product and may swap its operands. The
# frames are stack-last, as the shipped ones are: on an (n, dim, m) C-order stack the
# float64 einsum may sum a contiguous dim axis in another order than the complex one
FLOAT64_INPUTS = {
    "link_overlaps-closed": (
        overlaps(True), lambda rng, n: (stack_last(rng.normal(size=(4, 2, n))),)
    ),
    "link_overlaps-open": (
        overlaps(False), lambda rng, n: (stack_last(rng.normal(size=(4, 1, n))),)
    ),
    "link_sigma_min-m1": (
        linalg.link_sigma_min, lambda rng, n: (stack_last(rng.normal(size=(1, 1, n))),)
    ),
    **{
        f"ordered_product-m{m}": (
            linalg.ordered_product, lambda rng, n, m=m: (near_identity(rng, n, m, m),)
        )
        for m in (1, 2, 4)
    },
    "near_identity_product_last-m4": (
        linalg.near_identity_product_last, lambda rng, n: (0.01 * rng.normal(size=(4, 4, n)),)
    ),
}
for key, (kernel, inputs) in FLOAT64_INPUTS.items():
    for n in (25, 3 * linalg.BLOCK + 5):
        ROWS[f"float64-{key}-{n}"] = Row(
            real_result(kernel), on_complex(kernel), lambda rng, f=inputs, n=n: f(rng, n),
            (79, n), EXACT,
        )
# m = 2 float64 links take the real polar branch (phase = sign(det), square roots of sums
# of squares for hypot): its singular values within 1e-15 relative (4.5 ulp)
for n in (25, 3 * linalg.BLOCK + 5):
    ROWS[f"float64-link_sigma_min-m2-{n}"] = Row(
        relative_to_complex(linalg.link_sigma_min), lambda links: 0.0,
        lambda rng, n=n: (stack_last(rng.normal(size=(2, 2, n))),), (79, n), 1e-15,
    )
# the closed-form energies, which view stack-last (dim, k) arrays, bit for bit against the
# norm(axis=1) and (k, dim) np.stack form they replace, with the same closed_gap verdicts
ENERGY_INPUTS = {
    "loop": lambda rng: shipped("usb")[1].sample(4096),
    "wide-loop": lambda rng: models.make_usb_loop("circle", {"b": 1e100}).sample(4096),
    "c-order": lambda rng: rng.normal(size=(4096, 3)) * 10.0 ** rng.uniform(-3, 12, (4096, 1)),
}
for name in ("usb", "qubit"):
    for key, inputs in ENERGY_INPUTS.items():
        for what, energies in (
            ("energies_batch", lambda model, lams: model.energies_batch(lams)),
            ("band_states_batch", lambda model, lams: model.band_states_batch(
                lams, models.BandBlock(0, 1))[0]),
        ):
            ROWS[f"{what}-{name}-{key}-stacked-form"] = Row(
                energies_and_gaps(energies), energies_and_gaps(ref.stacked_energies),
                lambda rng, k=name, f=inputs: (MODELS[k](), f(rng)), 89, EXACT,
            )

# the trapezoid written out, bit for bit against numpy's own on the same grid: the lowest
# and highest band of the qubit loop, the four-level loop and the hub-detuned model
for name in MODELS:
    for band in (0, MODELS[name].dim - 1):
        for total_time in (10.0, 200.0):
            ROWS[f"dynamical_phase-{name}-band{band}-T{total_time:g}-library-trapezoid"] = Row(
                adiabatic.dynamical_phase, ref.library_dynamical_phase,
                lambda rng, a=(name, band, total_time): (
                    MODELS[a[0]](), shipped(a[0])[1], a[2], models.BandBlock(a[1], a[1] + 1)
                ), None, EXACT,
            )


@pytest.mark.parametrize("row", ROWS.values(), ids=list(ROWS))
def test_kernel_matches_reference(row):
    args = row.inputs(np.random.default_rng(row.seed))
    got, expected = row.kernel(*args), row.reference(*args)
    if not isinstance(got, tuple):
        got, expected = (got,), (expected,)
    bounds = row.bound if isinstance(row.bound, tuple) else (row.bound,) * len(got)
    for a, b, bound in zip(got, expected, bounds, strict=True):
        deviation = np.subtract(a, b)
        assert linalg.max_abs(deviation) < bound
        assert not row.one_sided or np.all(deviation <= 0.0)


@pytest.mark.parametrize(
    "block", [models.BandBlock(0, 4), holonomy.USB_DARK_BLOCK, models.BandBlock(0, 1),
              models.BandBlock(3, 4)], ids=str,
)
def test_usb_frames_of_a_stack_are_each_rows_own(block):
    # the four-level frames are elementwise: a stack-last stack of random couplings, with
    # Q = +-0.0 and P = S = 0 among them, gives each row's frames alone, bit for bit
    lams = stack_last(np.random.default_rng(73).normal(size=(3, 300)))
    lams[:50, 2] = 0.0
    lams[50:100, 2] = -0.0
    lams[100:120, :2] = 0.0
    frames = models.UsbModel().band_states_batch(lams, block)[1]
    alone = [models.UsbModel().band_states_batch(row, block)[1][0] for row in lams]
    assert frames.tobytes() == np.stack(alone).tobytes()


@pytest.mark.parametrize("name", RODRIGUES_INPUTS)
def test_rodrigues_rows_are_c_contiguous(name):
    # einsum sums an F-ordered (c, k e) stack to other last bits of R^2
    c = models._rodrigues(RODRIGUES_INPUTS[name](), adiabatic._WEIGHTS, 0.37)[0]
    assert c.flags.c_contiguous


OCTANT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_real_link_polar_is_the_svd():
    # the real 2x2 branch against one SVD per link, on links of either sign of det, of
    # det = 0 (rank one), zero and NaN ones; the polar factor where it is unique
    rng = np.random.default_rng(83)
    links = rng.normal(size=(512, 2, 2))
    links[:5] = [  # a swap and a reflection (det = -1), rank one, zero, NaN
        [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [2.0, 4.0]],
        np.zeros((2, 2)), [[np.nan, 0.0], [0.0, 1.0]],
    ]
    links = stack_last(np.moveaxis(links, 0, -1).copy())  # as link_overlaps gives them
    polar, sigma = linalg.link_polar(links)
    assert polar.dtype == sigma.dtype == np.float64
    assert np.all(np.isnan(polar[4])) and np.isnan(sigma[4])
    finite = np.delete(np.arange(512), 4)
    expected_polar, expected_sigma = ref.reference_link_polar(links[finite])
    dets = np.linalg.det(links[finite])
    assert np.sum(dets < 0.0) > 100 and np.sum(dets == 0.0) == 2
    scale = np.linalg.norm(links[finite], 2, axis=(1, 2))  # the largest singular value
    assert np.all(np.abs(sigma[finite] - expected_sigma) <= 1e-15 * scale)
    unique = expected_sigma > 1e-8
    assert linalg.max_abs(polar[finite][unique] - expected_polar[unique]) < 1e-13


@pytest.mark.parametrize("band", [0, 1])
def test_qubit_band_states_are_the_half_angle_rays(band):
    """The reflector gauge against the trigonometric one: the same ray, |<old|new>| = 1."""
    ns = qubit_fields(np.random.default_rng(83))
    overlap = np.einsum("ki,ki->k", ref.half_angle_band_states(ns, band).conj(),
                        models.qubit_band_states(ns, band))
    assert linalg.max_abs(np.abs(overlap) - 1.0) < 1e-15


@pytest.mark.parametrize("n", [512, 65536])
@pytest.mark.parametrize("band", [0, 1])
def test_qubit_loop_phase_is_the_half_angle_form(band, n):
    """Loop phases of azimuthal loops from the reflector gauge and the trigonometric one."""
    for theta0 in (0.4, 1.0, math.pi / 2, 2.0, 2.7):
        loop = models.make_azimuthal_loop(theta0)
        phase = abelian.band_loop_phase(models.QubitModel(), loop, band, n)
        expected = abelian._loop_phase(ref.half_angle_band_states(loop.sample(n), band))[0]
        assert abs(math.remainder(phase - expected, 2.0 * math.pi)) < 1e-13  # pi is -pi


class TestReferences:
    """The new references against closed forms, so that no row passes on a wrong copy."""

    def test_solid_angle_octant_and_azimuthal_loops(self):
        assert ref.reference_solid_angle(OCTANT) == pytest.approx(math.pi / 2, abs=1e-14)
        for theta0 in (0.3, math.pi / 3, math.pi / 2, 2.2, 2.8):
            omega = ref.reference_solid_angle(models.make_azimuthal_loop(theta0).sample(4096))
            assert abs(omega - 2.0 * math.pi * (1.0 - math.cos(theta0))) < 1e-5

    def test_usb_eta_pair_matches_golden(self):
        golden = json.loads((Path(__file__).parent / "golden_usb_eta.json").read_text("utf-8"))
        eta = ref.reference_usb_eta_pair(models.make_usb_loop("circle"), golden["n_samples"])
        assert abs(eta[0] - golden["eta_theta"]) < 1e-10
        assert abs(eta[1] - golden["eta_line"]) < 1e-10

    def test_loop_phase_octant_triple(self):
        states = abelian.bloch_chain(OCTANT).states
        assert ref.reference_loop_phase(states) == pytest.approx(-math.pi / 4, abs=1e-12)


class TestBlockErrors:
    """An error in a later block names its global index."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK", 7)

    @staticmethod
    def loop():
        return models.make_azimuthal_loop(1.0).sample(25)

    @pytest.mark.parametrize(
        "index, value, what", [(17, 0.0, "zero vector"), (9, np.nan, "non-finite entry")]
    )
    def test_solid_angle_bad_direction(self, index, value, what):
        dirs = self.loop()
        dirs[index] = value
        with pytest.raises(ValueError, match=f"{what} at index {index}$"):
            abelian.solid_angle(dirs)

    @pytest.mark.parametrize("index, successor", [(15, 16), (24, 0)])
    def test_solid_angle_antipodal_pair(self, index, successor):
        dirs = self.loop()
        dirs[successor] = -dirs[index]
        pair = rf"directions \({index}, {successor}\) are antipodal"
        with pytest.raises(ValueError, match=pair):
            abelian.solid_angle(dirs)

    def test_solid_angle_reference_antipodal(self):
        dirs = self.loop()
        dirs[19] = (0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="direction 19 is antipodal to the reference"):
            abelian.solid_angle(dirs)

    @pytest.mark.parametrize("index, successor", [(12, 13), (24, 0)])
    def test_orthogonal_state_link(self, index, successor):
        states = abelian.bloch_chain(self.loop()).states
        states[successor] = np.conj(states[index, ::-1]) * (1.0, -1.0)  # orthogonal
        with pytest.raises(abelian.OverlapTooSmallError, match=rf"\({index}, {successor}\)"):
            abelian.pancharatnam_phase(abelian.StateChain(states))

    def test_singular_frame_link(self):
        links = np.tile(np.eye(2, dtype=complex), (25, 1, 1))
        links[16, 1, 1] = 0.0
        with pytest.raises(holonomy.IllConditionedLinkError, match="link 16 "):
            linalg.check_links(
                linalg.link_sigma_min(links), holonomy.SUBSPACE_OVERLAP_TOL,
                holonomy.IllConditionedLinkError,
            )


def outcome(kernel, *args):
    """kernel's value as bits, or the type and message of the error it raised."""
    try:
        return bits(np.array([kernel(*args)])).tolist()
    except DegenerateInputError as error:
        return type(error), str(error)


class TestAntipodeScreens:
    """Near-antipodes 1e-13, 1e-10 and 1e-8 from exact in a later block: the screened fan
    gives the verdict, message and first index of both exact tests run on every row."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK", 7)

    @staticmethod
    def check(dirs, reference, rejected):
        got = outcome(abelian.solid_angle, dirs, reference)
        assert got == outcome(ref.cross_matrix_solid_angle, dirs, reference, np.inf)
        assert isinstance(got, tuple) == rejected

    @pytest.mark.parametrize("offset", [1e-13, 1e-10, 1e-8])
    @pytest.mark.parametrize("index, successor", [(15, 16), (24, 0)])
    def test_antipodal_pair(self, index, successor, offset):
        dirs = models.make_azimuthal_loop(1.0).sample(25)
        tangent = np.cross(dirs[index], (0.0, 0.0, 1.0))
        dirs[successor] = -dirs[index] + offset * tangent / np.linalg.norm(tangent)
        self.check(dirs, (0.0, 0.0, 1.0), offset < abelian.ANTIPODAL_TOL)

    @pytest.mark.parametrize("offset", [1e-13, 1e-10, 1e-8])
    @pytest.mark.parametrize("reference", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    def test_reference_antipode(self, reference, offset):
        dirs = models.make_azimuthal_loop(1.0).sample(25)
        dirs[19] = np.negative(reference) + (offset, 0.0, 0.0)
        self.check(dirs, reference, offset < 1e-9)

    @pytest.mark.parametrize("offset", [1e-13, 1e-10, 1e-8])
    def test_first_index_among_candidates(self, offset):
        # in the block 14..20 a kept near-pair (14, 15), a reference antipode at 17 and a
        # pair (19, 20), both at offset: at 1e-13 the pair is named, as the pair test runs
        # first within a block; at 1e-10 the vertex; at 1e-8 neither
        dirs = models.make_azimuthal_loop(1.0).sample(25)
        dirs[15] = -dirs[14] + (0.0, 0.0, 1e-6)
        dirs[17] = (offset, 0.0, -1.0)
        dirs[20] = -dirs[19] + (0.0, 0.0, offset)
        self.check(dirs, (0.0, 0.0, 1.0), offset < 1e-9)


class TestStreamedKernels:
    """The kernels that sample their path per linalg.blocks against their whole-path
    forms, bit for bit: below, at and past one block, and at a smaller BLOCK."""

    @pytest.mark.parametrize("block_size", [None, 64])
    @pytest.mark.parametrize("n", [16, 8191, 8192, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("name", ["usb", "qubit"])
    def test_wilson_line_is_the_whole_path_form(self, monkeypatch, name, n, block_size):
        if block_size:  # a power of two, as BLOCK is
            monkeypatch.setattr(linalg, "BLOCK", block_size)
        args = shipped(name, n)
        line = holonomy.wilson_line(*args)
        matrix, sigma_min, defect = ref.whole_path_wilson_line(*args)
        assert np.array_equal(line.matrix, matrix)
        assert line.min_link_singular_value == sigma_min
        assert line.unitarity_defect == defect

    @pytest.mark.parametrize("n", [16, 8191, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("block, phases", [
        (holonomy.USB_DARK_BLOCK, (1.0, 1.0)), (holonomy.USB_DARK_BLOCK, (1j, np.exp(0.3j))),
        (models.BandBlock(0, 1), None),
    ], ids=["dark", "dark-complex-basepoint", "bright"])
    def test_float64_usb_wilson_line_is_the_complex_form(self, n, block, phases):
        # the closed-form frames are float64, and so are the links and their product unless
        # a complex basepoint promotes them; m > 2 links would take LAPACK's real SVD, whose
        # singular values need not match the complex SVD's bit for bit
        model, path, _, _, frame = shipped("usb", n)
        f0 = None if phases is None else frame * phases
        assert model.band_states_batch(path.sample(n), block)[1].dtype == np.float64
        line = holonomy.wilson_line(model, path, block, n, f0)
        cast = None if f0 is None else f0.astype(complex)
        complex_form = ref.whole_path_wilson_line(ref.ComplexUsb(), path, block, n, cast)
        matrix, sigma_min, defect = complex_form
        assert np.array_equal(line.matrix, matrix)
        assert line.unitarity_defect == defect
        # real 2x2 links take the real polar branch: sigma within 1e-15 relative
        real_pair = block.size == 2 and np.isrealobj(f0)
        bound = 1e-15 * sigma_min if real_pair else 0.0
        assert abs(line.min_link_singular_value - sigma_min) <= bound

    @pytest.mark.parametrize("n, block_size", [
        (3, None), (4096, None), (8192, None), (8193, None), (3 * 8192 + 5, None), (25, 7)
    ])
    @pytest.mark.parametrize("path", [
        models.make_azimuthal_loop(1.0, 1.7),
        models.reversed_path(models.make_azimuthal_loop(2.2)),
        models.constant_path([0.3, -0.0, 2.0]),
    ], ids=["azimuthal", "reversed", "constant"])
    def test_path_samples_solid_angle_is_the_grid_form(self, monkeypatch, path, n, block_size):
        if block_size:
            monkeypatch.setattr(linalg, "BLOCK", block_size)
        grid = models.PathSamples(path, n)
        assert len(grid) == n
        for reference in [(0.0, 0.0, 1.0), (0.3, -0.2, -1.0)]:
            got = abelian.solid_angle(grid, reference)
            expected = abelian.solid_angle(path.sample(n), reference)
            assert bits(np.array([got])) == bits(np.array([expected]))
            # a C-order (n, 3) array: at n = 3, pancharatnam's vertex triple
            c_order = abelian.solid_angle(np.array(path.sample(n)), reference)
            assert bits(np.array([c_order])) == bits(np.array([expected]))
