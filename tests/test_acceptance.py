"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned
here and nowhere else. Criterion 6 is split: 6a checks the strict
decrease, leakage and runtime clauses; 6b checks each sweep's log-log
slope against the adiabatic order its model predicts, in windows of
width 1.0. The four-level dark block must converge at second order
(slope in [-2.5, -1.5]): its bright levels sit at +-R with identical
couplings to the dark pair, so the first-order in-block term cancels.
The qubit sweep has no such cancellation and must converge at first
order (slope in [-1.5, -0.5]). tests/test_adiabatic.py pins the cause
with a hub-detuned control that breaks the +-R symmetry and falls back
to first order.
"""

import math
import time

import numpy as np
import pytest
import reference as ref

from holosim import abelian, adiabatic, experiments, holonomy, linalg, models


def _verdict(num: str, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3} {name}: {status} ({detail})", flush=True)
    return ok


@pytest.fixture(scope="module")
def usb_sweep():
    model = models.UsbModel()
    loop = models.make_usb_loop("circle")
    frame = models.UsbModel().dark_frame_batch(loop(np.array([0.0])))[0]
    t0 = time.perf_counter()
    sweep = adiabatic.convergence_sweep(
        model, loop, holonomy.USB_DARK_BLOCK, [50.0, 200.0, 800.0], initial_frame=frame
    )
    elapsed = time.perf_counter() - t0
    return sweep, elapsed, (model, loop, frame)


def test_c1_qubit_berry_phase_vs_solid_angle():
    worst_err, worst_time = 0.0, 0.0
    for theta0 in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        t0 = time.perf_counter()
        loop = models.make_azimuthal_loop(theta0)
        phase = abelian.band_loop_phase(models.QubitModel(), loop, 0, 4096)
        omega = 2.0 * math.pi * (1.0 - math.cos(theta0))
        err = abs(linalg.wrap_angle(phase + 0.5 * omega))
        elapsed = time.perf_counter() - t0
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    ok = worst_err < 1e-4 and worst_time < 1.0
    assert _verdict(
        "1",
        "qubit loop phase = -solid_angle/2",
        ok,
        f"worst |phase + O/2| = {worst_err:.2e} (< 1e-4), "
        f"worst runtime {worst_time:.2f}s (< 1s)",
    )


def test_c2_constant_curvature_on_lower_band():
    t0 = time.perf_counter()
    report = experiments.run_experiment("curvature-map")
    elapsed = time.perf_counter() - t0
    worst = [c for c in report.checks if c.name == "worst_cell_error"][0]
    ok = worst.passed and elapsed < 5.0
    assert _verdict(
        "2",
        "area-normalized curvature = -1/2 on 20x20 grid",
        ok,
        f"worst cell error {worst.value:.2e} (< 1e-3), runtime {elapsed:.2f}s (< 5s)",
    )


def test_c3_stokes_identity_on_random_patches():
    sphere = models.SphereQubitModel(1.0)
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10):
        origin = [rng.uniform(0.3, 1.6), rng.uniform(0.0, 4.0)]
        extents = (rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.8))
        cells = (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        flux, boundary = abelian.plaquette_flux_and_boundary(
            sphere, 0, origin, (0, 1), extents, cells
        )
        worst = max(worst, abs(linalg.wrap_angle(flux - boundary)))
    ok = worst < 1e-10
    assert _verdict(
        "3",
        "tiled plaquette sum telescopes to boundary phase",
        ok,
        f"worst |flux - boundary| = {worst:.2e} (< 1e-10), 10 random patches",
    )


def test_c4_pancharatnam_octant():
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    phase = abelian.pancharatnam_phase(abelian.bloch_chain(dirs))
    omega = abelian.solid_angle(dirs)
    err_exact = abs(phase - (-math.pi / 4))
    err_cross = abs(linalg.wrap_angle(phase + 0.5 * omega))
    ok = err_exact < 1e-12 and err_cross < 1e-6
    assert _verdict(
        "4",
        "octant spinor triple phase",
        ok,
        f"|phase + pi/4| = {err_exact:.2e} (< 1e-12), "
        f"|phase + solid_angle/2| = {err_cross:.2e} (< 1e-6)",
    )


def test_c5_usb_holonomy_closed_form_oracle():
    t0 = time.perf_counter()
    loop = models.make_usb_loop("circle")
    eta_theta, eta_line = holonomy.usb_eta_pair(loop, 2**14)
    eta_gap = abs(eta_theta - eta_line)
    wilson = holonomy.usb_wilson_line(loop, 8192)
    target = holonomy.usb_holonomy_closed_form(eta_theta)
    dist = holonomy.holonomy_distance(wilson.matrix, target)
    elapsed = time.perf_counter() - t0
    ok = dist < 1e-3 and eta_gap < 1e-6 and elapsed < 10.0
    assert _verdict(
        "5",
        "Wilson line matches closed-form rotation",
        ok,
        f"distance {dist:.2e} (< 1e-3), eta quadrature gap {eta_gap:.2e} (< 1e-6), "
        f"runtime {elapsed:.2f}s (< 10s)",
    )


def test_c6a_adiabatic_convergence_monotone(usb_sweep):
    sweep, elapsed, _ = usb_sweep
    dists = sweep.distances()
    leaks = sweep.leakages()
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    leak_mono = all(b < a for a, b in zip(leaks, leaks[1:]))
    ok = decreasing and leak_mono and elapsed < 120.0
    assert _verdict(
        "6a",
        "sweep distances and leakage decrease over T = 50/200/800",
        ok,
        f"distances {['%.2e' % d for d in dists]}, leakage "
        f"{['%.2e' % l for l in leaks]}, runtime {elapsed:.1f}s (< 120s)",
    )


def test_c6b_adiabatic_convergence_slope_window(usb_sweep):
    # Each sweep is held to the order its model predicts (module docstring);
    # the qubit loop keeps the first-order window exercised.
    sweep, _, _ = usb_sweep
    loop = models.make_azimuthal_loop(math.pi / 3)
    frame = models.qubit_band_states(loop(np.array([0.0])), 0)[0][:, None]
    qubit_sweep = adiabatic.convergence_sweep(
        models.QubitModel(),
        loop,
        holonomy.BandBlock(0, 1),
        [50.0, 200.0, 800.0],
        initial_frame=frame,
    )
    usb_ok = -2.5 <= sweep.slope <= -1.5
    qubit_ok = -1.5 <= qubit_sweep.slope <= -0.5
    ok = usb_ok and qubit_ok
    assert _verdict(
        "6b",
        "sweep log-log slope at the predicted adiabatic order",
        ok,
        f"four-level slope {sweep.slope:.3f} (in [-2.5, -1.5], second order), "
        f"qubit slope {qubit_sweep.slope:.3f} (in [-1.5, -0.5], first order)",
    )


def test_c7_dark_space_dynamical_phase(usb_sweep):
    sweep, _, (model, loop, frame) = usb_sweep
    deltas = [
        adiabatic.dynamical_phase(model, loop, total_time, holonomy.USB_DARK_BLOCK)
        for total_time in (1.0, 50.0, 800.0, 12345.0)
    ]
    exactly_zero = all(d == 0.0 for d in deltas)

    res = adiabatic.adiabatic_holonomy(
        model, loop, 200.0, holonomy.USB_DARK_BLOCK, 8192, initial_frame=frame
    )
    raw_equals_stripped = np.array_equal(res.overlap_matrix, res.overlap_matrix_raw)
    raw = linalg.nearest_unitary(res.overlap_matrix_raw)
    dist_raw = holonomy.holonomy_distance(raw, sweep.reference.matrix)
    converged = dist_raw < 1e-3 and sweep.distances()[-1] < sweep.distances()[0]
    ok = exactly_zero and raw_equals_stripped and converged
    assert _verdict(
        "7",
        "dark band has exactly zero dynamical phase",
        ok,
        f"all deltas == 0.0: {exactly_zero}, raw overlap == stripped: "
        f"{raw_equals_stripped}, unstripped->Wilson distance {dist_raw:.2e}",
    )


def test_c8_gauge_invariance_suite():
    rng = np.random.default_rng(88)
    chain = abelian.bloch_chain(models.make_azimuthal_loop(1.0).sample(128))
    base_phase = abelian.pancharatnam_phase(chain)
    worst_abelian = 0.0
    for _ in range(100):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=len(chain)))
        rechain = abelian.StateChain(chain.states * phases[:, None])
        worst_abelian = max(worst_abelian, abs(abelian.pancharatnam_phase(rechain) - base_phase))

    loop = models.make_usb_loop("circle")
    f0 = models.UsbModel().dark_frame_batch(loop(np.array([0.0])))[0]
    v = holonomy.wilson_line(
        models.UsbModel(), loop, holonomy.USB_DARK_BLOCK, 256, initial_frame=f0
    ).matrix
    worst_conj, worst_eig = 0.0, 0.0
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        g = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        w = holonomy.wilson_line(
            models.UsbModel(),
            loop,
            holonomy.USB_DARK_BLOCK,
            256,
            initial_frame=f0 @ g,
        ).matrix
        worst_conj = max(worst_conj, linalg.max_abs(w - g.conj().T @ v @ g))
        worst_eig = max(worst_eig, ref.eigenangle_distance(w, v))
    ok = worst_abelian < 1e-12 and worst_conj < 1e-10 and worst_eig < 1e-10
    assert _verdict(
        "8",
        "gauge invariance (100 rephasings, 20 frame rotations)",
        ok,
        f"abelian shift {worst_abelian:.2e} (< 1e-12), conjugation defect "
        f"{worst_conj:.2e} (< 1e-10), eigenangle shift {worst_eig:.2e} (< 1e-10)",
    )


def test_c9_orientation_suite():
    chain = abelian.bloch_chain(models.make_azimuthal_loop(1.0).sample(256))
    fwd = abelian.pancharatnam_phase(chain)
    bwd = abelian.pancharatnam_phase(chain.reversed())
    abelian_flip = abs(linalg.wrap_angle(fwd + bwd))

    loop = models.make_usb_loop("circle")
    f0 = models.UsbModel().dark_frame_batch(loop(np.array([0.0])))[0]
    v_fwd = holonomy.wilson_line(
        models.UsbModel(), loop, holonomy.USB_DARK_BLOCK, 512, initial_frame=f0
    ).matrix
    v_bwd = holonomy.wilson_line(
        models.UsbModel(),
        models.reversed_path(loop),
        holonomy.USB_DARK_BLOCK,
        512,
        initial_frame=f0,
    ).matrix
    holo_flip = linalg.max_abs(v_bwd - v_fwd.conj().T)
    ok = abelian_flip < 1e-12 and holo_flip < 1e-10
    assert _verdict(
        "9",
        "orientation reversal negates phases / daggers holonomies",
        ok,
        f"|chi_fwd + chi_bwd| = {abelian_flip:.2e} (< 1e-12), "
        f"||V_bwd - V_fwd^dag|| = {holo_flip:.2e} (< 1e-10)",
    )


def test_c10_noise_study_sanity():
    zero = experiments.run_experiment(
        "noise-study", {"noise": {"amplitude_ladder": [0.0]}}
    )
    zero_dev = zero.rows[0][1] == 0.0 and zero.rows[0][2] == 0.0

    a = experiments.run_experiment("noise-study")
    b = experiments.run_experiment("noise-study")
    deterministic = a.csv_text() == b.csv_text()

    slope_check = [
        c for c in a.checks if c.name == "projected_shift_loglog_slope"
    ][0]
    ok = zero_dev and deterministic and slope_check.passed
    assert _verdict(
        "10",
        "noise study: zero at eps=0, bit-identical reruns, eps^2 slope",
        ok,
        f"zero-amplitude deviation 0: {zero_dev}, deterministic: {deterministic}, "
        f"projected slope {slope_check.value:.3f} (>= 1.5)",
    )
