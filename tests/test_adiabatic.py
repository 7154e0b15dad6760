import math
import warnings

import numpy as np
import pytest
from reference import HubDetunedUsb, final_state

from holosim import abelian, adiabatic, experiments, holonomy, linalg, models

QUBIT_LOOP_THETA = math.pi / 3


def usb_setup():
    path = models.make_usb_loop("circle")
    model = models.UsbModel()
    return model, path, model.dark_frame_batch(path(np.array([0.0])))[0]


def qubit_setup():
    loop = models.make_azimuthal_loop(QUBIT_LOOP_THETA)
    frame = models.qubit_band_states(loop(np.array([0.0])), 0)[0][:, None]
    return models.QubitModel(), loop, frame


class TestEvolveSchrodinger:
    @pytest.mark.parametrize("setup", [usb_setup, qubit_setup])
    def test_norm_drift_at_longest_shipped_ramp(self, setup):
        # the qubit loop has constant |n|, so a per-step rounding of the
        # propagator would repeat identically at every one of its steps
        model, path, frame = setup()
        run = adiabatic.AdiabaticRun(model, path, 800.0, None, frame)
        assert adiabatic.evolve_schrodinger(run).norm_drift < 1e-12

    @pytest.mark.parametrize("setup", [usb_setup, qubit_setup])
    def test_fourth_order_convergence(self, setup):
        # the error against a 2^18-step run falls 16-fold per doubling;
        # swapping the two exponents' weights leaves a second-order scheme
        model, path, frame = setup()

        def final(steps):
            run = adiabatic.AdiabaticRun(model, path, 800.0, steps, frame)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return adiabatic.evolve_schrodinger(run).final_states

        reference = final(2**18)
        errors = [linalg.max_abs(final(n) - reference) for n in (1024, 2048, 4096)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    @pytest.mark.parametrize("setup", [usb_setup, qubit_setup])
    def test_chosen_steps_are_first_doubling_within_tolerance(self, setup):
        model, path, frame = setup()

        def evolve(steps):
            run = adiabatic.AdiabaticRun(model, path, 200.0, steps, frame)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return adiabatic.evolve_schrodinger(run), caught

        chosen, caught = evolve(None)
        assert not caught
        assert chosen.step_error_estimate <= adiabatic.STEP_TOL
        explicit, _ = evolve(chosen.steps)
        assert np.array_equal(explicit.final_states, chosen.final_states)
        assert explicit.step_error_estimate == chosen.step_error_estimate
        halved, caught = evolve(chosen.steps // 2)
        assert halved.step_error_estimate > adiabatic.STEP_TOL
        assert [w.category for w in caught] == [RuntimeWarning]

    def test_stationary_eigenstate_collects_energy_phase(self):
        n0 = np.array([0.3, -0.2, 0.9])
        g = models.qubit_band_states(n0, 0)
        run = adiabatic.AdiabaticRun(
            models.QubitModel(), models.constant_path(n0), 7.0, 64, g
        )
        res = adiabatic.evolve_schrodinger(run)
        eps = -np.linalg.norm(n0)
        assert np.max(np.abs(final_state(res) - np.exp(-1j * eps * 7.0) * g)) < 1e-8

    def test_zero_hamiltonian_identity_evolution(self):
        state = np.array([0.6, 0.8j])
        run = adiabatic.AdiabaticRun(
            models.QubitModel(), models.constant_path([0.0, 0.0, 0.0]), 5.0, 32, state
        )
        res = adiabatic.evolve_schrodinger(run)
        assert np.max(np.abs(final_state(res) - state / np.linalg.norm(state))) < 1e-12

    def test_norm_preserved(self):
        model, path, frame = usb_setup()
        run = adiabatic.AdiabaticRun(model, path, 50.0, 2048, frame)
        res = adiabatic.evolve_schrodinger(run)
        assert res.norm_drift < 1e-8

    def test_step_doubling_stability(self):
        # shipped reference run: T = 50 at 50k steps
        model, path, frame = usb_setup()
        finals = []
        for steps in (50_000, 100_000):
            run = adiabatic.AdiabaticRun(model, path, 50.0, steps, frame)
            finals.append(adiabatic.evolve_schrodinger(run).final_states)
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-6

    def test_under_resolved_run_warns(self):
        model, path, frame = usb_setup()
        run = adiabatic.AdiabaticRun(model, path, 50.0, 16, frame)
        with pytest.warns(RuntimeWarning, match="under-resolved"):
            adiabatic.evolve_schrodinger(run)

    def test_run_validation(self):
        model, path, frame = usb_setup()
        for total_time in (0.0, -1.0, math.nan, math.inf):
            for steps in (64, None):
                with pytest.raises(ValueError, match="positive and finite"):
                    adiabatic.AdiabaticRun(model, path, total_time, steps, frame)
        with pytest.raises(ValueError, match="16"):
            adiabatic.AdiabaticRun(model, path, 1.0, 8, frame)
        with pytest.raises(ValueError, match="dimension"):
            adiabatic.AdiabaticRun(model, path, 1.0, 64, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("steps", [None, 256])
    def test_non_finite_matrix_stops_doubling_and_warns(self, steps):
        # a NaN field reaches the closed-form increments, which take no eigh_batch check
        class NaNFieldQubit(models.QubitModel):
            def field(self, lams):
                n = super().field(lams).copy()
                n[len(n) // 2, 0] = math.nan
                return n

        _, loop, frame = qubit_setup()
        run = adiabatic.AdiabaticRun(NaNFieldQubit(), loop, 50.0, steps, frame)
        with pytest.warns(RuntimeWarning, match="error estimate nan at"):
            result = adiabatic.evolve_schrodinger(run)
        # the first estimate is NaN: no doubling up to 2^20 steps
        assert result.steps == (128 if steps is None else steps)
        assert math.isnan(result.step_error_estimate)

    def test_nan_matrix_is_a_typed_error(self):
        # the dense path: eigh_batch rejects the NaN entry, in a run and in a sweep
        class NaNQubit(models.QubitModel):
            def evaluate_batch(self, lams):
                h = super().evaluate_batch(lams)
                h[len(h) // 2, 0, 0] = math.nan
                return h

        _, loop, frame = qubit_setup()
        run = adiabatic.AdiabaticRun(NaNQubit(), loop, 50.0, 256, frame)
        with pytest.raises(linalg.NonHermitianError, match="non-finite entry"):
            adiabatic.evolve_schrodinger(run)
        with pytest.raises(linalg.NonHermitianError, match="non-finite entry"):
            adiabatic.convergence_sweep(
                NaNQubit(), loop, holonomy.BandBlock(0, 1), [50.0, 200.0, 800.0],
                reference_samples=1024,
            )

    def test_steps_integrated_counts_every_cf4_run(self):
        model, path, frame = usb_setup()

        def evolve(steps):
            run = adiabatic.AdiabaticRun(model, path, 50.0, steps, frame)
            return adiabatic.evolve_schrodinger(run)

        chosen = evolve(None)
        assert chosen.steps_integrated == 2 * chosen.steps - 64  # 64 + 128 + ... + N
        assert evolve(2049).steps_integrated == 2049 + 1024

    def test_qubit_loop_total_phase_splits(self):
        # slow drive: stripped overlap phase approaches the loop phase,
        # improving with T
        loop = models.make_azimuthal_loop(QUBIT_LOOP_THETA)
        model = models.QubitModel()
        frame = models.qubit_band_states(loop(np.array([0.0])), 0)[0][:, None]
        errs = {}
        for total_time in (200.0, 800.0):
            res = adiabatic.adiabatic_holonomy(
                model,
                loop,
                total_time,
                holonomy.BandBlock(0, 1),
                None,
                initial_frame=frame,
            )
            phase = float(np.angle(res.overlap_matrix[0, 0]))
            errs[total_time] = abs(linalg.wrap_angle(phase + math.pi / 2))
        assert errs[200.0] < 2e-2
        assert errs[800.0] < errs[200.0]


class TestDynamicalPhase:
    def test_constant_energy(self):
        path = models.constant_path([0.0, 0.0, 1.5])
        delta = adiabatic.dynamical_phase(models.QubitModel(), path, 10.0, holonomy.BandBlock(1, 2))
        assert delta == pytest.approx(-15.0, abs=1e-12)

    def test_dark_band_exactly_zero(self):
        model = models.UsbModel()
        for params in ({}, {"q0": 0.3}):
            path = models.make_usb_loop("circle", params)
            for total_time in (1.0, 123.0, 4000.0):
                delta = adiabatic.dynamical_phase(model, path, total_time, holonomy.USB_DARK_BLOCK)
                assert delta == 0.0

    def test_constant_norm_loop(self):
        path = models.make_azimuthal_loop(1.1, radius=2.0)
        delta = adiabatic.dynamical_phase(models.QubitModel(), path, 30.0, holonomy.BandBlock(0, 1))
        assert delta == pytest.approx(2.0 * 30.0, rel=1e-12)

    def test_crossing_rejected(self):
        path = models.ParameterPath(
            lambda s: np.stack(
                [np.cos(2 * np.pi * s), np.zeros_like(s), np.zeros_like(s)], axis=1
            ),
            3,
            closed=True,
            label="through-origin",
        )
        with pytest.raises(holonomy.GapClosureError, match=r"at s = 0\.250000"):
            adiabatic.dynamical_phase(models.QubitModel(), path, 10.0, holonomy.BandBlock(0, 1))


class TestAdiabaticHolonomy:
    def test_constant_loop_identity(self):
        model, _, frame = usb_setup()
        path = models.constant_path([0.0, 1.0, 0.5])
        frame = models.UsbModel().dark_frame_batch(path(np.array([0.0])))[0]
        res = adiabatic.adiabatic_holonomy(
            model, path, 20.0, holonomy.USB_DARK_BLOCK, 256, initial_frame=frame
        )
        assert linalg.max_abs(res.overlap_matrix - np.eye(2)) < 1e-10
        assert res.leakage < 1e-12

    def test_dark_space_raw_equals_stripped(self):
        model, path, frame = usb_setup()
        res = adiabatic.adiabatic_holonomy(
            model, path, 100.0, holonomy.USB_DARK_BLOCK, 8192, initial_frame=frame
        )
        assert res.dynamical_phase == 0.0
        assert np.array_equal(res.overlap_matrix, res.overlap_matrix_raw)

    def test_unstripped_overlap_converges_to_wilson_line(self):
        model, path, frame = usb_setup()
        wilson = holonomy.usb_wilson_line(path, 4096)
        dists = []
        for total_time in (100.0, 400.0):
            res = adiabatic.adiabatic_holonomy(
                model,
                path,
                total_time,
                holonomy.USB_DARK_BLOCK,
                None,
                initial_frame=frame,
            )
            measured = linalg.nearest_unitary(res.overlap_matrix_raw)
            dists.append(holonomy.holonomy_distance(measured, wilson.matrix))
        assert dists[1] < dists[0]
        assert dists[1] < 1e-3

    def test_leakage_in_unit_interval(self):
        model, path, frame = usb_setup()
        res = adiabatic.adiabatic_holonomy(
            model, path, 50.0, holonomy.USB_DARK_BLOCK, 4096, initial_frame=frame
        )
        assert 0.0 <= res.leakage <= 1.0

    def test_open_loop_rejected(self):
        model, _, frame = usb_setup()
        path = models.ParameterPath(
            lambda s: np.stack([0.2 + s, 1.0 + s, 0.3 + s], axis=1),
            3,
            closed=False,
            label="open",
        )
        with pytest.raises(ValueError, match="closed"):
            adiabatic.adiabatic_holonomy(
                model, path, 10.0, holonomy.USB_DARK_BLOCK, 64, initial_frame=frame
            )

    @pytest.mark.parametrize(
        "kind, message", [("bright", "does not span"), ("scaled", "not orthonormal")]
    )
    def test_initial_frame_checked_like_wilson_line(self, kind, message):
        # a frame on the bright levels does not span the dark block, and
        # 2 x the dark frame is not orthonormal
        model, path, frame = usb_setup()
        if kind == "bright":
            h0 = model.evaluate_batch(path(np.array([0.0])))[0]
            frame = np.linalg.eigh(h0)[1][:, [0, 3]]
        else:
            frame = 2.0 * frame
        with pytest.raises(ValueError, match=message):
            adiabatic.adiabatic_holonomy(
                model, path, 10.0, holonomy.USB_DARK_BLOCK, 64, initial_frame=frame
            )


class TestQubitPathsTakeNoDenseEigensolve:
    def test_frames_holonomy_and_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on a qubit path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        model, block = models.QubitModel(), holonomy.BandBlock(0, 1)
        loop = models.make_azimuthal_loop(QUBIT_LOOP_THETA)
        frames = holonomy.eigenframe_path(model, loop, block, 256)
        state0 = models.qubit_band_states(loop(np.array([0.0])), 0)[0]
        assert np.array_equal(frames.frames[0, :, 0], state0)
        res = adiabatic.adiabatic_holonomy(model, loop, 50.0, block, None)
        assert res.final_states.shape == (2, 1)
        assert 0.0 < res.leakage < 1e-2
        sweep = adiabatic.convergence_sweep(
            model, loop, block, [50.0, 200.0, 800.0], reference_samples=1024
        )
        d = sweep.distances()
        assert d[0] > d[1] > d[2]
        chi = abelian.discrete_geometric_phase(
            abelian.band_state_chain(model, loop, 0, 1024)
        ).phase
        assert abs(np.angle(sweep.reference.matrix[0, 0]) - chi) < 1e-12


class TestFourLevelPathsTakeNoDenseDecomposition:
    def test_wilson_line_holonomy_run_and_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense decomposition on a four-level path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        _, path, _ = usb_setup()
        result = holonomy.usb_wilson_line(path, 1024)
        eta = holonomy.usb_eta_pair(path)[0]
        assert holonomy.holonomy_distance(
            result.matrix, holonomy.usb_holonomy_closed_form(eta)
        ) < 1e-3
        for name in ("usb-holonomy", "adiabatic-sweep"):
            report = experiments.run_experiment(name)
            assert report.config["model"] == "usb"
            assert not report.failed_checks()


class TestConvergenceSweep:
    def test_constant_loop_all_zero(self):
        model, _, _ = usb_setup()
        path = models.constant_path([0.0, 1.0, 0.5])
        frame = models.UsbModel().dark_frame_batch(path(np.array([0.0])))[0]
        sweep = adiabatic.convergence_sweep(
            model,
            path,
            holonomy.USB_DARK_BLOCK,
            [10.0, 20.0, 40.0],
            steps_per_t=[256, 256, 256],
            reference_samples=256,
            initial_frame=frame,
        )
        assert all(d < 1e-10 for d in sweep.distances())

    def test_usb_sweep_converges_second_order(self):
        model, path, frame = usb_setup()
        sweep = adiabatic.convergence_sweep(
            model,
            path,
            holonomy.USB_DARK_BLOCK,
            [50.0, 200.0, 800.0],
            initial_frame=frame,
        )
        d = sweep.distances()
        assert d[0] > d[1] > d[2]
        # the symmetric +-R spectrum cancels the first-order in-block term,
        # so this model's sweep is second order in 1/T
        assert sweep.slope == pytest.approx(-2.0, abs=0.3)
        leaks = sweep.leakages()
        assert leaks[0] > leaks[1] > leaks[2]

    def test_hub_detuned_usb_sweep_falls_back_to_first_order(self):
        # Control for the second-order rate above: the hub detuning breaks the
        # +-R symmetry and keeps the dark pair. Without the cancellation the
        # sweep is first order again.
        _, path, frame = usb_setup()
        model = HubDetunedUsb()
        assert adiabatic.dynamical_phase(model, path, 800.0, holonomy.USB_DARK_BLOCK) == 0.0
        sweep = adiabatic.convergence_sweep(
            model,
            path,
            holonomy.USB_DARK_BLOCK,
            [50.0, 200.0, 800.0],
            initial_frame=frame,
        )
        d = sweep.distances()
        assert d[0] > d[1] > d[2]
        assert -1.5 <= sweep.slope <= -0.5
        # the dense fallback multiplies what the integrator did before the
        # closed-form increments, which gave -1.0681926127529526 exactly
        assert sweep.slope == pytest.approx(-1.0681926127529526, abs=1e-12)

    def test_qubit_sweep_phase_error_first_order(self):
        loop = models.make_azimuthal_loop(QUBIT_LOOP_THETA)
        frame = models.qubit_band_states(loop(np.array([0.0])), 0)[0][:, None]
        sweep = adiabatic.convergence_sweep(
            models.QubitModel(),
            loop,
            holonomy.BandBlock(0, 1),
            [50.0, 200.0, 800.0],
            initial_frame=frame,
        )
        d = sweep.distances()
        assert d[0] > d[1] > d[2]
        assert -1.5 <= sweep.slope <= -0.5
        leaks = sweep.leakages()
        assert leaks[0] > leaks[1] > leaks[2]

    def test_validation(self):
        model, path, frame = usb_setup()
        with pytest.raises(ValueError, match="ascending"):
            adiabatic.convergence_sweep(
                model, path, holonomy.USB_DARK_BLOCK, [10.0, 5.0, 20.0]
            )
        with pytest.raises(ValueError, match="3 T values"):
            adiabatic.convergence_sweep(model, path, holonomy.USB_DARK_BLOCK, [10.0])
        with pytest.raises(ValueError, match="match"):
            adiabatic.convergence_sweep(
                model,
                path,
                holonomy.USB_DARK_BLOCK,
                [10.0, 20.0, 40.0],
                steps_per_t=[64, 64],
            )
