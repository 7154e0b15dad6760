import math

import numpy as np
import pytest
from reference import HubDetunedUsb, eigh_propagators, reflector_dark_pair

from holosim import abelian, adiabatic, holonomy, linalg, models
from holosim.report import ConfigError


def qubit_h(ns):
    return models.QubitModel().evaluate_batch(np.asarray(ns, dtype=float).reshape(-1, 3))


def usb_h(ps):
    return models.UsbModel().evaluate_batch(np.asarray(ps, dtype=float).reshape(-1, 3))


class DetunedQubit(models.QubitModel):
    """The qubit with H[0, 0] shifted by 0.5: its own matrix, none of the closed forms'."""

    def evaluate_batch(self, lams):
        h = super().evaluate_batch(lams)
        h[:, 0, 0] += 0.5
        return h


class SpokeShifted(models.UsbModel):
    """The four-level model with H[2, 2] = 0.3: its own matrix, none of the closed forms'."""

    def evaluate_batch(self, lams):
        h = super().evaluate_batch(lams)
        h[:, 2, 2] = 0.3
        return h


def dark_frame_from_angles(theta, phi):
    """(Phi1, Phi2) as columns, from the dark-frame angles (theta, phi)."""
    ct, st, cf, sf = math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi)
    return np.array([[ct, sf * st], [0.0, 0.0], [-st, sf * ct], [0.0, -cf]], dtype=complex)


class TestQubitHamiltonian:
    def test_z_direction_gives_sigma_z(self):
        assert np.array_equal(qubit_h([0, 0, 1])[0], models.SIGMA_Z)

    def test_zero_vector_gives_zero_matrix(self):
        assert np.array_equal(qubit_h([0, 0, 0])[0], np.zeros((2, 2)))

    def test_x_direction_gives_sigma_x(self):
        assert np.array_equal(qubit_h([1, 0, 0])[0], models.SIGMA_X)

    def test_eigenvalues_are_plus_minus_norm(self):
        rng = np.random.default_rng(3)
        ns = rng.normal(size=(50, 3))
        w = np.linalg.eigvalsh(qubit_h(ns))
        r = np.linalg.norm(ns, axis=1)
        assert np.allclose(w, np.stack([-r, r], axis=1), atol=1e-12)

    def test_band_states_are_eigenvectors(self):
        rng = np.random.default_rng(5)
        ns = rng.normal(size=(50, 3))
        h = qubit_h(ns)
        g = models.qubit_band_states(ns, 0)
        e = models.qubit_band_states(ns, 1)
        r = np.linalg.norm(ns, axis=1)[:, None]
        assert np.max(np.linalg.norm(np.einsum("kij,kj->ki", h, g) + r * g, axis=1)) < 1e-12
        assert np.max(np.linalg.norm(np.einsum("kij,kj->ki", h, e) - r * e, axis=1)) < 1e-12
        assert np.max(np.abs(np.einsum("ki,ki->k", g.conj(), e))) < 1e-12

    def test_direction_accessors(self):
        # n = (1, 1, 0) at any length: z = 0 takes the z >= 0 branch, with
        # P = (x - i y) c = e^{-i pi/4} / sqrt(2) and W = w c = 1 / sqrt(2)
        s = math.sqrt(0.5)
        twist = np.exp(0.25j * math.pi)
        for scale in (1.0, 3.0):
            n = scale * np.array([1.0, 1.0, 0.0])
            g, e = (models.qubit_band_states(n, band) for band in (0, 1))
            assert np.allclose(g, [s * np.conj(twist), -s], atol=1e-15)
            assert np.allclose(e, [s, s * twist], atol=1e-15)


class TestQubitBandStates:
    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(6)
        ns = rng.normal(size=(4, 5, 3))
        for band in (0, 1):
            states = models.qubit_band_states(ns, band)
            assert states.shape == (4, 5, 2)
            flat = models.qubit_band_states(ns.reshape(-1, 3), band)
            assert np.array_equal(states.reshape(-1, 2), flat)

    def test_zero_field_names_first_index(self):
        ns = np.ones((6, 3))
        ns[[2, 4]] = 0.0
        with pytest.raises(models.ZeroFieldError, match=r"index \[2\]"):
            models.qubit_band_states(ns, 0)
        grid = np.ones((4, 5, 3))
        grid[1, 3] = 1e-13
        grid[2, 0] = 0.0
        with pytest.raises(models.ZeroFieldError, match=r"index \[1, 3\]"):
            models.qubit_band_states(grid, 1)

    def test_unknown_band_rejected(self):
        with pytest.raises(ValueError, match="band must be 0 or 1"):
            models.qubit_band_states([0.0, 0.0, 1.0], 2)

    @pytest.mark.parametrize("n", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [[0.0, 0.0, 1.0]]])
    def test_unknown_band_rejected_before_the_field_is_read(self, n):
        for band in (2, -1):
            with pytest.raises(ValueError, match="band must be 0 or 1"):
                models.qubit_band_states(n, band)

    def test_nan_field_gives_nan_states(self):
        ns = np.array([[0.3, -0.2, 0.9], [np.nan, 0.0, 1.0], [0.0, 0.0, np.nan], [0.1, 0.2, -0.4]])
        for band in (0, 1):
            states = models.qubit_band_states(ns, band)
            assert np.isnan(states[1:3]).all()
            assert np.isfinite(states[[0, 3]]).all()

    def test_single_vector(self):
        ns = np.array([[0.3, -0.2, 0.9], [0.1, 0.2, -0.4], [0.5, 0.0, -0.0], [0.0, 0.0, -2.0]])
        for band in (0, 1):
            rows = models.qubit_band_states(ns, band)
            for n, row in zip(ns, rows):
                state = models.qubit_band_states(n, band)
                assert state.shape == (2,)
                assert np.array_equal(state, row)
            assert models.qubit_band_states(list(ns[0]), band).shape == (2,)

    def test_no_trigonometry(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trigonometry or libm in a qubit band state")

        for name in ("sin", "cos", "arctan2", "exp", "hypot"):
            monkeypatch.setattr(np, name, refuse)
        ns = np.random.default_rng(8).normal(size=(64, 3))
        for band in (0, 1):
            models.qubit_band_states(ns, band)
            models.qubit_band_states(ns[0], band)
            models.QubitModel().band_states_batch(ns, models.BandBlock(band, band + 1))

    def test_band_states_batch_shares_the_energies_norm(self, monkeypatch):
        norms = []

        def spy(ns, band, r=None):
            norms.append(r)
            return kernel(ns, band, r)

        kernel = models.qubit_band_states
        monkeypatch.setattr(models, "qubit_band_states", spy)
        ns = np.random.default_rng(9).normal(size=(16, 3))
        for band in (0, 1):
            w, states = models.QubitModel().band_states_batch(ns, models.BandBlock(band, band + 1))
            assert norms[-1] is not None and np.shares_memory(norms[-1], w)
            assert np.array_equal(norms[-1], w[:, 1])
            assert np.array_equal(states[:, :, 0], kernel(ns, band))


class TestUsbHamiltonian:
    def test_zero_couplings(self):
        assert np.array_equal(usb_h([0, 0, 0])[0], np.zeros((4, 4)))

    def test_single_coupling_pattern(self):
        h = usb_h([1.0, 0.0, 0.0])[0]
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(h, expected)

    def test_sparsity_pattern_and_hermiticity(self):
        rng = np.random.default_rng(7)
        coupled = {(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1)}
        for h in usb_h(rng.normal(size=(20, 3))):
            assert linalg.max_abs(h - linalg.dagger(h)) == 0.0
            for i in range(4):
                for j in range(4):
                    if (i, j) not in coupled:
                        assert h[i, j] == 0.0

    def test_spectrum_is_symmetric_with_dark_pair(self):
        rng = np.random.default_rng(9)
        ps = rng.normal(size=(200, 3)) * 3.0
        w = np.linalg.eigvalsh(usb_h(ps))
        r = np.linalg.norm(ps, axis=1)[:, None]
        zero = np.zeros_like(r)
        expected = np.concatenate([-r, zero, zero, r], axis=1)
        assert np.all(np.abs(w - expected) <= 1e-12 * np.maximum(1.0, r))


def usb_test_points(seed, k=400):
    """Random couplings, with P = S = 0, Q = 0 and single-coupling points among them."""
    ps = np.random.default_rng(seed).normal(size=(k, 3)) * 2.0
    ps[:40, :2] = 0.0
    ps[40:80, 2] = 0.0
    for axis in range(3):
        single = ps[80 + 20 * axis : 100 + 20 * axis]
        single[:, [a for a in range(3) if a != axis]] = 0.0
    ps[140:160] *= -1.0
    return ps


ALL_USB_BLOCKS = [models.BandBlock(a, b) for a in range(4) for b in range(a + 1, 5)]


class TestUsbBandStates:
    @pytest.mark.parametrize("block", ALL_USB_BLOCKS, ids=str)
    def test_closed_form_frames_are_orthonormal_eigenframes(self, block):
        ps = usb_test_points(43)
        r = np.linalg.norm(ps, axis=1)
        w, frames = models.UsbModel().band_states_batch(ps, block)
        assert np.array_equal(w, models.UsbModel().energies_batch(ps))
        assert frames.shape == (len(ps), 4, block.size)
        residual = usb_h(ps) @ frames - frames * w[:, None, block.indices()]
        assert np.all(np.max(np.abs(residual), axis=(1, 2)) <= 1e-14 * r)
        gram = linalg.dagger(frames) @ frames
        assert linalg.max_abs(gram - np.eye(block.size)) <= 1e-15

    def test_bright_pair_and_dark_pair_in_closed_form(self):
        ps = usb_test_points(47)
        _, frames = models.UsbModel().band_states_batch(ps, models.BandBlock(0, 4))
        b = ps / np.linalg.norm(ps, axis=1)[:, None]
        for band, sign in ((0, -1.0), (3, 1.0)):
            expected = np.zeros((len(ps), 4))
            expected[:, [0, 2, 3]] = b
            expected[:, 1] = sign
            assert linalg.max_abs(frames[:, :, band] - expected / math.sqrt(2.0)) < 1e-15
        # the dark pair spans b's complement on levels (0, 2, 3)
        dark = frames[:, :, 1:3]
        assert linalg.max_abs(dark[:, 1]) == 0.0
        assert linalg.max_abs(np.einsum("ki,kim->km", b, dark[:, [0, 2, 3]])) < 1e-15

    def test_dark_pair_is_the_fixed_axis_reflector(self):
        edges = np.array([
            [0.0, 0.0, 1.3], [0.0, 0.0, -0.7],  # P = S = 0: exactly e_0 and e_2
            [0.4, -1.1, 0.0], [0.4, -1.1, -0.0],  # Q = +-0.0: the same bits
            [2.0, 0.3, -0.5], [0.2, -1.5, 0.1],  # largest |P| or |S|: an argmax pivot differs
        ])
        ps = np.concatenate([usb_test_points(59), edges])
        _, frames = models.UsbModel().band_states_batch(ps, holonomy.USB_DARK_BLOCK)
        expected = np.array([reflector_dark_pair(p / np.linalg.norm(p)) for p in ps])
        assert linalg.max_abs(frames - expected) <= 1e-15
        e02 = np.eye(4)[:, [0, 2]]
        assert np.array_equal(frames[-6], e02) and np.array_equal(frames[-5], e02)
        assert frames[-4].tobytes() == frames[-3].tobytes()

    def test_zero_couplings_raise_typed_error(self):
        ps = np.array([[0.3, 1.0, 0.2], [0.0, 0.0, 0.0]])
        for block in ALL_USB_BLOCKS:
            with pytest.raises(models.ZeroFieldError, match=r"index \[1\]: R = 0"):
                models.UsbModel().band_states_batch(ps, block)

    def test_subclass_with_its_own_matrix_gets_its_own_eigenframes(self):
        model = SpokeShifted()
        ps = usb_test_points(53)[160:]
        h = model.evaluate_batch(ps)
        for block in (models.BandBlock(0, 1), models.BandBlock(1, 3), models.BandBlock(3, 4)):
            w, frames = model.band_states_batch(ps, block)
            assert linalg.max_abs(w - np.linalg.eigvalsh(h)) < 1e-12
            residual = h @ frames - frames * w[:, None, block.indices()]
            assert linalg.max_abs(residual) < 1e-12
            # not the star's frames: those are no eigenframes of this matrix
            star = models.UsbModel().band_states_batch(ps, block)[1]
            assert linalg.max_abs(h @ star - star * w[:, None, block.indices()]) > 1e-2


class TestDarkFrame:
    def test_pure_s_coupling(self):
        frame = models.UsbModel().dark_frame_batch([0.0, 1.0, 0.0])[0]
        assert np.allclose(frame[:, 0], [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(frame[:, 1], [0, 0, 0, -1], atol=1e-15)

    def test_equal_p_and_s(self):
        frame = models.UsbModel().dark_frame_batch([1.0, 1.0, 0.0])[0]
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(frame[:, 0], [s, 0, -s, 0], atol=1e-15)
        assert np.allclose(frame[:, 1], [0, 0, 0, -1], atol=1e-15)

    def test_null_space_property_bulk(self):
        # 10^4 random parameter points: H phi = 0 and orthonormality
        rng = np.random.default_rng(11)
        lams = rng.normal(size=(10_000, 3)) * 2.0
        keep = np.hypot(lams[:, 0], lams[:, 1]) > 1e-3
        lams = lams[keep]
        model = models.UsbModel()
        frames = model.dark_frame_batch(lams)
        hs = model.evaluate_batch(lams)
        hf = np.einsum("kij,kjm->kim", hs, frames)
        scale = np.max(np.abs(hs), axis=(1, 2))
        assert np.max(np.max(np.abs(hf), axis=(1, 2)) / scale) < 1e-10
        gram = np.einsum("kim,kin->kmn", frames.conj(), frames)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_singular_at_zero_p_and_s(self):
        with pytest.raises(models.DarkFrameSingularError, match="undefined"):
            models.UsbModel().dark_frame_batch([0.0, 0.0, 1.0])

    def test_angle_branches(self):
        # theta = atan2(P, S) and phi = atan2(Q, hypot(P, S)), principal branch
        frames = models.UsbModel().dark_frame_batch([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        assert np.allclose(frames[0], dark_frame_from_angles(math.pi / 4, 0.0), atol=1e-15)
        # atan2(0, -1) = pi
        assert np.allclose(frames[1], dark_frame_from_angles(math.pi, math.pi / 4), atol=1e-15)


class TestParameterPaths:
    def test_azimuthal_loop_start_point(self):
        path = models.make_azimuthal_loop(math.pi / 2, radius=2.5)
        assert np.allclose(path(np.array([0.0]))[0], [2.5, 0.0, 0.0], atol=1e-15)

    def test_azimuthal_closure_is_exact(self):
        path = models.make_azimuthal_loop(1.0, radius=3.0)
        ends = path(np.array([0.0, 1.0]))
        assert np.array_equal(ends[0], ends[1])

    @pytest.mark.parametrize("theta0", [0.0, math.pi, -0.2, 4.0])
    def test_degenerate_polar_angle_rejected(self, theta0):
        with pytest.raises(ValueError):
            models.make_azimuthal_loop(theta0)

    def test_closure_invariant_enforced(self):
        with pytest.raises(ValueError, match="closed"):
            models.ParameterPath(
                lambda s: np.stack([s, s, s], axis=1), 3, closed=True, label="open"
            )

    @pytest.mark.parametrize("make", [
        lambda: models.constant_path([math.nan, 0.0, 1.0]),
        lambda: models.make_azimuthal_loop(1.0, math.nan),
    ], ids=["constant", "azimuthal"])
    def test_nan_closure_gap_rejected(self, make):
        # a NaN gap is no closed loop: rejected here, not as a NaN overlap far downstream
        with pytest.raises(ValueError, match=r"flagged closed but \|lambda\(0\)-lambda\(1\)\| = nan"):
            make()

    def test_constant_path(self):
        path = models.constant_path([0.0, 1.0, 0.0])
        assert path.closed
        assert np.allclose(path.sample(8), np.tile([0.0, 1.0, 0.0], (8, 1)))

    def test_reversed_path_traces_same_points(self):
        path = models.make_azimuthal_loop(1.1)
        rev = models.reversed_path(path)
        n = 64
        fwd = path(np.arange(n) / n)
        bwd = rev(np.arange(n) / n)
        assert np.allclose(bwd, fwd[(n - np.arange(n)) % n], atol=1e-12)


class TestUsbLoops:
    def test_constant_family_is_valid_with_zero_eta(self):
        from holosim.holonomy import usb_eta_pair

        path = models.make_usb_loop("constant", {"p": 0.0, "s": 1.0, "q": 0.0})
        assert path.closed
        assert usb_eta_pair(path, 1024)[0] == 0.0

    def test_q_zero_loop_has_zero_eta(self):
        from holosim.holonomy import usb_eta_pair

        path = models.make_usb_loop("circle", {"q0": 0.0, "b": 0.0})
        assert usb_eta_pair(path, 4096)[0] == 0.0

    def test_dark_singular_family_rejected_with_location(self):
        with pytest.raises(models.DarkFrameSingularError, match="s = 0.500000"):
            models.make_usb_loop("circle", {"s0": 0.5, "a": 0.5})

    def test_unknown_family_rejected(self):
        with pytest.raises(
            ValueError, match=r"^config\.path\.family: unknown usb family 'sawtooth'"
        ):
            models.make_usb_loop("sawtooth")

    def test_unknown_circle_parameter_rejected(self):
        with pytest.raises(ValueError, match=r"^config\.path\.params\.radius: unknown field"):
            models.make_usb_loop("circle", {"radius": 1.0})

    def test_shipped_default_keeps_dark_frame_defined(self):
        path = models.make_usb_loop("circle")
        lam = path.sample(4096)
        assert np.min(np.hypot(lam[:, 0], lam[:, 1])) > 0.4

    def test_circle_closure_is_exact(self):
        path = models.make_usb_loop("circle")
        ends = path(np.array([0.0, 1.0]))
        assert np.array_equal(ends[0], ends[1])


class TestModelProviders:
    def test_qubit_model_matches_direct_construction(self):
        rng = np.random.default_rng(13)
        m = models.QubitModel()
        ns = rng.normal(size=(10, 3))
        x, y, z = ns.T
        direct = np.stack([np.stack([z, x - 1j * y], -1), np.stack([x + 1j * y, -z], -1)], 1)
        assert np.allclose(m.evaluate_batch(ns), direct)

    def test_sphere_model_energies(self):
        m = models.SphereQubitModel(2.0)
        w = m.energies_batch([[0.7, 1.3]])[0]
        assert np.allclose(w, [-2.0, 2.0])

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0, 1e101])
    def test_sphere_radius_outside_the_param_bound_rejected(self, radius):
        with pytest.raises(ValueError, match=r"radius must be positive and at most 1e\+100"):
            models.SphereQubitModel(radius)

    def test_sphere_radius_at_the_param_bound_accepted(self):
        # the ray, and so the curvature, does not depend on the radius
        samples = [
            abelian.berry_curvature_plaquette(models.SphereQubitModel(r), 0, [1.0, 0.3], (0, 1), 0.02)
            for r in (1.0, 1e100)
        ]
        assert samples[1].value == pytest.approx(samples[0].value, rel=1e-12)

    def test_usb_model_energies_exact_zero_dark_pair(self):
        m = models.UsbModel()
        w = m.energies_batch(np.array([[0.3, 1.0, -0.4], [1.0, 2.0, 0.5]]))
        assert np.all(w[:, 1] == 0.0)
        assert np.all(w[:, 2] == 0.0)

    def test_generic_energies_fall_back_to_dense_solve(self):
        class Anisotropic(models.HamiltonianModel):
            dim = 2
            parameter_dim = 1
            label = "test"

            def evaluate_batch(self, lams):
                lams = np.asarray(lams, dtype=float).reshape(-1, 1)
                out = np.zeros((len(lams), 2, 2), dtype=complex)
                out[:, 0, 0] = lams[:, 0]
                out[:, 1, 1] = -lams[:, 0]
                return out

        w = Anisotropic().energies_batch([[2.0]])[0]
        assert np.allclose(w, [-2.0, 2.0])

    def test_build_model_and_path_fragments(self):
        model, path = models.build_model_and_path(
            {"model": "qubit", "path": {"family": "azimuthal", "params": {"theta0": 1.0}}}
        )
        assert isinstance(model, models.QubitModel)
        assert path.closed
        model, path = models.build_model_and_path(
            {"model": "usb", "path": {"family": "circle", "params": {"b": 0.1}}}
        )
        assert isinstance(model, models.UsbModel)

    @pytest.mark.parametrize(
        "model, family, ints",
        [("qubit", "azimuthal", {"theta0": 1}), ("usb", "circle", {"s0": 2, "a": 1})],
    )
    def test_integer_params_build_the_float_path(self, model, family, ints):
        floats = {key: float(value) for key, value in ints.items()}
        a, b = (
            models.build_model_and_path({"model": model, "path": {"family": family, "params": p}})[1]
            for p in (ints, floats)
        )
        assert np.array_equal(a.sample(64), b.sample(64))
        assert a.label == b.label

    @pytest.mark.parametrize(
        "model, path",
        [
            ("qubit", {"family": "azimuthal", "params": {"theta0": 1.0, "bogus": 3}}),
            ("qubit", {"params": {"theta_0": 1.0}}),
            ("qubit", {"family": "constant", "params": {"n": [0, 0, 1], "m": 1}}),
            ("usb", {"family": "constant", "params": {"p": [1, 1, 0], "bogus": 2}}),
        ],
    )
    def test_unknown_path_parameters_rejected(self, model, path):
        with pytest.raises(
            ConfigError, match=r"^config\.path\.params\.(bogus|theta_0|m): unknown field"
        ):
            models.build_model_and_path({"model": model, "path": path})

    @pytest.mark.parametrize(
        "model, path, key",
        [
            ("usb", {"family": "constant", "params": {"p": [1, 1, 0]}}, "p"),
            ("qubit", {"params": {"theta0": "1.0"}}, "theta0"),
            ("qubit", {"family": "constant", "params": {"n": [0, 1]}}, "n"),
            ("qubit", {"family": "constant", "params": {"n": [0, [1], 1]}}, "n"),
        ],
    )
    def test_malformed_path_parameters_rejected(self, model, path, key):
        with pytest.raises(
            ConfigError, match=rf"^config\.path\.params\.{key}(\[\d+\])?: the \w+ family requires"
        ):
            models.build_model_and_path({"model": model, "path": path})

    @pytest.mark.parametrize(
        "model, lams",
        [
            (models.QubitModel(), np.random.default_rng(17).normal(size=(200, 3))),
            (models.SphereQubitModel(2.5), np.random.default_rng(19).uniform(0, 6, (200, 2))),
        ],
    )
    @pytest.mark.parametrize("band", [0, 1])
    def test_closed_form_band_states_match_eigh(self, model, lams, band):
        block = models.BandBlock(band, band + 1)
        w, states = model.band_states_batch(lams, block)
        w_ref, ref = models.HamiltonianModel.band_states_batch(model, lams, block)
        states, ref = states[:, :, 0], ref[:, :, 0]
        assert linalg.max_abs(w - w_ref) < 1e-14 * max(1.0, linalg.max_abs(w_ref))
        overlap = np.einsum("ki,ki->k", ref.conj(), states)
        assert linalg.max_abs(np.abs(overlap) - 1.0) < 1e-14
        phase = overlap / np.abs(overlap)
        assert linalg.max_abs(states - phase[:, None] * ref) < 1e-14

    def test_qubit_whole_space_block_is_the_identity_frame(self):
        ns = np.array([[0.3, -1.2, 0.4], [0.0, 0.0, 0.0]])
        w, frames = models.QubitModel().band_states_batch(ns, models.BandBlock(0, 2))
        assert np.array_equal(w[1], [-0.0, 0.0])
        assert np.array_equal(frames, np.stack([np.eye(2)] * 2))

    def test_zero_field_band_states_raise_typed_error(self):
        for band in (0, 1):
            with pytest.raises(models.ZeroFieldError, match="n = 0"):
                models.qubit_band_states([0.0, 0.0, 0.0], band)

    def test_build_model_and_path_rejects_unknown(self):
        with pytest.raises(ValueError, match="config.model"):
            models.build_model_and_path({"model": "ising", "path": {}})
        with pytest.raises(ValueError, match="family"):
            models.build_model_and_path(
                {"model": "qubit", "path": {"family": "spiral"}}
            )


# the CF4:2 weights of the two Gauss-node Hamiltonians in a step's two exponents
CF4_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 6.0


def combined_propagators(model, lams, dt):
    """exp(-i dt A) of each exponent A = W . (H(l1), H(l2)), latest first, from
    the dense matrices by one np.linalg.eigh each."""
    hs = model.evaluate_batch(lams.reshape(-1, lams.shape[-1])).reshape(len(lams), 2, -1)
    exponents = (CF4_WEIGHTS @ hs).reshape(-1, model.dim, model.dim)[::-1]
    return eigh_propagators(exponents, dt)


def stack_first(es):
    return np.moveaxis(es, -1, 0)


class TestPropagatorIncrements:
    @pytest.fixture
    def no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigh", refuse)

    @pytest.mark.parametrize("dt", [1e-3, 0.37, 5.0])
    def test_qubit_closed_form(self, dt):
        rng = np.random.default_rng(37)
        ns = rng.normal(size=(256, 2, 3))
        es = models.QubitModel().propagator_increments(ns, CF4_WEIGHTS, dt)
        assert es.shape == (2, 2, 512)
        expected = combined_propagators(models.QubitModel(), ns, dt)
        assert linalg.max_abs(stack_first(es) + np.eye(2) - expected) <= 1e-14

    @pytest.mark.parametrize("seed", [41, 42, 44])
    def test_usb_closed_form(self, seed):
        ps = usb_test_points(seed).reshape(200, 2, 3)
        for dt in (1e-3, 0.37):
            es = models.UsbModel().propagator_increments(ps, CF4_WEIGHTS, dt)
            expected = combined_propagators(models.UsbModel(), ps, dt)
            assert linalg.max_abs(stack_first(es) + np.eye(4) - expected) <= 1e-14

    def test_shipped_models_take_no_dense_eigensolver(self, no_eigh):
        rng = np.random.default_rng(71)
        for model in (models.QubitModel(), models.SphereQubitModel(2.0), models.UsbModel()):
            lams = rng.normal(size=(8, 2, model.parameter_dim))
            assert np.all(np.isfinite(model.propagator_increments(lams, CF4_WEIGHTS, 0.3)))
            assert np.all(np.isfinite(model.chunk_increment(lams, CF4_WEIGHTS, 0.3)))
            w, frames = model.band_states_batch(lams[:, 0], models.BandBlock(0, 1))
            assert np.array_equal(w, model.energies_batch(lams[:, 0]))
            assert np.all(np.isfinite(frames))

    @pytest.mark.parametrize("model", [DetunedQubit(), SpokeShifted()], ids=["qubit", "usb"])
    def test_matrix_overrides_take_the_dense_fallback(self, model):
        dense = models.HamiltonianModel
        rng = np.random.default_rng(73)
        lams = rng.normal(size=(64, 2, 3))
        points = lams.reshape(-1, 3)
        assert np.array_equal(model.energies_batch(points), dense.energies_batch(model, points))
        for block in (models.BandBlock(0, 1), models.BandBlock(1, model.dim)):
            w, frames = model.band_states_batch(points, block)
            w_dense, frames_dense = dense.band_states_batch(model, points, block)
            assert np.array_equal(w, w_dense) and np.array_equal(frames, frames_dense)
        es = model.propagator_increments(lams, CF4_WEIGHTS, 0.37)
        assert np.array_equal(es, dense.propagator_increments(model, lams, CF4_WEIGHTS, 0.37))
        chunk = model.chunk_increment(lams, CF4_WEIGHTS, 0.37)
        assert np.array_equal(chunk, dense.chunk_increment(model, lams, CF4_WEIGHTS, 0.37))
        expected = combined_propagators(model, lams, 0.37)
        assert linalg.max_abs(stack_first(es) + np.eye(model.dim) - expected) <= 1e-14
        # not the closed forms of the unshifted model
        plain = type(model).__mro__[1]()
        assert linalg.max_abs(es - plain.propagator_increments(lams, CF4_WEIGHTS, 0.37)) > 1e-2
        assert linalg.max_abs(model.energies_batch(points) - plain.energies_batch(points)) > 1e-2

    def test_matrix_override_takes_its_own_dynamical_phase(self):
        # the dense quadrature of band 0; the unshifted qubit's closed form gives 10.0
        path, total_time = models.make_azimuthal_loop(1.0), 10.0
        s = path.sample_s(4096, include_endpoint=True)
        w = np.linalg.eigvalsh(DetunedQubit().evaluate_batch(path(s)))[:, 0]
        expected = -total_time * float(np.sum(np.diff(s) * (w[1:] + w[:-1]))) / 2.0
        delta = adiabatic.dynamical_phase(DetunedQubit(), path, total_time, models.BandBlock(0, 1))
        assert delta == pytest.approx(expected, rel=1e-13)
        assert abs(delta - 10.0) > 0.5

    def test_only_a_class_with_its_own_matrix_takes_the_dense_forms(self):
        for name in ("energies_batch", "band_states_batch", "propagator_increments", "chunk_increment"):
            # a field-only subclass keeps the closed forms it inherits
            assert getattr(models.SphereQubitModel, name) is getattr(models.QubitModel, name)
        # a matrix override keeps the closed form it defines itself, and only that
        dense = models.HamiltonianModel
        assert HubDetunedUsb.energies_batch is not dense.energies_batch
        assert HubDetunedUsb.band_states_batch is dense.band_states_batch

    def test_dense_fallback_is_the_weighted_dense_propagator(self):
        # bit for bit what the integrator multiplied before the closed forms
        rng = np.random.default_rng(79)
        lams = rng.normal(size=(32, 2, 3))
        model = models.UsbModel()
        es = models.HamiltonianModel.propagator_increments(model, lams, CF4_WEIGHTS, 0.2)
        hs = model.evaluate_batch(lams.reshape(-1, 3)).reshape(32, 2, 16)
        dense = linalg.propagator_increments((CF4_WEIGHTS @ hs).reshape(-1, 4, 4), 0.2)
        assert es.flags.c_contiguous
        assert np.array_equal(es, np.moveaxis(dense[::-1], 0, -1))


def c_ordered(path):
    """The same path with its points as a C-ordered (k, p) copy, as a user's path may be."""
    def evaluate(s):
        return np.ascontiguousarray(path.evaluate(s))

    return models.ParameterPath(evaluate, path.parameter_dim, path.closed, path.label)


def both_layouts(path):
    return path, c_ordered(path)


def cf4_nodes(path, steps=512):
    """The (steps, 2, p) Gauss-node points the integrator gives propagator_increments."""
    s = (np.arange(steps)[:, None] + adiabatic._NODES) / steps
    return path(s.ravel()).reshape(steps, 2, -1)


QUBIT_LOOP = models.make_azimuthal_loop(1.0, 2.0)
USB_LOOP = models.make_usb_loop("circle", {"q0": 0.3})


class TestPathLayout:
    """The shipped families' points view stack-last memory; each consumer gives the
    same bits on a C-ordered copy, so user-supplied paths keep working."""

    @pytest.mark.parametrize("path", [
        QUBIT_LOOP, USB_LOOP, models.constant_path([1.0, 2.0, 3.0]), models.reversed_path(USB_LOOP)
    ])
    def test_shipped_families_are_stack_last(self, path):
        points, copied = (p.sample(64) for p in both_layouts(path))
        assert points.shape == (64, 3) and points.T.flags.c_contiguous
        assert copied.flags.c_contiguous and np.array_equal(points, copied)

    @pytest.mark.parametrize("path", [QUBIT_LOOP, models.reversed_path(QUBIT_LOOP)])
    def test_qubit_chain_and_solid_angle(self, path):
        for band in (0, 1):
            a, b = (abelian.band_loop_phase(models.QubitModel(), p, band, 4096)
                    for p in both_layouts(path))
            assert a == b
        a, b = (abelian.solid_angle(p.sample(4096)) for p in both_layouts(path))
        assert a == b

    def test_usb_wilson_line_and_eta_pair(self):
        a, b = (holonomy.usb_wilson_line(p, 4096) for p in both_layouts(USB_LOOP))
        assert np.array_equal(a.matrix, b.matrix)
        assert a.min_link_singular_value == b.min_link_singular_value
        a, b = (holonomy.usb_eta_pair(p, 4096) for p in both_layouts(USB_LOOP))
        assert a == b

    @pytest.mark.parametrize(
        "model, path", [(models.QubitModel(), QUBIT_LOOP), (models.UsbModel(), USB_LOOP)]
    )
    def test_propagator_increments(self, model, path):
        a, b = (model.propagator_increments(cf4_nodes(p), CF4_WEIGHTS, 0.37)
                for p in both_layouts(path))
        assert np.array_equal(a, b)
