import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference as ref
from reference import random_unitary

from holosim import abelian, holonomy, linalg, models

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_usb_eta.json").read_text(encoding="utf-8")
)


def shipped_loop():
    return models.make_usb_loop("circle")


def dark_initial_frame(path):
    return models.UsbModel().dark_frame_batch(path(np.array([0.0])))[0]


class FramesModel(models.UsbModel):
    """The four-level model's energies, with the given frames as the block's
    frames at every sample: feeds hand-made frames to wilson_line."""

    def __init__(self, frames):
        self.frames = frames

    def band_states_batch(self, lams, block):
        return self.energies_batch(lams), self.frames


class TestEigenframePath:
    def test_constant_path_constant_frames(self):
        path = models.constant_path([0.3, 1.0, 0.4], label="const")
        frames = holonomy.eigenframe_path(
            models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 32
        )
        diff = np.max(np.abs(frames.frames - frames.frames[0]))
        assert diff < 1e-12

    def test_dark_frames_annihilated_by_hamiltonian(self):
        path = shipped_loop()
        frames = holonomy.eigenframe_path(
            models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 256
        )
        lams = path.sample(256)
        hs = models.UsbModel().evaluate_batch(lams)
        hf = np.einsum("kij,kjm->kim", hs, frames.frames)
        scale = np.max(np.abs(hs))
        assert np.max(np.abs(hf)) < 1e-10 * scale

    def test_frames_orthonormal(self):
        frames = holonomy.eigenframe_path(
            models.UsbModel(), shipped_loop(), holonomy.USB_DARK_BLOCK, 128
        )
        gram = np.einsum("kim,kin->kmn", frames.frames.conj(), frames.frames)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_single_band_matches_parallel_transport(self):
        loop = models.make_azimuthal_loop(1.0)
        n = 128
        chain = abelian.bloch_chain(loop.sample(n))
        transported = abelian.parallel_transport(chain)
        frames = holonomy.eigenframe_path(
            models.QubitModel(),
            loop,
            holonomy.BandBlock(0, 1),
            n,
            initial_frame=chain.states[0][:, None],
        )
        assert np.max(np.abs(frames.frames[:, :, 0] - transported.states)) < 1e-10

    def test_gap_closure_reported_with_location(self):
        path = models.ParameterPath(
            lambda s: np.stack(
                [np.cos(2 * np.pi * s), np.zeros_like(s), np.zeros_like(s)], axis=1
            ),
            3,
            closed=True,
            label="through-origin",
        )
        with pytest.raises(holonomy.GapClosureError) as exc:
            holonomy.eigenframe_path(
                models.QubitModel(), path, holonomy.BandBlock(0, 1), 64
            )
        assert exc.value.s == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("block", [holonomy.USB_DARK_BLOCK, holonomy.BandBlock(0, 1)])
    def test_four_level_zero_couplings_reported_with_location(self, block):
        s_values = np.arange(8) / 8
        lams = np.stack([np.ones(8), 2.0 * np.ones(8), np.zeros(8)], axis=1)
        lams[5] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(holonomy.GapClosureError) as exc:
                holonomy.block_frames(models.UsbModel(), lams, block, s_values)
        assert exc.value.s == 0.625 and exc.value.gap == 0.0
        # the whole space keeps its (absent) gap: the typed error of the frames stands
        with pytest.raises(models.ZeroFieldError, match=r"index \[5\]"):
            holonomy.block_frames(models.UsbModel(), lams, holonomy.BandBlock(0, 4), s_values)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="16"):
            holonomy.eigenframe_path(
                models.UsbModel(), shipped_loop(), holonomy.USB_DARK_BLOCK, 8
            )

    def test_initial_frame_must_be_orthonormal(self):
        path = shipped_loop()
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            holonomy.eigenframe_path(
                models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 32, initial_frame=bad
            )

    def test_initial_frame_must_span_block(self):
        path = shipped_loop()
        wrong = np.zeros((4, 2), dtype=complex)
        wrong[0, 0] = wrong[1, 1] = 1.0  # overlaps the bright space
        with pytest.raises(ValueError, match="span"):
            holonomy.eigenframe_path(
                models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 32, initial_frame=wrong
            )


class TestWilsonLine:
    def test_constant_frames_identity(self):
        path = models.constant_path([0.3, 1.0, 0.4])
        res = holonomy.wilson_line(models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 32)
        assert linalg.max_abs(res.matrix - np.eye(2)) < 1e-12
        assert res.samples == 32

    def test_abelian_reduction_matches_chain_phase(self):
        loop = models.make_azimuthal_loop(1.0)
        n = 512
        chain = abelian.bloch_chain(loop.sample(n))
        res = holonomy.wilson_line(
            models.QubitModel(),
            loop,
            holonomy.BandBlock(0, 1),
            n,
            initial_frame=chain.states[0][:, None],
        )
        chi = abelian.pancharatnam_phase(chain)
        assert abs(np.angle(res.matrix[0, 0]) - chi) < 1e-12
        assert abs(abs(res.matrix[0, 0]) - 1.0) < 1e-12

    def test_usb_matches_closed_form(self):
        path = shipped_loop()
        eta = holonomy.usb_eta_pair(path, 2**14)[0]
        target = holonomy.usb_holonomy_closed_form(eta)
        res = holonomy.usb_wilson_line(path, 8192)
        assert holonomy.holonomy_distance(res.matrix, target) < 1e-3
        assert res.eta_estimate == pytest.approx(eta, abs=1e-6)

    def test_usb_convergence_monotone(self):
        path = shipped_loop()
        eta = holonomy.usb_eta_pair(path, 2**14)[0]
        target = holonomy.usb_holonomy_closed_form(eta)
        dists = [
            holonomy.holonomy_distance(
                holonomy.usb_wilson_line(path, n).matrix, target
            )
            for n in (512, 2048, 8192)
        ]
        assert dists[0] > dists[1] > dists[2]

    def test_unitarity_defect_small(self):
        for n in (256, 1024):
            res = holonomy.usb_wilson_line(shipped_loop(), n)
            assert res.unitarity_defect < 1e-8

    def test_open_path_rejected(self):
        path = models.ParameterPath(
            lambda s: np.stack([s, 1.0 + s, s], axis=1), 3, closed=False, label="open"
        )
        with pytest.raises(ValueError, match="closed"):
            holonomy.wilson_line(models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 32)

    def test_ill_conditioned_link_rejected(self):
        # orthogonal consecutive subspaces: the link overlap is singular
        frames = np.zeros((16, 4, 2), dtype=complex)
        frames[::2, 0, 0] = frames[::2, 1, 1] = 1.0
        frames[1::2, 2, 0] = frames[1::2, 3, 1] = 1.0
        path = models.constant_path([0.0, 1.0, 0.0])
        with pytest.raises(holonomy.IllConditionedLinkError):
            holonomy.wilson_line(FramesModel(frames), path, holonomy.USB_DARK_BLOCK, 16)

    def test_nan_link_rejected(self):
        path = shipped_loop()
        frames = holonomy.eigenframe_path(models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 64)
        frames.frames[5, 0, 0] = np.nan
        with pytest.raises(holonomy.IllConditionedLinkError, match="link 4 ") as caught:
            holonomy.wilson_line(FramesModel(frames.frames), path, holonomy.USB_DARK_BLOCK, 64)
        assert math.isnan(caught.value.sigma_min)

    def test_two_dimensional_links_take_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        holonomy.usb_wilson_line(shipped_loop(), 256)
        # the links and their product are unitarized in closed form
        assert calls == []

    def test_basepoint_gauge_covariance(self):
        rng = np.random.default_rng(61)
        path = shipped_loop()
        f0 = dark_initial_frame(path)
        v = holonomy.wilson_line(
            models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 256, initial_frame=f0
        ).matrix
        for _ in range(20):
            g = random_unitary(rng, 2)
            w = holonomy.wilson_line(
                models.UsbModel(),
                path,
                holonomy.USB_DARK_BLOCK,
                256,
                initial_frame=f0 @ g,
            ).matrix
            assert linalg.max_abs(w - g.conj().T @ v @ g) < 1e-10
            assert ref.eigenangle_distance(w, v) < 1e-10

    def test_gauge_invariance_away_from_basepoint(self):
        rng = np.random.default_rng(83)
        path = shipped_loop()
        base = holonomy.eigenframe_path(
            models.UsbModel(),
            path,
            holonomy.USB_DARK_BLOCK,
            256,
            initial_frame=dark_initial_frame(path),
        )
        gauges = np.array([random_unitary(rng, 2) for _ in range(base.samples - 1)])
        regauged = np.concatenate([base.frames[:1], base.frames[1:] @ gauges])
        block = holonomy.USB_DARK_BLOCK
        v = holonomy.wilson_line(FramesModel(base.frames), path, block, 256).matrix
        w = holonomy.wilson_line(FramesModel(regauged), path, block, 256).matrix
        assert linalg.max_abs(w - v) < 1e-12

    def test_orientation_reversal_daggers(self):
        path = shipped_loop()
        f0 = dark_initial_frame(path)
        fwd = holonomy.wilson_line(
            models.UsbModel(), path, holonomy.USB_DARK_BLOCK, 512, initial_frame=f0
        )
        rev = holonomy.wilson_line(
            models.UsbModel(),
            models.reversed_path(path),
            holonomy.USB_DARK_BLOCK,
            512,
            initial_frame=f0,
        )
        assert linalg.max_abs(rev.matrix - fwd.matrix.conj().T) < 1e-10


class TestStreamedWilsonLineErrors:
    """wilson_line walks blocks of 16 samples here, and raises in path order what
    the whole path raises first: a gap closure anywhere, the basepoint check, then a link."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK", 16)

    @staticmethod
    def through_origin(z=0.0):
        # (1 + cos 2 pi s, sin 2 pi s, z) is (0, 0, z) at s = 1/2: sample 32 of 64, in block 2
        def evaluate(s):
            a = 2.0 * np.pi * s
            return np.stack([1.0 + np.cos(a), np.sin(a), np.full_like(s, z)], axis=1)

        return models.ParameterPath(evaluate, 3, closed=True)

    @pytest.mark.parametrize("z", [0.0, 1e-11], ids=["zero-field", "defined-frames"])
    def test_gap_closure_in_a_later_block_names_its_s(self, z):
        path, block = self.through_origin(z), holonomy.BandBlock(0, 1)
        with pytest.raises(holonomy.GapClosureError, match=r"s = 0\.500000"):
            holonomy.wilson_line(models.QubitModel(), path, block, 64)

    def test_zero_field_without_a_gap_names_its_sample(self):
        # the whole four-level space has no gap: the frames' error, by its index on the path
        path, block = self.through_origin(), holonomy.BandBlock(0, 4)
        with pytest.raises(models.ZeroFieldError, match=r"index \[32\]"):
            holonomy.wilson_line(models.UsbModel(), path, block, 64)

    def test_gap_closure_comes_before_the_basepoint_check(self):
        model, block, bad = models.QubitModel(), holonomy.BandBlock(0, 1), np.ones((2, 1))
        with pytest.raises(holonomy.GapClosureError, match=r"s = 0\.500000"):
            holonomy.wilson_line(model, self.through_origin(), block, 64, bad)
        with pytest.raises(ValueError, match="orthonormal"):
            holonomy.wilson_line(model, models.make_azimuthal_loop(1.0), block, 64, bad)


class TestEta:
    def test_q_zero_loop(self):
        path = models.make_usb_loop("circle", {"q0": 0.0, "b": 0.0})
        assert holonomy.usb_eta_pair(path, 4096)[0] == 0.0

    def test_constant_angle_loop(self):
        # P, S fixed, only Q moves: theta is constant so d theta = 0
        def fn(s):
            w = 2.0 * np.pi * np.mod(s, 1.0)
            return np.stack(
                [np.full_like(w, 0.4), np.full_like(w, 1.1), 0.5 + 0.3 * np.sin(w)],
                axis=1,
            )

        path = models.ParameterPath(fn, 3, closed=True, label="q-only")
        e_theta, e_line = holonomy.usb_eta_pair(path, 4096)
        assert e_theta == 0.0
        assert e_line == 0.0

    def test_dual_quadratures_agree_for_shipped_loops(self):
        for params in ({}, {"q0": 0.3, "b": 0.15}, {"a": 0.4}):
            path = models.make_usb_loop("circle", params)
            e_theta, e_line = holonomy.usb_eta_pair(path, 2**14)
            assert abs(e_theta - e_line) < 1e-6

    def test_golden_value(self):
        path = shipped_loop()
        assert path.label == GOLDEN["loop"]
        e_theta, e_line = holonomy.usb_eta_pair(path, GOLDEN["n_samples"])
        assert abs(e_theta - e_line) < 1e-8
        assert e_theta == pytest.approx(GOLDEN["eta_theta"], abs=1e-12)
        assert e_line == pytest.approx(GOLDEN["eta_line"], abs=1e-12)

    def test_singularity_rejected(self):
        def fn(s):
            w = 2.0 * np.pi * np.mod(s, 1.0)
            return np.stack([0.5 * np.sin(w), 0.5 + 0.5 * np.cos(w), np.ones_like(w)], axis=1)

        path = models.ParameterPath(fn, 3, closed=True, label="touches-singularity")
        message = r"^dark-frame angle singular at s = 0\.500000 \(P = S = 0\)$"
        with pytest.raises(models.DarkFrameSingularError, match=message):
            holonomy.usb_eta_pair(path, 4096)[0]


class TestClosedForm:
    def test_identity_at_zero(self):
        assert np.array_equal(holonomy.usb_holonomy_closed_form(0.0), np.eye(2))

    def test_quarter_turn(self):
        b = holonomy.usb_holonomy_closed_form(math.pi / 2)
        assert np.allclose(b, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_group_composition(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            left = holonomy.usb_holonomy_closed_form(a) @ holonomy.usb_holonomy_closed_form(b)
            assert np.allclose(
                left, holonomy.usb_holonomy_closed_form(a + b), atol=1e-12
            )


def diagonal_phases(t1, t2):
    """diag(e^{i t1}, e^{i t2}) against the identity: the best phase bisects the two, so the
    distance is 2 sin(d / 4), with d = |t1 - t2| folded into [0, pi]; within 1e-15."""
    d = abs(t1 - t2)
    v = np.diag(np.exp(1j * np.array([t1, t2])))
    return v, 2.0 * math.sin(min(d, 2.0 * math.pi - d) / 4.0), 1e-15


class TestHolonomyDistance:
    def test_identical(self):
        rng = np.random.default_rng(71)
        u = random_unitary(rng, 3)
        assert holonomy.holonomy_distance(u, u) < 1e-12

    def test_global_phase_quotient(self):
        rng = np.random.default_rng(73)
        u = random_unitary(rng, 4)
        assert holonomy.holonomy_distance(u, np.exp(1j * np.pi / 7) * u) < 1e-10

    @pytest.mark.parametrize("v, expected, tol", [
        (models.SIGMA_X, 1.0, 1e-9),
        *[diagonal_phases(t1, t2) for t1, t2 in [(0.0, 0.5), (0.3, -2.5), (1.0, 1.0 + 1e-9)]],
        # not unitary: |e^{ia} - 5i| >= 4 exceeds |e^{ia} - 1| at every phase, so the
        # distance is that one entry's own minimum, at a = pi / 2
        (np.diag([5j, 1.0]), 4.0, 1e-15),
    ], ids=["sigma_x", "diag-0-0.5", "diag-0.3--2.5", "diag-1-1+1e-9", "one-entry-minimum"])
    def test_identity_vs_sigma_x(self, v, expected, tol):
        d = holonomy.holonomy_distance(np.eye(2, dtype=complex), v)
        assert type(d) is float
        assert d == pytest.approx(expected, abs=tol)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            holonomy.holonomy_distance(np.eye(2), np.eye(3))

    def test_eigenangle_distance_conjugation_invariant(self):
        rng = np.random.default_rng(79)
        u = random_unitary(rng, 3)
        g = random_unitary(rng, 3)
        assert ref.eigenangle_distance(u, g @ u @ g.conj().T) < 1e-10

    def test_eigenangle_distance_detects_difference(self):
        assert ref.eigenangle_distance(
            np.eye(2), np.diag([1.0, np.exp(0.5j)])
        ) == pytest.approx(0.5, abs=1e-9)


class TestBandBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            holonomy.BandBlock(2, 2)
        with pytest.raises(ValueError):
            holonomy.BandBlock(-1, 1)
        assert holonomy.USB_DARK_BLOCK.size == 2

    def test_block_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            holonomy.eigenframe_path(
                models.QubitModel(),
                models.make_azimuthal_loop(1.0),
                holonomy.BandBlock(1, 3),
                32,
            )
