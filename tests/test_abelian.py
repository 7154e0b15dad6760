import math
import tracemalloc

import numpy as np
import pytest
from reference import cumulative_angle_transport

from holosim import abelian, linalg, models
from holosim.report import DegenerateInputError

OCTANT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def ground_chain(theta0, n, radius=1.0):
    loop = models.make_azimuthal_loop(theta0, radius)
    return abelian.band_state_chain(models.QubitModel(), loop, band=0, n_samples=n)


class TwoParamRealModel(models.HamiltonianModel):
    """H(a, b) = a sigma_z + b sigma_x: eigenvectors can be chosen real."""

    dim = 2
    parameter_dim = 2
    label = "real-family"

    def evaluate_batch(self, lams):
        lams = np.asarray(lams, dtype=float).reshape(-1, 2)
        out = np.zeros((len(lams), 2, 2), dtype=complex)
        out[:, 0, 0] = lams[:, 0]
        out[:, 1, 1] = -lams[:, 0]
        out[:, 0, 1] = out[:, 1, 0] = lams[:, 1]
        return out


class TestPancharatnam:
    def test_identical_states_zero(self):
        state = np.array([0.6, 0.8j])
        chain = abelian.StateChain(np.tile(state, (3, 1)), closed=True)
        assert abelian.pancharatnam_phase(chain) == 0.0

    def test_octant_triple(self):
        chain = abelian.bloch_chain(OCTANT)
        assert abelian.pancharatnam_phase(chain) == pytest.approx(
            -math.pi / 4, abs=1e-12
        )

    def test_gauge_invariance_bulk(self):
        rng = np.random.default_rng(41)
        states = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        chain = abelian.StateChain(states, closed=True)
        base = abelian.pancharatnam_phase(chain)
        for _ in range(100):
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=5))
            rechain = abelian.StateChain(chain.states * phases[:, None], closed=True)
            assert abs(abelian.pancharatnam_phase(rechain) - base) < 1e-12

    def test_orthogonal_pair_rejected_with_index(self):
        states = np.array([[1, 0], [0, 1], [1, 1] / np.sqrt(2)], dtype=complex)
        with pytest.raises(abelian.OverlapTooSmallError) as exc:
            abelian.pancharatnam_phase(abelian.StateChain(states, closed=True))
        assert exc.value.index == 0

    @pytest.mark.parametrize(
        "phase", [abelian.pancharatnam_phase, abelian.discrete_geometric_phase],
        ids=["pancharatnam", "discrete"],
    )
    def test_orthogonal_wrap_link_names_state_zero(self, phase):
        # five states turning by pi/8: the last is orthogonal to the first
        angles = np.arange(5) * (math.pi / 8)
        chain = abelian.StateChain(np.stack([np.cos(angles), np.sin(angles)], axis=1), True)
        with pytest.raises(abelian.OverlapTooSmallError, match=r"states \(4, 0\)") as exc:
            phase(chain)
        assert exc.value.index == 4

    def test_needs_three_states(self):
        states = np.array([[1, 0], [1, 1] / np.sqrt(2)], dtype=complex)
        with pytest.raises(ValueError, match="3 states"):
            abelian.pancharatnam_phase(abelian.StateChain(states, closed=True))


class TestDiscreteGeometricPhase:
    def test_constant_chain_zero(self):
        state = np.array([1.0, 1j]) / np.sqrt(2.0)
        chain = abelian.StateChain(np.tile(state, (16, 1)), closed=True)
        assert abelian.discrete_geometric_phase(chain).phase == 0.0

    def test_ground_band_azimuthal_loop(self):
        res = abelian.discrete_geometric_phase(ground_chain(math.pi / 3, 4096))
        assert abs(linalg.wrap_angle(res.phase + math.pi / 2)) < 1e-4
        assert res.samples == 4096
        assert res.min_overlap > 0.999

    def test_reversed_loop_flips_sign(self):
        chain = ground_chain(math.pi / 3, 4096)
        res = abelian.discrete_geometric_phase(chain.reversed())
        assert abs(linalg.wrap_angle(res.phase - math.pi / 2)) < 1e-4

    def test_open_chain_rejected(self):
        chain = ground_chain(math.pi / 3, 64)
        open_chain = abelian.StateChain(chain.states, closed=False)
        with pytest.raises(ValueError, match="closed"):
            abelian.discrete_geometric_phase(open_chain)

    def test_reparametrization_invariance(self):
        base = models.make_azimuthal_loop(math.pi / 3)

        def warped(s):
            return base.evaluate(s + 0.05 * np.sin(2.0 * np.pi * s))

        warped_path = models.ParameterPath(warped, 3, closed=True, label="warped")
        a = abelian.discrete_geometric_phase(
            abelian.band_state_chain(models.QubitModel(), base, 0, 2048)
        ).phase
        b = abelian.discrete_geometric_phase(
            abelian.band_state_chain(models.QubitModel(), warped_path, 0, 2048)
        ).phase
        assert abs(linalg.wrap_angle(a - b)) < 1e-5

    def test_quadratic_convergence(self):
        theta0 = math.pi / 3
        target = -math.pi * (1.0 - math.cos(theta0))  # -Omega/2
        ns = [64, 256, 1024, 4096]
        errs = [
            abs(linalg.wrap_angle(
                abelian.discrete_geometric_phase(ground_chain(theta0, n)).phase - target
            ))
            for n in ns
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope < -1.9

    def test_gauge_invariance(self):
        rng = np.random.default_rng(43)
        chain = ground_chain(1.0, 128)
        base = abelian.discrete_geometric_phase(chain).phase
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=128))
        rechain = abelian.StateChain(chain.states * phases[:, None], closed=True)
        assert abs(abelian.discrete_geometric_phase(rechain).phase - base) < 1e-12


class TestParallelTransport:
    def test_consecutive_overlaps_real_positive(self):
        chain = ground_chain(1.2, 257)
        out = abelian.parallel_transport(chain)
        overlaps = np.einsum(
            "ki,ki->k", out.states[:-1].conj(), out.states[1:]
        )
        assert np.max(np.abs(np.angle(overlaps))) < 1e-12
        assert np.min(overlaps.real) > 0.0

    def test_preserves_rays_and_first_state(self):
        chain = ground_chain(1.2, 64)
        out = abelian.parallel_transport(chain)
        assert np.array_equal(out.states[0], chain.states[0])
        mags = np.abs(np.einsum("ki,ki->k", chain.states.conj(), out.states))
        assert np.max(np.abs(mags - 1.0)) < 1e-12

    def test_idempotent(self):
        chain = ground_chain(0.8, 64)
        once = abelian.parallel_transport(chain)
        twice = abelian.parallel_transport(once)
        assert np.max(np.abs(twice.states - once.states)) < 1e-12

    def test_closure_mismatch_equals_loop_phase(self):
        chain = ground_chain(math.pi / 3, 4096)
        expected = abelian.discrete_geometric_phase(chain).phase
        out = abelian.parallel_transport(chain)
        mismatch = float(np.angle(np.vdot(out.states[-1], out.states[0])))
        assert abs(linalg.wrap_angle(mismatch + math.pi / 2)) < 1e-4
        assert abs(mismatch - expected) < 1e-12

    @pytest.mark.parametrize("closed", [False, True])
    def test_matches_cumulative_angle_form(self, closed):
        rng = np.random.default_rng(101 + closed)
        for n, dim in ((2, 2), (3, 4), (257, 2), (1000, 3)):
            states = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
            chain = abelian.StateChain(states, closed=closed)
            out = abelian.parallel_transport(chain)
            assert out.closed == closed
            assert linalg.max_abs(out.states - cumulative_angle_transport(chain).states) < 1e-12

    def test_two_state_chain(self):
        rng = np.random.default_rng(47)
        states = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        chain = abelian.StateChain(states, closed=False)
        out = abelian.parallel_transport(chain)
        w = np.vdot(out.states[0], out.states[1])
        assert abs(np.angle(w)) < 1e-12 and w.real > 0.0


class TestBerryConnection:
    def test_real_family_zero(self):
        a = abelian.berry_connection_fd(TwoParamRealModel(), 0, [0.9, 0.4], 0)
        assert abs(a) < 1e-9

    def test_qubit_upper_band_azimuthal_component(self):
        # family (cos t/2, e^{i p} sin t/2): A_phi = -sin^2(t/2)
        sphere = models.SphereQubitModel(1.0)
        a = abelian.berry_connection_fd(sphere, 1, [math.pi / 3, 0.4], 1, h=1e-4)
        assert a == pytest.approx(-(math.sin(math.pi / 6) ** 2), abs=1e-6)

    def test_qubit_lower_band_azimuthal_component(self):
        sphere = models.SphereQubitModel(1.0)
        a = abelian.berry_connection_fd(sphere, 0, [math.pi / 3, 0.4], 1, h=1e-4)
        assert a == pytest.approx(math.sin(math.pi / 6) ** 2, abs=1e-6)

    def test_loop_integral_is_negated_chain_phase(self):
        sphere = models.SphereQubitModel(1.0)
        theta0, n = math.pi / 3, 256
        phis = 2.0 * np.pi * np.arange(n) / n
        a_vals = [
            abelian.berry_connection_fd(sphere, 0, [theta0, p], 1, h=1e-4)
            for p in phis
        ]
        loop_integral = float(np.sum(a_vals) * 2.0 * np.pi / n)
        phase = abelian.discrete_geometric_phase(ground_chain(theta0, n)).phase
        assert abs(linalg.wrap_angle(loop_integral + phase)) < 1e-3

    def test_degenerate_band_redirects_to_holonomy(self):
        with pytest.raises(abelian.DegenerateBandError, match="holonomy"):
            abelian.berry_connection_fd(models.QubitModel(), 0, [0.0, 0.0, 0.0], 0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            abelian.berry_connection_fd(
                models.SphereQubitModel(1.0), 0, [1.0, 0.0], 0, h=0.0
            )


class TestBerryCurvature:
    def test_lower_band_sphere_density(self):
        sphere = models.SphereQubitModel(1.0)
        theta = 1.1
        sample = abelian.berry_curvature_plaquette(
            sphere, 0, [theta, 0.7], plane=(0, 1), a=0.005
        )
        assert sample.value == pytest.approx(-0.5 * math.sin(theta), rel=2e-2)

    def test_area_normalized_constant(self):
        sphere = models.SphereQubitModel(1.0)
        a = 0.01
        for theta in (0.5, 1.2, 2.2):
            sample = abelian.berry_curvature_plaquette(
                sphere, 0, [theta, 1.9], plane=(0, 1), a=a
            )
            cell = (math.cos(theta) - math.cos(theta + a)) * a
            assert sample.loop_phase / cell == pytest.approx(-0.5, abs=1e-3)

    def test_plane_swap_antisymmetry(self):
        sphere = models.SphereQubitModel(1.0)
        fwd = abelian.berry_curvature_plaquette(sphere, 0, [1.0, 0.3], (0, 1), 0.02)
        rev = abelian.berry_curvature_plaquette(sphere, 0, [1.0, 0.3], (1, 0), 0.02)
        assert fwd.value == pytest.approx(-rev.value, abs=1e-12)

    def test_real_family_zero(self):
        sample = abelian.berry_curvature_plaquette(
            TwoParamRealModel(), 0, [0.8, 0.5], (0, 1), 0.02
        )
        assert abs(sample.value) < 1e-9

    def test_degeneracy_at_corner_rejected(self):
        with pytest.raises(abelian.DegenerateBandError):
            abelian.berry_curvature_plaquette(
                models.QubitModel(), 0, [0.0, 0.0, 0.0], (0, 1), 0.1
            )

    def test_tiling_flux_matches_boundary(self):
        sphere = models.SphereQubitModel(1.0)
        rng = np.random.default_rng(53)
        for _ in range(10):
            th0 = rng.uniform(0.3, 1.8)
            ph0 = rng.uniform(0.0, 4.0)
            extents = (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.5))
            cells = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            flux, boundary = abelian.plaquette_flux_and_boundary(
                sphere, 0, [th0, ph0], (0, 1), extents, cells
            )
            assert abs(linalg.wrap_angle(flux - boundary)) < 1e-10

    @pytest.mark.parametrize(
        "origin, extents, index, pair",
        [
            # phi link from grid vertex (1, 0) to (1, 1): antipodes on the equator
            ([0.5, 0.0], (math.pi / 2 - 0.5, math.pi), 2, "(2, 3)"),
            # theta link from grid vertex (0, 0) to (1, 0): pole to pole
            ([0.0, 0.3], (math.pi, 1.0), 0, "(0, 2)"),
        ],
    )
    def test_tiling_reports_orthogonal_link(self, origin, extents, index, pair):
        with pytest.raises(abelian.OverlapTooSmallError) as exc:
            abelian.plaquette_flux_and_boundary(
                models.SphereQubitModel(), 0, origin, (0, 1), extents, (1, 1)
            )
        assert exc.value.index == index
        assert pair in str(exc.value)

    def test_tiling_rejects_nan_link(self):
        with pytest.raises(abelian.OverlapTooSmallError) as exc:
            abelian.plaquette_flux_and_boundary(
                models.SphereQubitModel(), 0, [0.5, math.nan], (0, 1), (1.0, 1.0), (2, 2)
            )
        assert math.isnan(exc.value.overlap)


class TestSolidAngle:
    def test_equatorial_circle_is_hemisphere(self):
        n = 256
        phis = 2.0 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(phis), np.sin(phis), np.zeros(n)], axis=1)
        assert abelian.solid_angle(dirs) == pytest.approx(2.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("theta0", [0.3, math.pi / 3, math.pi / 2, 2.2, 2.8])
    def test_azimuthal_loop_analytic_value(self, theta0):
        loop = models.make_azimuthal_loop(theta0)
        expected = 2.0 * math.pi * (1.0 - math.cos(theta0))
        errs = []
        for n in (512, 4096):
            omega = abelian.solid_angle(loop.sample(n))
            errs.append(abs(omega - expected))
        assert errs[-1] < 1e-5
        if errs[0] > 1e-12:  # the equator is exact at any resolution
            assert errs[-1] < errs[0] / 4.0  # quadrature refinement converges

    def test_single_repeated_point(self):
        dirs = np.tile([0.0, 1.0, 0.0], (6, 1))
        assert abelian.solid_angle(dirs) == 0.0

    def test_octant_triangle(self):
        assert abelian.solid_angle(OCTANT) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_orientation_flip_negates(self):
        loop = models.make_azimuthal_loop(1.0)
        dirs = loop.sample(128)
        assert abelian.solid_angle(dirs[::-1]) == pytest.approx(
            -abelian.solid_angle(dirs), abs=1e-12
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_rejected(self, value):
        dirs = OCTANT.copy()
        dirs[1, 2] = value
        with pytest.raises(DegenerateInputError, match="non-finite entry at index 1"):
            abelian.solid_angle(dirs)

    def test_zero_direction_rejected(self):
        dirs = OCTANT.copy()
        dirs[2] = 0.0
        with pytest.raises(DegenerateInputError, match="zero vector at index 2"):
            abelian.solid_angle(dirs)

    def test_antipodal_consecutive_rejected(self):
        dirs = np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]])
        with pytest.raises(DegenerateInputError, match="antipodal"):
            abelian.solid_angle(dirs)

    def test_reference_antipodal_rejected(self):
        dirs = np.array([[0, 0, -1.0], [1e-5, 0, -1.0], [0, 1e-5, -1.0]])
        with pytest.raises(DegenerateInputError, match="reference"):
            abelian.solid_angle(dirs)

    def test_antipodal_wrap_pair_names_index_zero(self):
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])
        with pytest.raises(DegenerateInputError, match=r"directions \(2, 0\) are antipodal"):
            abelian.solid_angle(dirs)

    def test_reference_antipodal_names_index(self):
        dirs = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        with pytest.raises(DegenerateInputError, match="direction 1 is antipodal to the reference"):
            abelian.solid_angle(dirs)

    def test_fan_streams_in_blocks(self):
        # one (n,) array of fan terms, not a (3, n + 1) copy and its full-length temporaries
        dirs = models.make_azimuthal_loop(1.0, 1.5).sample(2**18)
        tracemalloc.start()
        try:
            abelian.solid_angle(dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(dirs) + 2**21

    def test_path_samples_build_no_grid(self):
        grid = models.PathSamples(models.make_azimuthal_loop(1.0, 1.5), 2**18)
        tracemalloc.start()
        try:
            abelian.solid_angle(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(grid) + 2**21

    # past the first block, where the antipode screens see only their candidates
    @pytest.mark.parametrize("index", [linalg.BLOCK - 1, linalg.BLOCK + 3])
    def test_antipodal_pair_past_a_block_named(self, index):
        dirs = models.make_azimuthal_loop(1.0).sample(linalg.BLOCK + 20)
        dirs[index + 1] = -2.0 * dirs[index]
        pair = rf"directions \({index}, {index + 1}\) are antipodal"
        with pytest.raises(DegenerateInputError, match=pair):
            abelian.solid_angle(dirs)

    @pytest.mark.parametrize("value, what", [
        (0.0, "a zero vector"), (np.nan, "a non-finite entry"), (-np.inf, "a non-finite entry"),
    ])
    def test_bad_direction_past_a_block_named(self, value, what):
        dirs = models.make_azimuthal_loop(1.0).sample(linalg.BLOCK + 20)
        dirs[linalg.BLOCK + 3] = value
        with pytest.raises(DegenerateInputError, match=f"{what} at index {linalg.BLOCK + 3}$"):
            abelian.solid_angle(dirs)

    @pytest.mark.parametrize("index", [linalg.BLOCK, linalg.BLOCK + 7])
    def test_reference_antipode_past_a_block_named(self, index):
        dirs = models.make_azimuthal_loop(1.0).sample(linalg.BLOCK + 20)
        dirs[index] = (0.0, 0.0, -3.0)
        with pytest.raises(DegenerateInputError, match=f"direction {index} is antipodal"):
            abelian.solid_angle(dirs)

    def test_near_antipodes_past_a_block_are_not_rejected(self):
        # 1e-6 rad from antipodal: screened in as candidates, and kept
        dirs = models.make_azimuthal_loop(1.0).sample(linalg.BLOCK + 20)
        index = linalg.BLOCK + 3
        dirs[index + 1] = -dirs[index] + (1e-6, 0.0, 0.0)
        dirs[index + 5] = (1e-6, 0.0, -1.0)
        assert math.isfinite(abelian.solid_angle(dirs))

    @pytest.mark.parametrize("reference", [(0.0, 0.0, 0.0), (0.0, 1.0)])
    def test_bad_reference_rejected(self, reference):
        with pytest.raises(ValueError, match="`reference` must be a nonzero 3-vector"):
            abelian.solid_angle(OCTANT, reference=reference)

    def test_custom_reference_branch(self):
        # small loop around -z: from +z the representative is ~4 pi - area,
        # from -z it is the small negative area; both agree mod 4 pi
        loop = models.make_azimuthal_loop(2.9)
        dirs = loop.sample(1024)
        from_north = abelian.solid_angle(dirs)
        from_south = abelian.solid_angle(dirs, reference=(0.0, 0.0, -1.0))
        assert from_north - from_south == pytest.approx(4.0 * math.pi, abs=1e-9)


class TestChainBuilding:
    def test_band_state_chain_gap_guard(self):
        path = models.ParameterPath(
            lambda s: np.stack(
                [np.cos(2 * np.pi * s), np.zeros_like(s), np.zeros_like(s)], axis=1
            ),
            3,
            closed=True,
            label="through-origin",
        )
        with pytest.raises(abelian.DegenerateBandError, match="s = 0.25"):
            abelian.band_state_chain(models.QubitModel(), path, 0, 64)

    @pytest.mark.parametrize("points, error, match", [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
         abelian.DegenerateBandError, "band 0 degenerate at s = 0.500000"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
         abelian.OverlapTooSmallError, r"\(1, 2\)"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]],
         abelian.OverlapTooSmallError, r"\(3, 0\)"),
    ], ids=["degenerate", "orthogonal-link", "orthogonal-wrap-link"])
    def test_band_loop_phase_raises_the_chain_errors(self, points, error, match):
        table = np.array(points)
        path = models.ParameterPath(lambda s: table[np.round(4 * s).astype(int) % 4], 3, True)
        for phase in (
            lambda: abelian.band_loop_phase(models.QubitModel(), path, 0, 4),
            lambda: abelian.discrete_geometric_phase(
                abelian.band_state_chain(models.QubitModel(), path, 0, 4)
            ),
        ):
            with pytest.raises(error, match=match):
                phase()

    @pytest.mark.parametrize("closed, n", [(False, 64), (True, 2)])
    def test_band_loop_phase_needs_a_closed_loop_of_three(self, closed, n):
        path = models.make_azimuthal_loop(1.0)
        if not closed:
            path = models.ParameterPath(path.evaluate, 3, closed=False)
        with pytest.raises(ValueError, match="closed path and at least 3 samples"):
            abelian.band_loop_phase(models.QubitModel(), path, 0, n)

    def test_qubit_band_states_take_no_dense_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolve on a qubit path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        chain = ground_chain(math.pi / 3, 256)
        expected = -0.5 * abelian.solid_angle(models.make_azimuthal_loop(math.pi / 3).sample(4096))
        assert abelian.discrete_geometric_phase(chain).phase == pytest.approx(expected, abs=1e-4)
        sample = abelian.berry_curvature_plaquette(
            models.SphereQubitModel(1.0), 0, [1.1, 0.7], (0, 1), 0.01
        )
        assert sample.value == pytest.approx(-0.5 * math.sin(1.1), rel=2e-2)

    def test_zero_state_rejected(self):
        states = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="zero state at index 2$"):
            abelian.StateChain(states, closed=True)

    def test_states_renormalized(self):
        chain = abelian.StateChain(np.array([[2.0, 0.0], [0.0, 3.0]]), closed=False)
        assert np.allclose(np.linalg.norm(chain.states, axis=1), 1.0)
