import math
import tracemalloc
import warnings

import numpy as np
import pytest
from reference import eigh_gauged, eigh_propagators, gauge_fixed_vector, random_hermitian
from reference import random_unitary, reference_link_polar, sequential_prefixes

from holosim import linalg
from holosim.models import UsbModel


def usb_matrix(p):
    return UsbModel().evaluate_batch(np.asarray(p, dtype=float).reshape(1, 3))[0]


class TestEigh:
    def test_sigma_z(self):
        w, v = eigh_gauged(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector first
        assert abs(abs(v[1, 0]) - 1.0) < 1e-14

    def test_identity(self):
        w, v = eigh_gauged(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])
        gram = v.conj().T @ v
        assert linalg.max_abs(gram - np.eye(2)) < 1e-12

    def test_four_level_at_unit_couplings(self):
        h = usb_matrix([1.0, 1.0, 1.0])
        w, _ = eigh_gauged(h)
        r = np.sqrt(3.0)
        assert np.allclose(w, [-r, 0.0, 0.0, r], atol=1e-12)
        # independent root check: each eigenvalue must zero the
        # characteristic determinant (LU-based, not an eigensolver)
        for ev in w:
            assert abs(np.linalg.det(h - ev * np.eye(4))) < 1e-10

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            h = random_hermitian(rng, dim)
            w, v = eigh_gauged(h)
            scale = linalg.max_abs(h)
            res = h @ v - v * w
            assert linalg.max_abs(res) < 1e-10 * max(1.0, scale)
            gram = v.conj().T @ v
            assert linalg.max_abs(gram - np.eye(dim)) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 9):
            h = random_hermitian(rng, dim)
            w, v = eigh_gauged(h)
            rebuilt = (v * w) @ v.conj().T
            assert linalg.max_abs(rebuilt - h) <= 1e-10 * max(1.0, linalg.max_abs(h))

    def test_eigenvalues_invariant_under_conjugation(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 5, 8):
            h = random_hermitian(rng, dim)
            u = random_unitary(rng, dim)
            w1, _ = eigh_gauged(h)
            w2, _ = eigh_gauged(u @ h @ u.conj().T)
            assert np.max(np.abs(w1 - w2)) < 1e-10 * max(1.0, np.max(np.abs(w1)))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(linalg.NonHermitianError) as exc:
            linalg.eigh_batch(bad)
        assert exc.value.defect == pytest.approx(1.0)
        assert "1.0" in str(exc.value) or "1.000" in str(exc.value)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1j * math.inf])
    def test_rejects_non_finite_entry(self, entry, value):
        # NaN >= bound is False: a NaN-diagonal 2x2 used to pass and come back as +-1.414
        hs = np.tile(np.diag([1.0, -1.0]).astype(complex), (3, 1, 1))
        hs[1][entry] = value
        with pytest.raises(linalg.NonHermitianError, match="non-finite entry") as exc:
            linalg.eigh_batch(hs)
        assert not math.isfinite(exc.value.defect)

    @pytest.mark.parametrize("shape", [(32, 2, 2), (32, 4, 4), (3, 3), (5, 7, 4, 4)])
    def test_non_hermitian_error_carries_full_stack_defect(self, shape):
        rng = np.random.default_rng(89)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = linalg.max_abs(h - linalg.dagger(h))
        for solve in (linalg.eigh_batch, lambda hs: linalg.propagator_increments(hs, 0.1)):
            with pytest.raises(linalg.NonHermitianError) as exc:
                solve(h)
            assert exc.value.defect == expected
            bound = linalg.HERMITIAN_TOL * max(1.0, linalg.max_abs(h))
            assert f"{bound:.1e}" in str(exc.value)

    def test_gauge_is_deterministic(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 4)
        _, a = eigh_gauged(h)
        _, b = eigh_gauged(h.copy())
        assert np.array_equal(a, b)

    def test_gauge_fix_stack_matches_per_vector_form(self):
        rng = np.random.default_rng(19)
        stack = rng.normal(size=(6, 5, 3)) + 1j * rng.normal(size=(6, 5, 3))
        stack[0, 0] = 0.0
        stack[1, 1] = [0.5, -0.5j, 0.5]  # tie: the lowest index is the pivot
        fixed = linalg.gauge_fix(stack)
        for idx in np.ndindex(stack.shape[:-1]):
            assert linalg.max_abs(fixed[idx] - gauge_fixed_vector(stack[idx])) <= 1e-15
        assert np.array_equal(fixed[0, 0], np.zeros(3))
        assert fixed[1, 1, 0] == pytest.approx(0.5, abs=1e-15)

    # clusters [0], [1, 2], [3]: only a cut inside the dark pair closes a gap
    USB_LEVELS = linalg.eigh_batch(usb_matrix([1.0, 1.0, 1.0])[None])[0]

    @pytest.mark.parametrize(
        "w, start, stop, closure",
        [
            (USB_LEVELS, 1, 3, None),
            (USB_LEVELS, 0, 1, None),
            (USB_LEVELS, 3, 4, None),
            (USB_LEVELS, 1, 2, (0, linalg.DEGENERACY_TOL)),
            # each sample is judged by its own scale: a gap of 1.58 stays open beside |w| = 1e100
            ([[-1e100, 0.0, 0.0, 1e100], [-1.58, 0.0, 0.0, 1.58]], 1, 3, None),
            # and 1e-2 at |w| = 1e8 is closed, whichever end of the row that |w| is at
            ([[-1.0, 0.0, 1.0], [-1e8, -1e8 + 1e-2, 0.0]], 0, 1, (1, 1.1e-2)),
            ([[-1.0, 0.0, 1.0], [0.0, 1e8, 1e8 + 1e-2]], 2, 3, (1, 1.1e-2)),
            # a gap at the threshold is closed
            ([[0.0, 1.0], [0.0, linalg.DEGENERACY_TOL]], 0, 1, (1, linalg.DEGENERACY_TOL)),
            # two closures: the first in path order is named, not the smallest
            ([[0.0, 1e-10], [0.0, 0.0], [0.0, 1.0]], 0, 1, (0, 1e-10)),
        ],
        ids=["dark-pair", "lower-bright", "upper-bright", "cut-pair", "beside-1e100",
             "at-1e8-left", "at-1e8-right", "at-threshold", "first-not-smallest"],
    )
    def test_degenerate_cluster_detection(self, w, start, stop, closure):
        # closure: the first closed sample and a bound on its gap, or None
        found = linalg.closed_gap(np.asarray(w, dtype=float), start, stop)
        if closure is None:
            assert found is None
        else:
            k, gap = found
            assert k == closure[0] and abs(gap) <= closure[1]


class TestNearestUnitary:
    def test_unitary_fixed_point(self):
        rng = np.random.default_rng(23)
        u = random_unitary(rng, 4)
        assert linalg.max_abs(linalg.nearest_unitary(u) - u) < 1e-12

    def test_positive_scaling_removed(self):
        assert linalg.max_abs(
            linalg.nearest_unitary(2.0 * np.eye(3, dtype=complex)) - np.eye(3)
        ) < 1e-14

    def test_positive_diagonal_removed(self):
        m = np.diag([2.0, 0.5]).astype(complex)
        assert linalg.max_abs(linalg.nearest_unitary(m) - np.eye(2)) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        once = linalg.nearest_unitary(m)
        twice = linalg.nearest_unitary(once)
        assert linalg.max_abs(twice - once) < 1e-12

    def test_unitarizes(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = linalg.nearest_unitary(m)
        assert linalg.unitarity_defect(u) < 1e-12

    def test_rank_deficient_reports_singular_value(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(linalg.RankDeficientError) as exc:
            linalg.nearest_unitary(m)
        assert exc.value.sigma_min == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    def test_rank_floor_is_relative_to_largest_singular_value(self, m):
        # 1e-7 is far above RANK_TOL, but not above RANK_TOL * 1e6
        a = np.diag([1e6] + [1.0] * (m - 2) + [1e-7]).astype(complex)
        with pytest.raises(linalg.RankDeficientError) as exc:
            linalg.nearest_unitary(a)
        assert exc.value.sigma_min == pytest.approx(1e-7, rel=1e-9)
        b = np.diag([1.0] * (m - 1) + [1e-7]).astype(complex)
        assert linalg.max_abs(linalg.nearest_unitary(b) - np.eye(m)) < 1e-15

    def test_nan_matrix_rejected(self):
        with pytest.raises(linalg.RankDeficientError):
            linalg.nearest_unitary(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestUnitarityDefect:
    def test_identity(self):
        assert linalg.unitarity_defect(np.eye(3, dtype=complex)) == 0.0

    def test_scaled_identity(self):
        assert linalg.unitarity_defect(2.0 * np.eye(2, dtype=complex)) == pytest.approx(3.0)

    def test_rotation_matrix(self):
        from holosim.holonomy import usb_holonomy_closed_form

        for eta in (0.0, 0.3, -1.2, 2.9):
            assert linalg.unitarity_defect(usb_holonomy_closed_form(eta)) < 1e-15


class TestAngles:
    def test_wrap_angle_principal_interval(self):
        assert linalg.wrap_angle(np.pi) == pytest.approx(np.pi)
        assert linalg.wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert linalg.wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert linalg.wrap_angle(0.0) == 0.0
        arr = linalg.wrap_angle(np.array([0.1, 2 * np.pi + 0.1, -7.0]))
        assert np.allclose(arr, [0.1, 0.1, -7.0 + 2 * np.pi])

    def test_angle_distance(self):
        assert linalg.angle_distance(np.pi - 1e-3, -np.pi + 1e-3) == pytest.approx(
            2e-3, abs=1e-12
        )


def star_stack(rng, k, dim=4, hub=1):
    hs = np.zeros((k, dim, dim), dtype=complex)
    spokes = [j for j in range(dim) if j != hub]
    couplings = rng.normal(size=(k, dim - 1)) + 1j * rng.normal(size=(k, dim - 1))
    hs[:, hub, spokes] = couplings
    hs[:, spokes, hub] = np.conjugate(couplings)
    return hs


class TestPropagatorIncrements:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        original = linalg.eigh_batch

        def counting(hs):
            calls.append(len(hs))
            return original(hs)

        monkeypatch.setattr(linalg, "eigh_batch", counting)
        return calls

    def test_general_stack_takes_the_eigh_path(self, eigh_calls):
        rng = np.random.default_rng(43)
        hs = np.stack([random_hermitian(rng, 4) for _ in range(64)])
        # stars have the spectrum {-R, 0, +R}, and a detuned hub breaks it:
        # both take the dense form (the models write their own closed forms)
        detuned = star_stack(rng, 3)
        detuned[1, 1, 1] = 0.5
        dt = 0.2
        for stack in (hs, np.concatenate([star_stack(rng, 5), detuned])):
            es = linalg.propagator_increments(stack, dt)
            w, v = np.linalg.eigh(stack)
            steps = -2.0 * np.sin(0.5 * w * dt) ** 2 - 1j * np.sin(w * dt)
            expected = np.einsum("kij,kj,klj->kil", v, steps, np.conjugate(v))
            assert np.array_equal(es, expected)
            assert linalg.max_abs(es + np.eye(4) - eigh_propagators(stack, dt)) <= 1e-14
        assert eigh_calls == [64, 8]

    def test_zero_hamiltonian_gives_identity(self, eigh_calls):
        es = linalg.propagator_increments(np.zeros((3, 4, 4), dtype=complex), 0.5)
        assert np.array_equal(es, np.zeros((3, 4, 4)))
        assert eigh_calls == [3]

    def test_steps_are_unitary(self):
        rng = np.random.default_rng(47)
        for hs in (star_stack(rng, 16), np.stack([random_hermitian(rng, 3)] * 4)):
            for e in linalg.propagator_increments(hs, 0.7):
                assert linalg.unitarity_defect(e + np.eye(len(e))) < 1e-14

    def test_rejects_non_hermitian(self):
        nilpotent = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(linalg.NonHermitianError):
            linalg.propagator_increments(nilpotent, 0.1)


class TestProducts:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 101])
    def test_prefix_products_match_sequential(self, n, m):
        rng = np.random.default_rng((67, n, m))
        mats = np.stack([random_unitary(rng, m) for _ in range(n)])
        before = mats.copy()
        prefixes = linalg.prefix_products(mats)
        assert prefixes.shape == mats.shape and np.array_equal(mats, before)
        assert linalg.max_abs(prefixes - sequential_prefixes(mats)) < 1e-13


class TestLinkOverlaps:
    def test_streams_in_blocks(self):
        # the links and one block's conjugate frames: no rolled or conjugated full copy
        rng = np.random.default_rng(83)
        shape = (4, 2, 2**16)
        frames = np.moveaxis(rng.normal(size=shape) + 1j * rng.normal(size=shape), -1, 0)
        tracemalloc.start()
        try:
            links = linalg.link_overlaps(frames, closed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < links.nbytes + 2**21

    def test_links_view_stack_last_memory(self):
        frames = np.moveaxis(np.ones((4, 2, 64), dtype=complex), -1, 0)
        for closed in (True, False):
            links = linalg.link_overlaps(frames, closed)
            assert np.moveaxis(links, 0, -1).flags.c_contiguous


class TestLinkPolar:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_svd_on_random_stacks(self, m):
        rng = np.random.default_rng(61 + m)
        links = rng.normal(size=(4, 64, m, m)) + 1j * rng.normal(size=(4, 64, m, m))
        ref_polar, ref_sigma = reference_link_polar(links)
        polar, sigma = linalg.link_polar(links)
        assert polar.shape == links.shape and sigma.shape == (4, 64)
        assert linalg.max_abs(polar - ref_polar) < 1e-13
        assert linalg.max_abs(sigma - ref_sigma) < 1e-13

    @pytest.mark.parametrize(
        "link",
        [[[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 1j], [1.0, 1j]],
         np.zeros((3, 3))],
    )
    def test_zero_and_singular_links_give_exact_zero(self, link):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            links = np.asarray(link, dtype=complex)[None]
            polar, sigma = linalg.link_polar(links)
            sigma_only = linalg.link_sigma_min(links)
        assert sigma[0] == 0.0 and sigma_only[0] == 0.0
        assert np.all(np.isfinite(polar))

    def test_ill_conditioned_polar_no_worse_than_svd(self):
        # the polar factor of a complex matrix has condition number
        # 1/sigma_min, here 1e7; the closed form stays within SVD's error
        rng = np.random.default_rng(71)
        u = np.stack([random_unitary(rng, 2) for _ in range(256)])
        v = np.stack([random_unitary(rng, 2) for _ in range(256)])
        exact = u @ linalg.dagger(v)
        links = u @ np.diag([1.0, 1e-7]) @ linalg.dagger(v)
        polar, sigma = linalg.link_polar(links)
        svd_polar = reference_link_polar(links)[0]
        assert linalg.max_abs(polar - exact) <= linalg.max_abs(svd_polar - exact)
        assert linalg.max_abs(sigma - 1e-7) < 1e-15

    def test_check_links_rejects_nan(self):
        class LinkError(ValueError):
            def __init__(self, index, sigma):
                self.index, self.sigma = index, sigma

        with pytest.raises(LinkError) as caught:
            linalg.check_links(np.array([0.5, np.nan, 0.0]), 1e-6, LinkError)
        assert caught.value.index == 1 and math.isnan(caught.value.sigma)
