import copy
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import holosim
from holosim import abelian, adiabatic, experiments, holonomy, linalg, models, schema
from holosim.report import ConfigError, read_csv

ROOT = Path(__file__).resolve().parents[1]

# Malformed configs that used to end in a raw traceback or run silently.
BAD_CONFIGS = [
    ("berry-qubit", {"tolerance": "abc"}, "config.tolerance"),
    ("berry-qubit", {"tolerance": -1}, "config.tolerance"),
    ("berry-qubit", {"band": 5}, "config.band"),
    ("berry-qubit", {"ladder": 64}, "config.ladder"),
    ("berry-qubit", {"ladder": []}, "config.ladder"),
    ("berry-qubit", {"reverse": "yes"}, "config.reverse"),
    ("curvature-map", {"grid": {"theta": [0.5]}}, "config.grid.theta"),
    ("curvature-map", {"grid": {"phi": [1.0, 0.5]}}, "config.grid.phi"),
    ("curvature-map", {"tiling": {"theta": [1.0, 0.5]}}, "config.tiling.theta"),
    ("curvature-map", {"radius": -1}, "config.radius"),
    ("curvature-map", {"radius": "x"}, "config.radius"),
    ("curvature-map", {"band": 3}, "config.band"),
    ("usb-holonomy", {"distance_tolerance": None}, "config.distance_tolerance"),
    ("adiabatic-sweep", {"Ts": ["a", "b", "c"]}, "config.Ts"),
    ("adiabatic-sweep", {"Ts": [-50, 0, 1]}, "config.Ts"),
    ("noise-study", {"noise": {"amplitude_ladder": "x"}}, "config.noise.amplitude_ladder"),
    ("noise-study", {"noise": {"amplitude_ladder": ["a"]}}, "config.noise.amplitude_ladder"),
    ("noise-study", {"slope_gate": "x"}, "config.slope_gate"),
    ("pancharatnam", {"tolerance": "x"}, "config.tolerance"),
    (
        "pancharatnam",
        {"states": {"bloch": [[0, 0, 1], ["a", 0, 1], [1, 0, 0]]}},
        "config.states.bloch",
    ),
    (
        "pancharatnam",
        {"states": {"bloch": [[0, 0, 1], [1, 0, 0], [0, 1, 0]], "amplitudes": [[[1, 0]]] * 3}},
        "config.states",
    ),
    (
        "pancharatnam",
        {"states": {"bloch": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}},
        "config.states.bloch",
    ),
    (
        "pancharatnam",
        {"states": {"amplitudes": [[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        "config.states.amplitudes",
    ),
    ("usb-holonomy", {"path": {"params": {"q0": math.nan}}}, "config.path.params.q0"),
    ("usb-holonomy", {"path": {"params": {"s0": -math.inf}}}, "config.path.params.s0"),
    ("berry-qubit", {"path": {"params": {"theta0": math.nan}}}, "config.path.params.theta0"),
    ("berry-qubit", {"path": {"params": {"theta0": 0.0}}}, "config.path.params.theta0"),
    ("berry-qubit", {"path": {"params": {"radius": -1.0}}}, "config.path.params.radius"),
    (
        "adiabatic-sweep",
        {"model": "qubit", "path": {"family": "constant", "params": {"n": [0, 0, math.nan]}}},
        "config.path.params.n",
    ),
]


class TestConfigResolution:
    def test_defaults_complete(self):
        for name in experiments.EXPERIMENTS:
            cfg = experiments.resolve_config(name)
            assert cfg["experiment"] == name

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown name"):
            experiments.resolve_config("berry-phases")

    def test_unknown_field_carries_path(self):
        with pytest.raises(ConfigError, match=r"config\.nois: unknown field"):
            experiments.resolve_config("noise-study", {"nois": {}})
        with pytest.raises(ConfigError, match=r"config\.noise\.sigma: unknown field"):
            experiments.resolve_config("noise-study", {"noise": {"sigma": 1}})

    def test_deep_merge_keeps_defaults(self):
        cfg = experiments.resolve_config(
            "berry-qubit", {"path": {"params": {"theta0": 1.0}}}
        )
        assert cfg["path"]["params"]["theta0"] == 1.0
        assert cfg["path"]["params"]["radius"] == 1.0
        assert cfg["ladder"] == [64, 256, 1024, 4096]

    def test_family_switch_replaces_params(self):
        cfg = experiments.resolve_config(
            "berry-qubit", {"path": {"family": "constant", "params": {"n": [0, 0, 1]}}}
        )
        assert cfg["path"]["params"] == {"n": [0, 0, 1]}

    def test_family_switch_rejects_unknown_path_fields(self):
        with pytest.raises(ConfigError, match=r"config\.path\.foo: unknown field"):
            experiments.resolve_config(
                "berry-qubit",
                {"path": {"family": "constant", "foo": 1, "params": {"n": [0, 0, 1]}}},
            )
        with pytest.raises(ConfigError, match=r"config\.path\.params: expected an object"):
            experiments.resolve_config(
                "berry-qubit", {"path": {"family": "constant", "params": [0, 0, 1]}}
            )

    def test_path_samples_fragment_overrides_resolution(self):
        cfg = experiments.resolve_config(
            "berry-qubit", {"path": {"params": {"theta0": 1.0}, "samples": 512}}
        )
        assert cfg["ladder"] == [512]
        assert "samples" not in cfg["path"]
        cfg = experiments.resolve_config("noise-study", {"path": {"samples": 1024}})
        assert cfg["samples"] == 1024

    def test_flags_win_over_path_samples_and_are_echoed(self):
        cfg = experiments.resolve_config(
            "berry-qubit", {"path": {"samples": 512}, "ladder": [64]}, samples=256
        )
        assert cfg["ladder"] == [256]
        assert cfg["flag_overrides"] == {"samples": 256}
        cfg = experiments.resolve_config(
            "curvature-map", {"grid": {"cells": [4, 4]}}, samples=3
        )
        assert cfg["grid"]["cells"] == [3, 3]
        cfg = experiments.resolve_config("noise-study", {"noise": {"seed": 1}}, seed=2)
        assert cfg["noise"]["seed"] == 2
        assert cfg["flag_overrides"] == {"seed": 2}
        assert "flag_overrides" not in experiments.resolve_config("noise-study")

    def test_example_configs_resolve(self):
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert paths
        used = set()
        for path in paths:
            user = json.loads(path.read_text())
            cfg = experiments.resolve_config(user["experiment"], user)
            assert cfg["experiment"] == user["experiment"]
            used.add(user["experiment"])
        assert used <= set(experiments.EXPERIMENTS)

    def test_formats_doc_columns_match_registry(self):
        text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        documented = {}
        for section in re.split(r"^### ", text.split("## Column schemas")[1], flags=re.M)[1:]:
            name, body = section.split("\n", 1)
            first_cells = [
                line.split("|")[1] for line in body.splitlines() if line.startswith("| `")
            ]
            documented[name.strip()] = [
                column for cell in first_cells for column in re.findall(r"`([^`]+)`", cell)
            ]
        assert documented == {
            name: list(entry.columns) for name, entry in experiments.REGISTRY.items()
        }

    def test_formats_doc_config_fields_match_registry(self):
        text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        section = text.split("## Config fields")[1].split("## Column schemas")[0]
        documented = {}
        for block in re.split(r"^### ", section, flags=re.M)[1:]:
            name, body = block.split("\n", 1)
            documented[name.strip()] = [
                tuple(cell.strip() for cell in line.split("|")[1:4])
                for line in body.splitlines()
                if line.startswith("| `")
            ]
        assert documented == {
            name: [
                (f"`{key}`", f"`{json.dumps(field.default)}`", field.accepts)
                for key, field in schema.leaves(entry.fields)
            ]
            for name, entry in experiments.REGISTRY.items()
        }


class TestConfigValidation:
    @pytest.mark.parametrize("experiment, config, field", BAD_CONFIGS)
    def test_bad_field_rejected_by_name(self, experiment, config, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}[\[:]"):
            experiments.run_experiment(experiment, config)

    def test_runner_validates_hand_edited_config(self):
        config = experiments.resolve_config("curvature-map") | {"radius": -1}
        with pytest.raises(ConfigError, match=r"^config\.radius:"):
            experiments.run_curvature_map(config)
        config = experiments.resolve_config("adiabatic-sweep") | {"steps_per_T": [64, 64]}
        with pytest.raises(ConfigError, match=r"^config\.steps_per_T:"):
            experiments.run_adiabatic_sweep(config)

    def test_defaults_and_examples_validate_unchanged(self):
        users = [{"experiment": name} for name in experiments.EXPERIMENTS]
        users += [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
        for user in users:
            config = experiments.resolve_config(user["experiment"], user)
            before = copy.deepcopy(config)
            experiments.validate(user["experiment"], config)
            assert config == before


class TestBerryQubit:
    def test_default_run_passes(self):
        report = experiments.run_experiment("berry-qubit")
        assert report.all_passed
        assert report.columns == ["samples", "phase", "oracle_phase", "abs_error"]
        # ladder rows in declared order
        assert [r[0] for r in report.rows] == [64, 256, 1024, 4096]

    def test_reverse_flips_phase_column(self):
        fwd = experiments.run_experiment("berry-qubit", {"ladder": [512]})
        rev = experiments.run_experiment("berry-qubit", {"ladder": [512], "reverse": True})
        assert fwd.rows[0][1] == pytest.approx(-rev.rows[0][1], abs=1e-12)

    def test_small_loop_phase_vanishes(self):
        report = experiments.run_experiment(
            "berry-qubit", {"path": {"params": {"theta0": 0.05}}, "ladder": [1024]}
        )
        assert abs(report.rows[0][1]) < 5e-3
        assert report.all_passed

    def test_rejects_constant_loop_model_mismatch(self):
        with pytest.raises(ConfigError, match="berry-qubit requires the qubit"):
            experiments.run_berry_qubit(
                experiments.resolve_config("berry-qubit") | {"model": "usb"}
            )


class TestCurvatureMap:
    def test_default_run_passes(self):
        report = experiments.run_experiment("curvature-map")
        assert report.all_passed
        assert len(report.rows) == 400
        names = [c.name for c in report.checks]
        assert "flux_equals_boundary_phase" in names

    def test_degenerate_cell_flagged_and_run_continues(self, monkeypatch):
        calls = {"n": 0}
        original = abelian.berry_curvature_plaquette

        def flaky(model, band, lam, plane, a):
            calls["n"] += 1
            if calls["n"] == 3:
                raise abelian.DegenerateBandError("synthetic degeneracy")
            return original(model, band, lam, plane, a)

        monkeypatch.setattr(abelian, "berry_curvature_plaquette", flaky)
        report = experiments.run_curvature_map(
            experiments.resolve_config(
                "curvature-map", {"grid": {"cells": [3, 3]}, "tiling": {"cells": [2, 2]}}
            )
        )
        flagged = [r for r in report.rows if r[5] == 1]
        assert len(flagged) == 1
        assert math.isnan(flagged[0][2])


class TestUsbHolonomy:
    def test_default_run_passes(self):
        report = experiments.run_experiment("usb-holonomy")
        assert report.all_passed
        final = report.rows[-1]
        assert final[3] < 1e-3  # distance to closed form

    def test_q_zero_loop_identity(self):
        report = experiments.run_experiment(
            "usb-holonomy",
            {"path": {"params": {"q0": 0.0, "b": 0.0}}, "ladder": [1024]},
        )
        assert report.all_passed
        assert report.rows[0][1] == 0.0
        assert report.rows[0][3] < 1e-6

    def test_reports_link_health_per_ladder_row(self):
        report = experiments.run_experiment("usb-holonomy", {"ladder": [64, 256]})
        entries = report.metadata()["diagnostics"]["links"]
        assert [e["samples"] for e in entries] == [64, 256]
        sigmas = [e["min_link_singular_value"] for e in entries]
        # finer sampling: neighbouring dark frames overlap more
        assert holonomy.SUBSPACE_OVERLAP_TOL < sigmas[0] < sigmas[1] <= 1.0


class TestAdiabaticSweep:
    def test_qubit_sweep_all_checks_pass(self):
        report = experiments.run_experiment(
            "adiabatic-sweep",
            {"model": "qubit", "path": {"family": "azimuthal", "params": {}}},
        )
        assert report.all_passed
        assert report.config["slope_window"] == [-1.5, -0.5]
        dists = [r[2] for r in report.rows]
        assert dists[0] > dists[1] > dists[2]

    def test_usb_sweep_reports_structural_slope_honestly(self):
        # the four-level model converges second order (symmetric spectrum),
        # so an explicit first-order window must be reported as failed
        report = experiments.run_experiment(
            "adiabatic-sweep", {"slope_window": [-1.5, -0.5]}
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["distance_strictly_decreasing"].passed
        assert by_name["leakage_monotone"].passed
        slope_check = by_name["loglog_slope_in_window"]
        assert not slope_check.passed
        assert slope_check.value == pytest.approx(-2.0, abs=0.3)
        assert report.config["slope_window"] == [-1.5, -0.5]

        # without a window the model's predicted (second) order is checked
        default = experiments.run_experiment("adiabatic-sweep")
        assert default.all_passed
        assert default.config["slope_window"] == [-2.5, -1.5]
        assert default.rows == report.rows

    def test_default_sweep_reports_integrator_health(self):
        report = experiments.run_experiment("adiabatic-sweep")
        entries = report.metadata()["diagnostics"]["integrator"]
        assert [e["ramp_time"] for e in entries] == [r[0] for r in report.rows]
        assert [e["steps"] for e in entries] == [r[1] for r in report.rows]
        assert all(0.0 <= e["norm_drift"] < 1e-12 for e in entries)
        assert all(0.0 < e["step_error_estimate"] < 1e-3 for e in entries)
        assert "diagnostics" not in experiments.run_experiment("pancharatnam").metadata()

    def test_explicit_steps_echoed_in_csv_steps_column(self):
        config = {"Ts": [10.0, 20.0, 40.0], "steps_per_T": [600, 1000, 2100],
                  "reference_samples": 256}
        report = experiments.run_experiment("adiabatic-sweep", config)
        lines = report.csv_text().splitlines()
        assert lines[0].split(",")[1] == "steps"
        assert [int(line.split(",")[1]) for line in lines[1:]] == [600, 1000, 2100]

    def test_under_resolved_flags_exactly_the_warned_ramps(self):
        config = {"Ts": [10.0, 20.0, 40.0], "steps_per_T": [16, 1024, 2048],
                  "reference_samples": 256}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = experiments.run_experiment("adiabatic-sweep", config)
        entries = report.metadata()["diagnostics"]["integrator"]
        assert [e["under_resolved"] for e in entries] == [True, False, False]
        assert entries[0]["step_error_estimate"] > adiabatic.STEP_TOL
        assert [str(w.message).startswith("integration may be under-resolved")
                for w in caught] == [True]

    def test_bad_ts_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            experiments.run_experiment("adiabatic-sweep", {"Ts": [100.0, 50.0, 200.0]})

    @pytest.mark.parametrize(
        "window", [[1], [-1.0, -3.0], [-2.0, -2.0], [-2.0, math.inf], ["a", 1], -2.0]
    )
    def test_bad_slope_window_rejected(self, window):
        with pytest.raises(ConfigError, match=r"config\.slope_window"):
            experiments.run_experiment(
                "adiabatic-sweep", {"slope_window": window, "reference_samples": 256}
            )


class TestShippedWilsonLinesTakeRawLinks:
    def test_no_gauge_transport(self, monkeypatch):
        # a loop's Wilson line is the product of its raw links: smoothing the
        # frames first (transport, eigenframe_path) is not on any shipped path
        def refuse(*args, **kwargs):
            raise AssertionError("gauge transport on a Wilson-line path")

        monkeypatch.setattr(holonomy, "transport", refuse)
        monkeypatch.setattr(holonomy, "eigenframe_path", refuse)
        result = holonomy.usb_wilson_line(models.make_usb_loop("circle"), 1024)
        assert result.unitarity_defect < 1e-8
        qubit_sweep = {"model": "qubit", "path": {"family": "azimuthal", "params": {}}}
        for experiment, config in [
            ("usb-holonomy", None),
            ("adiabatic-sweep", None),
            ("adiabatic-sweep", qubit_sweep),
        ]:
            assert experiments.run_experiment(experiment, config).all_passed


class TestNoiseStudy:
    def test_projected_slope_gate_passes(self):
        report = experiments.run_experiment("noise-study")
        assert report.all_passed
        slope = [c for c in report.checks if c.name == "projected_shift_loglog_slope"][0]
        assert slope.value >= 1.5

    def test_zero_amplitude_zero_deviation(self):
        report = experiments.run_experiment(
            "noise-study",
            {"noise": {"amplitude_ladder": [0.0, 0.02, 0.04]}},
        )
        zero_row = report.rows[0]
        assert zero_row[1] == 0.0 and zero_row[2] == 0.0

    def test_seed_determinism_bit_identical(self):
        a = experiments.run_experiment("noise-study").csv_text()
        b = experiments.run_experiment("noise-study").csv_text()
        assert a == b

    def test_different_seed_changes_rows(self):
        a = experiments.run_experiment("noise-study").csv_text()
        b = experiments.run_experiment("noise-study", {"noise": {"seed": 7}}).csv_text()
        assert a != b

    def test_only_domain_errors_count_as_discarded(self, monkeypatch):
        config = {
            "samples": 64,
            "noise": {"realizations": 8, "amplitude_ladder": [0.01, 0.02]},
        }
        original = abelian.discrete_geometric_phase
        calls = []

        def through_zero_field(chain):
            calls.append(1)
            if len(calls) == 3:
                raise models.ZeroFieldError("deformed loop passes through n = 0")
            return original(chain)

        monkeypatch.setattr(abelian, "discrete_geometric_phase", through_zero_field)
        report = experiments.run_experiment("noise-study", config)
        assert [r[-1] for r in report.rows] == [1, 0]

        def broken(chain):
            raise ValueError("not a domain error")

        monkeypatch.setattr(abelian, "discrete_geometric_phase", broken)
        with pytest.raises(ValueError, match="not a domain error"):
            experiments.run_experiment("noise-study", config)

    @pytest.mark.parametrize("band, sign", [(0, -1.0), (1, 1.0)])
    def test_band_selects_the_tracked_band(self, monkeypatch, band, sign):
        # the first chain is the undeformed loop: the band's phase is
        # -+ pi (1 - cos theta0) (module docstring of abelian)
        original = abelian.discrete_geometric_phase
        phases = []

        def spy(chain):
            result = original(chain)
            phases.append(result.phase)
            return result

        monkeypatch.setattr(abelian, "discrete_geometric_phase", spy)
        config = {"samples": 256, "band": band, "noise": {"realizations": 8}}
        experiments.run_experiment("noise-study", config)
        theta0 = models.QUBIT_AZIMUTHAL_DEFAULTS["theta0"]
        expected = sign * math.pi * (1.0 - math.cos(theta0))
        assert abs(linalg.wrap_angle(phases[0] - expected)) < 1e-3

    def test_amplitude_bounds_validated(self):
        with pytest.raises(ConfigError, match=r"amplitude_ladder\[0\]"):
            experiments.run_experiment(
                "noise-study", {"noise": {"amplitude_ladder": [0.5]}}
            )

    def test_minimum_realizations(self):
        with pytest.raises(ConfigError, match="at least 8"):
            experiments.run_experiment("noise-study", {"noise": {"realizations": 4}})


class TestPancharatnam:
    def test_octant_default(self):
        report = experiments.run_experiment("pancharatnam")
        assert report.all_passed
        assert report.rows[0][1] == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_collinear_states_zero(self):
        report = experiments.run_experiment(
            "pancharatnam",
            {"states": {"bloch": [[0, 0, 1], [0, 0, 1], [0, 0, 1]]}},
        )
        assert report.rows[0][1] == 0.0

    def test_amplitude_route_gauge_invariance(self):
        rng = np.random.default_rng(83)
        states = rng.normal(size=(4, 2, 2))
        base = experiments.run_experiment(
            "pancharatnam", {"states": {"amplitudes": states.tolist()}}
        ).rows[0][1]
        cx = states[..., 0] + 1j * states[..., 1]
        cx = cx * np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))[:, None]
        rotated = np.stack([cx.real, cx.imag], axis=-1)
        other = experiments.run_experiment(
            "pancharatnam", {"states": {"amplitudes": rotated.tolist()}}
        ).rows[0][1]
        assert other == pytest.approx(base, abs=1e-12)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(abelian.OverlapTooSmallError):
            experiments.run_experiment(
                "pancharatnam",
                {"states": {"bloch": [[0, 0, 1], [0, 0, -1], [1, 0, 0]]}},
            )

    def test_bad_states_spec(self):
        with pytest.raises(ConfigError, match="config.states"):
            experiments.run_experiment("pancharatnam", {"states": {"angles": []}})


QUBIT_AT_ZERO = {"family": "constant", "params": {"n": [0, 0, 0]}}
USB_ON_Q_AXIS = {"family": "constant", "params": {"p": 0, "s": 0, "q": 1}}


class TestCli:
    def run_cli(self, *args, cwd):
        # absolute, so the package imports from the subprocess's tmp_path cwd
        src = Path(holosim.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "holosim", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_pass_run_writes_csv_and_metadata(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = self.run_cli(
            "pancharatnam", "--out", str(out), cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["experiment"] == "pancharatnam"
        assert meta["tool_version"]
        assert all(c["pass"] for c in meta["checks"])
        columns, rows = read_csv(out)
        assert columns[0] == "states"

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        out = tmp_path / "phase.csv"
        proc = self.run_cli(
            "berry-qubit", "--out", str(out), "--samples", "256", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        report = experiments.run_experiment("berry-qubit", {"ladder": [256]})
        _, rows = read_csv(out)
        assert float(rows[0][1]) == report.rows[0][1]

    def test_failed_check_exits_nonzero_and_lists_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ladder": [64], "tolerance": 1e-30}))
        proc = self.run_cli(
            "berry-qubit", "--config", str(cfg), cwd=tmp_path
        )
        assert proc.returncode == 1
        assert "final_resolution_error" in proc.stderr

    def test_invalid_config_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"realizations": 2}}))
        proc = self.run_cli("noise-study", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "at least 8" in proc.stderr

    @pytest.mark.parametrize(
        "experiment, config, field",
        [
            ("adiabatic-sweep", {"model": "foo"}, "config.model"),
            ("berry-qubit", {"path": {"family": "zigzag"}}, "config.path.family"),
            ("berry-qubit", {"path": {"params": {"theta_0": 1.0}}}, "config.path.params"),
            (
                "usb-holonomy",
                {"path": {"family": "constant", "params": {"p": [1, 1, 0], "bogus": 2}}},
                "config.path.params",
            ),
        ],
    )
    def test_invalid_model_or_path_exits_two(self, tmp_path, experiment, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self.run_cli(experiment, "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("experiment, config, field", BAD_CONFIGS[::4])
    def test_bad_field_exits_two_without_traceback(self, tmp_path, experiment, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self.run_cli(experiment, "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert f"error: {field}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "experiment, config, message",
        [
            ("berry-qubit", {"path": QUBIT_AT_ZERO}, "band 0 degenerate at s = 0.000000"),
            ("noise-study", {"path": QUBIT_AT_ZERO}, "band 0 degenerate at s = 0.000000"),
            ("usb-holonomy", {"path": USB_ON_Q_AXIS}, "P=S=0 at s = 0.000000"),
            (
                "adiabatic-sweep",
                {"model": "usb", "path": USB_ON_Q_AXIS},
                "P=S=0 at s = 0.000000",
            ),
            (
                "adiabatic-sweep",
                {"model": "qubit", "path": QUBIT_AT_ZERO},
                "loses its gap at s = 0.000000",
            ),
        ],
        ids=["berry-qubit", "noise-study", "usb-holonomy", "sweep-usb", "sweep-qubit"],
    )
    def test_loop_through_degeneracy_exits_two(self, tmp_path, experiment, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self.run_cli(experiment, "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "error: " in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_inapplicable_flag_exits_two(self, tmp_path):
        proc = self.run_cli("pancharatnam", "--samples", "5", cwd=tmp_path)
        assert proc.returncode == 2
        assert "--samples does not apply to pancharatnam" in proc.stderr
        proc = self.run_cli("berry-qubit", "--seed", "5", cwd=tmp_path)
        assert proc.returncode == 2
        assert "--seed does not apply to berry-qubit" in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_two(self, tmp_path, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b'{"ladder": [64], "tolerance": "\xff"}')
        proc = self.run_cli("berry-qubit", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert f"error: cannot read config {cfg}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_experiment_rejected(self, tmp_path):
        proc = self.run_cli("berry-phases", cwd=tmp_path)
        assert proc.returncode == 2

    def test_experiment_name_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "noise-study"}))
        proc = self.run_cli("pancharatnam", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "does not match" in proc.stderr

    def test_flag_overrides_recorded_in_echo(self, tmp_path):
        out = tmp_path / "noise.csv"
        proc = self.run_cli(
            "noise-study", "--seed", "99", "--samples", "512", "--out", str(out),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "noise.json").read_text())
        assert meta["config"]["noise"]["seed"] == 99
        assert meta["config"]["samples"] == 512
        assert meta["config"]["flag_overrides"] == {"seed": 99, "samples": 512}

    def test_seed_determinism_through_cli(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = self.run_cli(
                "noise-study", "--seed", "5", "--out", str(out), cwd=tmp_path
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
