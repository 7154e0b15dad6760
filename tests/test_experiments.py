import concurrent.futures
import contextlib
import copy
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference import read_csv

import holosim
from holosim import abelian, adiabatic, cli, experiments, holonomy, linalg, models, schema
from holosim.report import ConfigError, DegenerateInputError

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
    # the cells' base points run from lo to hi - edge
    ("curvature-map", {"plaquette_edge": 2.5, "grid": {"cells": [3, 3]}}, "config.plaquette_edge"),
    ("curvature-map", {"plaquette_edge": 1.0, "grid": {"phi": [0.0, 1.0]}}, "config.plaquette_edge"),
    # a**2 and the cell area underflow to 0 at this edge
    ("curvature-map", {"plaquette_edge": 1e-300}, "config.plaquette_edge"),
]

# Parameters past models.PARAM_BOUND, whose squares or norms used to overflow into a false
# gap or degeneracy error; the schema now rejects them by name.
OVERFLOW_CONFIGS = [
    ("usb-holonomy", {"path": {"params": {"b": 1e200}}}, "config.path.params.b"),
    ("usb-holonomy", {"path": {"params": {"q0": -1e101}}}, "config.path.params.q0"),
    ("berry-qubit", {"path": {"params": {"radius": 1e200}}}, "config.path.params.radius"),
    (
        "berry-qubit",
        {"path": {"family": "constant", "params": {"n": [0, 0, 1e300]}}},
        "config.path.params.n[2]",
    ),
    (
        "adiabatic-sweep",
        {"model": "usb", "path": {"family": "constant", "params": {"q": 1e200}}},
        "config.path.params.q",
    ),
    ("curvature-map", {"radius": 1e300}, "config.radius"),
    (
        "pancharatnam",
        {"states": {"bloch": [[1e155, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "config.states.bloch[0][0]",
    ),
    (
        "pancharatnam",
        {"states": {"amplitudes": [[[1, 0], [0, 0]], [[0, 0], [0, -1e300]], [[1, 0], [1, 0]]]}},
        "config.states.amplitudes[1][1][1]",
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

    def test_formats_doc_path_families_match_declarations(self):
        text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        section = text.split("## Path families")[1].split("## Config fields")[0]
        documented = [
            tuple(cell.strip() for cell in line.split("|")[1:6])
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        declared = []
        for model, families in models.PATH_FAMILIES.items():
            for family, (_, params) in families.items():
                declared += [
                    (f"`{model}`", f"`{family}`", f"`{key}`", f"`{json.dumps(field.default)}`",
                     field.accepts)
                    for key, field in schema.leaves(params)
                ]
                built, path = models.build_model_and_path(
                    {"model": model, "path": {"family": family}}
                )
                assert path.closed and path.parameter_dim == built.parameter_dim
        assert documented == declared


class TestConfigValidation:
    @pytest.mark.parametrize("experiment, config, field", BAD_CONFIGS)
    def test_bad_field_rejected_by_name(self, experiment, config, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}[\[:]"):
            experiments.run_experiment(experiment, config)

    @pytest.mark.parametrize("experiment, config, field", OVERFLOW_CONFIGS)
    def test_parameter_past_bound_rejected_by_name(self, experiment, config, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: .* 1e\+100\]?, got"):
            experiments.run_experiment(experiment, config)

    def test_parameters_at_bound_accepted(self):
        for model, family, params in (
            ("qubit", "constant", {"n": [0.0, -1e100, 1e100]}),
            ("usb", "circle", {"s0": 1e100, "a": 1e99, "q0": -1e100, "b": -1e100}),
            ("usb", "constant", {"p": 1e100, "s": -1e100, "q": 1e100}),
        ):
            path = {"family": family, "params": params}
            models.build_model_and_path({"model": model, "path": path})
        config = experiments.resolve_config("curvature-map", {"radius": 1e100})
        experiments.validate("curvature-map", config)
        # the octant triple and (|0>, |0> + i|1>, |0> + |1>), each with entries of 1e100
        octant = {"bloch": [[0, 0, 1e100], [1e100, 0, 0], [0, 1e100, 0]]}
        amplitudes = {"amplitudes": [[[1e100, 0], [0, 0]], [[1e100, 0], [0, 1e100]],
                                     [[1e100, 0], [1e100, 0]]]}
        for states in (octant, amplitudes):
            report = experiments.run_experiment("pancharatnam", {"states": states})
            assert report.all_passed
            assert report.rows[0][1] == pytest.approx(-math.pi / 4, abs=1e-12)

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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_upper_band_acquires_plus_half_the_solid_angle(self, reverse):
        cfg = {"ladder": [64, 1024], "reverse": reverse}
        lower = experiments.run_experiment("berry-qubit", cfg)
        upper = experiments.run_experiment("berry-qubit", cfg | {"band": 1})
        assert lower.all_passed and upper.all_passed
        assert [row[2] for row in upper.rows] == [-row[2] for row in lower.rows]
        for up, low in zip(upper.rows, lower.rows):
            assert up[1] == pytest.approx(-low[1], abs=1e-12)

    @pytest.mark.parametrize("band, reverse", [(0, False), (1, True)])
    def test_ladder_of_eight_and_twelve_runs(self, band, reverse):
        cfg = {"ladder": [8, 12], "band": band, "reverse": reverse}
        report = experiments.run_experiment("berry-qubit", cfg)
        assert [r[0] for r in report.rows] == [8, 12]
        assert all(math.isfinite(x) for row in report.rows for x in row)

    def test_small_loop_phase_vanishes(self):
        report = experiments.run_experiment(
            "berry-qubit", {"path": {"params": {"theta0": 0.05}}, "ladder": [1024]}
        )
        assert abs(report.rows[0][1]) < 5e-3
        assert report.all_passed

    @pytest.mark.parametrize("band", [0, 1])
    def test_loop_through_south_pole_exits_zero(self, tmp_path, band):
        # the +z fan faces the loop's vertex, so the oracle fans from -z
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path = {"family": "constant", "params": {"n": [0, 0, -1]}}
        cfg.write_text(json.dumps({"path": path, "band": band}))
        assert cli.main(["berry-qubit", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [(float(row[1]), float(row[2])) for row in rows] == [(0.0, 0.0)] * 4

    def test_oracle_degenerate_at_both_poles_exits_two_as_from_plus_z(
        self, tmp_path, monkeypatch, capsys
    ):
        # a meridian passes through +z and -z: each fan faces one of its vertices
        meridian = models.ParameterPath(
            lambda s: np.stack([np.sin(2 * np.pi * s), 0 * s, np.cos(2 * np.pi * s)], axis=1),
            3, closed=True,
        )
        with pytest.raises(DegenerateInputError) as plus_z:
            abelian.solid_angle(models.PathSamples(meridian, 4096))
        assert "antipodal to the reference" in str(plus_z.value)
        monkeypatch.setattr(
            models, "build_model_and_path", lambda config: (models.QubitModel(), meridian)
        )
        code = cli.main(["berry-qubit", "--samples", "64", "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {plus_z.value}\n"
        assert not list(tmp_path.glob("*.csv"))

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

    def test_upper_band_density_is_plus_one_half(self):
        small = {"grid": {"cells": [4, 4]}, "tiling": {"cells": [2, 2]}}
        lower = experiments.run_experiment("curvature-map", small)
        upper = experiments.run_experiment("curvature-map", small | {"band": 1})
        assert upper.all_passed
        normalized = np.array([row[3] for row in upper.rows])
        assert np.all(np.abs(normalized - 0.5) < 1e-5)
        assert np.allclose(normalized, [-row[3] for row in lower.rows], rtol=0.0, atol=1e-12)

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


@contextlib.contextmanager
def inline_helper():
    """experiments._helper's interface, running each task as it is submitted."""
    class Inline:
        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    yield Inline()


def failing_at(function, size_of, sizes, message, delay=0.0):
    """function, except that a call whose size_of(*args) is in sizes waits delay
    seconds and then raises DegenerateInputError(message)."""
    def call(*args, **kwargs):
        if size_of(*args) in sizes:
            time.sleep(delay)
            raise DegenerateInputError(message)
        return function(*args, **kwargs)
    return call


def last(*args):
    return args[-1]


def shipped_configs(*names):
    """The example configs of the named experiments, with their experiment names."""
    configs = [(json.loads(p.read_text())["experiment"], p) for p in sorted(ROOT.glob("configs/*"))]
    return [(name, path) for name, path in configs if name in names]


class TestHelperThread:
    """The half of each rung that a run reads second runs on a helper thread:
    berry-qubit's solid angles and usb-holonomy's Wilson lines; and
    adiabatic.convergence_sweep runs its longest ramp there, while the main
    thread takes the reference Wilson line and the shorter ramps."""

    SHIPPED = (
        [(name, None) for name in ("berry-qubit", "usb-holonomy")]
        + shipped_configs("berry-qubit", "usb-holonomy")
        + [("adiabatic-sweep", None), ("adiabatic-sweep", {"model": "qubit"})]
        + shipped_configs("adiabatic-sweep")
    )
    SWEEP = {"Ts": [10.0, 20.0, 40.0], "reference_samples": 256}

    @pytest.mark.parametrize("experiment, config", SHIPPED)
    def test_csv_bytes_match_an_inline_helper(self, tmp_path, monkeypatch, experiment, config):
        fragment = json.loads(config.read_text()) if isinstance(config, Path) else config
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads interleave as finely as they can
        try:
            threaded = experiments.run_experiment(experiment, fragment).write(tmp_path / "a.csv")
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(experiments, "_helper", inline_helper)
        monkeypatch.setattr(adiabatic, "helper_thread", inline_helper)
        inline = experiments.run_experiment(experiment, fragment).write(tmp_path / "b.csv")
        assert threaded[0].read_bytes() == inline[0].read_bytes()

    # the helper's error is slow to come, so a run that took the first error in time fails
    @pytest.mark.parametrize("oracle_at, chain_at, first", [
        (8192, 4096, "oracle"), (16384, 4096, "chain"), (16384, 2048, "chain"),
    ])
    def test_berry_qubit_raises_the_sequential_first_error(
        self, monkeypatch, oracle_at, chain_at, first
    ):
        # the ladder 2048, 4096 reads the oracle at 8192 and 16384 points
        oracle = failing_at(abelian.solid_angle, len, {oracle_at}, "oracle", 0.1)
        monkeypatch.setattr(abelian, "solid_angle", oracle)
        chain = failing_at(abelian.band_loop_phase, last, {chain_at}, "chain")
        monkeypatch.setattr(abelian, "band_loop_phase", chain)
        with pytest.raises(DegenerateInputError, match=f"^{first}$"):
            experiments.run_experiment("berry-qubit", {"ladder": [2048, 4096]})

    @pytest.mark.parametrize("eta_at, line_at, first", [
        (2**14, 512, "eta"), (512, 512, "eta"), (1024, 512, "line"),
    ])
    def test_usb_holonomy_raises_the_sequential_first_error(
        self, monkeypatch, eta_at, line_at, first
    ):
        eta = failing_at(holonomy.usb_eta_pair, last, {eta_at}, "eta")
        monkeypatch.setattr(holonomy, "usb_eta_pair", eta)
        line = failing_at(holonomy.usb_wilson_line, last, {line_at}, "line", 0.1)
        monkeypatch.setattr(holonomy, "usb_wilson_line", line)
        with pytest.raises(DegenerateInputError, match=f"^{first}$"):
            experiments.run_experiment("usb-holonomy", {"ladder": [512, 1024]})

    @pytest.mark.parametrize("experiment, main, helper", [
        ("berry-qubit", "band_loop_phase", "solid_angle"),
        ("usb-holonomy", "usb_eta_pair", "usb_wilson_line"),
    ])
    def test_nothing_is_queued_or_running_after_a_raise(
        self, monkeypatch, experiment, main, helper
    ):
        futures, helper_pool = [], experiments._helper

        @contextlib.contextmanager
        def recording_helper():
            with helper_pool() as pool:
                submit = pool.submit
                pool.submit = lambda *args: futures.append(submit(*args)) or futures[-1]
                yield pool

        module = abelian if experiment == "berry-qubit" else holonomy
        slow = getattr(module, helper)
        monkeypatch.setattr(experiments, "_helper", recording_helper)
        monkeypatch.setattr(module, helper, lambda *args: time.sleep(0.05) or slow(*args))
        monkeypatch.setattr(module, main, failing_at(getattr(module, main), last, {512}, "main"))
        with pytest.raises(DegenerateInputError, match="^main$"):
            experiments.run_experiment(experiment, {"ladder": [512, 1024, 2048]})
        assert futures and all(f.done() for f in futures)
        assert any(f.cancelled() for f in futures)
        assert not [t for t in threading.enumerate() if t.name.startswith("holosim-helper")]

    # the longest ramp (T = 40) fails at once on the helper; a main-thread error that
    # comes later, but first in T order, must win over it
    @pytest.mark.parametrize("failing, first", [
        ({40.0}, "T=40"), ({20.0, 40.0}, "T=20"), ({10.0, 40.0}, "T=10"),
        ({"reference", 40.0}, "reference"), ({"reference"}, "reference"),
    ])
    def test_sweep_raises_the_sequential_first_error(self, monkeypatch, failing, first):
        ramp, line = adiabatic.adiabatic_holonomy, adiabatic.wilson_line

        def failing_ramp(model, loop, total_time, *args):
            if total_time in failing:
                time.sleep(0.0 if total_time == 40.0 else 0.05)
                raise DegenerateInputError(f"T={total_time:g}")
            return ramp(model, loop, total_time, *args)

        def failing_line(*args):
            if "reference" in failing:
                time.sleep(0.05)
                raise DegenerateInputError("reference")
            return line(*args)

        monkeypatch.setattr(adiabatic, "adiabatic_holonomy", failing_ramp)
        monkeypatch.setattr(adiabatic, "wilson_line", failing_line)
        with pytest.raises(DegenerateInputError, match=f"^{first}$"):
            experiments.run_experiment("adiabatic-sweep", self.SWEEP)

    def test_sweep_leaves_nothing_queued_or_running_after_a_raise(self, monkeypatch):
        futures, helper_pool = [], adiabatic.helper_thread

        @contextlib.contextmanager
        def recording_helper():
            with helper_pool() as pool:
                submit = pool.submit
                pool.submit = lambda *args: futures.append(submit(*args)) or futures[-1]
                yield pool

        ramp = adiabatic.adiabatic_holonomy

        def slow_ramp(*args):
            time.sleep(0.05)
            return ramp(*args)

        def failing_line(*args):
            raise DegenerateInputError("reference")

        monkeypatch.setattr(adiabatic, "helper_thread", recording_helper)
        monkeypatch.setattr(adiabatic, "adiabatic_holonomy", slow_ramp)
        monkeypatch.setattr(adiabatic, "wilson_line", failing_line)
        with pytest.raises(DegenerateInputError, match="^reference$"):
            experiments.run_experiment("adiabatic-sweep", self.SWEEP)
        assert len(futures) == 1 and futures[0].done()
        assert not [t for t in threading.enumerate() if t.name.startswith("holosim-helper")]

    def test_sweep_warns_and_flags_under_resolved_ramps_on_both_threads(self):
        # the first ramp runs on the main thread, the last on the helper
        config = {**self.SWEEP, "steps_per_T": [16, 1024, 16]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = experiments.run_experiment("adiabatic-sweep", config)
        entries = report.metadata()["diagnostics"]["integrator"]
        assert [e["under_resolved"] for e in entries] == [True, False, True]
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert all(m.startswith("integration may be under-resolved") for m in messages)
        assert all(" at 16 steps " in m for m in messages)


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
        # step doubling ran every N from 64 up to the accepted one
        assert [e["steps_integrated"] for e in entries] == [2 * r[1] - 64 for r in report.rows]
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
        entries = report.metadata()["diagnostics"]["integrator"]
        assert [e["steps_integrated"] for e in entries] == [900, 1500, 3150]

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


class TestShippedSweepsTakeNoDenseEigensolver:
    @pytest.mark.parametrize("model", ["qubit", "usb"])
    def test_default_sweep_without_eigh(self, monkeypatch, model):
        # the closed-form increments, frames and energies serve both shipped models
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert experiments.run_experiment("adiabatic-sweep", {"model": model}).all_passed


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
        original = abelian._loop_phase
        calls = []

        def through_zero_field(states):
            calls.append(1)
            if len(calls) == 3:
                raise models.ZeroFieldError("deformed loop passes through n = 0")
            return original(states)

        monkeypatch.setattr(abelian, "_loop_phase", through_zero_field)
        report = experiments.run_experiment("noise-study", config)
        assert [r[-1] for r in report.rows] == [1, 0]

        def broken(states):
            raise ValueError("not a domain error")

        monkeypatch.setattr(abelian, "_loop_phase", broken)
        with pytest.raises(ValueError, match="not a domain error"):
            experiments.run_experiment("noise-study", config)

    @pytest.mark.parametrize("band, sign", [(0, -1.0), (1, 1.0)])
    def test_band_selects_the_tracked_band(self, monkeypatch, band, sign):
        # the first chain is the undeformed loop: the band's phase is
        # -+ pi (1 - cos theta0) (module docstring of abelian)
        original = abelian._loop_phase
        phases = []

        def spy(states):
            result = original(states)
            phases.append(result[0])
            return result

        monkeypatch.setattr(abelian, "_loop_phase", spy)
        config = {"samples": 256, "band": band, "noise": {"realizations": 8}}
        experiments.run_experiment("noise-study", config)
        theta0 = models.PATH_FAMILIES["qubit"]["azimuthal"][1].default["theta0"]
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

    def test_triangle_through_south_pole_exits_zero(self, tmp_path):
        # the oracle fans from the first vertex, so a vertex at -z is not its antipode
        out = tmp_path / "south.csv"
        config = ROOT / "configs" / "pancharatnam_south.json"
        assert cli.main(["pancharatnam", "--config", str(config), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        _, phase, omega, _, _ = map(float, rows[0])
        assert omega == pytest.approx(-math.pi / 2, abs=1e-12)
        assert phase == pytest.approx(-omega / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "bloch, omega",
        [
            # -x faces the first vertex, so the fan starts from +z, as it always did
            ([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], 2 * math.pi),
            # -x and -z both present: the fan starts from an equator point
            ([[1, 0, 0], [0, 0, -1], [-1, 0, 0], [0, -1, 0]], None),
        ],
        ids=["equator-square", "opposite-first-and-south"],
    )
    def test_polygon_opposite_its_first_vertex_exits_zero(self, tmp_path, bloch, omega):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"states": {"bloch": bloch}}))
        assert cli.main(["pancharatnam", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        _, phase, area, _, diff = map(float, rows[0])
        assert diff < 1e-12
        if omega is not None:
            assert area == pytest.approx(omega, abs=1e-12)


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

    def test_sweep_model_alone_runs_the_models_first_family(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "qubit"}))
        out = tmp_path / "sweep.csv"
        proc = self.run_cli(
            "adiabatic-sweep", "--config", str(cfg), "--out", str(out), cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((tmp_path / "sweep.json").read_text())
        assert meta["config"]["path"] == {"family": "azimuthal", "params": {}}
        named = experiments.run_experiment(
            "adiabatic-sweep", {"model": "qubit", "path": {"family": "azimuthal"}}
        )
        _, rows = read_csv(out)
        assert [[float(x) for x in row] for row in rows] == [list(r) for r in named.rows]

    @pytest.mark.parametrize("experiment, config, field", BAD_CONFIGS[::4] + BAD_CONFIGS[-3:])
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
            (
                "pancharatnam",
                {"states": {"bloch": [[0, 0, 1], [0, 0, -1], [1, 0, 0]]}},
                "consecutive states (0, 1)",
            ),
            (
                "curvature-map",
                {"tiling": {"theta": [0.0, math.pi], "phi": [0.0, 1.0], "cells": [1, 1]}},
                "consecutive states (0, 2)",
            ),
        ],
        ids=[
            "berry-qubit", "noise-study", "usb-holonomy", "sweep-usb", "sweep-qubit",
            "pancharatnam-orthogonal", "curvature-map-orthogonal",
        ],
    )
    def test_loop_through_degeneracy_exits_two(self, tmp_path, experiment, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = self.run_cli(experiment, "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "error: " in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_loop_spanning_energy_scales_runs(self, tmp_path):
        # |w| reaches 1e100 on this loop and is of order 1 elsewhere: each sample's gap is
        # judged by its own scale, so a gap of 1.58 is open
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"path": {"params": {"b": 1e100}}}))
        proc = self.run_cli("usb-holonomy", "--config", str(cfg), "--out", "b.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        checks = json.loads((tmp_path / "b.json").read_text())["checks"]
        assert len(checks) == 3 and all(c["pass"] for c in checks)

    def test_exit_two_covers_every_located_error_by_type(self):
        # a located error exits 2 because it is a DegenerateInputError, not
        # because the CLI names it; a failed matrix computation is neither
        modules = [
            importlib.import_module(f"holosim.{m.name}")
            for m in pkgutil.iter_modules(holosim.__path__) if m.name != "__main__"
        ]
        errors = {
            value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, ValueError)
            and value.__module__ == module.__name__
        }
        matrix = {linalg.NonHermitianError, linalg.RankDeficientError}
        assert {ConfigError, DegenerateInputError, abelian.OverlapTooSmallError} <= errors
        assert all(
            e in matrix or e is ConfigError or issubclass(e, DegenerateInputError) for e in errors
        ), errors
        named = {v for v in vars(cli).values() if isinstance(v, type) and issubclass(v, ValueError)}
        assert named == {ConfigError, DegenerateInputError}

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

    def test_cli_import_adds_only_the_standard_library(self):
        # what `import holosim.cli` loads beyond numpy is the benchmark's setup time
        code = (
            "import sys, numpy; before = set(sys.modules); import holosim.cli; "
            "print(*(set(sys.modules) - before))"
        )
        src = Path(holosim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        added = {name.partition(".")[0] for name in proc.stdout.split()}
        assert "holosim" in added
        assert added - {"holosim"} <= sys.stdlib_module_names
        assert "concurrent" not in added  # linalg.helper_thread imports it on first use

    def test_unwritable_out_exits_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x.csv"  # under a regular file: no directory can be made there
        proc = self.run_cli("pancharatnam", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 2
        assert f"error: cannot write report {out}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.csv"))

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
