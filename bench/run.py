#!/usr/bin/env python3
"""Benchmark for holosim: seeded experiment workloads, run as a user runs them.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Workloads are defined in workloads.py. Each op is one in-process call of
holosim.cli.main(["<experiment>", "--config", <file>, "--out", <file>]):
config resolution, the experiment, the CSV/JSON report and the checks.
Ops run one at a time (closed loop, one client) in this one process. A run
first executes each kind's built-in default config once, then repeats
passes of the workload's seeded op mix until --seconds would be exceeded
(at least MIN_PASSES passes). Every op's report is checked (workloads.py).

--trace 0 prints the end-to-end metrics: wall_ref (median pass time in
units of an interleaved reference kernel, see Reference), setup_s,
peak_rss_mb and oracle_err.max. --trace 1 repeats the same
passes with every holosim module traced (spans.py) and prints per-layer
metrics, each the median over traced passes of its per-pass value. The
last stdout line is one JSON object {correct, attempted, failed, metrics};
the lines before it are a readable report and the environment record.
Reports, configs and spans are written under .bench_out/ at the repo root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from workloads import (  # noqa: E402
    EXPERIMENT, WORKLOADS, check_outputs, default_ops, pass_ops,
)

MIN_PASSES = 3
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err.max": "1",
}

# traced layer -> per-pass fields reported; a work field names the WORK
# counter of spans.py (samples, links, steps, ...)
LAYERS = {
    "holonomy.eigenframe_path": ("calls", "samples", "self_s"),
    "holonomy.wilson_line": ("calls", "links", "self_s"),
    "linalg.nearest_unitary": ("calls", "self_s"),
    "numpy.linalg.svd": ("calls",),
    "holonomy.usb_eta_pair": ("calls", "samples", "self_s"),
    "holonomy.holonomy_distance": ("calls", "self_s"),
    "adiabatic.evolve_schrodinger": ("calls", "steps", "self_s"),
    "adiabatic.dynamical_phase": ("self_s",),
    "adiabatic.adiabatic_holonomy": ("self_s",),
    "models.qubit_ground_state": ("calls", "self_s"),
    "abelian.solid_angle": ("calls", "points", "self_s"),
    "abelian.discrete_geometric_phase": ("calls", "self_s"),
    "experiments.run_noise_study": ("self_s",),
    "abelian.band_state_chain": ("calls", "states", "self_s"),
    "linalg.gauge_fix": ("calls", "self_s"),
    "abelian.berry_curvature_plaquette": ("calls", "self_s"),
    "abelian.plaquette_flux_and_boundary": ("self_s",),
    "linalg.eigh_batch": ("calls", "matrices", "self_s"),
    "models.evaluate_batch": ("calls", "rows", "self_s"),
    "cli.main": ("self_s",),
    "experiments.resolve_config": ("self_s",),
    "models.make_usb_loop": ("calls", "self_s"),
    "report.write": ("calls", "bytes", "self_s"),
}
KINDS = tuple(EXPERIMENT)
P90_KINDS = ("curvature-map", "pancharatnam")  # the kinds with >= 100 ops in a run


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fields in LAYERS.items():
        for field in fields:
            units[f"{layer}.{field}"] = {"self_s": "s", "bytes": "B"}.get(field, "count")
    units["adiabatic.steps_per_s"] = "1/s"
    units["adiabatic.runtime_warnings"] = "count"
    units["experiments.noise-study.discarded_frac"] = "frac"
    for kind in KINDS:
        units[f"experiments.{kind}.op_s.p50"] = "s"
    for kind in P90_KINDS:
        units[f"experiments.{kind}.op_s.p90"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def import_holosim():
    """Import holosim from this checkout's src/ by absolute path."""
    if not (SRC / "holosim" / "__init__.py").is_file():
        raise ImportError(f"no holosim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import holosim
    import holosim.cli

    if not Path(holosim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"holosim was imported from {holosim.__file__}, not {SRC}")
    return holosim


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def set_up(workload: str, seed: int, scale: str) -> None:
    """What a run does before its first op: import holosim, draw pass 0's configs."""
    import_holosim()
    pass_ops(workload, seed, 0, scale)


def time_set_up(args) -> float:
    """Wall time of a fresh interpreter doing set_up (import and input generation)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--set-up-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    t0 = perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops through holosim.cli.main and checks each report."""

    def __init__(self, holosim, workdir: Path):
        self.cli = holosim.cli
        self.out = workdir
        self.out.mkdir(parents=True, exist_ok=True)
        self.failures: list[str] = []
        self.attempted = 0
        self.oracle_errs: list[float] = []
        self.discarded = 0
        self.realizations = 0

    def run(self, op) -> tuple[float, int]:
        """Run one op; returns (seconds, integrator RuntimeWarnings)."""
        csv_path = self.out / f"{op.kind}.csv"
        csv_path.unlink(missing_ok=True)
        csv_path.with_suffix(".json").unlink(missing_ok=True)
        argv = [op.experiment, "--out", str(csv_path)]
        if op.config is not None:
            config_path = self.out / f"{op.kind}-config.json"
            config_path.write_text(json.dumps(op.config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        sink = io.StringIO()
        rc = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                try:
                    rc = self.cli.main(argv)
                except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                    sink.write(f"{type(exc).__name__}: {exc}\n")
                seconds = perf_counter() - t0
        try:
            outcome = check_outputs(op, rc, csv_path)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            outcome = None
            reason = f"unreadable report: {exc!r}"
        else:
            reason = outcome.reason
        self.attempted += 1
        if outcome is None or not outcome.ok:
            self.failures.append(
                f"{op.kind} {json.dumps(op.config)}: {reason}; {sink.getvalue()[-300:]}"
            )
        else:
            if outcome.oracle_err is not None:
                self.oracle_errs.append(outcome.oracle_err)
            self.discarded += outcome.discarded
            self.realizations += outcome.realizations
        runtime_warnings = sum(
            1 for w in caught
            if issubclass(w.category, RuntimeWarning) and Path(w.filename).name == "adiabatic.py"
        )
        return seconds, runtime_warnings


class Reference:
    """A fixed reference kernel, interleaved with the ops of a pass.

    The host's speed drifts by tens of percent from minute to minute
    (shared vCPUs; see README.md), and a median within one run cannot
    remove drift between runs. Around each op the kernel runs until its
    busy time is SHARE of the pass's op time so far: before the op up to
    half the op's expected time, after it the rest. It thus samples the
    host's speed on both sides of every op, and a pass time divided by the
    mean kernel time of that pass is steady across runs. The kernel mixes
    the work holosim's layers do: a Python loop, 2x2 SVDs one at a time and
    one batched 4x4 eigh. Its inputs are fixed and it calls no holosim
    code, so a change to holosim cannot move it.
    """

    SHARE = 0.2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._links = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
        h = rng.normal(size=(1024, 4, 4))
        self._stack = h + h.transpose(0, 2, 1)
        # bound now, so that a traced numpy.linalg.svd never sees these calls
        self._svd, self._eigh = np.linalg.svd, np.linalg.eigh
        self.busy = 0.0
        self.runs = 0
        self.last: dict[str, float] = {}  # latest op time per kind

    def _kernel(self) -> None:
        acc = 0.0
        for m in self._links:
            acc += float(self._svd(m, compute_uv=False)[-1])
        for i in range(10_000):
            acc += (i % 7) * 0.5
        self._eigh(self._stack)

    def keep_up(self, op_seconds: float) -> None:
        while self.busy < self.SHARE * op_seconds:
            t0 = perf_counter()
            self._kernel()
            self.busy += perf_counter() - t0
            self.runs += 1

    def take(self) -> float:
        """Mean kernel time since the last take."""
        value = self.busy / self.runs
        self.busy, self.runs = 0.0, 0
        return value


def run_passes(runner: Runner, reference: Reference, passes: list, tracer=None) -> list[dict]:
    """Run each pass's ops; per pass: wall, mean reference-kernel time, op
    times by kind, warnings and traced stats."""
    out = []
    for index, ops in enumerate(passes):
        times: dict[str, list[float]] = {}
        warns = 0
        wall = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = f"p{index}.{i}.{op.kind}"
            reference.keep_up(wall + 0.5 * reference.last.get(op.kind, 0.0))
            seconds, w = runner.run(op)
            reference.last[op.kind] = seconds
            times.setdefault(op.kind, []).append(seconds)
            warns += w
            wall += seconds
            reference.keep_up(wall)
        out.append({
            "wall": wall,
            "ref": reference.take(),
            "times": times,
            "warnings": warns,
            "stats": tracer.take_stats() if tracer is not None else None,
        })
    return out


# ---------------------------------------------------------------------------
# a workload run
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it (0 for no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args, holosim) -> tuple[dict, list[str]]:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_ROOT / f"{tag}-{os.getpid()}"
    min_passes, max_passes = (1, 1) if args.smoke else (MIN_PASSES, 10_000)
    scale = "smoke" if args.smoke else "full"
    lines = []
    try:
        setup = [time_set_up(args) for _ in range(1 if args.smoke else SETUP_REPEATS)]
        runner = Runner(holosim, workdir)
        defaults = {op.kind: runner.run(op)[0] for op in default_ops(args.workload)}

        reference = Reference()
        passes = []
        untraced = []
        t0 = perf_counter()
        while len(passes) < max_passes:
            ops = pass_ops(args.workload, args.seed, len(passes), scale)
            passes.append(ops)
            untraced += run_passes(runner, reference, [ops])
            elapsed = perf_counter() - t0
            if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

        traced = []
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(runner, reference, passes, tracer)
            finally:
                tracer.uninstall()
            OUT_ROOT.mkdir(exist_ok=True)
            tracer.write(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times: dict[str, list[float]] = {}
    in_ref: dict[str, list[float]] = {}
    for p in untraced:
        for kind, ts in p["times"].items():
            times.setdefault(kind, []).extend(ts)
            in_ref.setdefault(kind, []).extend(t / p["ref"] for t in ts)
    walls = [p["wall"] for p in untraced]
    attempted = runner.attempted
    failed = len(runner.failures)

    lines.append(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes, "
                 f"{attempted} ops, closed loop, 1 client")
    lines.append(f"  wall_s = {statistics.median(walls):.4f} s (median of {len(walls)} passes)")
    lines.append(f"  reference kernel = {statistics.median(p['ref'] for p in untraced) * 1e3:.4f} ms"
                 f" (median of {len(walls)} per-pass means)")
    for kind, ts in times.items():
        p90 = f", p90 {quantile(ts, 90):.6f} s" if len(ts) >= 100 else ""
        lines.append(f"  {kind}.op_s.p50 = {statistics.median(ts):.6f} s (n = {len(ts)}){p90}; "
                     f"op_ref.p50 = {statistics.median(in_ref[kind]):.4f} ref")
    for kind, seconds in defaults.items():
        lines.append(f"  {kind}.default_config_op_s = {seconds:.4f} s (n = 1)")
    lines.append(f"  failed_frac = {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for failure in runner.failures[:10]:
        lines.append(f"  FAILED {failure}")

    if not args.trace:
        values = {
            "wall_ref": statistics.median(p["wall"] / p["ref"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "oracle_err.max": max(runner.oracle_errs, default=0.0),
        }
        units = END_TO_END
    else:
        values = layer_values(traced, untraced, times, runner)
        units = per_layer_units()
    samples = {"wall_ref": f"median of {len(walls)} passes", "setup_s": f"median of {len(setup)} set-ups"}
    for name, value in values.items():
        note = f" ({samples[name]})" if name in samples else ""
        lines.append(f"  {name} = {value:.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, lines


def layer_values(traced, untraced, times, runner) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    field_index = {"calls": 0, "self_s": 1}

    def per_pass(name, index):
        return statistics.median(p["stats"].get(name, [0, 0.0, 0, 0.0])[index] for p in traced)

    values = {}
    for layer, fields in LAYERS.items():
        for field in fields:
            values[f"{layer}.{field}"] = per_pass(layer, field_index.get(field, 2))
    evolve = [p["stats"].get("adiabatic.evolve_schrodinger", [0, 0.0, 0, 0.0]) for p in traced]
    busy = sum(s[3] for s in evolve)
    values["adiabatic.steps_per_s"] = sum(s[2] for s in evolve) / busy if busy else 0.0
    values["adiabatic.runtime_warnings"] = statistics.median(p["warnings"] for p in traced)
    values["experiments.noise-study.discarded_frac"] = (
        runner.discarded / runner.realizations if runner.realizations else 0.0
    )
    for kind in KINDS:
        values[f"experiments.{kind}.op_s.p50"] = quantile(times.get(kind, []), 50)
    for kind in P90_KINDS:
        values[f"experiments.{kind}.op_s.p90"] = quantile(times.get(kind, []), 90)
    values["trace.overhead_frac"] = statistics.median(
        (t["wall"] / t["ref"]) / (u["wall"] / u["ref"]) - 1.0 for t, u in zip(traced, untraced)
    )
    return values


def run_all(args) -> int:
    """Every workload, each in its own process; prints each report and a summary."""
    results = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        *report, last = proc.stdout.splitlines() or [""]
        print("\n".join(report), flush=True)
        try:
            results[workload] = json.loads(last)
        except json.JSONDecodeError:
            results[workload] = {"correct": False, "error": f"exit {proc.returncode}"}
    print(json.dumps({"workloads": results}))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny resolutions and one pass, for the benchmark's own test")
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        if args.set_up_only:
            set_up(args.workload, args.seed, "smoke" if args.smoke else "full")
            return 0
        holosim = import_holosim()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    result, lines = run_workload(args, holosim)
    OUT_ROOT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "report": lines, **result}
    (OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("\n".join(lines))
    print("env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
