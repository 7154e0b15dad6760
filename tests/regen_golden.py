"""The shipped runs whose outputs tests/golden/ holds, and the script that rewrites them.

A shipped run is one of the six built-in defaults (default-<experiment>) or
one of configs/*.json (by its stem). For each, tests/golden/ keeps the CSV
and a JSON file with the report's checks and diagnostics; written_by.json
names the numpy, BLAS, OpenBLAS core and SIMD dispatch targets that wrote
them. test_golden.py compares every run against them.

    PYTHONPATH=src python tests/regen_golden.py

rewrites all of them from the code in src/. Before it overwrites a run, it
prints the run's largest move against the old golden and whether it is bit
for bit the same. A change that moves a cell says which cells moved, by how
much and why.
"""

import ctypes
import json
import math
from pathlib import Path

import numpy as np

from holosim.experiments import EXPERIMENTS, run_experiment

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def shipped_runs() -> dict[str, tuple[str, dict | None]]:
    """Run name -> (experiment, user config or None for the built-in default)."""
    runs = {f"default-{experiment}": (experiment, None) for experiment in EXPERIMENTS}
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        runs[path.stem] = (config["experiment"], config)
    return runs


def outputs(experiment: str, config: dict | None) -> tuple[str, dict]:
    """The run's CSV text, and its checks and diagnostics as the metadata JSON holds them."""
    report = run_experiment(experiment, config)
    meta = json.loads(json.dumps(report.metadata()))
    return report.csv_text(), {"checks": meta["checks"], "diagnostics": meta.get("diagnostics")}


def parse_cell(text: str):
    """A CSV cell as the report wrote it: str() of an int, repr() of a float."""
    return int(text) if text.lstrip("-").isdigit() else float(text)


def table(text: str) -> dict:
    header, *rows = text.splitlines()
    return {"columns": header.split(","), "rows": [list(map(parse_cell, r.split(","))) for r in rows]}


def moves(new, old, where: str):
    """(where, |new - old|) of every float in two parsed outputs; anything else must match."""
    assert type(new) is type(old), f"{where}: {new!r} against golden {old!r}"
    if isinstance(new, dict):
        assert new.keys() == old.keys(), f"{where}: keys {sorted(new)} against {sorted(old)}"
        for key in new:
            yield from moves(new[key], old[key], f"{where}.{key}")
    elif isinstance(new, list):
        assert len(new) == len(old), f"{where}: {len(new)} entries against {len(old)}"
        for i, (a, b) in enumerate(zip(new, old)):
            yield from moves(a, b, f"{where}[{i}]")
    elif isinstance(new, float):
        same = new == old or (math.isnan(new) and math.isnan(old))
        yield where, 0.0 if same else abs(new - old)
    else:
        assert new == old, f"{where}: {new!r} against golden {old!r}"


def compare(name: str, csv_text: str, meta: dict) -> tuple[str, float, bool]:
    """Where the run's outputs moved most against its golden, by how much, and
    whether they are bit for bit the golden ones. Raises AssertionError if
    anything but a float moved."""
    golden_csv = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    golden_meta = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    found = moves({"csv": table(csv_text), **meta}, {"csv": table(golden_csv), **golden_meta}, name)
    where, largest = max(found, key=lambda move: move[1], default=(name, 0.0))
    exact = csv_text == golden_csv and json.dumps(meta) == json.dumps(golden_meta)
    return where, largest, exact


def verdict(name: str, where: str, largest: float, exact: bool) -> str:
    return f"{name}: largest move {largest:.3e}{f' at {where}' if largest else ''}; bit for bit: {exact}"


def written_by() -> dict:
    """The numpy version, BLAS, OpenBLAS core and enabled SIMD dispatch targets of this
    process: the build facts that the last bits of a run depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config and takes no mode
        blas = "unknown"
    try:  # numpy >= 2
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    dispatch = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return {"numpy": np.__version__, "blas": blas, "blas_core": blas_core(), "dispatch": dispatch}


def blas_core() -> str:
    """The core OpenBLAS picked at load time (OPENBLAS_CORETYPE overrides it), read from
    the OpenBLAS that numpy bundles; "unknown" where there is none or it names no core."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            try:
                corename = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (experiment, config) in shipped_runs().items():
        csv_text, meta = outputs(experiment, config)
        try:
            print(verdict(name, *compare(name, csv_text, meta)))
        except FileNotFoundError:
            print(f"{name}: new run")
        except AssertionError as err:
            print(f"{name}: not a float move: {err}")
        (GOLDEN / f"{name}.csv").write_text(csv_text, encoding="utf-8")
        (GOLDEN / f"{name}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "written_by.json").write_text(json.dumps(written_by(), indent=2) + "\n", "utf-8")


if __name__ == "__main__":
    main()
