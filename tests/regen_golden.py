"""The shipped runs whose outputs tests/golden/ holds, and the script that rewrites them.

A shipped run is one of the six built-in defaults (default-<experiment>) or
one of configs/*.json (by its stem). For each, tests/golden/ keeps the CSV
and a JSON file with the report's checks and diagnostics; written_by.json
names the numpy and BLAS that wrote them. test_golden.py compares every run
against them.

    PYTHONPATH=src python tests/regen_golden.py

rewrites all of them from the code in src/. A change that moves a cell says
which cells moved, by how much and why.
"""

import json
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


def written_by() -> dict:
    """The numpy version and BLAS of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config and takes no mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (experiment, config) in shipped_runs().items():
        csv_text, meta = outputs(experiment, config)
        (GOLDEN / f"{name}.csv").write_text(csv_text, encoding="utf-8")
        (GOLDEN / f"{name}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "written_by.json").write_text(json.dumps(written_by(), indent=2) + "\n", "utf-8")


if __name__ == "__main__":
    main()
