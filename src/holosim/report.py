"""Experiment reports: a fixed-schema table plus a metadata block.

CSV output is UTF-8 with a header row and '.' decimal separator; floats
are written with repr() so a round-trip through the file is exact.
Metadata goes to JSON: the fully resolved config, tool version, elapsed
time, the list of hard checks with their measured values and bounds, and,
for experiments that set them, numerical-health diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class DegenerateInputError(ValueError):
    """The input is degenerate at one located point; the message names it."""


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    bound: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "value": _jsonable(self.value),
            "bound": self.bound,
        }


@dataclass
class ExperimentReport:
    experiment: str
    columns: list[str]
    rows: list[tuple]
    config: dict
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: int = 0
    diagnostics: dict | None = None

    def add_check(self, name: str, passed: bool, value, bound: str) -> Check:
        check = Check(name=name, passed=bool(passed), value=value, bound=bound)
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def csv_text(self) -> str:
        lines: list[str] = []
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match header "
                    f"({len(self.columns)} columns)"
                )
            lines.append(",".join(_cell(x) for x in row))
        return "\n".join(lines) + "\n"

    def metadata(self) -> dict:
        meta = {
            "experiment": self.experiment,
            "config": _jsonable(self.config),
            "tool_version": __version__,
            "elapsed_ms": int(self.elapsed_ms),
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.diagnostics is not None:
            meta["diagnostics"] = _jsonable(self.diagnostics)
        return meta

    def write(self, csv_path: str | Path) -> tuple[Path, Path]:
        """Write the table to csv_path and metadata alongside (.json)."""
        csv_path = Path(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(self.csv_text(), encoding="utf-8")
        meta_path = csv_path.with_suffix(".json")
        meta_path.write_text(
            json.dumps(self.metadata(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return csv_path, meta_path


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x
