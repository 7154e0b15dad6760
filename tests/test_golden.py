"""Every shipped run against its golden outputs (tests/golden/, see regen_golden.py).

Integer cells, check verdicts, bounds and the diagnostics' integers and flags
must match exactly; float cells may move by at most 1e-12 (absolute), the bound
for a pure refactor. Each run prints its largest move and whether it is bit for
bit the golden one, which it must be on the numpy and BLAS that wrote them.
"""

import json
import math

import pytest
from regen_golden import GOLDEN, outputs, shipped_runs, written_by

RUNS = shipped_runs()
FLOAT_BOUND = 1e-12


def parse_cell(text: str):
    """A CSV cell as the report wrote it: str() of an int, repr() of a float."""
    return int(text) if text.lstrip("-").isdigit() else float(text)


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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shipped_run_matches_its_golden(name):
    csv_text, meta = outputs(*RUNS[name])
    golden_csv = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    golden_meta = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))

    def table(text):
        header, *rows = text.splitlines()
        return {"columns": header.split(","), "rows": [list(map(parse_cell, r.split(","))) for r in rows]}

    found = list(moves({"csv": table(csv_text), **meta}, {"csv": table(golden_csv), **golden_meta}, name))
    where, largest = max(found, key=lambda move: move[1], default=(name, 0.0))
    exact = csv_text == golden_csv and json.dumps(meta) == json.dumps(golden_meta)
    print(f"{name}: largest move {largest:.3e}{f' at {where}' if largest else ''}; bit for bit: {exact}")
    assert largest <= FLOAT_BOUND, f"{where} moved by {largest:.3e}"
    recorded = json.loads((GOLDEN / "written_by.json").read_text(encoding="utf-8"))
    if written_by() == recorded:
        assert exact, f"not bit for bit on the numpy and BLAS that wrote the goldens ({recorded})"
