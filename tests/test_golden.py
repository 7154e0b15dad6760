"""Every shipped run against its golden outputs (tests/golden/, see regen_golden.py).

Integer cells, check verdicts, bounds and the diagnostics' integers and flags
must match exactly; float cells may move by at most 1e-12 (absolute), the bound
for a pure refactor. Each run prints its largest move and whether it is bit for
bit the golden one, which it must be on the numpy and BLAS that wrote them.
"""

import json

import pytest
from regen_golden import GOLDEN, compare, outputs, shipped_runs, verdict, written_by

RUNS = shipped_runs()
FLOAT_BOUND = 1e-12


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shipped_run_matches_its_golden(name):
    where, largest, exact = compare(name, *outputs(*RUNS[name]))
    print(verdict(name, where, largest, exact))
    assert largest <= FLOAT_BOUND, f"{where} moved by {largest:.3e}"
    recorded = json.loads((GOLDEN / "written_by.json").read_text(encoding="utf-8"))
    if written_by() == recorded:
        assert exact, f"not bit for bit on the numpy and BLAS that wrote the goldens ({recorded})"
