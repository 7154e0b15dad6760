import numpy as np
import pytest
from reference import read_csv

from holosim.report import ExperimentReport


@pytest.mark.parametrize(
    "value, read",
    [
        (np.float64(0.1), float),
        (np.float32(0.1), float),
        (np.bool_(True), int),
        (np.bool_(False), int),
        (np.int64(-7), int),
    ],
    ids=["float64", "float32", "bool-true", "bool-false", "int64"],
)
def test_numpy_scalar_cells_read_back_exactly(tmp_path, value, read):
    ExperimentReport("test", ["value"], [(value,)], {}).write(tmp_path / "t.csv")
    _, rows = read_csv(tmp_path / "t.csv")
    assert read(rows[0][0]) == read(value)
