import numpy as np
import pytest

from bcsgap.fileio import fmt, write_csv


def _per_cell_join(header, rows) -> str:
    # the writer's former form: fmt of every cell, joined cell by cell
    lines = [",".join(header)]
    lines.extend(",".join(fmt(float(c)) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _surface_rows():
    # (T, x, u) triples of numpy scalars, as the surface writer passes them
    t, x = np.linspace(0.03, 0.037, 9), np.geomspace(0.005, 1.0, 64)
    u = np.random.default_rng(0).random((t.size, x.size)) * 1e-3
    return [(T, xx, u[i, j]) for i, T in enumerate(t) for j, xx in enumerate(x)]


CASES = [
    [(-0.0, 5e-324, 1e308)],
    [(1.0 / 3.0, 7, -2.5e-17), (np.float64(0.1), np.int64(12), 1e-300)],
    [(np.nan, np.inf, -np.inf)],
    [],
    _surface_rows(),
]


@pytest.mark.parametrize("rows", CASES)
def test_write_csv_matches_per_cell_join(rows, tmp_path):
    header = ["a", "b", "c"]
    path = tmp_path / "t.csv"
    write_csv(path, header, iter(rows))
    assert path.read_bytes() == _per_cell_join(header, rows).encode()


def test_write_csv_refuses_a_row_narrower_than_the_header(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], [(1.0, 2.0)])
