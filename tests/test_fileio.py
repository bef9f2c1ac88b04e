import numpy as np
import pytest

from bcsgap.fileio import atomic_write, fmt, write_csv


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
    # the short row comes after the first chunks have been streamed: the
    # partial sibling is removed and the earlier file keeps its bytes
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(1.0, 2.0, 3.0)])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_csv(path, ["a", "b", "c"], [(4.0, 5.0, 6.0), (7.0, 8.0, 9.0), (1.0, 2.0)])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_a_write_that_fails_midstream_leaves_nothing_behind(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, ["old\n"])

    def chunks():
        yield "new\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    atomic_write(tmp_path / "fresh.txt", iter(["a", "b\n"]))
    assert (tmp_path / "fresh.txt").read_bytes() == b"ab\n"
