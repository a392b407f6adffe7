import numpy as np
import pytest

from sorlab import make_rng
from sorlab.mmio import read_matrix, read_vector, write_matrix, write_vector
from helpers import random_hermitian, random_psd_unit


def test_real_general_round_trip_exact(tmp_path):
    rng = make_rng(0)
    M = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 9, (5, 3))
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    back, _ = read_matrix(path)
    assert np.array_equal(back, M)
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"


def test_complex_hermitian_round_trip_exact(tmp_path):
    B = random_hermitian(6, make_rng(1), complex_entries=True)
    path = tmp_path / "b.mtx"
    write_matrix(path, B, comments=["meta kind: test"])
    back, comments = read_matrix(path)
    assert np.array_equal(back, B)
    assert comments == ["meta kind: test"]
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array complex hermitian"


def test_complex_general_rectangular(tmp_path):
    rng = make_rng(2)
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    back, _ = read_matrix(path)
    assert np.array_equal(back, A)
    assert "complex general" in path.read_text().splitlines()[0]


def test_vector_round_trip(tmp_path):
    for v in (make_rng(3).standard_normal(7),
              make_rng(4).standard_normal(5) + 1j * make_rng(5).standard_normal(5)):
        path = tmp_path / "v.mtx"
        write_vector(path, v)
        back, _ = read_vector(path)
        assert np.array_equal(back, v)


def test_real_psd_unit_diag_round_trip(tmp_path):
    B = random_psd_unit(5, make_rng(6))
    path = tmp_path / "b.mtx"
    write_matrix(path, B)
    back, _ = read_matrix(path)
    assert np.array_equal(back, B)


def test_write_deterministic_bytes(tmp_path):
    B = random_hermitian(4, make_rng(7), complex_entries=True)
    p1, p2 = tmp_path / "x1.mtx", tmp_path / "x2.mtx"
    write_matrix(p1, B, comments=["c"])
    write_matrix(p2, B, comments=["c"])
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("hello\n")
    with pytest.raises(ValueError, match="MatrixMarket"):
        read_matrix(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
    with pytest.raises(ValueError, match="unsupported"):
        read_matrix(path)


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(2))
    with pytest.raises(ValueError, match="vector"):
        read_vector(path)


def test_read_supports_symmetric_tag(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n"
                    "2 2\n1.0\n0.5\n1.0\n")
    M, _ = read_matrix(path)
    assert np.array_equal(M, [[1.0, 0.5], [0.5, 1.0]])


def test_read_truncated_file_names_file_and_count(tmp_path):
    path = tmp_path / "B.mtx"
    write_matrix(path, random_psd_unit(8, make_rng(3)))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:12]))  # banner, size line, 10 of 64 entries
    with pytest.raises(ValueError, match=r"B\.mtx: read 10 of 64 expected entries"):
        read_matrix(path)


def test_read_extra_entries_names_file_and_count(tmp_path):
    path = tmp_path / "B.mtx"
    write_matrix(path, random_psd_unit(3, make_rng(3)))
    path.write_text(path.read_text() + "0.5\n")
    with pytest.raises(ValueError, match=r"B\.mtx: found more than 9 expected entries"):
        read_matrix(path)
    path.write_text(path.read_text()[:-len("0.5\n")] + "\n  \n")  # blank lines are fine
    assert read_matrix(path)[0].shape == (3, 3)


def test_read_complex_entry_without_imaginary_part(tmp_path):
    path = tmp_path / "v.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n"
                    "2 1\n1.0 0.0\n2.0\n")
    with pytest.raises(ValueError, match=r"v\.mtx: read 1 of 2 expected entries"):
        read_matrix(path)
