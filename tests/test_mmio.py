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


@pytest.mark.parametrize("symmetry, upper", [("symmetric", 0.5 + 2j), ("hermitian", 0.5 - 2j)])
def test_read_complex_symmetric_tag_does_not_conjugate(tmp_path, symmetry, upper):
    # a complex symmetric file mirrors its lower triangle as stored; only a
    # hermitian one conjugates it
    path = tmp_path / "s.mtx"
    path.write_text(f"%%MatrixMarket matrix array complex {symmetry}\n"
                    "2 2\n1.0 0.0\n0.5 2.0\n3.0 0.0\n")
    M, _ = read_matrix(path)
    assert np.array_equal(M, [[1.0, upper], [0.5 + 2j, 3.0]])


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


@pytest.mark.parametrize("size_line, got", [
    ("", "end of file"),
    ("2 2 4\n", "'2 2 4'"),
    ("-2 2\n", "'-2 2'"),
    ("2 x\n", "'2 x'"),
    ("2.0 2\n", "'2.0 2'"),
], ids=["missing", "three-tokens", "negative", "non-integer", "float"])
def test_read_malformed_size_line_names_file_and_line(tmp_path, size_line, got):
    path = tmp_path / "B.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n%c\n" + size_line)
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == (f"{path}: line 3: expected the size line 'rows cols' "
                              f"(two non-negative integers), got {got}")


@pytest.mark.parametrize("field, entries, line", [
    ("real", "1.0\nabc\n0.5\n1.0\n", "'abc'"),
    ("complex", "1.0 0.0\n0.5 x\n0.5 0.0\n1.0 0.0\n", "'0.5 x'"),
])
def test_read_non_numeric_entry_names_file_line_and_entry(tmp_path, field, entries, line):
    path = tmp_path / "B.mtx"
    path.write_text(f"%%MatrixMarket matrix array {field} general\n%c\n2 2\n" + entries)
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}: line 5: entry 2 of 4 is not a number: {line}"


def test_read_non_square_symmetric_names_file(tmp_path):
    path = tmp_path / "B.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n1.0\n")
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}: symmetric/hermitian matrices must be square, got 2 x 3"


@pytest.mark.parametrize("symmetry, expected", [("general", 10**12),
                                                 ("symmetric", 10**6 * (10**6 + 1) // 2)])
def test_read_counts_entries_before_allocating_the_declared_size(tmp_path, symmetry, expected):
    # 10**6 x 10**6 float64 is 7.3 TiB: the one entry is found short of the
    # declared count before anything of that size is allocated
    path = tmp_path / "B.mtx"
    path.write_text(f"%%MatrixMarket matrix array real {symmetry}\n1000000 1000000\n1.0\n")
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == (f"{path}: read 1 of {expected} expected entries; "
                              "entry 2 is missing or incomplete")


@pytest.mark.parametrize("field, body, message", [
    ("real", "1.0\n\n3.0\n4.0\n", "read 1 of 4 expected entries; entry 2 is missing or incomplete"),
    ("real", "1.0\n2.0\nabc\n\n", "line 6: entry 3 of 4 is not a number: 'abc'"),
    ("real", "1.0\n\nabc\n4.0\n", "read 1 of 4 expected entries; entry 2 is missing or incomplete"),
    ("real", "1.0\nx 2.0\n", "line 5: entry 2 of 4 is not a number: 'x 2.0'"),
    ("real", "1.0\n2.0\n", "read 2 of 4 expected entries; entry 3 is missing or incomplete"),
    ("real", "", "read 0 of 4 expected entries; entry 1 is missing or incomplete"),
    ("real", "1\n2\n3\n4\n5\n", "found more than 4 expected entries"),
    ("complex", "1 0\n2 0\n3\n4 0\n", "read 2 of 4 expected entries; entry 3 is missing or incomplete"),
    ("complex", "1 0\n2 y\n3\n", "line 5: entry 2 of 4 is not a number: '2 y'"),
    ("complex", "1\n2\n3\n4\n", "read 0 of 4 expected entries; entry 1 is missing or incomplete"),
])
def test_read_names_the_first_bad_entry(tmp_path, field, body, message):
    # the entries are parsed in one pass; a bad one is still named as a
    # line-by-line read meets it: the first missing, incomplete or
    # non-numeric entry, with its line (a comment line makes the size line 3)
    path = tmp_path / "B.mtx"
    path.write_text(f"%%MatrixMarket matrix array {field} general\n%c\n2 2\n" + body)
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}: {message}"


def test_read_parses_entries_as_float_does(tmp_path):
    # padded lines, extra tokens after an entry's numbers, special values
    # and signed zeros; a complex entry is complex(float(a), float(b)), bit
    # for bit
    tokens = [" 0.1 ", "-0.0", "1e-320", "+.5", "5.", "1_0", "-1e-400", "2.0 junk", "-3.5e+00"]
    path = tmp_path / "v.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{len(tokens)} 1\n"
                    + "\n".join(tokens) + "\n\n")
    want = np.array([float(t.split()[0]) for t in tokens])
    assert read_vector(path)[0].tobytes() == want.tobytes()
    pairs = [("1.0", "-0.0"), ("-0.0", "2.0"), ("-0.0", "-2.0"), ("0.0", "-0.0"), ("nan", "1"),
             ("3", "inf"), ("-inf", "0"), ("0.5", "0.25 extra"), ("-0.0", "-inf")]
    path.write_text(f"%%MatrixMarket matrix array complex general\n{len(pairs)} 1\n"
                    + "\n".join(f"{a} {b}" for a, b in pairs) + "\n")
    want = np.array([complex(float(a), float(b.split()[0])) for a, b in pairs])
    assert read_vector(path)[0].tobytes() == want.tobytes()


def test_complex_vector_round_trip_keeps_signed_zeros_and_infinities(tmp_path):
    v = np.array([complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0),
                  complex(1.0, np.inf)])
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    got = read_vector(path)[0]
    assert got.tobytes() == v.tobytes()
    assert np.signbit(got.real).tolist() == [True, False, True, False]
    assert np.signbit(got.imag).tolist() == [False, True, True, False]
    assert np.isinf(got.imag[-1]) and got.real[-1] == 1.0


def test_read_empty_matrix(tmp_path):
    path = tmp_path / "e.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n0 0\n")
    M, _ = read_matrix(path)
    assert M.shape == (0, 0)
