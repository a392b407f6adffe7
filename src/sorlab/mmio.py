"""MatrixMarket array-format I/O for dense matrices and vectors.

Hand-rolled rather than delegated so the bytes are fully pinned: values are
written with 17 significant digits (``%.16e``), which round-trips float64
exactly, and caller comments are embedded verbatim as ``%`` lines. Complex
Hermitian square matrices are stored with the ``hermitian`` symmetry tag
(lower triangle only, column-major); everything else is ``general``.
"""

from __future__ import annotations

import numpy as np

_FMT = "%.16e"


def _format_value(v, complex_field):
    if complex_field:
        return f"{_FMT % v.real} {_FMT % v.imag}"
    return _FMT % v.real


def _is_exactly_hermitian(M):
    return M.shape[0] == M.shape[1] and np.array_equal(M, M.conj().T)


def _entry_order(rows, cols, symmetry):
    """Row and column indices of the stored entries in file order:
    column-major, and the lower triangle only for symmetric/hermitian storage."""
    if symmetry == "general":
        j, i = np.indices((cols, rows)).reshape(2, -1)
    else:
        j, i = np.triu_indices(rows)  # j <= i, column by column
    return i, j


def write_matrix(path, M, comments=()) -> None:
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    complex_field = bool(np.iscomplexobj(M))
    field = "complex" if complex_field else "real"
    symmetry = "hermitian" if complex_field and _is_exactly_hermitian(M) else "general"
    rows, cols = M.shape
    lines = [f"%%MatrixMarket matrix array {field} {symmetry}"]
    for c in comments:
        lines.append("%" + str(c).replace("\n", " "))
    lines.append(f"{rows} {cols}")
    lines.extend(_format_value(v, complex_field) for v in M[_entry_order(rows, cols, symmetry)])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse(entries, expected, width):
    """entries as an (expected, width) float64 array, or None unless they
    are expected rows of width numbers."""
    try:
        values = np.array(entries, dtype=np.float64)
    except ValueError:  # ragged rows, or a token that is not a number
        return None
    if len(entries) != expected or values.size != expected * width:
        return None
    return values.reshape(expected, width)


def _entry_values(path, lines, expected, width, first_line):
    """The (expected, width) numbers of the entry lines, parsed at once; on a
    missing or incomplete entry (fewer than width numbers), or one that is
    not a number, the error of the first such entry line."""
    # float() takes a line of one number whole; other lines go token by token
    values = _parse(lines, expected, 1) if width == 1 else None
    if values is None:
        values = _parse([line.split()[:width] for line in lines], expected, width)
    if values is not None:
        return values
    rows = []  # line by line, up to the first bad entry
    for k, line in enumerate(lines + [""] * (expected - len(lines))):
        parts = line.split()
        if len(parts) < width:
            raise ValueError(f"{path}: read {k} of {expected} expected entries; "
                             f"entry {k + 1} is missing or incomplete")
        try:
            rows.append([float(p) for p in parts[:width]])
        except ValueError:
            raise ValueError(f"{path}: line {first_line + k}: entry {k + 1} of "
                             f"{expected} is not a number: {' '.join(parts)!r}") from None
    return np.array(rows, dtype=np.float64).reshape(expected, width)


def read_matrix(path):
    """Read a dense array-format file. Returns (matrix, comment lines)."""
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline()
        tokens = banner.strip().split()
        if len(tokens) != 5 or tokens[0].lower() != "%%matrixmarket":
            raise ValueError(f"not a MatrixMarket file: {path}")
        _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
        if obj != "matrix" or fmt != "array":
            raise ValueError(f"unsupported MatrixMarket container {obj}/{fmt}")
        if field not in ("real", "complex", "integer"):
            raise ValueError(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric", "hermitian"):
            raise ValueError(f"unsupported symmetry {symmetry!r}")
        comments = []
        line = fh.readline()
        while line.startswith("%"):
            comments.append(line[1:].rstrip("\n"))
            line = fh.readline()
        try:
            rows, cols = (int(t) for t in line.split())
        except ValueError:  # too few or too many tokens, or a non-integer one
            rows = cols = -1
        if rows < 0 or cols < 0:
            got = repr(line.strip()) if line else "end of file"
            raise ValueError(f"{path}: line {2 + len(comments)}: expected the size line "
                             f"'rows cols' (two non-negative integers), got {got}")
        complex_field = field == "complex"
        dtype = np.complex128 if complex_field else np.float64
        M = np.zeros((rows, cols), dtype=dtype)
        if symmetry != "general" and rows != cols:
            raise ValueError(f"{path}: symmetric/hermitian matrices must be square, "
                             f"got {rows} x {cols}")
        entry_rows, entry_cols = _entry_order(rows, cols, symmetry)
        expected, width = len(entry_rows), 2 if complex_field else 1
        lines = fh.read().split("\n")
    values = _entry_values(path, lines[:expected], expected, width, 3 + len(comments))
    if any(line.strip() for line in lines[expected:]):
        raise ValueError(f"{path}: found more than {expected} expected entries")
    # a complex entry's two numbers, viewed as complex128, are its real and imaginary parts
    M[entry_rows, entry_cols] = values.view(dtype)[:, 0]
    if symmetry != "general":
        iu = np.triu_indices(rows, 1)
        M[iu] = (M.conj() if symmetry == "hermitian" else M).T[iu]
    return M, comments


def write_vector(path, v, comments=()) -> None:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("vector must be 1-d")
    write_matrix(path, v.reshape(-1, 1), comments)


def read_vector(path):
    M, comments = read_matrix(path)
    if M.shape[1] != 1:
        raise ValueError(f"expected an n x 1 vector file, got shape {M.shape}")
    return M[:, 0], comments
