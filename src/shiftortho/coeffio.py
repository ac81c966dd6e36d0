"""Text serialization of coefficient tensors and basis tables.

A coefficient file is a single JSON header line describing the lattice
domain followed by one CSV row per coefficient: the 1-based depth indices,
the 0-based shift indices, then real and imaginary parts printed with 17
significant digits so doubles round-trip exactly.  Rows may arrive in any
order but must cover every multi-index exactly once; blank lines are
skipped, and an error names the 1-based line of the file.  The writer emits
canonical (flat-index) order, which makes write(read(file)) byte-identical
for canonical files.
"""

from __future__ import annotations

import json
import math
from typing import NoReturn

import numpy as np

# Only the error-path row walk calls ``flatten``; it is looked up as a module
# global because ``perfbench/spans.py`` rebinds ``shiftortho.coeffio.flatten``.
from .lattice import CoeffTensor, LatticeDomain, flatten

SCHEMA_VERSION = 1
_ROWS_PER_FORMAT = 1 << 12


class CoeffFileError(ValueError):
    """Malformed coefficient file; carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


def _format(value: float) -> str:
    return f"{value:.17g}"


def format_rows(template: str, table: np.ndarray) -> str:
    """Apply a one-row ``%`` template to every row of a 2D table at once."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _header(domain: LatticeDomain, kind: str) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "d": domain.d,
        "L": list(domain.shifts),
        "N": list(domain.depths),
        "kind": kind,
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _index_base(domain: LatticeDomain) -> list[int]:
    """Offset from grid positions to file indices: depths 1-based, shifts 0-based."""
    return [1] * domain.d + [0] * domain.d


def write_coeff_file(path, tensor: CoeffTensor) -> None:
    """Write a tensor in canonical order; kind is 'real' when imag is all zero."""
    kind = "real" if not tensor.data.imag.any() else "complex"
    domain = tensor.domain
    width = 2 * domain.d
    template = ",".join(["%d"] * width + ["%.17g"] * 2) + "\n"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(_header(domain, kind) + "\n")
        # Blocks of rows bound the Python objects that one ``%`` needs.
        for start in range(0, domain.size, _ROWS_PER_FORMAT):
            block = tensor.data[start : start + _ROWS_PER_FORMAT]
            flat = np.arange(start, start + len(block))
            table = np.empty((len(block), width + 2), dtype=object)
            table[:, :width] = (
                np.column_stack(np.unravel_index(flat, domain.grid_shape)) + _index_base(domain)
            )
            table[:, width] = block.real
            table[:, width + 1] = block.imag
            handle.write(format_rows(template, table))


def _read_header(line: str) -> tuple[LatticeDomain, str]:
    """Validate the JSON header line; returns the domain and the value kind."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CoeffFileError(f"invalid JSON header: {exc}", row=1) from exc
    if not isinstance(header, dict):
        raise CoeffFileError("header is not a JSON object", row=1)
    for key in ("schema", "d", "L", "N", "kind"):
        if key not in header:
            raise CoeffFileError(f"header missing key {key!r}", row=1)
    if header["schema"] != SCHEMA_VERSION:
        raise CoeffFileError(f"unsupported schema {header['schema']}", row=1)
    if header["kind"] not in ("real", "complex"):
        raise CoeffFileError(f"unknown value kind {header['kind']!r}", row=1)
    for key in ("L", "N"):
        # LatticeDomain coerces with int(), so 2.5, "2" and true would pass it.
        value = header[key]
        if not isinstance(value, list) or not all(type(v) is int for v in value):
            raise CoeffFileError(f"header {key!r} must be a list of integers", row=1)
    try:
        domain = LatticeDomain(tuple(header["L"]), tuple(header["N"]))
    except ValueError as exc:
        raise CoeffFileError(f"invalid domain in header: {exc}", row=1) from exc
    if header["d"] != domain.d:
        raise CoeffFileError("header dimension disagrees with L/N lengths", row=1)
    return domain, header["kind"]


def _parse_rows(lines: list[str], domain: LatticeDomain) -> np.ndarray:
    """Parse body lines with numpy's C reader into ``index`` and ``value`` fields."""
    dtype = np.dtype([("index", np.int64, (2 * domain.d,)), ("value", np.float64, (2,))])
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _bulk_values(body: list[str], domain: LatticeDomain, kind: str) -> np.ndarray | None:
    """Coefficients of ``domain.size`` non-blank rows, or None if any row is bad."""
    try:
        table = _parse_rows(body, domain)
    except ValueError:
        return None
    positions = table["index"]
    positions -= _index_base(domain)
    if not ((positions >= 0) & (positions < domain.grid_shape)).all():
        return None
    flat = np.ravel_multi_index(tuple(positions.T), domain.grid_shape)
    values = table["value"]
    if (
        np.bincount(flat, minlength=domain.size).max() > 1
        or not np.isfinite(values).all()
        or (kind == "real" and values[:, 1].any())
    ):
        return None
    data = np.empty(domain.size, dtype=np.complex128)
    data.view(np.float64).reshape(-1, 2)[flat] = values
    return data


def _raise_first_bad_row(lines: list[str], domain: LatticeDomain, kind: str) -> NoReturn:
    """Raise the error of the first bad body row; ``lines`` includes the header."""
    field_count = 2 * domain.d + 2
    seen = np.zeros(domain.size, dtype=bool)
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != field_count:
            raise CoeffFileError(f"expected {field_count} fields, found {len(fields)}", row=row)
        try:
            record = _parse_rows([line], domain)[0]
        except ValueError:
            raise CoeffFileError(
                f"expected {2 * domain.d} integer indices and 2 floats, found {line!r}",
                row=row,
            ) from None
        index, (real, imag) = record["index"], record["value"]
        try:
            flat = flatten(domain, index[: domain.d], index[domain.d :])
        except IndexError as exc:
            raise CoeffFileError(str(exc), row=row) from exc
        if seen[flat]:
            raise CoeffFileError(
                f"duplicate entry for index {tuple(int(i) for i in index)}", row=row
            )
        seen[flat] = True
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise CoeffFileError("coefficients must be finite", row=row)
        if kind == "real" and imag:
            raise CoeffFileError("kind is 'real' but the imaginary part is nonzero", row=row)
    # Reached only if the bulk checks reject a body that the row checks accept.
    raise CoeffFileError("malformed coefficient rows")


def read_coeff_file(path) -> CoeffTensor:
    """Parse a coefficient file, validating indices, coverage and finiteness.

    The body is parsed and checked as whole arrays; only when a check fails
    are the rows walked one by one, to name the first bad file line.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CoeffFileError("empty file")
    domain, kind = _read_header(lines[0])
    body = list(filter(str.strip, lines[1:]))
    if len(body) != domain.size:
        raise CoeffFileError(
            f"expected {domain.size} coefficient rows, found {len(body)}"
        )
    data = _bulk_values(body, domain, kind)
    if data is None:
        _raise_first_bad_row(lines, domain, kind)
    return CoeffTensor(domain, data)


def write_sopw_table(path, basis, table) -> None:
    """Write per-(depth, shift) sparse Fourier coefficients as header + CSV."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sopw-table",
        "L": basis.num_shifts,
        "N": basis.depth_cap,
    }
    lines = [json.dumps(payload, sort_keys=True, separators=(", ", ": "))]
    for (depth, shift_idx), entries in table:
        for mode, value in entries:
            lines.append(
                ",".join(
                    [str(depth), str(shift_idx), str(mode),
                     _format(value.real), _format(value.imag)]
                )
            )
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def read_sopw_table(path):
    """Parse a basis coefficient table; returns ``(L, N, {(k, j): [(n, c)]})``."""
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CoeffFileError("empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CoeffFileError(f"invalid JSON header: {exc}", row=1) from exc
    if header.get("kind") != "sopw-table":
        raise CoeffFileError("not a basis table file", row=1)
    table: dict = {}
    for offset, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        row_number = offset + 2
        fields = line.split(",")
        if len(fields) != 5:
            raise CoeffFileError(f"expected 5 fields, found {len(fields)}", row=row_number)
        try:
            depth, shift_idx, mode = int(fields[0]), int(fields[1]), int(fields[2])
            value = complex(float(fields[3]), float(fields[4]))
        except ValueError as exc:
            raise CoeffFileError(str(exc), row=row_number) from exc
        table.setdefault((depth, shift_idx), []).append((mode, value))
    return int(header["L"]), int(header["N"]), table
