"""Text serialization of coefficient tensors and basis tables.

A coefficient file is a single JSON header line describing the lattice
domain followed by one CSV row per coefficient: the 1-based depth indices,
the 0-based shift indices, then real and imaginary parts printed with 17
significant digits so doubles round-trip exactly.  Rows may arrive in any
order but must cover every multi-index exactly once; blank lines are
skipped, and an error names the 1-based line of the file.  The writer emits
canonical (flat-index) order, which makes write(read(file)) byte-identical
for canonical files.  It formats a block of rows with one ``%`` over a row
template whose index fields are already text (the leading ones spelled
once per run of rows), so only the values pass through ``%.17g`` per row;
a real tensor's imaginary field is a literal 0.
"""

from __future__ import annotations

import json
import math
from typing import NoReturn

import numpy as np

# Only the error-path row walk calls ``flatten``; it is looked up as a module
# global because ``perfbench/spans.py`` rebinds ``shiftortho.coeffio.flatten``.
from .lattice import CoeffTensor, LatticeDomain, _storage_dtype, flatten

SCHEMA_VERSION = 1
# Rows per ``%`` call: bounds the floats and row prefix strings one call holds.
_ROWS_PER_FORMAT = 1 << 12


class CoeffFileError(ValueError):
    """Malformed coefficient file; carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


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
    data = tensor.data
    # Dtype first: ``.imag`` of float data is a fresh array of zeros.
    complex_storage = np.iscomplexobj(data)
    kind = "complex" if complex_storage and data.imag.any() else "real"
    domain = tensor.domain
    shape, base = domain.grid_shape, _index_base(domain)
    # The trailing axes whose rows fit in a block are spelled out once as
    # row templates; each run of those rows takes one prefix string for the
    # leading axes (at least the first).  A real value's imaginary field is 0.
    lead = len(shape)
    while lead > 1 and math.prod(shape[lead - 1 :]) <= _ROWS_PER_FORMAT:
        lead -= 1
    rows = [",%.17g,%.17g\n" if complex_storage else ",%.17g,0\n"]
    for n, b in zip(reversed(shape[lead:]), reversed(base[lead:])):
        rows = [f",{i}" + row for i in range(b, b + n) for row in rows]
    run = len(rows)
    run_count, runs_per_block = domain.size // run, _ROWS_PER_FORMAT // run
    values = data.view(np.float64).reshape(domain.size, -1)
    lead_fields = ",".join(["%d"] * lead)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(_header(domain, kind) + "\n")
        for first in range(0, run_count, runs_per_block):
            runs = np.arange(first, min(first + runs_per_block, run_count))
            index = np.column_stack(np.unravel_index(runs, shape[:lead])) + base[:lead]
            prefixes = "\n".join([lead_fields] * len(runs)) % tuple(index.ravel().tolist())
            # ``prefix.join`` puts the prefix before every row of the run but the first.
            template = "".join([prefix + prefix.join(rows) for prefix in prefixes.split("\n")])
            block = values[first * run : (first + len(runs)) * run]
            handle.write(template % tuple(block.ravel().tolist()))


def _read_lines(path) -> list[str]:
    """Lines of an ASCII text file; a non-ASCII byte is an error on its line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # The marker keeps a bad byte that opens a line on that line.
        row = len((raw[: exc.start].decode("ascii") + "_").splitlines())
        raise CoeffFileError(
            f"non-ASCII byte 0x{raw[exc.start]:02x}", row=row
        ) from None
    if not lines:
        raise CoeffFileError("empty file")
    return lines


def _header_object(line: str, keys: tuple[str, ...]) -> dict:
    """Parse the JSON header line into an object holding every key in ``keys``."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CoeffFileError(f"invalid JSON header: {exc}", row=1) from exc
    if not isinstance(header, dict):
        raise CoeffFileError("header is not a JSON object", row=1)
    for key in keys:
        if key not in header:
            raise CoeffFileError(f"header missing key {key!r}", row=1)
    return header


def _read_header(line: str) -> tuple[LatticeDomain, str]:
    """Validate the JSON header line; returns the domain and the value kind."""
    header = _header_object(line, ("schema", "d", "L", "N", "kind"))
    # Compared by type as well: JSON true and 1.0 equal 1 in Python.
    if type(header["schema"]) is not int or header["schema"] != SCHEMA_VERSION:
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
    if type(header["d"]) is not int or header["d"] != domain.d:
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
    data = np.empty(domain.size, dtype=_storage_dtype(values[:, 1]))
    # One float64 field per stored value: the real part, or both parts.
    fields = data.itemsize // 8
    data.view(np.float64).reshape(-1, fields)[flat] = values[:, :fields]
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
    are the rows walked one by one, to name the first bad file line.  The
    tensor is real (float64) when every imaginary field is zero, whatever
    the header's ``kind``.
    """
    lines = _read_lines(path)
    domain, kind = _read_header(lines[0])
    body = list(filter(str.strip, lines[1:]))
    if len(body) != domain.size:
        raise CoeffFileError(
            f"expected {domain.size} coefficient rows, found {len(body)}"
        )
    data = _bulk_values(body, domain, kind)
    if data is None:
        _raise_first_bad_row(lines, domain, kind)
    # _bulk_values checked finiteness and built a fresh array of the
    # tensor's dtype: float64 when every imaginary part is zero.
    return CoeffTensor._trusted(domain, data)


def write_sopw_table(path, basis, table) -> None:
    """Write per-(depth, shift) sparse Fourier coefficients as header + CSV."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "sopw-table",
        "L": basis.num_shifts,
        "N": basis.depth_cap,
    }
    rows = [
        (depth, shift_idx, mode, value.real, value.imag)
        for (depth, shift_idx), entries in table
        for mode, value in entries
    ]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n")
        handle.write(format_rows("%d,%d,%d,%.17g,%.17g\n", np.array(rows, dtype=object)))
