"""Text serialization of coefficient tensors and basis tables.

A coefficient file is a single JSON header line describing the lattice
domain followed by one CSV row per coefficient: the 1-based depth indices,
the 0-based shift indices, then real and imaginary parts printed as
``%.17g`` prints them, so doubles round-trip exactly.  Rows may arrive in
any order but must cover every multi-index exactly once; blank lines are
skipped.  The reader reads the bytes once, for the header and its checks,
and numpy parses the body of a regular ASCII file straight from the file,
with no Python string per line.  A whitespace-only line, a line break that
``str.splitlines`` sees and numpy does not (\\x0b, \\x0c, \\x1c, \\x1d,
\\x1e) or any error sends the file through its list of lines instead, so
both routes accept and reject the same files.  Each row rule is one mask
over one parse's arrays; an error names the file's 1-based line.  The writer
emits canonical (flat-index) order, which makes write(read(file))
byte-identical for canonical files.  It formats a block of rows with one
``%`` whose index fields are already text (the leading ones spelled once
per run of rows) and whose value fields are integer templates: numpy finds
each value's 17 digits from Dekker's exact product with a power of ten,
and its template (sign, zero runs, widths, exponent) lays them out as
``%.17g`` does.  A value whose digits are not certain (an exact tie at 17
digits, or a magnitude outside 1e-280..1e280) takes its own ``%.17g`` text
as its template, so every field equals ``%.17g``'s, byte for byte.  A
real tensor's imaginary field is a literal 0.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re

import numpy as np

# Only a rejected index calls ``flatten``, for its message; it is looked up as a
# module global because ``perfbench/spans.py`` rebinds ``shiftortho.coeffio.flatten``.
from .lattice import CoeffTensor, LatticeDomain, _storage_dtype, flatten

SCHEMA_VERSION = 1
# Rows per ``%`` call: bounds the numbers, templates and row strings one call holds.
_ROWS_PER_FORMAT = 1 << 12
# Values printed from their own digits.  At these magnitudes the scaled
# product, its Veltkamp splits and their partial products are all normal
# doubles; any other value takes its ``%.17g`` text as a literal template.
_DIGIT_RANGE = (1e-280, 1e280)
# Decimal exponents of the tables: the range above, one retry and one carry.
_EXP_LIMIT = 284
# The scaled product is within 1e-13 of exact; a fraction this close to
# one half could round either way, so that value takes the literal path.
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting constant for doubles
# Bytes at which ``str.splitlines`` breaks a line but numpy sees whitespace.
_ODD_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# numpy opens a named file through its DataSource, which decompresses by
# suffix and fetches URLs.
_DATASOURCE_NAME = re.compile(r"://|\.(bz2|gz|lzma|xz|zst)$")


class CoeffFileError(ValueError):
    """Malformed coefficient file; carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


@contextlib.contextmanager
def output_file(path, **open_args):
    """``open(path, "w", **open_args)`` whose regular file is removed if the body raises."""
    handle = open(path, "w", **open_args)
    try:
        with handle:
            yield handle
    except BaseException:
        # A partial file would look like output; a device or a pipe stays.
        if os.path.isfile(path):
            os.remove(path)
        raise


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


def _ten_pair(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi correctly rounded, lo the correctly rounded remainder."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


def _template(e: int, zeros: int, negative: int) -> str:
    """``%.17g``'s layout of 17 digits at decimal exponent e, ``zeros`` of them trailing.

    Its arguments are the digits before the decimal point and, if any
    remain, those after it without the trailing zeros (``_value_fields``).
    Leading zeros, widths and the exponent are literal text.
    """
    sign = "-" if negative else ""
    if e < -4 or e >= 17:
        mantissa = "%d" if zeros == 16 else f"%d.%0{16 - zeros}d"
        return f"{sign}{mantissa}e{e:+03d}"
    if e < 0:
        return f"{sign}0.{'0' * (-1 - e)}%d"
    places = 16 - e - zeros
    return f"{sign}%d.%0{places}d" if places > 0 else f"{sign}%d"


# Powers of ten and value templates, each built on first use.  Entry
# e + _EXP_LIMIT of the power tables: 10**(16 - e) as a (hi, lo) pair.
_TEN_HI, _TEN_LO = np.zeros(2 * _EXP_LIMIT + 1), np.zeros(2 * _EXP_LIMIT + 1)
_TEN_KNOWN = np.zeros(2 * _EXP_LIMIT + 1, dtype=bool)
# Template code ((e + _EXP_LIMIT) * 17 + zeros) * 2 + negative, then "0" and "-0".
_ZERO_CODE = (2 * _EXP_LIMIT + 1) * 34
_TEMPLATES = np.empty(_ZERO_CODE + 2, dtype=object)
_TEMPLATES[_ZERO_CODE:] = ["0", "-0"]
_TEMPLATE_KNOWN = np.zeros(_ZERO_CODE + 2, dtype=bool)
_TEMPLATE_KNOWN[_ZERO_CODE:] = True
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _powers(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    entries = e + _EXP_LIMIT
    for i in set(entries[~_TEN_KNOWN[entries]].tolist()):
        _TEN_HI[i], _TEN_LO[i] = _ten_pair(16 + _EXP_LIMIT - i)
        _TEN_KNOWN[i] = True
    return _TEN_HI[entries], _TEN_LO[entries]


def _template_list(code: np.ndarray) -> list[str]:
    for c in set(code[~_TEMPLATE_KNOWN[code]].tolist()):
        _TEMPLATES[c] = _template(c // 34 - _EXP_LIMIT, c // 2 % 17, c % 2)
        _TEMPLATE_KNOWN[c] = True
    return _TEMPLATES[code].tolist()


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) as an int64 part plus a small float part, within 1e-13.

    Dekker's exact product of a and the power's hi (``_powers``; a Veltkamp
    split of each factor, since numpy has no fma) plus a times its lo.
    """
    hi, lo = _powers(e)
    product = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * hi
    h_hi = c - (c - hi)
    h_lo = hi - h_hi
    error = ((a_hi * h_hi - product) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    # product - whole is exact, whether or not the product is an integer.
    whole = product.astype(np.int64)
    return whole, (product - whole) + error + a * lo


def _digits(values: np.ndarray):
    """D = round(|x| * 10**(16 - e)) and e = floor(log10 |x|) of every value.

    Also a mask of the values whose D is certain: finite x in
    ``_DIGIT_RANGE`` whose scaled product, exact to 1e-13, has a fraction at
    least ``_TIE_MARGIN`` from one half.  The decade comes from the
    product's floor, which must lie in [1e16, 1e17), with one retry in the
    neighbouring decade; a round-up to 1e17 carries into the next decade.
    """
    a = np.abs(values)
    certain = (a >= _DIGIT_RANGE[0]) & (a <= _DIGIT_RANGE[1])
    a[~certain] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, part = _scaled(a, e)
    below = np.floor(part)
    d = whole + below.astype(np.int64)  # the product's floor; rounded at the end
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        e[off] += np.where(d[off] < 10**16, -1, 1)
        whole[off], part[off] = _scaled(a[off], e[off])
        below[off] = np.floor(part[off])
        d[off] = whole[off] + below[off].astype(np.int64)
        certain[off] &= (d[off] >= 10**16) & (d[off] < 10**17)
    part -= below
    certain &= np.abs(part - 0.5) >= _TIE_MARGIN
    d += part > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, certain


def _value_fields(values: np.ndarray) -> tuple[list[str], list[int]]:
    """One ``%`` template per value and the int arguments of all, in order.

    Together they print each value as ``"%.17g" % value`` does: from its
    digits (``_digits``) where those are certain, from templates of their
    own for zeros, and as its own ``%.17g`` text otherwise.
    """
    d, e, certain = _digits(values)
    zeros = np.zeros(len(d), dtype=np.int64)
    index = np.flatnonzero((d % 10 == 0) & certain)
    rest = d[index] // 10
    while index.size:
        zeros[index] += 1
        keep = rest % 10 == 0
        index, rest = index[keep], rest[keep] // 10
    negative = np.signbit(values)
    code = ((e + _EXP_LIMIT) * 17 + zeros) * 2 + negative
    zero = values == 0
    code[zero] = _ZERO_CODE + negative[zero]
    templates = _template_list(code)
    for i in np.flatnonzero(~certain & ~zero).tolist():
        templates[i] = "%.17g" % values[i]
    # D splits at 10**cut into the part before the decimal point and the
    # digits after it, trailing zeros dropped.
    cut = np.where((e < -4) | (e >= 17), 16, np.where(e < 0, zeros, 16 - e))
    args = np.empty((len(d), 2), dtype=np.int64)
    args[:, 0], args[:, 1] = np.divmod(d, _POW10[cut])
    args[:, 1] //= _POW10[zeros]
    taken = np.stack([certain, certain & (cut > zeros)], axis=1)
    return templates, np.compress(taken.ravel(), args).tolist()


def _block_text(values: np.ndarray, index: np.ndarray, rows: list[str]) -> str:
    """The text of one block of rows, formatted by one ``%``.

    Each row of ``index`` (file indices of the leading axes) is the prefix
    of every literal in ``rows`` (the trailing axes).  A row's value fields
    follow: two per row for complex ``values``, one and a literal 0 for real.
    """
    # Values first, so that their temporaries and the row strings below are
    # never alive together.
    templates, args = _value_fields(values)
    lead_fields = ",".join(["%d"] * index.shape[1])
    prefixes = "\n".join([lead_fields] * len(index)) % tuple(index.ravel().tolist())
    count = len(index) * len(rows)
    if len(values) > count:
        pieces = [None, None, None, ",", None, "\n"] * count
        pieces[2::6], pieces[4::6] = templates[0::2], templates[1::2]
    else:
        pieces = [None, None, None, ",0\n"] * count
        pieces[2::4] = templates
    stride = len(pieces) // count
    pieces[0::stride] = [prefix for prefix in prefixes.split("\n") for _ in rows]
    pieces[1::stride] = rows * len(index)
    return "".join(pieces) % tuple(args)


def write_coeff_file(path, tensor: CoeffTensor) -> None:
    """Write a tensor in canonical order; kind is 'real' when imag is all zero."""
    data = tensor.data
    # Dtype first: ``.imag`` of float data is a fresh array of zeros.
    kind = "complex" if np.iscomplexobj(data) and data.imag.any() else "real"
    domain = tensor.domain
    shape, base = domain.grid_shape, _index_base(domain)
    # The trailing axes whose rows fit in a block are spelled out once as
    # row literals; each run of those rows takes one prefix string for the
    # leading axes (at least the first).
    lead = len(shape)
    while lead > 1 and math.prod(shape[lead - 1 :]) <= _ROWS_PER_FORMAT:
        lead -= 1
    rows = [","]
    for n, b in zip(reversed(shape[lead:]), reversed(base[lead:])):
        fields = [f",{i}" for i in range(b, b + n)]
        rows = [field + row for field in fields for row in rows]
    run = len(rows)
    run_count, runs_per_block = domain.size // run, _ROWS_PER_FORMAT // run
    values = data.view(np.float64).reshape(domain.size, -1)
    with output_file(path, encoding="ascii") as handle:
        handle.write(_header(domain, kind) + "\n")
        for first in range(0, run_count, runs_per_block):
            runs = np.arange(first, min(first + runs_per_block, run_count))
            index = np.column_stack(np.unravel_index(runs, shape[:lead])) + base[:lead]
            block = values[first * run : (first + len(runs)) * run].ravel()
            handle.write(_block_text(block, index, rows))


def _split_lines(raw: bytes) -> list[str]:
    """Lines of ASCII text; a non-ASCII byte is an error on its line."""
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
        # LatticeDomain rejects these as well; checked here for the header's wording.
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


def _parse_rows(source, domain: LatticeDomain, skiprows: int = 0) -> np.ndarray:
    """Parse body lines, or a file below its header, with numpy's C reader.

    ``source`` is a list of lines or a file name; ``skiprows`` leading lines
    are skipped.  The rows come back as ``index`` and ``value`` fields.
    """
    dtype = np.dtype([("index", np.int64, (2 * domain.d,)), ("value", np.float64, (2,))])
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                      skiprows=skiprows, encoding="ascii")


def _parse_file(path, raw: bytes):
    """Domain, kind and rows of a file that numpy parses from disk, or None.

    numpy reads a named file in chunks, with no Python string per line.  Its
    rows must be the line list's non-blank body lines.  So the file is a
    regular ASCII file (the first read drains a pipe) with none of
    ``_ODD_BREAKS``, its name is one that numpy's DataSource opens as plain
    text, and its body holds a comma (numpy finds no row in a body of empty
    lines, and warns).  numpy skips empty lines and rejects whitespace-only
    ones.  A header error, a parse error or a wrong row count also gives
    None, so that the line list names it.  ``raw`` holds the file's bytes.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if (not (isinstance(name, str) and raw.isascii() and os.path.isfile(name))
            or _DATASOURCE_NAME.search(name) or any(mark in raw for mark in _ODD_BREAKS)):
        return None
    header = re.match(rb"[^\r\n]*", raw).group()
    if raw.find(b",", len(header)) < 0:
        return None
    try:
        domain, kind = _read_header(header.decode("ascii"))
        table = _parse_rows(name, domain, skiprows=1)
    except ValueError:  # CoeffFileError included
        return None
    return (domain, kind, table) if len(table) == domain.size else None


def _check_rows(table: np.ndarray, domain: LatticeDomain, kind: str):
    """Flat positions of parsed rows, and the row and message of the first bad one.

    Each rule is an elementwise mask, True where broken, reduced whole; only
    when one fails are the masks reduced per row (None: every row is good).
    """
    positions = table["index"] - _index_base(domain)
    flat = np.ravel_multi_index(tuple(positions.T), domain.grid_shape, mode="clip")
    # In the order a row's rules are checked; a repeated index comes second.
    masks = ((positions < 0) | (positions >= domain.grid_shape), ~np.isfinite(table["value"]),
             (table["value"][:, 1:] != 0) & (kind == "real"))
    if not any(mask.any() for mask in masks) and np.bincount(flat).max() < 2:
        return flat, None
    # Every row but the first of its index repeats an index.
    repeat = np.ones(len(flat), dtype=bool)
    repeat[np.unique(flat, return_index=True)[1]] = False
    out_of_range, non_finite, imaginary = (mask.any(axis=1) for mask in masks)
    row = int((out_of_range | repeat | non_finite | imaginary).argmax())
    index = table["index"][row]
    if out_of_range[row]:
        try:
            flatten(domain, index[: domain.d], index[domain.d :])
        except IndexError as exc:
            return flat, (row, str(exc))
    if repeat[row]:
        return flat, (row, f"duplicate entry for index {tuple(int(i) for i in index)}")
    if non_finite[row]:
        return flat, (row, "coefficients must be finite")
    return flat, (row, "kind is 'real' but the imaginary part is nonzero")


def _first_unparsable_row(body: list[str], domain: LatticeDomain, kind: str) -> tuple[int, str]:
    """Row and message of the first bad row in a body that numpy rejects."""
    # numpy parses lines independently: bisecting over segments finds the first
    # rejected line in about log2(len(body)) calls.  A parsed row before it that
    # breaks a rule comes first.
    parts, start, stop = [], 0, len(body)
    while stop - start > 1:
        middle = (start + stop) // 2
        try:
            parts.append(_parse_rows(body[start:middle], domain))
            start = middle
        except ValueError:
            stop = middle
    if parts and (found := _check_rows(np.concatenate(parts), domain, kind)[1]):
        return found
    field_count, found_count = 2 * domain.d + 2, len(body[start].split(","))
    if found_count != field_count:
        return start, f"expected {field_count} fields, found {found_count}"
    return start, f"expected {2 * domain.d} integer indices and 2 floats, found {body[start]!r}"


def read_coeff_file(path) -> CoeffTensor:
    """Parse a coefficient file, validating indices, coverage and finiteness.

    The bytes are read once.  numpy parses the body straight from the file
    when ``_parse_file`` can vouch for it; any other file goes through its
    list of lines, blank ones dropped.  Each row rule is one mask over the arrays of
    a single parse; only a failed check locates the first bad file line.  The
    tensor is real (float64) when every imaginary field is zero, whatever
    the header's ``kind``.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    lines = None
    parsed = _parse_file(path, raw)
    if parsed is not None:
        domain, kind, table = parsed
        flat, bad = _check_rows(table, domain, kind)
    else:
        lines = _split_lines(raw)
        domain, kind = _read_header(lines[0])
        body = list(filter(str.strip, lines[1:]))
        if len(body) != domain.size:
            raise CoeffFileError(f"expected {domain.size} coefficient rows, found {len(body)}")
        try:
            table = _parse_rows(body, domain)
        except ValueError:
            bad = _first_unparsable_row(body, domain, kind)
        else:
            flat, bad = _check_rows(table, domain, kind)
    if bad is None:
        values = table["value"]
        data = np.empty(domain.size, dtype=_storage_dtype(values[:, 1]))
        # One float64 field per stored value: the real part, or both parts.
        fields = data.itemsize // 8
        data.view(np.float64).reshape(-1, fields)[flat] = values[:, :fields]
        return CoeffTensor._trusted(domain, data)
    # ``row`` counts the non-blank body lines; the error names the file line.
    row, message = bad
    lines = lines or _split_lines(raw)
    file_rows = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    raise CoeffFileError(message, row=file_rows[row])


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
    with output_file(path, encoding="ascii") as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n")
        handle.write(format_rows("%d,%d,%d,%.17g,%.17g\n", np.array(rows, dtype=object)))
