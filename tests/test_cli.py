import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    LatticeDomain,
    SopwBasis1D,
    check_shift_perpendicular,
    flatten,
    project_sso,
    project_sso_orth,
    random_tensor,
    sopw_fourier_coeffs,
)
from shiftortho import cli, coeffio
from shiftortho.cli import main
from shiftortho.coeffio import (
    _ROWS_PER_FORMAT,
    CoeffFileError,
    read_coeff_file,
    write_coeff_file,
)
from util import (
    random_real_tensor,
    read_coeff_file_by_rows,
    read_sopw_table,
    row_by_row_coeff_text,
    small_domains,
    write_coeff_file_by_table,
)

HEADER_1D = '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "%s"}\n'
# 1e23 is the double just below 10^23 (log10 rounds it into the next
# decade); 2^-25 is an exact tie at 17 digits.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308, 1e23, 2.0**-25)
# Line breaks for str.splitlines that numpy reads as whitespace.
ODD_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
# The complex tensor of TestCoeffFile.test_golden_text, as the writer spells it.
GOLDEN_COMPLEX = """\
{"L": [11, 1], "N": [2, 1], "d": 2, "kind": "complex", "schema": 1}
1,1,0,0,0.10000000000000001,-2.5
1,1,1,0,-2.5,0
1,1,2,0,4.9406564584124654e-324,0
1,1,3,0,1.7976931348623157e+308,0
1,1,4,0,0,0
1,1,5,0,0,0
1,1,6,0,0,0
1,1,7,0,0,0
1,1,8,0,0,0
1,1,9,0,0,0
1,1,10,0,1,0
2,1,0,0,-1.0000000000000001e-05,0
2,1,1,0,0,0
2,1,2,0,0,0
2,1,3,0,0,0
2,1,4,0,0,0
2,1,5,0,0,0
2,1,6,0,0,0
2,1,7,0,0,0
2,1,8,0,0,0
2,1,9,0,0,0
2,1,10,0,3,0.10000000000000001
"""


def read_error(path, text):
    path.write_text(text)
    with pytest.raises(CoeffFileError) as info:
        read_coeff_file(path)
    return info.value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    status = None
    for line in captured.out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            status = json.loads(line)
    return code, status, captured


class TestCoeffFile:
    def test_read_write_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for shifts, depths in (((4,), (3,)), ((2, 3), (2, 2))):
            dom = LatticeDomain(shifts, depths)
            tensor = random_tensor(dom, rng)
            path = tmp_path / "t.csv"
            write_coeff_file(path, tensor)
            back = read_coeff_file(path)
            assert back.domain == dom
            assert np.array_equal(back.data, tensor.data)

    def test_write_read_write_byte_identical(self, tmp_path):
        # Inputs, their projections (stored real for a real input) and
        # deflated projections, d = 1..3, real and complex: every kind of
        # file the library writes reads back to a tensor that writes the
        # same bytes, with the same dtype.
        rng = np.random.default_rng(1)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for shifts, depths in (((3,), (4,)), ((4, 3), (2, 2)), ((2, 3, 5), (2, 1, 2))):
            dom = LatticeDomain(shifts, depths)
            mode = project_sso(random_tensor(dom, rng))
            for real in (False, True):
                tensor = random_tensor(dom, rng, real=real)
                for written in (tensor, project_sso(tensor), project_sso_orth(tensor, [mode])):
                    write_coeff_file(first, written)
                    back = read_coeff_file(first)
                    assert back.data.dtype == written.data.dtype
                    write_coeff_file(second, back)
                    assert first.read_bytes() == second.read_bytes()
                kind = json.loads(first.read_text().splitlines()[0])["kind"]
                assert kind == "complex"  # the deflated projection is complex
                write_coeff_file(first, project_sso(tensor))
                kind = json.loads(first.read_text().splitlines()[0])["kind"]
                assert kind == ("real" if real else "complex")

    def test_zero_imaginary_fields_read_real(self, tmp_path):
        # Hand-written files whose imaginary fields are all zero, "-0"
        # included, read as real tensors; a "-0" is written back as "0".
        path = tmp_path / "h.csv"
        for kind in ("real", "complex"):
            path.write_text(HEADER_1D % kind + "1,0,1.5,-0\n1,1,-2,0\n")
            tensor = read_coeff_file(path)
            assert tensor.data.dtype == np.float64
            assert np.array_equal(tensor.data, [1.5, -2.0])
            write_coeff_file(path, tensor)
            assert path.read_text().splitlines()[1:] == ["1,0,1.5,0", "1,1,-2,0"]

    def test_real_kind_detection(self, tmp_path):
        rng = np.random.default_rng(2)
        tensor = random_real_tensor(LatticeDomain((4,), (2,)), rng)
        # complex128 storage whose imaginary parts are all (signed) zero,
        # which only the unchecked constructor builds
        data = tensor.data.astype(np.complex128)
        data.imag[::2] = -0.0
        stored_complex = CoeffTensor._trusted(tensor.domain, data)
        path = tmp_path / "r.csv"
        for written in (tensor, stored_complex):
            write_coeff_file(path, written)
            header = json.loads(path.read_text().splitlines()[0])
            assert header["kind"] == "real"

    def test_golden_text(self, tmp_path):
        # Multi-digit indices in canonical order, 17 significant digits and
        # the kind rule, spelled out: complex storage whose imaginary parts
        # are all -0.0 is written 'real' with "-0" fields.
        dom = LatticeDomain((11, 1), (2, 1))
        real = np.zeros(dom.size)
        real[[0, 1, 2, 3, 10, 11, 21]] = [0.1, -2.5, 5e-324, 1.7976931348623157e308,
                                          1.0, -1e-5, 3.0]
        imag = np.zeros(dom.size)
        imag[[0, 21]] = [-2.5, 0.1]
        negative_zero = real.astype(np.complex128)
        negative_zero.imag = -0.0
        header, *lines = GOLDEN_COMPLEX.splitlines()

        def real_kind(imag_field):
            body = [line.rsplit(",", 1)[0] + imag_field for line in lines]
            return "\n".join([header.replace('"complex"', '"real"'), *body]) + "\n"

        path = tmp_path / "g.csv"
        for tensor, expected in [
            (CoeffTensor(dom, real + 1j * imag), GOLDEN_COMPLEX),
            (CoeffTensor(dom, real), real_kind(",0")),
            (CoeffTensor._trusted(dom, negative_zero), real_kind(",-0")),
        ]:
            write_coeff_file(path, tensor)
            assert path.read_text() == expected

    def test_bytes_match_object_table_writer(self, tmp_path):
        # d = 1..3; row counts above one block that do not divide it; runs
        # that fill a block unevenly; a last axis longer than a block, alone
        # and under two leading axes.  Real, complex, and complex storage
        # with all-(-0.0) imaginary parts.
        rng = np.random.default_rng(16)
        domains = [
            LatticeDomain((4099,), (2,)),
            LatticeDomain((7,), (1000,)),
            LatticeDomain((16, 16), (8, 3)),
            LatticeDomain((2, _ROWS_PER_FORMAT + 3), (3, 1)),
            LatticeDomain((5, 6, 7), (3, 2, 4)),
        ]
        ours, oracle = tmp_path / "a.csv", tmp_path / "b.csv"
        for dom in domains:
            assert dom.size > _ROWS_PER_FORMAT and dom.size % _ROWS_PER_FORMAT
            real = rng.standard_normal(dom.size) * 10.0 ** rng.integers(-300, 300, dom.size)
            negative_zero = real.astype(np.complex128)
            negative_zero.imag = -0.0
            for tensor in (CoeffTensor(dom, real),
                           CoeffTensor(dom, real + 1j * rng.standard_normal(dom.size)),
                           CoeffTensor._trusted(dom, negative_zero)):
                write_coeff_file(ours, tensor)
                write_coeff_file_by_table(oracle, tensor)
                assert ours.read_bytes() == oracle.read_bytes()

    @staticmethod
    def written_values(path, values):
        """The writer's text for each value, as the value fields of complex rows."""
        values = np.asarray(values, dtype=np.float64)
        dom = LatticeDomain((len(values) // 2,), (1,))
        write_coeff_file(path, CoeffTensor(dom, values.view(np.complex128)))
        return [field for line in path.read_text().splitlines()[1:]
                for field in line.split(",")[2:]]

    def test_value_text_is_percent_17g_on_edges(self, tmp_path):
        # Every power of two; 10^k and both float neighbours for every decade
        # (the doubles nearest 1e-14 and 1e98 lie just below them and round
        # up into the next decade); k * 2^-25 for |k| <= 4096, exact 17-digit
        # ties at k = 1 and 3; the edges of the digit path's range and of its
        # 17-digit window; all with both signs.
        tens = [float(10**k) if k >= 0 else 1 / 10**-k for k in range(-323, 309)]
        edges = [1e-280, 1e280, 1e16, 1e17, 9.9999999999999999e22, 1e-14, 1e98, 1e-4, 1e-5]
        values = np.array([
            *(2.0**k for k in range(-1074, 1024)),
            *tens, *np.nextafter(tens, 0.0), *np.nextafter(tens, np.inf),
            *(k * 2.0**-25 for k in range(-4096, 4097)),
            *edges, *np.nextafter(edges, 0.0), *np.nextafter(edges, np.inf), *EDGE_VALUES,
        ])
        values = np.concatenate([values, -values])
        got = self.written_values(tmp_path / "edges.csv", values)
        expected = ["%.17g" % v for v in values.tolist()]
        assert [(v, g, w) for v, g, w in zip(values.tolist(), got, expected) if g != w] == []

    def test_value_text_is_percent_17g_on_random_bits(self, tmp_path):
        # Fresh patterns every run: 10^5 over all finite doubles and 10^5
        # with exponents inside the digit path's range (|x| in 1e-280..1e280).
        seed = np.random.SeedSequence().entropy
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
        inside = rng.integers(0, 2**52, 10**5, dtype=np.uint64) | (
            rng.integers(1023 - 930, 1023 + 930, 10**5, dtype=np.uint64) << np.uint64(52))
        values = np.concatenate([bits.view(np.float64), inside.view(np.float64)])
        values = values[np.isfinite(values)]
        values = values[: len(values) // 2 * 2]
        got = self.written_values(tmp_path / "bits.csv", values)
        expected = ["%.17g" % v for v in values.tolist()]
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, expected) if g != w]
        assert bad == [], f"seed {seed}"

    def test_write_memory_bounded_by_block(self, tmp_path):
        # A last axis of 2^17 gets its row prefixes one block at a time:
        # the strings "1,j," for every row alone take about 8 MiB.
        # Measured peak: 0.8 MiB; the bound is 2 MiB.
        rng = np.random.default_rng(17)
        dom = LatticeDomain((2**17,), (1,))
        tensor = random_tensor(dom, rng)
        tracemalloc.start()
        try:
            write_coeff_file(tmp_path / "line.csv", tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_parse_error_carries_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "real"}\n'
            "1,0,0.0,0.0\n"
            "1,1,not-a-number,0.0\n"
        )
        with pytest.raises(CoeffFileError) as info:
            read_coeff_file(path)
        assert info.value.row == 3

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "real"}\n'
            "1,0,1.0,0.0\n"
        )
        with pytest.raises(CoeffFileError):
            read_coeff_file(path)

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "real"}\n'
            "1,0,1.0,0.0\n"
            "1,0,2.0,0.0\n"
        )
        with pytest.raises(CoeffFileError) as info:
            read_coeff_file(path)
        assert info.value.row == 3

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text(
            '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "real"}\n'
            "1,0,1.0,0.0\n"
            "1,2,2.0,0.0\n"
        )
        with pytest.raises(CoeffFileError):
            read_coeff_file(path)

    @given(small_domains(max_size=256), st.data())
    # No shrinking: a wrong writer fails the first example, and shrinking
    # would rewrite and reread a file per step for minutes.
    @settings(max_examples=40, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    def test_round_trip_bitwise_and_canonical(self, tmp_path_factory, dom, data):
        value = st.one_of(st.sampled_from(EDGE_VALUES),
                          st.floats(allow_nan=False, allow_infinity=False))
        parts = np.array(data.draw(st.lists(value, min_size=2 * dom.size,
                                            max_size=2 * dom.size)))
        if data.draw(st.booleans()):
            parts[1::2] = data.draw(st.sampled_from((0.0, -0.0)))
        tensor = CoeffTensor(dom, parts.view(np.complex128))
        path = tmp_path_factory.mktemp("round") / "t.csv"
        write_coeff_file(path, tensor)
        text = path.read_text()
        assert text == row_by_row_coeff_text(tensor)
        back = read_coeff_file(path)
        assert back.domain == dom
        assert np.array_equal(back.data.view(np.uint64), tensor.data.view(np.uint64))
        write_coeff_file(path, back)
        assert path.read_text() == text

    def test_shuffled_rows(self, tmp_path):
        rng = np.random.default_rng(8)
        tensor = random_tensor(LatticeDomain((3, 2), (2, 2)), rng)
        path = tmp_path / "t.csv"
        write_coeff_file(path, tensor)
        header, *rows = path.read_text().splitlines()
        rng.shuffle(rows)
        path.write_text("\n".join([header, *rows]) + "\n")
        assert np.array_equal(read_coeff_file(path).data, tensor.data)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(HEADER_1D % "real" + "\n  \n1,1,2.0,0\n\t\n1,0,1.0,0\n\n")
        assert np.array_equal(read_coeff_file(path).data, [1.0, 2.0])

    @pytest.mark.parametrize(
        "body, row, message",
        [
            ("1,0,1.0,0.0\n1,1,2.0\n", 3, "expected 4 fields, found 3"),
            ("1,0,1.0,0.0\n1.0,1,2.0,0.0\n", 3, "integer indices"),
            ("1,0,1.0,0.0\n1,2,2.0,0.0\n", 3, "shift index 2 outside 0..1"),
            ("1,0,1.0,0.0\n2,1,2.0,0.0\n", 3, "depth index 2 outside 1..1"),
            ("1,1,1.0,0.0\n1,1,2.0,0.0\n", 3, "duplicate entry for index (1, 1)"),
            ("1,0,1.0,0.0\n\n1,x,2.0,0.0\n", 4, "integer indices"),
            ("1,0,1.0,0.0\n\n1,1,inf,0.0\n", 4, "must be finite"),
            ("\n1,0,nan,0.0\n1,1,1.0,0.0\n", 3, "must be finite"),
            ("1,0,1.0,0.0\n\n\n1,1,2.0,1e-300\n", 5, "imaginary part is nonzero"),
            # Several rules broken in one row: the first in checking order.
            ("1,0,1.0,0.0\n1,2,nan,0.0\n", 3, "shift index 2 outside 0..1"),
            ("1,0,1.0,0.0\n1,0,nan,0.0\n", 3, "duplicate entry for index (1, 0)"),
            ("1,0,1.0,0.0\n1,1,nan,1.0\n", 3, "must be finite"),
            ("1,0,1.0,0.0\n1,x,2.0\n", 3, "expected 4 fields, found 3"),
            # Whitespace-only and CRLF lines between rows.
            ("1,0,1.0,0.0\r\n \r\n\t\r\n1,1,inf,0.0\r\n", 5, "must be finite"),
            ("\r\n1,0,1.0,0.0\r\n  \r\n1,1,2.0,0.0,\r\n", 5, "expected 4 fields, found 5"),
        ],
    )
    def test_bad_row_named_by_file_line(self, tmp_path, body, row, message):
        error = read_error(tmp_path / "bad.csv", HEADER_1D % "real" + body)
        assert error.row == row
        assert message in str(error)

    def test_first_bad_row_in_file_order(self, tmp_path):
        # The bulk parse fails on line 5, but line 3 is the first bad row.
        body = "1,0,1.0,0.0\n1,0,2.0,0.0\n1,9,3.0,0.0\n1,2,x,0.0\n"
        header = HEADER_1D.replace("[2]", "[4]", 1) % "real"
        error = read_error(tmp_path / "bad.csv", header + body)
        assert error.row == 3
        assert "duplicate" in str(error)

    def test_first_bad_row_is_unparsable(self, tmp_path):
        # The mirror case: line 3 does not parse, line 4 repeats an index and
        # line 5 is out of range.
        body = "1,0,1.0,0.0\n1,x,2.0,0.0\n1,0,3.0,0.0\n1,9,4.0,0.0\n"
        header = HEADER_1D.replace("[2]", "[4]", 1) % "real"
        error = read_error(tmp_path / "bad.csv", header + body)
        assert error.row == 3
        assert "integer indices" in str(error)

    def test_crlf_and_whitespace_lines_read(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes((HEADER_1D % "complex").replace("\n", "\r\n").encode()
                         + b" \r\n1,1,2.0,-1\r\n\t \r\n\r\n1,0,1.0,0\r\n  \n")
        assert np.array_equal(read_coeff_file(path).data, [1.0, 2.0 - 1.0j])

    @given(small_domains(max_axis=4, max_size=24), st.booleans(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_errors_match_row_walk(self, tmp_path_factory, dom, real, data):
        # A written file with up to three corruptions: field counts, bad
        # tokens, indices in or out of range (so repeats too), indices copied
        # from the row before, non-finite values, nonzero imaginary parts,
        # line breaks that numpy reads as whitespace, blank lines; its lines
        # end in LF, CRLF or a lone CR.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        path = tmp_path_factory.mktemp("walk") / "t.csv"
        write_coeff_file(path, random_tensor(dom, rng, real=real))
        header, *rows = path.read_text().splitlines()
        width = 2 * dom.d
        for _ in range(data.draw(st.integers(0, 3))):
            # Half the corruptions go to the first two rows, so that one
            # row often breaks several rules.
            at = data.draw(st.one_of(st.integers(0, 1), st.integers(0, len(rows) - 1)))
            at = min(at, len(rows) - 1)
            fields = rows[at].split(",")
            how = data.draw(st.sampled_from(
                ["drop", "extra", "token", "index", "copy", "value", "imag", "break"]))
            if how == "drop":
                fields.pop()
            elif how == "extra":
                fields.append(data.draw(st.sampled_from(["0", "", "1.5"])))
            elif how == "token":
                token = data.draw(st.sampled_from(["x", "1.5", "", " ", "1e", "0x1", "--1"]))
                fields[data.draw(st.integers(0, len(fields) - 1))] = token
            elif how == "index":
                at_field = data.draw(st.integers(0, width - 1))
                fields[min(at_field, len(fields) - 1)] = str(data.draw(st.integers(-2, 9)))
            elif how == "copy":
                fields[:width] = rows[at - 1].split(",")[:width]
            elif how in ("value", "imag"):
                token = (data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-nan"]))
                         if how == "value" else data.draw(st.sampled_from(["1e-300", "-2"])))
                at_field = width + (1 if how == "imag" else data.draw(st.integers(0, 1)))
                fields[min(at_field, len(fields) - 1)] = token
            elif how == "break":
                # Inside a field or at either edge of it.
                at_field = data.draw(st.integers(0, len(fields) - 1))
                cut = data.draw(st.integers(0, len(fields[at_field])))
                field = fields[at_field]
                mark = data.draw(st.sampled_from(ODD_BREAKS))
                fields[at_field] = field[:cut] + mark + field[cut:]
            rows[at] = ",".join(fields)
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(rows)))
            rows.insert(at, data.draw(st.sampled_from(["", " ", "\t", "  \t ", *ODD_BREAKS])))
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        path.write_bytes(newline.join([header, *rows, ""]).encode())
        try:
            expected = read_coeff_file_by_rows(path)
        except CoeffFileError as exc:
            with pytest.raises(CoeffFileError) as info:
                read_coeff_file(path)
            assert (str(info.value), info.value.row) == (str(exc), exc.row)
        else:
            back = read_coeff_file(path)
            assert back.data.dtype == expected.data.dtype
            assert np.array_equal(back.data.view(np.uint64), expected.data.view(np.uint64))

    @pytest.mark.parametrize(
        "last, semantic",
        [
            ("1,4095,x,0", False),
            ("1,4095,2.0", False),
            ("1,4096,2.0,0", True),
            ("1,0,2.0,0", True),
            ("1,4095,nan,0", True),
            ("1,4095,2.0,1", True),
        ],
    )
    def test_parser_calls_for_a_bad_last_row(self, tmp_path, monkeypatch, last, semantic):
        # The parsed arrays name a broken rule; an unparsable line costs a
        # bisection, not a parse per line.
        dom = LatticeDomain((2**12,), (1,))
        path = tmp_path / "bad.csv"
        write_coeff_file(path, random_real_tensor(dom, np.random.default_rng(18)))
        text = path.read_text().splitlines()
        calls, parse = [], coeffio._parse_rows

        def counted(source, domain, skiprows=0):
            calls.append(source)
            return parse(source, domain, skiprows)

        monkeypatch.setattr(coeffio, "_parse_rows", counted)
        error = read_error(path, "\n".join(text[:-1] + [last]) + "\n")
        assert error.row == dom.size + 1
        if semantic:
            assert calls == [str(path)]  # the parse of the file itself
        else:
            assert len(calls) <= math.ceil(math.log2(dom.size)) + 3

    def test_parse_budget(self, tmp_path, monkeypatch):
        # A canonical file is one parse and no list of lines; a
        # whitespace-only line sends the file through the line list.
        dom = LatticeDomain((2**12,), (1,))
        tensor = random_tensor(dom, np.random.default_rng(23))
        path = tmp_path / "t.csv"
        write_coeff_file(path, tensor)
        calls, parse, split = [], coeffio._parse_rows, coeffio._split_lines

        def counted_parse(*args, **kwargs):
            calls.append("parse")
            return parse(*args, **kwargs)

        def counted_split(raw):
            calls.append("lines")
            return split(raw)

        monkeypatch.setattr(coeffio, "_parse_rows", counted_parse)
        monkeypatch.setattr(coeffio, "_split_lines", counted_split)
        assert np.array_equal(read_coeff_file(path).data, tensor.data)
        assert calls == ["parse"]
        calls.clear()
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:100] + ["  "] + text[100:]) + "\n")
        assert np.array_equal(read_coeff_file(path).data, tensor.data)
        assert calls == ["parse", "lines", "parse"]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_compression_suffix_read_as_text(self, tmp_path, suffix):
        # numpy would open these names through a decompressor.
        tensor = random_tensor(LatticeDomain((4,), (3,)), np.random.default_rng(24))
        path = tmp_path / f"t.csv{suffix}"
        write_coeff_file(path, tensor)
        assert np.array_equal(read_coeff_file(path).data, tensor.data)

    def test_odd_line_break_splits_the_row(self, tmp_path):
        # numpy alone reads this body as two good rows; str.splitlines
        # breaks the first at the form feed, which makes three.
        body = "1,0,1.0,\x0c0.0\n1,1,2.0,0.0\n"
        error = read_error(tmp_path / "ff.csv", HEADER_1D % "real" + body)
        assert error.row is None
        assert str(error) == "expected 2 coefficient rows, found 3"

    @pytest.mark.parametrize(
        "header",
        [
            "5",
            '["schema"]',
            '{"schema": 1, "d": 1, "L": [2.5], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 1, "L": ["2"], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 1, "L": [2], "N": [true], "kind": "real"}',
            '{"schema": 1, "d": 1, "L": 2, "N": [1], "kind": "real"}',
            '{"schema": true, "d": 1, "L": [2], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 1.0, "L": [2], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "quaternion"}',
            '{"schema": 1, "d": 1, "L": [0], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 2, "L": [2, 2], "N": [1], "kind": "real"}',
        ],
    )
    def test_header_rejected_on_row_1(self, tmp_path, header):
        error = read_error(tmp_path / "hdr.csv", header + "\n1,0,1.0,0.0\n1,1,2.0,0.0\n")
        assert error.row == 1

    def test_empty_file_rejected(self, tmp_path):
        error = read_error(tmp_path / "empty.csv", "")
        assert error.row is None
        assert "empty file" in str(error)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n\r"])
    def test_header_without_rows(self, tmp_path, body):
        # numpy finds no row in a body of empty lines, and warns.
        error = read_error(tmp_path / "none.csv", HEADER_1D % "real" + body)
        assert error.row is None
        assert str(error) == "expected 2 coefficient rows, found 0"

    def test_non_ascii_byte_named_by_file_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes((HEADER_1D % "real").encode() + b"1,0,1.0,0.0\n1,1,2.0,0.0\xe9\n")
        with pytest.raises(CoeffFileError) as info:
            read_coeff_file(path)
        assert info.value.row == 3
        assert "0xe9" in str(info.value)

    def test_non_ascii_byte_opening_a_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes((HEADER_1D % "real").encode() + b"1,0,1.0,0.0\r\n\xe91,1,2.0,0.0\n")
        with pytest.raises(CoeffFileError) as info:
            read_coeff_file(path)
        assert info.value.row == 3


class TestSopwTableFile:
    @pytest.mark.parametrize(
        "header",
        [
            "5",
            "not json",
            '{"kind": "real", "L": 8, "N": 4}',
            '{"kind": "sopw-table", "N": 4}',
            '{"kind": "sopw-table", "L": 8.0, "N": 4}',
            '{"kind": "sopw-table", "L": 8, "N": true}',
            '{"kind": "sopw-table", "L": "8", "N": 4}',
        ],
    )
    def test_header_rejected_on_row_1(self, tmp_path, header):
        path = tmp_path / "table.csv"
        path.write_text(header + "\n1,0,1,0.5,0.0\n")
        with pytest.raises(CoeffFileError) as info:
            read_sopw_table(path)
        assert info.value.row == 1

    def test_non_ascii_byte_named_by_file_line(self, tmp_path):
        path = tmp_path / "table.csv"
        header = '{"kind": "sopw-table", "L": 8, "N": 4, "schema": 1}\n'
        path.write_bytes(header.encode() + b"1,0,1,0.5,0.0\n1,0,-1,0.5\xe9,0.0\n")
        with pytest.raises(CoeffFileError) as info:
            read_sopw_table(path)
        assert info.value.row == 3


class TestProjectCommand:
    def test_member_passes_through(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        dom = LatticeDomain((4,), (3,))
        member = project_sso(random_tensor(dom, rng))
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        write_coeff_file(source, member)
        code, status, _ = run_cli(capsys, "project", str(source), str(target))
        assert code == 0
        assert status["is_member"]
        out = read_coeff_file(target)
        assert np.abs(out.data - member.data).max() <= 1e-12

    def test_random_input_projects(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        dom = LatticeDomain((3, 2), (2, 2))
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        write_coeff_file(source, random_tensor(dom, rng))
        code, status, _ = run_cli(capsys, "project", str(source), str(target))
        assert code == 0
        assert status["max_violation"] <= 1e-10
        assert abs(status["norm_min"] - 1.0) <= 1e-10
        assert abs(status["norm_max"] - 1.0) <= 1e-10

    def test_deflation_modes(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        dom = LatticeDomain((4,), (3,))
        mode = project_sso(random_real_tensor(dom, rng))
        mode_path = tmp_path / "mode.csv"
        write_coeff_file(mode_path, mode)
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        write_coeff_file(source, random_tensor(dom, rng))
        code, status, _ = run_cli(
            capsys, "project", str(source), str(target), "--modes", str(mode_path)
        )
        assert code == 0
        assert status["modes"] == 1
        assert status["max_violation"] <= 1e-10

    def test_too_many_modes_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        dom = LatticeDomain((4,), (2,))
        modes = []
        from shiftortho import project_sso_orth

        for _ in range(2):
            modes.append(project_sso_orth(random_real_tensor(dom, rng), modes))
        paths = []
        for index, mode in enumerate(modes):
            path = tmp_path / f"m{index}.csv"
            write_coeff_file(path, mode)
            paths.append(str(path))
        source = tmp_path / "in.csv"
        write_coeff_file(source, random_tensor(dom, rng))
        code, _, captured = run_cli(
            capsys, "project", str(source), str(tmp_path / "out.csv"),
            "--modes", *paths,
        )
        assert code == 2
        assert "modes" in captured.err

    def test_missing_input_exit_1(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, status, captured = run_cli(
            capsys, "project", str(tmp_path / "missing.csv"), str(target)
        )
        assert code == 1
        assert status is None
        assert captured.err.startswith("error: ") and "missing.csv" in captured.err
        assert not target.exists()

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        source = tmp_path / "in.csv"
        rng = np.random.default_rng(9)
        write_coeff_file(source, random_tensor(LatticeDomain((4,), (3,)), rng))
        code, status, captured = run_cli(
            capsys, "project", str(source), str(tmp_path / "no_dir" / "out.csv")
        )
        assert code == 1
        assert status is None
        assert captured.err.startswith("error: ") and "no_dir" in captured.err

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "in.csv"
        write_coeff_file(source, random_tensor(LatticeDomain((4096,), (2,)),
                                               np.random.default_rng(10)))
        calls, block_text = [], coeffio._block_text

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise MemoryError
            return block_text(*args)

        monkeypatch.setattr(coeffio, "_block_text", failing)
        outdir = tmp_path / "out"
        outdir.mkdir()
        code, status, captured = run_cli(capsys, "project", str(source), str(outdir / "o.csv"))
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert list(outdir.iterdir()) == []

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not json\n")
        code, _, _ = run_cli(capsys, "project", str(bad), str(tmp_path / "o.csv"))
        assert code == 1

    def test_non_object_header_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("5\n1,0,1.0,0.0\n")
        code, _, captured = run_cli(capsys, "project", str(bad), str(tmp_path / "o.csv"))
        assert code == 1
        assert "row 1" in captured.err

    @pytest.mark.parametrize(
        "header",
        [
            '{"schema": true, "d": 1, "L": [2], "N": [1], "kind": "real"}',
            '{"schema": 1, "d": 1.0, "L": [2], "N": [1], "kind": "real"}',
        ],
    )
    def test_boolean_or_float_header_number_exit_1(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n1,0,1.0,0.0\n1,1,2.0,0.0\n")
        code, _, captured = run_cli(capsys, "project", str(bad), str(tmp_path / "o.csv"))
        assert code == 1
        assert "row 1" in captured.err

    def test_non_ascii_byte_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes((HEADER_1D % "real").encode() + b"1,0,1.0,0.0\n1,1,2.0,0.0\xe9\n")
        code, _, captured = run_cli(capsys, "project", str(bad), str(tmp_path / "o.csv"))
        assert code == 1
        assert "row 3" in captured.err

    @pytest.mark.parametrize(
        "option", [("--eps", "-1"), ("--eps", "nan"), ("--tol", "-1"),
                   ("--tol", "nan"), ("--tol", "inf"), ("--eps", "inf")],
    )
    def test_invalid_threshold_exit_2(self, tmp_path, capsys, option):
        # A NaN or infinite eps would send every column to the fallback, and
        # a NaN or infinite tol would make every membership verdict
        # meaningless.
        rng = np.random.default_rng(8)
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        write_coeff_file(source, random_tensor(LatticeDomain((4,), (3,)), rng))
        code, status, captured = run_cli(capsys, "project", str(source), str(target),
                                         *option)
        assert code == 2
        assert status is None
        assert option[0][2:] in captured.err
        assert not target.exists()

    def test_domain_mismatch_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        source = tmp_path / "in.csv"
        mode_path = tmp_path / "m.csv"
        write_coeff_file(source, random_tensor(LatticeDomain((4,), (2,)), rng))
        write_coeff_file(
            mode_path, project_sso(random_tensor(LatticeDomain((4,), (3,)), rng))
        )
        code, _, _ = run_cli(
            capsys, "project", str(source), str(tmp_path / "o.csv"),
            "--modes", str(mode_path),
        )
        assert code == 2


class TestSopwCommand:
    def test_table_round_trip(self, tmp_path, capsys):
        table_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "sopw", "--L", "8", "--N", "4", "--table", str(table_path)
        )
        assert code == 0
        num_shifts, depth_cap, table = read_sopw_table(table_path)
        basis = SopwBasis1D(num_shifts, depth_cap)
        assert (num_shifts, depth_cap) == (8, 4)
        for k in range(1, 5):
            for j in range(8):
                assert table[(k, j)] == sopw_fourier_coeffs(k, j, basis)

    def test_plot_panels(self, tmp_path, capsys):
        plot_path = tmp_path / "fig.svg"
        code, status, _ = run_cli(
            capsys, "sopw", "--L", "8", "--N", "6", "--plot", str(plot_path),
            "--grid", "256",
        )
        assert code == 0
        body = plot_path.read_text()
        assert body.count("<polyline") == 6
        assert "nan" not in body.lower()
        # dominant oscillation frequency increases with the panel depth
        basis = SopwBasis1D(8, 6)
        from shiftortho import synthesize_grid

        dominant = []
        for k in range(1, 7):
            tensor = CoeffTensor.zeros(basis.domain)
            tensor.data[flatten(basis.domain, (k,), (4,))] = 1.0
            samples = synthesize_grid(tensor, 256, basis).real
            spectrum = np.abs(np.fft.rfft(samples))
            spectrum[0] = 0.0
            dominant.append(int(np.argmax(spectrum)))
        assert dominant == sorted(dominant)
        assert dominant[0] < dominant[-1]

    def test_odd_shift_count_exit_2(self, tmp_path, capsys):
        code, _, captured = run_cli(
            capsys, "sopw", "--L", "7", "--table", str(tmp_path / "t.csv")
        )
        assert code == 2
        assert "even" in captured.err

    @pytest.mark.parametrize("extra", [
        ("--depths", "0"),
        ("--depths", "7"),  # above the depth cap N=6
        ("--shift", "8"),  # shifts run 0..7 for L=8
        ("--shift", "-1"),
        ("--plot", "fig.svg", "--grid", "10"),  # below Nyquist for L=8, N=6
    ])
    def test_bad_argument_writes_no_table(self, tmp_path, capsys, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "sopw", "--L", "8", "--N", "6", "--table", "t.csv", *extra
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_table_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(coeffio, "format_rows", no_memory)
        code, status, captured = run_cli(
            capsys, "sopw", "--L", "8", "--N", "4", "--table", str(tmp_path / "t.csv")
        )
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_plot_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_svg_panels", no_memory)
        code, status, captured = run_cli(
            capsys, "sopw", "--L", "8", "--N", "6", "--plot", str(tmp_path / "fig.svg")
        )
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_flat_svg_panel(self):
        # A constant series gets a unit band around its value, not a zero-height axis.
        svg = cli._svg_panels([{"x": [0.0, 1.0, 2.0], "y": [1.0, 1.0, 1.0], "title": "flat"}])
        assert "nan" not in svg.lower() and "inf" not in svg.lower()
        assert "range [-0.1, 2.1]" in svg
        assert 'points="42.00,117.00 440.00,117.00 838.00,117.00"' in svg


class TestCpwCommand:
    def test_small_run_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, status, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--modes", "2",
            "--grid", "128", "--outdir", str(outdir),
        )
        assert code == 0
        assert status["all_converged"]
        assert status["max_cross_violation"] <= 1e-7
        for index in (1, 2):
            assert (outdir / f"mode{index}_samples.csv").exists()
            back = read_coeff_file(outdir / f"mode{index}_coeffs.csv")
            assert back.domain == SopwBasis1D(8, 4).domain
        assert (outdir / "modes.svg").exists()
        timing = (outdir / "timings.csv").read_text().splitlines()
        assert timing[0] == "mode,iterations,seconds"
        assert timing[-1].startswith("total,")
        assert len(timing) == 1 + 2 + 1  # header + one row per mode + total

    def test_cross_violation_equals_shift_domain_check(self, tmp_path, capsys):
        # The status value comes from the mode set's cached transform
        # columns; the written modes re-read exactly, so the pairwise
        # shift-domain checker must give the same figure bit for bit.
        outdir = tmp_path / "run"
        code, status, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--modes", "3",
            "--grid", "128", "--outdir", str(outdir),
        )
        assert code == 0
        modes = [read_coeff_file(outdir / f"mode{k}_coeffs.csv") for k in (1, 2, 3)]
        expected = max(check_shift_perpendicular(modes[a], modes[b]).max_shift_inner
                       for a in range(3) for b in range(a + 1, 3))
        assert status["max_cross_violation"] == expected

    def test_samples_csv_matches_csv_writer(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--modes", "1",
            "--grid", "128", "--outdir", str(outdir),
        )
        assert code == 0
        written = (outdir / "mode1_samples.csv").read_bytes()
        rows = written.decode("ascii").split("\r\n")[1:-1]
        psi = [float(row.split(",")[1]) for row in rows]
        x = np.arange(128) * 8.0 / 128
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["x", "psi"])
        for xv, pv in zip(x, psi):
            writer.writerow([f"{xv:.17g}", f"{pv:.17g}"])
        assert written == expected.getvalue().encode("ascii")

    def test_timings_csv_matches_csv_writer(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, status, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--modes", "2",
            "--grid", "128", "--outdir", str(outdir),
        )
        assert code == 0
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["mode", "iterations", "seconds"])
        for report in status["modes"]:
            writer.writerow([report["mode"], report["iterations"], f"{report['seconds']:.6f}"])
        writer.writerow(["total", sum(r["iterations"] for r in status["modes"]),
                         f"{sum(r['seconds'] for r in status['modes']):.6f}"])
        assert (outdir / "timings.csv").read_bytes() == expected.getvalue().encode("ascii")

    # The first CSV written is mode 1's samples, the last the timings.
    @pytest.mark.parametrize("failing, kept", [
        ("mode1_samples.csv", []),
        ("timings.csv", ["mode1_coeffs.csv", "mode1_samples.csv", "modes.svg"]),
    ])
    def test_failed_csv_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, failing, kept):
        format_rows = cli.format_rows

        def failing_for_one_file(template, table):
            if template.startswith("%s") == (failing == "timings.csv"):
                raise MemoryError
            return format_rows(template, table)

        monkeypatch.setattr(cli, "format_rows", failing_for_one_file)
        outdir = tmp_path / "run"
        code, status, captured = run_cli(
            capsys, "cpw", "--modes", "1", "--grid", "512", "--max-iter", "5",
            "--outdir", str(outdir),
        )
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert sorted(path.name for path in outdir.iterdir()) == kept

    def test_failed_plot_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_svg_panels", no_memory)
        outdir = tmp_path / "run"
        code, status, captured = run_cli(
            capsys, "cpw", "--modes", "1", "--grid", "512", "--max-iter", "5",
            "--outdir", str(outdir),
        )
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert sorted(path.name for path in outdir.iterdir()) == [
            "mode1_coeffs.csv", "mode1_samples.csv"]

    def test_non_convergence_exit_3(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, status, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--modes", "1",
            "--grid", "128", "--max-iter", "3", "--outdir", str(outdir),
        )
        assert code == 3
        assert not status["all_converged"]
        # artifacts still written
        assert (outdir / "mode1_samples.csv").exists()
        assert (outdir / "timings.csv").exists()

    @pytest.mark.parametrize("extra", [
        ("--modes", "0"),
        ("--modes", "-1"),
        ("--grid", "16"),  # below Nyquist for L=8, N=4
        ("--init", "random", "--seed", "-1"),
        ("--lambda", "inf"),
        ("--r", "inf"),
        ("--tol", "inf"),
    ])
    def test_bad_argument_creates_no_outdir(self, tmp_path, capsys, extra):
        outdir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "4", "--outdir", str(outdir), *extra
        )
        assert code == 2
        assert not outdir.exists()

    def test_infeasible_mode_count_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "2", "--modes", "3",
            "--grid", "64", "--outdir", str(tmp_path / "run"),
        )
        assert code == 2

    def test_mu_inf_matches_generator_energy(self, tmp_path, capsys):
        from util import theta_energy

        code, status, _ = run_cli(
            capsys, "cpw", "--L", "8", "--N", "8", "--mu", "inf", "--modes", "1",
            "--grid", "256", "--outdir", str(tmp_path / "run"),
        )
        assert code == 0
        reference = theta_energy(SopwBasis1D(8, 8))
        energy = status["modes"][0]["energy"]
        assert abs(energy - reference) / reference <= 1e-4

    def test_deterministic_given_seed(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for outdir in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "cpw", "--L", "8", "--N", "4", "--modes", "1",
                "--grid", "128", "--init", "random", "--seed", "9",
                "--outdir", str(outdir),
            )
            assert code == 0
        assert (out_a / "mode1_samples.csv").read_bytes() == (
            out_b / "mode1_samples.csv"
        ).read_bytes()


class TestBenchCommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code, status, captured = run_cli(
            capsys, "bench", "--min-exp", "10", "--max-exp", "12",
            "--repeats", "1", "--out", str(out),
        )
        assert code in (0, 3)  # tiny sizes are timing-noise dominated
        assert "noisy" in captured.err
        report = json.loads(out.read_text())
        assert {s["label"] for s in report["sections"]} == {
            "shift-scaling", "depth-scaling",
        }
        assert set(report) == {
            "repeats", "seed", "ratio_bound", "cpu_count", "thread_env",
            "sections", "all_ratios_ok",
        }
        for section in report["sections"]:
            assert set(section) == {
                "label", "fitted_constant", "max_doubling_ratio", "ratio_ok", "rows",
            }
            rows = section["rows"]
            sizes = [row["size"] for row in rows]
            assert sizes == sorted(sizes)
            assert all(row["repeats"] == 1 for row in rows)
            constant = section["fitted_constant"]
            for row in rows:
                assert set(row) == {
                    "size", "shifts", "depths", "median_seconds", "repeats",
                    "fitted_residual",
                }
                assert row["size"] == row["shifts"] * row["depths"]
                predicted = constant * row["size"] * np.log(row["shifts"])
                assert row["fitted_residual"] == pytest.approx(
                    row["median_seconds"] - predicted, rel=1e-12, abs=1e-15
                )
            medians = [row["median_seconds"] for row in rows]
            ratios = [b / a for a, b in zip(medians, medians[1:])]
            assert section["max_doubling_ratio"] == pytest.approx(max(ratios), rel=1e-15)
            assert section["ratio_ok"] == (
                section["max_doubling_ratio"] <= report["ratio_bound"]
            )
        assert status["sections"] == [
            {key: section[key]
             for key in ("label", "max_doubling_ratio", "fitted_constant")}
            for section in report["sections"]
        ]
        assert report["all_ratios_ok"] == status["all_ratios_ok"] == all(
            section["ratio_ok"] for section in report["sections"]
        )


    @pytest.mark.parametrize("argv", [
        ("--repeats", "0"),
        ("--repeats", "-1"),
        ("--min-exp", "12", "--max-exp", "11"),
        ("--min-exp", "6", "--max-exp", "8"),  # 2^6 does not exceed the fixed 64 shifts
        ("--min-exp", "-1", "--max-exp", "8"),  # rejected before any 1 << min_exp
    ])
    def test_bad_argument_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("bench built a tensor for a rejected argument")

        monkeypatch.setattr(cli, "random_tensor", no_work)
        out = tmp_path / "bench.json"
        code, status, captured = run_cli(
            capsys, "bench", "--min-exp", "10", "--max-exp", "11", "--out", str(out), *argv
        )
        assert code == 2
        assert status is None
        assert captured.err.startswith("error: ")
        assert "noisy" not in captured.err
        assert not out.exists()
        if argv[0] == "--min-exp" and int(argv[1]) < 7:
            assert captured.err == (
                "error: min_exp must be at least 7: 2**min_exp must exceed "
                "the fixed 16 depths and 64 shifts\n"
            )

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        code, status, captured = run_cli(
            capsys, "bench", "--min-exp", "10", "--max-exp", "11", "--repeats", "1",
            "--out", str(tmp_path / "no_dir" / "b.json"),
        )
        assert code == 1
        assert status is None
        assert "error: " in captured.err and "no_dir" in captured.err

    @pytest.mark.parametrize("out", ["no_dir/b.json", "."])
    def test_unwritable_out_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch, out):
        def no_work(*args, **kwargs):
            raise AssertionError("bench started a sweep with an unwritable --out")

        monkeypatch.setattr(cli, "random_tensor", no_work)
        code, status, captured = run_cli(
            capsys, "bench", "--min-exp", "10", "--max-exp", "11", "--out", str(tmp_path / out)
        )
        assert code == 1
        assert status is None
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_sweep_removes_out_file(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_bench", no_memory)
        code, status, captured = run_cli(
            capsys, "bench", "--min-exp", "10", "--max-exp", "11", "--out", str(tmp_path / "b.json")
        )
        assert code == 2
        assert status is None
        assert captured.err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []

    def test_collector_state_restored(self):
        enabled = gc.isenabled()
        try:
            for state in (False, True):
                (gc.enable if state else gc.disable)()
                cli.run_bench(10, 10, 1)
                assert gc.isenabled() == state
        finally:
            (gc.enable if enabled else gc.disable)()


class TestCertifyCommand:
    def test_pass(self, capsys):
        code, status, _ = run_cli(capsys, "certify", "--L", "4")
        assert code == 0
        assert status["all_passed"]

    def test_odd_shift_count(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--L", "5")
        assert code == 2

    @pytest.mark.parametrize("depth_cap", ["0", "-1"])
    def test_depth_cap_below_one_exit_2(self, capsys, depth_cap):
        code, _, captured = run_cli(capsys, "certify", "--L", "4", "--N", depth_cap)
        assert code == 2
        assert "depth cap" in captured.err


class TestUsage:
    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_exit_1(self, capsys):
        assert main(["sopw"]) == 1

    # A size too large for the machine (bench --min-exp 40, a 10^13-point
    # grid) fails to allocate; each stand-in raises that MemoryError without
    # allocating.
    @pytest.mark.parametrize("name, argv, message", [
        ("random_tensor", ("bench", "--min-exp", "10", "--max-exp", "11"), ""),
        ("_abscissae", ("sopw", "--L", "8", "--N", "4", "--grid", "64", "--plot", "fig.svg",
                        "--table", "t.csv"),
         "Unable to allocate 72.8 TiB"),
        ("_abscissae", ("cpw", "--L", "8", "--N", "4", "--outdir", "run"),
         "Unable to allocate 72.8 TiB"),
    ], ids=["bench", "sopw", "cpw"])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, name, argv, message):
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, no_memory)
        monkeypatch.chdir(tmp_path)
        code, status, captured = run_cli(capsys, *argv)
        assert code == 2
        assert status is None
        detail = f": {message}" if message else ""
        assert captured.err == f"error: out of memory{detail}\n"
        assert list(tmp_path.iterdir()) == []

    def test_version_matches_pyproject(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        # The [project] table runs up to the next table header.
        project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
        version = re.search(r'^version\s*=\s*"([^"]+)"$', project, re.M).group(1)
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"{version}\n"

    def test_module_entrypoint(self, tmp_path):
        # ``python -m shiftortho`` runs __main__.py and cli.entrypoint() in a
        # fresh process on this checkout's sources.
        path = os.pathsep.join(filter(None, [TestStartUp.SRC, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "shiftortho", "certify", "--L", "4"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        [line] = result.stdout.splitlines()
        status = json.loads(line)
        assert status["command"] == "certify"
        assert status["num_shifts"] == 4
        assert status["all_passed"] is True


class TestStartUp:
    """Every invocation pays for importing the CLI, so it must not pull in scipy."""

    SRC = str(Path(cli.__file__).resolve().parents[1])
    PROJECT = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from shiftortho import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['project', sys.argv[2], sys.argv[3]])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "sys.exit(code)\n"
    )

    def test_project_in_fresh_process_imports_no_scipy(self, tmp_path):
        tiny_in, tiny_out = tmp_path / "in.csv", tmp_path / "out.csv"
        dom = LatticeDomain((4,), (2,))
        write_coeff_file(tiny_in, random_tensor(dom, np.random.default_rng(3)))
        result = subprocess.run(
            [sys.executable, "-c", self.PROJECT, self.SRC, str(tiny_in), str(tiny_out)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        assert read_coeff_file(tiny_out).domain == dom

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_project_reads_a_pipe(self, tmp_path):
        # The pipe is drained by the first read: numpy must not open the name again.
        source, target = tmp_path / "in.csv", tmp_path / "out.csv"
        tensor = random_tensor(LatticeDomain((4,), (2,)), np.random.default_rng(4))
        write_coeff_file(source, tensor)
        result = subprocess.run(
            [sys.executable, "-c", self.PROJECT, self.SRC, "/dev/stdin", str(target)],
            input=source.read_text(), capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert np.array_equal(read_coeff_file(target).data, project_sso(tensor).data)

    def test_module_help_imports_no_scipy(self):
        path = os.pathsep.join(filter(None, [self.SRC, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "shiftortho", "--help"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: shiftortho")
        imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "shiftortho.cli" in imported
        assert [name for name in imported if name.split(".")[0] == "scipy"] == []

    def test_import_fills_no_writer_table_and_loads_no_statistics(self):
        # The writer's tables fill on first use, and the bench's medians come
        # from numpy: neither may cost an invocation that does not need it.
        script = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import shiftortho.cli\n"
            "from shiftortho import coeffio\n"
            "print(json.dumps([coeffio._TEN_KNOWN.nonzero()[0].tolist(),\n"
            "                  coeffio._TEMPLATE_KNOWN.nonzero()[0].tolist(),\n"
            "                  sorted(name for name in sys.modules\n"
            "                         if name.split('.')[0] in ('scipy', 'statistics'))]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script, self.SRC],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        powers, templates, modules = json.loads(result.stdout)
        assert powers == [] and modules == []
        assert templates == [coeffio._ZERO_CODE, coeffio._ZERO_CODE + 1]


class TestWithoutScipy:
    """The library and the CLI run in a process where scipy cannot be imported."""

    RUN = (
        "import contextlib, io, sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "import shiftortho as so\n"
        "from shiftortho import cli\n"
        "rng = np.random.default_rng(0)\n"
        "domain = so.LatticeDomain((8,), (3,))\n"
        "mode = so.project_sso(so.random_tensor(domain, rng))\n"
        "out = so.project_sso_orth(so.random_tensor(domain, rng), so.ModeSpan(domain, [mode]))\n"
        "if not so.is_shift_orthogonal(out).is_member:\n"
        "    sys.exit('deflated projection is not shift orthogonal')\n"
        "so.solve_cpw_mode(None, so.CpwConfig(max_iter=3, grid_size=64), so.SopwBasis1D(4, 2))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['certify', '--L', '4'])\n"
        "sys.exit(code)\n"
    )

    def test_library_and_cli_run_with_scipy_blocked(self):
        result = subprocess.run(
            [sys.executable, "-c", self.RUN, TestStartUp.SRC],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
