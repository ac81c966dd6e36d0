import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftortho import (
    CoeffTensor,
    LatticeDomain,
    SopwBasis1D,
    check_shift_perpendicular,
    flatten,
    project_sso,
    random_tensor,
    sopw_fourier_coeffs,
)
from shiftortho import cli
from shiftortho.cli import main
from shiftortho.coeffio import CoeffFileError, read_coeff_file, write_coeff_file
from util import random_real_tensor, read_sopw_table, row_by_row_coeff_text, small_domains

HEADER_1D = '{"schema": 1, "d": 1, "L": [2], "N": [1], "kind": "%s"}\n'
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308)


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
        rng = np.random.default_rng(1)
        tensor = random_tensor(LatticeDomain((3,), (4,)), rng)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_coeff_file(first, tensor)
        write_coeff_file(second, read_coeff_file(first))
        assert first.read_bytes() == second.read_bytes()

    def test_real_kind_detection(self, tmp_path):
        rng = np.random.default_rng(2)
        tensor = random_real_tensor(LatticeDomain((4,), (2,)), rng)
        path = tmp_path / "r.csv"
        write_coeff_file(path, tensor)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "real"

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
    @settings(max_examples=40, deadline=None)
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
        ],
    )
    def test_header_rejected_on_row_1(self, tmp_path, header):
        error = read_error(tmp_path / "hdr.csv", header + "\n1,0,1.0,0.0\n1,1,2.0,0.0\n")
        assert error.row == 1

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
                   ("--tol", "nan"), ("--tol", "inf")],
    )
    def test_invalid_threshold_exit_2(self, tmp_path, capsys, option):
        # A NaN eps would send every column to the fallback and a NaN or
        # infinite tol would make every membership verdict meaningless.
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
        for section in report["sections"]:
            sizes = [row["size"] for row in section["rows"]]
            assert sizes == sorted(sizes)
            assert all(row["repeats"] == 1 for row in section["rows"])


class TestCertifyCommand:
    def test_pass(self, capsys):
        code, status, _ = run_cli(capsys, "certify", "--L", "4")
        assert code == 0
        assert status["all_passed"]

    def test_odd_shift_count(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--L", "5")
        assert code == 2


class TestUsage:
    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_exit_1(self, capsys):
        assert main(["sopw"]) == 1

    def test_module_entrypoint(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "shiftortho", "certify", "--L", "4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout.splitlines()[-1])["all_passed"]


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
