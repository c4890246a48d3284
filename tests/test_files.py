"""The shared curve/pulse table reader: bulk path, row parser and messages."""

import csv
import hashlib

import numpy as np
import pytest

import curvepulse as cp
from curvepulse import _files
from curvepulse._files import parse_rows, read_table
from curvepulse.errors import InputError
from curvepulse.synthesis import read_pulse_file

from conftest import stadium_rows

# header, column count and minimum row count of each CSV kind
KINDS = {
    "pulse": ("t,omega_x,omega_y", 3, 2),
    "curve": ("t,x,y,z", 4, 8),
}
SPECS = {"pulse": "t,omega_x,omega_y[,detuning]", "curve": "t,x,y,z"}


def _rows(ncol, n=10):
    return [",".join([f"{0.1 * i:.17g}"] + [f"{np.sin(i + j):.17g}" for j in range(1, ncol)])
            for i in range(n)]


def _load(kind, path):
    """Values the public loader hands on: pulse columns, or the resampled curve."""
    if kind == "pulse":
        t, wx, wy, det, _ = read_pulse_file(path)
        return np.column_stack([t, wx, wy])
    return cp.load_curve(path, n_samples=64).points


def _row_parser(path, min_rows):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        ncol = len(next(reader))
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    return parse_rows(rows, str(path), ncol, min_rows)


def _bulk_only(monkeypatch, path, spec, min_rows):
    """read_table with the row parser disabled, so the bulk path must accept."""

    def refuse(*args):
        raise AssertionError("bulk path rejected the input")

    with monkeypatch.context() as m:
        m.setattr(_files, "parse_rows", refuse)
        return read_table(path, spec, min_rows, None).data


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _edit(lines, case):
    """Apply one table case to the file's lines (lines[i] is line i + 1)."""
    body = list(lines)
    if case == "ragged":
        body[2] = body[2].rsplit(",", 1)[0]
    elif case == "non_numeric":
        body[3] = "abc" + body[3][body[3].index(","):]
    elif case == "nan":
        body[1] = body[1].rsplit(",", 1)[0] + ",nan"
    elif case == "inf":
        body[1] = body[1].rsplit(",", 1)[0] + ",-inf"
    elif case == "non_increasing":
        body[2] = body[1].split(",", 1)[0] + "," + body[2].split(",", 1)[1]
    elif case == "comment":
        body.insert(2, "# comment")
    elif case == "whitespace_line":
        body.insert(2, "   ")
    elif case == "blank_then_bad":
        body.insert(1, "")
        body[4] = "abc" + body[4][body[4].index(","):]
    return "\n".join(body) + "\n"


# case -> expected message after "<path>: ", in the words of the row parser
REJECT = {
    "ragged": "line 3: expected {k} columns, got {km1}",
    "non_numeric": "line 4: could not convert string to float: 'abc'",
    "nan": "line 2: non-finite value",
    "inf": "line 2: non-finite value",
    "non_increasing": "line 3: t must be strictly increasing",
    "comment": "line 3: expected {k} columns, got 1",
    "whitespace_line": "line 3: expected {k} columns, got 1",
    "blank_then_bad": "line 5: could not convert string to float: 'abc'",
}


@pytest.mark.parametrize("kind", KINDS)
class TestReaderTable:
    @pytest.mark.parametrize("case", REJECT)
    def test_rejected_with_line_number(self, tmp_path, kind, case):
        header, k, _ = KINDS[kind]
        path = tmp_path / f"{case}.csv"
        path.write_text(_edit([header] + _rows(k), case))
        with pytest.raises(InputError) as err:
            _load(kind, path)
        assert str(err.value) == f"{path}: " + REJECT[case].format(k=k, km1=k - 1)

    def test_header_only(self, tmp_path, kind):
        header, _, min_rows = KINDS[kind]
        path = tmp_path / "empty_body.csv"
        path.write_text(header + "\n")
        with pytest.raises(InputError) as err:
            _load(kind, path)
        assert str(err.value) == f"{path}: need at least {min_rows} samples, got 0"

    def test_not_utf8(self, tmp_path, kind):
        header, k, _ = KINDS[kind]
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join([header] + _rows(k)) + "\n").encode() + b"0.9\xb5,1\n")
        with pytest.raises(InputError, match="not UTF-8 text"):
            _load(kind, path)

    @pytest.mark.parametrize(
        "case", ["blank_lines", "crlf", "no_final_newline", "quoted", "underscore", "spaces"]
    )
    def test_accepted_with_same_values(self, tmp_path, kind, case):
        header, k, _ = KINDS[kind]
        rows = _rows(k)
        base = tmp_path / "base.csv"
        base.write_text("\n".join([header] + rows) + "\n")
        if case == "blank_lines":
            text = "\n".join([header, ""] + rows[:3] + ["", ""] + rows[3:]) + "\n\n"
        elif case == "crlf":
            text = "\r\n".join([header] + rows) + "\r\n"
        elif case == "no_final_newline":
            text = "\n".join([header] + rows)
        elif case == "quoted":
            text = "\n".join([header] + [",".join(f'"{c}"' for c in r.split(",")) for r in rows])
        elif case == "underscore":
            rows = [f"{1000 * i}," + r.split(",", 1)[1] for i, r in enumerate(rows)]
            base.write_text("\n".join([header] + rows) + "\n")
            text = "\n".join([header] + [f"{i}_000," + r.split(",", 1)[1]
                                         for i, r in enumerate(rows)]) + "\n"
        else:
            text = "\n".join([header] + [" " + r.replace(",", " , ") for r in rows]) + "\n"
        path = tmp_path / f"{case}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert np.array_equal(_bits(_load(kind, path)), _bits(_load(kind, base)))

    def test_random_values_bit_identical(self, tmp_path, monkeypatch, kind):
        header, k, min_rows = KINDS[kind]
        rng = np.random.default_rng(11)
        n = 500
        t = np.cumsum(rng.uniform(1e-3, 1.0, n))
        vals = rng.normal(size=(n, k - 1)) * 10.0 ** rng.uniform(-300, 300, (n, k - 1))
        vals[:4, 0] = [-0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]
        path = tmp_path / "random.csv"
        _files.write_csv(path, header, [t, vals])
        bulk = _bulk_only(monkeypatch, path, SPECS[kind], min_rows)
        assert np.array_equal(_bits(bulk), _bits(_row_parser(path, min_rows)))


class TestBenchmarkInputs:
    """The kinds of file the benchmark feeds the CLI read bit-identically."""

    def _check(self, monkeypatch, path, kind):
        min_rows = KINDS[kind][2]
        bulk = _bulk_only(monkeypatch, path, SPECS[kind], min_rows)
        assert np.array_equal(_bits(bulk), _bits(_row_parser(path, min_rows))), path

    def test_pulse_files(self, tmp_path, monkeypatch, builtin_pulses):
        pulses = dict(builtin_pulses)
        pulses["clifford_fig1-lab"] = cp.transform_to_lab_frame(
            builtin_pulses["clifford_fig1"]
        ).to_waveform()
        for seed, n in ((3, 2048), (4, 16384)):
            pulses[f"synthetic-{n}"] = cp.synthetic_smooth_pulse(seed, n_samples=n)
        for name, pulse in pulses.items():
            path = tmp_path / f"{name}.csv"
            cp.save_pulse_csv(pulse, path)
            self._check(monkeypatch, path, "pulse")

    def test_curve_files(self, tmp_path, monkeypatch):
        for seed in range(3):
            path = tmp_path / f"fourier-{seed}.csv"
            cp.save_curve_csv(cp.random_fourier_loop(seed, n_samples=2048), path)
            self._check(monkeypatch, path, "curve")
        path = tmp_path / "stadium.csv"
        stadium = stadium_rows()
        np.savetxt(path, np.column_stack([stadium.t, stadium.points]), fmt="%.17g",
                   delimiter=",", header="t,x,y,z", comments="")
        self._check(monkeypatch, path, "curve")


    def test_accepted_csv_is_not_set_up_for_the_row_parser(self, tmp_path, monkeypatch):
        # the row parser's pass over the text (a second csv.reader over a
        # second StringIO) is built only for input the bulk path rejects
        readers = []
        inner = csv.reader

        def counting(*args, **kwargs):
            readers.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(_files.csv, "reader", counting)
        path = tmp_path / "pulse.csv"
        cp.save_pulse_csv(cp.synthetic_smooth_pulse(3, n_samples=512), path)
        read_table(path, SPECS["pulse"], 2, None)
        assert len(readers) == 1  # the header
        path.write_text(path.read_text().replace("\n0,", '\n"0",', 1))
        read_table(path, SPECS["pulse"], 2, None)
        assert len(readers) == 3  # the header, then the row parser


class TestDigest:
    def test_digest_is_of_parsed_bytes(self, tmp_path, builtin_pulses):
        path = tmp_path / "pulse.json"
        cp.save_pulse_json(builtin_pulses["circle"], path)
        *_, meta = read_pulse_file(path)
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
