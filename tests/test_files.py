"""The shared curve/pulse table reader (bulk path, row parser and messages),
the %.17g table writer and the JSON writer."""

import csv
import hashlib
import json
import tracemalloc
from decimal import Decimal
from fractions import Fraction

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
        # the row parser's pass over the text (a second csv.reader, over
        # the lines the header's reader left) is built only for input the
        # bulk path rejects
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


def _percent_g(values, ncol):
    """The oracle: "%.17g" % v for every value, ncol to a row."""
    row = ",".join(["%.17g"] * ncol) + "\n"
    return (row * (values.size // ncol) % tuple(values.tolist())).encode()


def _written(tmp_path, values, ncol):
    """The bytes write_csv gives for values, ncol to a row, without the header."""
    path = tmp_path / "values.csv"
    _files.write_csv(path, "h", [values.reshape(-1, ncol)])
    return path.read_bytes()[len(b"h\n"):]


def _is_tie(v):
    """Whether v is an exact tie at the 17th significant digit: 18 significant digits ending in 5."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def _ties(rng, n):
    """n exact ties.

    No float from 1e17 up is one (the power of two dividing such an integer
    is below its ulp), so they are 16-digit integers plus a quarter, and
    2**-25 and 3 * 2**-25.
    """
    whole = rng.integers(10**15, 225 * 10**13, n - 2).astype(np.float64)
    ties = np.concatenate([whole + rng.choice([0.25, 0.75], n - 2), [2.0**-25, 3 * 2.0**-25]])
    ties *= rng.choice([-1.0, 1.0], n)
    assert all(map(_is_tie, ties.tolist()))
    return ties


class TestCsvFormatter:
    """write_csv's vectorized %.17g gives the bytes of one % format per value."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20)
        for ncol in (4, 3, 2, 1, 4):  # 5 x 2**18 patterns, the finite ones
            v = rng.integers(0, 2**64, 2**18, dtype=np.uint64).view(np.float64)
            v = v[np.isfinite(v)]
            v = v[: v.size // ncol * ncol]
            assert _written(tmp_path, v, ncol) == _percent_g(v, ncol)

    def test_log_uniform_magnitudes(self, tmp_path):
        rng = np.random.default_rng(21)
        v = rng.choice([-1.0, 1.0], 2**18) * 10.0 ** rng.uniform(-320.0, 308.25, 2**18)
        assert _written(tmp_path, v, 4) == _percent_g(v, 4)

    def test_edge_values(self, tmp_path):
        edges = [
            0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e-5, 9.9999999999999999e-5, 1e-4, 1e16, 1e17, 99999999999999990.0,
            1e-290, 1e290, 0.1, 0.5, 1.0, 123.0, 1e22, 1e23,
        ]
        # every power of ten a double holds, and the doubles either side
        powers = [float(f"1e{e}") for e in range(-323, 309)]
        v = np.array(edges + powers)
        with np.errstate(over="ignore"):  # above the largest double is inf
            v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
        v = np.concatenate([v, -v, _ties(np.random.default_rng(22), 64), [np.nan]])
        assert _written(tmp_path, v, 1) == _percent_g(v, 1)
        path = tmp_path / "empty.csv"
        _files.write_csv(path, "t,x", [np.empty(0), np.empty(0)])
        assert path.read_bytes() == b"t,x\n"

    def test_scaled_product_error_is_inside_the_bound(self):
        # A + r against |x| * 10**(16 - E) in exact rational arithmetic, where
        # that lies in [10**16, 10**17); the decision bound leaves 8x margin
        rng = np.random.default_rng(25)
        x = 10.0 ** rng.uniform(-290.0, 290.0, 20000)
        exponent = np.floor(np.log10(x)).astype(np.int64)
        a, r = _files._scaled(x, exponent)
        keep = (a >= 10**16) & (a < 10**17)
        assert keep.mean() > 0.99
        worst = max(
            abs(ai + Fraction(ri) - Fraction(xi) * Fraction(10) ** (16 - ei))
            for xi, ei, ai, ri in zip(
                x[keep].tolist(), exponent[keep].tolist(), a[keep].tolist(), r[keep].tolist()
            )
        )
        assert worst < 2.0**-47 <= _files._BOUND / 8

    def test_undecided_values_take_the_exact_step(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        ties = _ties(rng, 64)
        outside = np.array(
            [5e-324, -2.5e-310, 1e-291, 1.7976931348623157e308, -3e290, np.inf, -np.inf, np.nan]
        )
        ordinary = rng.normal(size=1000) * 10.0 ** rng.integers(-280, 280, 1000)
        ordinary = ordinary[[not _is_tie(v) for v in ordinary.tolist()]]  # a few are
        ordinary = ordinary[: ordinary.size // 2 * 2]
        values = rng.permutation(np.concatenate([ties, outside, ordinary, [0.0, -0.0]]))
        seen = []
        exact = _files._exact_g17

        def recording(v):
            seen.append(v)
            return exact(v)

        monkeypatch.setattr(_files, "_exact_g17", recording)
        assert _written(tmp_path, values, 2) == _percent_g(values, 2)
        assert sorted(map(repr, seen)) == sorted(map(repr, np.concatenate([ties, outside]).tolist()))

    @pytest.mark.parametrize("rows", [1, 16, _files._SMALL // 2, _files._SMALL // 2 + 1, 400])
    def test_small_tables_take_the_exact_step_wholesale(self, tmp_path, monkeypatch, rows):
        # at most _SMALL values: one % over the table; above it: the kernel
        rng = np.random.default_rng(26)
        v = rng.normal(size=2 * rows) * 10.0 ** rng.integers(-8, 8, 2 * rows)
        calls = []
        kernel = _files._format_g17
        monkeypatch.setattr(_files, "_format_g17", lambda *args: calls.append(1) or kernel(*args))
        assert _written(tmp_path, v, 2) == _percent_g(v, 2)
        assert bool(calls) == (v.size > _files._SMALL)

    def test_allocates_less_than_one_format_call(self, tmp_path):
        # the writer this one replaced: one % over a tuple of every value
        rng = np.random.default_rng(24)
        cols = [np.linspace(0.0, 1.0, 16384), rng.normal(size=(16384, 3))]
        data = np.column_stack(cols)
        text = "t,a,b,c\n" + "%.17g,%.17g,%.17g,%.17g\n" * 16384

        def peak(write):
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_format = peak(lambda: _files.write_text(
            tmp_path / "old.csv", text % tuple(data.ravel().tolist())))
        blocked = peak(lambda: _files.write_csv(tmp_path / "new.csv", "t,a,b,c", cols))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert blocked < 0.6 * one_format  # about 1.7 MiB against 4.3 MiB


def _json_written(tmp_path, values):
    """The bytes write_json gives for {"v": values}."""
    path = tmp_path / "values.json"
    _files.write_json(path, {"v": values})
    return path.read_bytes()


def _g17_list(values):
    """The oracle of an array: a JSON list of "%.17g" % v, the text of a CSV."""
    return "[" + ", ".join("%.17g" % v for v in values.tolist()) + "]"


def _g17_json(values):
    """The oracle of {"v": values}."""
    return ('{"v": ' + _g17_list(values) + "}\n").encode()


def _assert_reads_back(text, values):
    """json.loads gives every value back bit for bit, and -0.0 as +0.0."""
    back = np.array(json.loads(text)["v"], dtype=np.float64).reshape(values.shape)
    negative_zero = (values == 0) & np.signbit(values)
    assert (_bits(back) == np.where(negative_zero, 0, _bits(values))).all()


def _pulse_json(pulse):
    """save_pulse_json's bytes: json.dumps's, with every column as "%.17g" text."""
    payload = {
        "t": pulse.t,
        "omega": pulse.omega,
        "phi": pulse.phi,
        "detuning": pulse.detuning,
        "metadata": pulse.metadata,
    }
    items = [
        json.dumps(key) + ": " + (
            _g17_list(value) if isinstance(value, np.ndarray) else json.dumps(value, sort_keys=True)
        )
        for key, value in sorted(payload.items())
    ]
    return ("{" + ", ".join(items) + "}\n").encode()


class TestJsonFormatter:
    """write_json writes each float array as the %.17g text of a CSV, which
    json.loads reads back to the same bits (-0.0 aside)."""

    def _check(self, tmp_path, values):
        text = _json_written(tmp_path, values)
        assert text == _g17_json(values)
        _assert_reads_back(text, values)

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(30)
        for _ in range(5):  # 5 x 2**18 patterns, the finite ones
            v = rng.integers(0, 2**64, 2**18, dtype=np.uint64).view(np.float64)
            self._check(tmp_path, v[np.isfinite(v)])

    def test_log_uniform_magnitudes(self, tmp_path):
        rng = np.random.default_rng(31)
        v = rng.choice([-1.0, 1.0], 2**18) * 10.0 ** rng.uniform(-320.0, 308.25, 2**18)
        self._check(tmp_path, v)

    def test_edge_values(self, tmp_path):
        rng = np.random.default_rng(32)
        edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4,
                 0.1, 0.2, 0.3, 2 / 3, 1 / 3, 0.5, 1.0, 123.0, 1e15, 1e16, 1e17, 1e22, 1e23]
        # every power of two and of ten that a double holds
        powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                                 [float(f"1e{e}") for e in range(-323, 309)]])
        v = np.concatenate([edges, powers])
        with np.errstate(over="ignore"):  # above the largest double is inf
            v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
        integral = np.concatenate([np.arange(-3000.0, 3000.0), 2.0**53 + np.arange(-8.0, 9.0),
                                   np.floor(10.0 ** rng.uniform(0.0, 17.0, 4096))])
        e16 = rng.uniform(1e16, 1e17, 4096)
        subnormal = rng.integers(1, 2**52, 4096).view(np.float64)
        short = rng.integers(1, 10**6, 4096) * 10.0 ** rng.integers(-12, 12, 4096)
        v = np.concatenate([v, integral, e16, np.floor(e16), subnormal, short,
                            _ties(rng, 64)])
        v = np.concatenate([v, -v])
        self._check(tmp_path, v[np.isfinite(v)])

    def test_what_takes_the_exact_step(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(33)
        # as in a CSV: ties and values outside the table take it
        exact = np.concatenate([_ties(rng, 16), [5e-324, -2.5e-310, 1e-291,
                                                 1.7976931348623157e308, -3e290]])
        # integers from 2**52 to 1e17 do not
        laid_out = [2.0**53, 1e16, -2.5e16, 99999999999999984.0,
                    0.0, -0.0, 1.0, -123.0, 4096.0, 1e15, 0.5, 1e-5]
        ordinary = rng.uniform(1.1, 9.9, 1000) * 10.0 ** rng.integers(-280, 280, 1000)
        ordinary = ordinary[[not _is_tie(v) for v in ordinary.tolist()]]
        values = rng.permutation(np.concatenate([exact, laid_out, ordinary]))
        seen = []
        exact_g17 = _files._exact_g17

        def recording(v):
            seen.append(v)
            return exact_g17(v)

        monkeypatch.setattr(_files, "_exact_g17", recording)
        assert _json_written(tmp_path, values) == _g17_json(values)
        assert sorted(map(repr, seen)) == sorted(map(repr, exact.tolist()))

    @pytest.mark.parametrize("size", [0, 1, 2, _files._BLOCK_VALUES, _files._BLOCK_VALUES + 1, 9000])
    def test_sizes(self, tmp_path, size):
        # empty, one value, and either side of a block's end
        self._check(tmp_path, np.random.default_rng(34).normal(size=size))

    def test_pulse_json_bytes(self, tmp_path, builtin_pulses):
        lab = cp.transform_to_lab_frame(builtin_pulses["clifford_fig1"]).to_waveform()
        nested = cp.PulseWaveform(lab.t, lab.omega, lab.phi, detuning=lab.detuning, metadata={
            "frame": "lab",
            "source": {"b": [1, 2.5, None, 1e16], "a": {"z": -0.0, "y": "\u00e9"}},
        })
        pulses = {**builtin_pulses, "lab-nested": nested}
        assert len(pulses) == 6
        for name, pulse in pulses.items():
            path = tmp_path / f"{name}.json"
            digest = cp.save_pulse_json(pulse, path)
            assert path.read_bytes() == _pulse_json(pulse), name
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
            payload = json.loads(path.read_bytes())
            for key in ("t", "omega", "phi", "detuning"):
                column = getattr(pulse, key)
                if column is not None:
                    assert (_bits(np.array(payload[key], dtype=np.float64)) == _bits(column)).all()

    def test_negative_zero_reads_back_as_zero(self, tmp_path):
        # the one value that does not round-trip bit for bit: an imported
        # pulse whose first sample has omega_y = -0.0 has phi[0] = -0.0,
        # written -0, which json.loads reads as the integer 0
        t = np.linspace(0.0, 1.0, 16)
        wy = np.sin(np.pi * t)
        wy[0] = -0.0
        source = tmp_path / "drive.csv"
        _files.write_csv(source, "t,omega_x,omega_y", [t, np.full(16, 2.0), wy])
        pulse = cp.import_external_pulse(source)
        assert np.signbit(pulse.phi[0])
        path = tmp_path / "pulse.json"
        cp.save_pulse_json(pulse, path)
        assert b'"phi": [-0, ' in path.read_bytes()
        t_back, _, wy_back, _, _ = read_pulse_file(path)
        assert wy_back[0] == 0.0 and not np.signbit(wy_back[0])
        back = np.array(json.loads(path.read_bytes())["phi"], dtype=np.float64)
        assert back[0] == 0.0 and not np.signbit(back[0])
        assert (_bits(back[1:]) == _bits(pulse.phi[1:])).all()
        assert (_bits(t_back) == _bits(pulse.t)).all()

    def test_other_payloads_unchanged(self, tmp_path):
        v = np.linspace(0.0, 1.0, 1000)
        for payload, indent in [({}, None), ({"b": 1, "a": [0.5]}, None),
                                ({"v": v.tolist(), "w": {"y": 1, "x": 2}}, 2)]:
            path = tmp_path / "other.json"
            _files.write_json(path, payload, indent=indent)
            want = json.dumps(payload, sort_keys=True, indent=indent) + "\n"
            assert path.read_bytes() == want.encode()
