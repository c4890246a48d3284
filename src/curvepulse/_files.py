"""Reading and writing tables.  Every file the package writes is opened here,
and every curve or pulse file it reads is parsed here."""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
from typing import NamedTuple

import numpy as np

from .errors import InputError


def _write_chunks(path, chunks):
    """Write byte chunks over the old bytes of path; return their sha256.

    Opening with mode "w" truncates the file first; ext4 then flushes the old
    contents on close and frees their blocks, so rewriting an output
    directory waits on the disk.  Writing over the old pages and trimming
    whatever lies past the new end does not.  The digest is of the bytes
    written, so no caller has to read the file back to hash it.
    """
    digest = hashlib.sha256()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.truncate()
    return digest.hexdigest()


def write_text(path, text):
    """Write text as UTF-8 over the old bytes of path; return their sha256."""
    return _write_chunks(path, [text.encode("utf-8")])


def write_json(path, payload, indent=None):
    """json.dumps(payload, sort_keys=True, indent=indent) plus a newline; returns the sha256.

    Without an indent the payload is a dict with str keys, written a value
    at a time.  A 1-D float64 ndarray value is written as a list of
    ``"%.17g" % v`` for each value, separated by ", ", the text write_csv
    gives the same value; so it must be finite (nan would be written as
    nan, which is not JSON).  Every float reads back to the same bits
    except -0.0, written -0, which json.loads reads as the integer 0.
    Every other value, and every payload with an indent, goes to json.dumps
    with sorted keys (without an indent json.dumps takes the C encoder;
    json.dump never does).
    """
    if indent is not None:
        return write_text(path, json.dumps(payload, sort_keys=True, indent=indent) + "\n")

    def chunks():
        yield b"{"
        for i, key in enumerate(sorted(payload)):
            yield (b", " if i else b"") + json.dumps(key).encode("utf-8") + b": "
            value = payload[key]
            if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
                yield b"["
                yield from _text_blocks(value[:, None], [_SEP_JSON], _SEP_NONE)
                yield b"]"
            else:
                yield json.dumps(value, sort_keys=True).encode("utf-8")
        yield b"}\n"

    return _write_chunks(path, chunks())


def write_csv(path, header, columns):
    """CSV of equal-length columns under a one-line header, values as %.17g.

    The bytes are exactly those of np.savetxt with fmt="%.17g",
    delimiter="," and comments="", that is of ``"%.17g" % v`` for every
    value.  A table of more than _SMALL values is formatted by
    _format_g17, a block of rows at a time, and each block is hashed and
    written as soon as it is formatted; a smaller one takes the exact step
    wholesale, one % over all of its values.  Returns the sha256 of the
    bytes written.
    """
    data = np.column_stack(columns).astype(np.float64, copy=False)
    rows, ncol = data.shape
    head = (header + "\n").encode("utf-8")
    if data.size <= _SMALL:
        row = b",".join([b"%.17g"] * ncol) + b"\n"
        return _write_chunks(path, [head, row * rows % tuple(data.ravel().tolist())])
    seps = [_SEP_COMMA] * (ncol - 1) + [_SEP_NEWLINE]
    return _write_chunks(path, itertools.chain([head], _text_blocks(data, seps)))


def _text_blocks(data, seps, final=None):
    """The text of a 2-D array by _format_g17, whole rows of about
    _BLOCK_VALUES values at a time.

    seps gives the separator of each column, and final (if given) that of
    the array's last value.
    """
    rows, ncol = data.shape
    step = max(1, _BLOCK_VALUES // ncol)
    sep = np.tile(np.array(seps, np.intp), min(rows, step))
    for start in range(0, rows, step):
        block = data[start:start + step].ravel()
        block_sep = sep[: block.size]
        if final is not None and start + step >= rows:
            block_sep = block_sep.copy()
            block_sep[-1] = final
        yield _format_g17(block, block_sep).tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# One kernel: "%.17g" % v for a whole array (write_csv, and the float arrays
# of write_json).
#
# A nonzero finite x has a decimal exponent E with |x| * 10**(16 - E) = t in
# [10**16, 10**17).  t is formed in float64 as p + q: p = fl(|x| * h) and
# its exact rounding error by Dekker's product (Veltkamp split), plus
# |x| * l, where h + l is 10**(16 - E) to within 2**-105 relative.  The two
# roundings in q and the table's own error stay below 2**-47 in absolute
# terms, so with q = floor(q) + r, t is A + r to within 2**-47 (_scaled).
#
# The 17 digits are D = A or A + 1, the rounding of t, which is certain
# once r is more than _BOUND = 2**-44 from one half.
#
# The exact step writes "%.17g" % v, Python's own text of one value, into
# the same block.  It takes every value the bound cannot decide (an exact
# or near tie), and every value outside the table's magnitudes (subnormal,
# below 1e-290 or from 1e290 up, inf, nan), within which neither the split
# of |x| nor any partial product of the Dekker product overflows or
# underflows.

_BLOCK_VALUES = 4096  # per kernel call: 1024 rows of four columns, or one 4096-sample array
# Up to this many values a CSV table takes the exact step wholesale, one %
# over the table, which is quicker than the kernel's fixed cost of about
# 70 us a call: they cross over at about 256 values (random normal values in
# 2 columns; NumPy 2.4, 2-core Xeon).
_SMALL = 256
_BOUND = 2.0 ** -44
_X_LO, _X_HI = 1e-290, 1e290
_E_MIN, _E_MAX = -292, 291  # the exponents the product table covers
_SPLIT = 134217729.0  # 2**27 + 1
_WORD = np.dtype("<u8")  # byte 0 of a word is the first character written
# the separators a value's text may end in, by index
_SEPS = (b",", b"\n", b", ", b"")
_SEP_COMMA, _SEP_NEWLINE, _SEP_JSON, _SEP_NONE = range(len(_SEPS))


def _pow10_table():
    """h, its halves of 26 significant bits each and l, with h + l ~ 10**(16 - E) per E."""
    hi, lo = [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        if k >= 0:
            n = 10**k
            h = float(n)
            hi.append(h)
            lo.append(float(n - int(h)))
        else:
            d = 10**-k
            h = 1 / d  # int / int rounds correctly
            a, b = h.as_integer_ratio()
            hi.append(h)
            lo.append((b - a * d) / (b * d))
    hi = np.array(hi)
    m, e = np.frexp(hi)  # Veltkamp's split of m in [0.5, 1), scaled back
    c = _SPLIT * m
    hh = c - (c - m)
    return hi, np.ldexp(hh, e), np.ldexp(m - hh, e), np.array(lo)


def _layout_tables():
    """Masks of the text after d0 by (class, nd1), and its fixed bytes by
    (class, nd1, separator).

    Class 0-16 is fixed notation with that many digits after d0 before the
    point, 17 is exponent notation (point after d0) and 18-21 is
    0.ddd...0.000ddd (E = -1 .. -4, no point among the digits).  nd1 is
    the number of significant digits after d0 (trailing zeros stripped) and
    the separator indexes _SEPS.  The digits after d0 are 16 bytes; those
    before the point (A) stay, those after it (B) move one byte right, and
    the kept text is `length` bytes long; an integer in fixed notation ends
    before the point.
    """
    c, nd1 = np.ix_(*(np.arange(n, dtype=np.uint8) for n in (22, 17)))
    pp = np.where(c <= 16, c, np.where(c == 17, 0, 16))
    length = np.where(c >= 18, nd1, np.where(nd1 > pp, nd1 + 1, pp))
    pp, length = (t[..., None] for t in np.broadcast_arrays(pp, length))
    b = np.arange(16, dtype=np.uint8)
    a_mask = ((b < pp) & (b < length)) * np.uint8(255)
    b_mask = ((b >= pp) & (b + 1 < length)) * np.uint8(255)
    pos = np.arange(24, dtype=np.uint8)
    point = ((pos == pp) & (pp < length)) * np.uint8(46)
    sep = np.frombuffer(b"".join(s.ljust(2, b"\0") for s in _SEPS), np.uint8).reshape(-1, 2)
    pos, length = pos[..., None, :], length[..., None, :]  # a separator axis before pos
    sep_text = (pos == length) * sep[:, :1] + (pos == length + 1) * sep[:, 1:]
    sep_text *= (c != 17)[..., None, None].astype(np.uint8)  # exponent notation: in _EXP
    fixed = sep_text.astype(np.uint8) | point[..., None, :]
    return [np.ascontiguousarray(t.reshape(-1, t.shape[-1]).view(_WORD).T)
            for t in (a_mask, b_mask, fixed)]


(_HI, _HH, _HL, _LO) = _pow10_table()
(_A_MASK, _B_MASK, _FIXED) = _layout_tables()
_E_ALL = np.arange(_E_MIN, _E_MAX + 2)  # after a carry E can reach _E_MAX + 1
# the layout class of each E (see _layout_tables)
_CLASS = np.select([(_E_ALL >= 0) & (_E_ALL <= 16), (_E_ALL < 0) & (_E_ALL >= -4)],
                   [_E_ALL, 17 - _E_ALL], 17)
_LEAD = np.where(_CLASS >= 18, -_E_ALL, 0)  # 0., 0.0, 0.00 or 0.000 before d0
# e+XX or e-XXX and the separator, right-aligned, by (E, separator); 0 for
# fixed notation
_EXP = np.array([(b"e%+03d" % e + s).rjust(8, b"\0") if c == 17 else b""
                 for e, c in zip(_E_ALL.tolist(), _CLASS.tolist()) for s in _SEPS],
                dtype="S8").view(_WORD)
# sign, leading 0.000 and d0, right-aligned, by (sign, lead, d0)
_PREFIX = np.array([(b"-" * s + (b"0." + b"0" * (lead - 1) if lead else b"") + b"%d" % d).rjust(8, b"\0")
                    for s in (0, 1) for lead in range(5) for d in range(10)], dtype="S8").view(_WORD)
_ZEROS = 0x3030303030303030  # eight ASCII "0"


def _scaled(ax, exponent):
    """(A, r): ax * 10**(16 - exponent) is A + r to within 2**-47, 0 <= r < 1.

    A is exact when the product lies in [10**16, 10**17]."""
    i = exponent - _E_MIN
    hh, hl = _HH[i], _HL[i]
    c = _SPLIT * ax
    xh = c - (c - ax)
    xl = ax - xh
    p = ax * _HI[i]
    q = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + ax * _LO[i]
    qf = np.floor(q)
    return p.astype(np.int64) + qf.astype(np.int64), q - qf


def _exact_g17(v):
    """The exact step of %.17g: Python's own."""
    return b"%.17g" % v


def _format_g17(x, sep):
    """ "%.17g" % v for each v of x, each followed by _SEPS[sep]; see _layout.

    D is the rounding of A + r.  The exact step takes the values the bound
    cannot decide, and those the table cannot place: outside its
    magnitudes, or not placed by one redo (libm's log10 is within an ulp,
    so that last one would need a log10 two off).
    """
    ax = np.abs(x)
    axs = np.fmin(np.fmax(ax, _X_LO), _X_HI)  # nan -> _X_LO
    exponent = np.floor(np.log10(axs)).astype(np.int64)
    a, r = _scaled(axs, exponent)
    d = a + (r > 0.5)
    off = np.flatnonzero((a < 10**16) | (d > 10**17))  # log10 was one off
    if off.size:
        exponent[off] += np.where(a[off] < 10**16, -1, 1)
        a[off], r[off] = _scaled(axs[off], exponent[off])
        d[off] = a[off] + (r[off] > 0.5)
    exact = (a < 10**16) | (d > 10**17) | (axs != ax) | (np.abs(r - 0.5) <= _BOUND)
    return _layout(x, d, exponent, sep, exact)


def _layout(x, d, exponent, sep, exact):
    """The text of each v of x, followed by _SEPS[sep].

    d holds the 17 digits (trailing zeros are stripped) and exponent E;
    v = +-0 is laid out as 0 or -0 whatever d and exact say, and the exact
    step, _exact_g17(v), is written where exact.

    Returns (len(x), 4) little-endian words whose bytes, with every NUL
    removed, are the text.  Word 0 holds sign, leading "0.000" and d0,
    right-aligned; words 1-3 the digits after d0 with the point and the
    separator, and for exponent notation the exponent and separator
    right-aligned at the end of word 3.
    """
    n = x.size
    zero = x == 0
    exact &= ~zero
    d[zero] = 0
    exponent[zero] = 0
    carry = d == 10**17
    d[carry] = 10**16
    exponent += carry

    # the 16 digits after d0 as ASCII in two words, two at a time per lane
    top = d // 10**8
    d0 = top // 10**8
    v = np.empty((n, 2), _WORD)
    v[:, 0] = top - d0 * 10**8
    v[:, 1] = d - top * 10**8
    hi4 = v // 10000
    v = hi4 | ((v - hi4 * 10000) << 32)  # four digits per 32-bit lane
    hi2 = ((v * 10486) >> 20) & 0x0000007F0000007F
    v = hi2 | ((v - hi2 * 100) << 16)  # two per 16-bit lane
    hi1 = ((v * 103) >> 10) & 0x000F000F000F000F
    v = hi1 | ((v - hi1 * 10) << 8)  # one per byte, 0-9
    # significant digits after d0: one past the highest nonzero byte
    top_bits = (v[:, 1].astype(np.float64) * 2.0**64 + v[:, 0]).view(np.int64) >> 52
    nd1 = np.maximum((top_bits - 1015) >> 3, 0)
    v |= _ZEROS

    e = exponent - _E_MIN
    m = _CLASS[e] * 17 + nd1
    k = m * len(_SEPS) + sep
    lo, hi = v[:, 0], v[:, 1]
    b_lo = lo & _B_MASK[0][m]
    b_hi = hi & _B_MASK[1][m]
    out = np.empty((n, 4), _WORD)
    out[:, 0] = _PREFIX[d0 + 10 * _LEAD[e] + 50 * np.signbit(x)]
    out[:, 1] = (lo & _A_MASK[0][m]) | (b_lo << 8) | _FIXED[0][k]
    out[:, 2] = (hi & _A_MASK[1][m]) | (b_hi << 8) | (b_lo >> 56) | _FIXED[1][k]
    out[:, 3] = (b_hi >> 56) | _FIXED[2][k] | _EXP[len(_SEPS) * e + sep]
    slots = out.view(np.uint8).reshape(n, 32)
    for i in np.flatnonzero(exact).tolist():
        text = _exact_g17(float(x[i])) + _SEPS[sep[i]]
        slots[i] = 0
        slots[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


class Table(NamedTuple):
    """A parsed curve or pulse file.

    `data` holds one row per sample, columns in header order; `payload` is
    the JSON document (None for CSV) and `sha256` the digest of the bytes
    that were parsed.
    """

    data: np.ndarray
    payload: object
    sha256: str


def parse_rows(rows, where, ncol, min_rows):
    """The line-numbered row parser: (lineno, cells) pairs -> (n, ncol) array.

    Each cell goes through float().  The first row with the wrong column
    count, an unreadable or non-finite cell, or a first column that does
    not strictly increase raises InputError naming its line.
    """
    values = []
    for lineno, row in rows:
        if len(row) != ncol:
            raise InputError(f"{where}: line {lineno}: expected {ncol} columns, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{where}: line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, vals)):
            raise InputError(f"{where}: line {lineno}: non-finite value")
        if values and vals[0] <= values[-1][0]:
            raise InputError(f"{where}: line {lineno}: t must be strictly increasing")
        values.append(vals)
    if len(values) < min_rows:
        raise InputError(f"{where}: need at least {min_rows} samples, got {len(values)}")
    return np.array(values, dtype=float).reshape(len(values), ncol)


def _accepted(data, ncol, min_rows):
    """parse_rows's checks, in bulk."""
    return (
        data.ndim == 2
        and data.shape[1] == ncol
        and data.shape[0] >= min_rows
        and bool(np.isfinite(data).all())
        and bool((data[1:, 0] > data[:-1, 0]).all())
    )


def _headers(spec):
    """Accepted CSV headers of a spec such as "t,omega_x,omega_y[,detuning]"."""
    base, _, optional = spec.partition("[,")
    required = tuple(base.split(","))
    if not optional:
        return (required,)
    return required, required + tuple(optional.rstrip("]").split(","))


# a line as io.StringIO(text, newline="") yields it: it ends at \n, \r\n or \r
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
_NOT_NEWLINE = re.compile(rb"[^\r\n]")


def _lines(text, end):
    """The lines of text, one str at a time; end[0] is kept just past the last.

    A StringIO would hold a second copy of the text at four bytes a
    character; this holds one line.  csv.reader pulls one line at a time up
    to the end of a record, so the header's reader leaves the rest of the
    lines, unsplit, to the row parser's.
    """
    for m in _LINE.finditer(text):
        end[0] = m.end()
        yield m.group()


def _load_csv_body(raw, start):
    """np.loadtxt of the bytes of raw from offset start, or None if it cannot read them.

    The stream shares raw's buffer, so the text is not copied.  Comment
    lines are not skipped, so a "#" line fails here and parse_rows rejects
    it with its line number.  Lines split at \n only, so a lone \r (and
    any non-ASCII byte) fails here too, and parse_rows reads that file.
    """
    if _NOT_NEWLINE.search(raw, start) is None:
        return None  # header only: loadtxt would warn, parse_rows says why
    stream = io.BytesIO(raw)
    stream.seek(start)
    try:
        return np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _numbered_csv_rows(lines):
    """(line number, cells) of every non-empty CSV row left in lines, from 2.

    A generator, so its reader is made only if parse_rows runs.
    """
    for lineno, row in enumerate(csv.reader(lines), start=2):
        if row:
            yield lineno, row


def read_table(path, header_spec, min_rows, json_rows):
    """Read a curve or pulse table, CSV or its JSON twin, from one read of the file.

    A CSV must start with a header that `header_spec` accepts.  A JSON file
    is mapped to (header, rows) by `json_rows(payload, where)`.  The values
    are read in bulk (np.loadtxt for CSV) and checked in bulk: column count,
    finite values, strictly increasing first column, at least `min_rows`
    rows.  Input the bulk path does not accept goes to parse_rows, which
    raises the line-numbered message, or returns the values for cells that
    only float() reads (quoted numbers, 1_000).
    """
    where = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{where}: not UTF-8 text: {exc}") from exc
    if where.endswith(".json"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{where}: invalid JSON: {exc}") from exc
        header, rows = json_rows(payload, where)
        try:
            data = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError):
            data = None
        # JSON rows are numbered by sample; a scalar sample is one column
        numbered = enumerate(
            (row if isinstance(row, list) else [row] for row in rows), start=1
        )
    else:
        payload = None
        end = [0]
        lines = _lines(text, end)
        header = next(csv.reader(lines), None)
        if header is None:
            raise InputError(f"{where}: empty file")
        header = tuple(h.strip() for h in header)
        if header not in _headers(header_spec):
            raise InputError(f"{where}: expected header {header_spec}")
        data = _load_csv_body(raw, len(text[:end[0]].encode("utf-8")))
        numbered = _numbered_csv_rows(lines)
    if data is None or not _accepted(data, len(header), min_rows):
        data = parse_rows(numbered, where, len(header), min_rows)
    return Table(data, payload, digest)
