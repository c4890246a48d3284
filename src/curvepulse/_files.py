"""Reading and writing tables.  Every file the package writes is opened here,
and every curve or pulse file it reads is parsed here."""

import csv
import hashlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import InputError


def write_text(path, text):
    """Write text as UTF-8 over the old bytes of path; return their sha256.

    Opening with mode "w" truncates the file first; ext4 then flushes the old
    contents on close and frees their blocks, so rewriting an output
    directory waits on the disk.  Writing over the old pages and trimming
    whatever lies past the new end does not.  The digest is of the bytes
    written, so no caller has to read the file back to hash it.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.truncate()
    return hashlib.sha256(data).hexdigest()


def write_json(path, payload, indent=None):
    """json.dumps(payload, sort_keys=True) plus a newline; returns the sha256.

    Without an indent json.dumps takes the C encoder (json.dump never does).
    """
    return write_text(path, json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def write_csv(path, header, columns):
    """CSV of equal-length columns under a one-line header, values as %.17g.

    The bytes equal np.savetxt's with fmt="%.17g", delimiter="," and
    comments="", from one % format over the flattened rows instead of one
    per row.  Returns the sha256 of the bytes written.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return write_text(path, header + "\n" + row * data.shape[0] % tuple(data.ravel().tolist()))


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


def _load_csv_body(text, stream):
    """np.loadtxt of the rows left in stream, or None if it cannot read them.

    Comment lines are not skipped, so a "#" line fails here and parse_rows
    rejects it with its line number.
    """
    if len(text.rstrip("\r\n")) <= stream.tell():
        return None  # header only: loadtxt would warn, parse_rows says why
    try:
        return np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _numbered_csv_rows(text):
    """(line number, cells) of every non-empty CSV row after the header.

    A generator, so its pass over the text, and the StringIO that pass
    needs (four bytes a character), is set up only if parse_rows runs.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for lineno, row in enumerate(reader, start=2):
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
        stream = io.StringIO(text, newline="")
        header = next(csv.reader(stream), None)
        if header is None:
            raise InputError(f"{where}: empty file")
        header = tuple(h.strip() for h in header)
        if header not in _headers(header_spec):
            raise InputError(f"{where}: expected header {header_spec}")
        data = _load_csv_body(text, stream)
        numbered = _numbered_csv_rows(text)
    if data is None or not _accepted(data, len(header), min_rows):
        data = parse_rows(numbered, where, len(header), min_rows)
    return Table(data, payload, digest)
