"""Opening output files.  Every file the package writes is opened here."""

import contextlib
import os

import numpy as np


@contextlib.contextmanager
def overwrite(path):
    """Text handle that writes over the old bytes of path, then cuts the tail.

    Opening with mode "w" truncates the file first; ext4 then flushes the old
    contents on close and frees their blocks, so rewriting an output
    directory waits on the disk.  Writing over the old pages and trimming
    whatever lies past the new end does not.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        yield fh
        fh.truncate()


def write_csv(path, header, columns):
    """CSV of equal-length columns under a one-line header, values as %.17g.

    The bytes equal np.savetxt's with fmt="%.17g", delimiter="," and
    comments="", from one % format over the flattened rows instead of one
    per row.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with overwrite(path) as fh:
        fh.write(header + "\n")
        fh.write(row * data.shape[0] % tuple(data.ravel().tolist()))
