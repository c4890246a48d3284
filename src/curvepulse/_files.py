"""Opening output files.  Every file the package writes is opened here."""

import contextlib
import os


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
