"""The two ways a service writes a file.

- `AppendLog`, for the store's WAL and the notification logs: each record
  goes out in one write, a failed write is cut from the file, and at open
  the file is cut to the valid prefix its reader's scan reports.
- `replace`, for the alert cursor, model files, dataset CSVs and frame
  traces: write `<path>.tmp`, then rename it over `<path>`.
  `check_replaceable` lets a service refuse such a path at start-up.

So a process crash at any point leaves a file its reader accepts: the valid
prefix of a log, or the old or the new version of a replaced file, with at
most a stale `<path>.tmp` that the next `replace` overwrites. Nothing is
fsynced, so a power loss is not covered.
"""

from __future__ import annotations

import contextlib
import logging
import os

logger = logging.getLogger(__name__)


class AppendLog:
    """An append-only file, cut at open to the valid prefix of its records.

    `scan(fh)` reads the file from a binary stream at offset 0 and returns
    how many of its bytes form whole, valid records; a file that does not
    exist yet is created empty.
    """

    def __init__(self, path, scan):
        self.path = path
        try:
            with open(path, "rb") as fh:
                end = scan(fh)
        except FileNotFoundError:
            end = 0
        # unbuffered, so a failed write leaves no bytes behind to go out
        # with the next one
        self._file = open(path, "ab", buffering=0)
        size = os.fstat(self._file.fileno()).st_size
        if end < size:
            # new records must follow the valid prefix, or the next scan
            # would stop at the torn tail before reaching them
            logger.warning("%s: discarding %d bytes after offset %d",
                           path, size - end, end)
            self._file.truncate(end)
        self._end = end  # where the last good record ends

    def append(self, data: bytes) -> None:
        """Write `data` with one write. Raises OSError when the write fails,
        which is cut from the file, and when the log is closed or a failed
        write could not be cut."""
        if self._end is None:
            raise OSError(f"{self.path}: closed, or unusable until reopened")
        try:
            if self._file.write(data) != len(data):
                raise OSError("short write")
        except OSError:
            try:
                self._file.truncate(self._end)
            except OSError:
                logger.error("%s: cannot undo a failed write", self.path)
                self._end = None
            raise
        self._end += len(data)

    def close(self) -> None:
        """Close the file; every later append is refused."""
        self._file.close()
        self._end = None


def replace(path, data: bytes) -> None:
    """Make `data` the whole content of the file at `path`: write it to
    `<path>.tmp`, then rename that over `path`. On any error the tmp file is
    removed and `path` is left as it was."""
    path = os.fsdecode(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def check_replaceable(path) -> None:
    """Raise OSError when `replace` cannot write `<path>.tmp`: create that
    file and remove it again, leaving `path` as it was."""
    tmp = os.fsdecode(path) + ".tmp"
    with open(tmp, "wb"):
        pass
    os.remove(tmp)
