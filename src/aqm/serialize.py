"""Result serialization.

Result JSON is written atomically and contains no timestamps, so
identical runs produce byte-identical files.  result.json and the CSVs
are written to a temporary file in their directory and renamed into
place, so a run that fails or is killed leaves no partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file beside `path`; rename it into place on success.

    On any error, the temporary file is removed and `path` is left as it
    was.  The directory must exist: this creates none.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, newline=newline) as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, payload: dict) -> None:
    """Serialize deterministically and rename into place."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
