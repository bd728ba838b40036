"""Result serialization.

Result JSON is written atomically and contains no timestamps, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile


def write_json_atomic(path, payload: dict) -> None:
    """Serialize deterministically and rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
