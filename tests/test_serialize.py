import json
import os
import stat

from aqm.serialize import atomic_open, write_json_atomic


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "result.json"
    write_json_atomic(path, {"b": 1, "a": [True, None]})
    assert json.loads(path.read_text()) == {"a": [True, None], "b": 1}
    assert list(tmp_path.iterdir()) == [path]


def test_written_files_get_the_mode_open_would_give(tmp_path):
    umask = os.umask(0o027)
    try:
        write_json_atomic(tmp_path / "result.json", {})
        with atomic_open(tmp_path / "events.csv", "wb") as fh:
            fh.write(b"event\r\n")
    finally:
        os.umask(umask)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
