import json

from aqm.serialize import write_json_atomic


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "result.json"
    write_json_atomic(path, {"b": 1, "a": [True, None]})
    assert json.loads(path.read_text()) == {"a": [True, None], "b": 1}
    assert list(tmp_path.iterdir()) == [path]
