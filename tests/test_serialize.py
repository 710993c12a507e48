import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from confrank import serialize as S
from confrank.datagen import DayLog


@given(hnp.arrays(dtype=np.float64,
                  shape=hnp.array_shapes(max_dims=3, max_side=6),
                  elements=st.floats(allow_nan=False, width=64)))
def test_pack_unpack_floats_bitwise(arr):
    out = S.unpack_array(S.pack_array(arr))
    assert out.shape == arr.shape and out.dtype == arr.dtype
    assert np.array_equal(out, arr)


@given(hnp.arrays(dtype=np.int64,
                  shape=hnp.array_shapes(max_dims=2, max_side=6)))
def test_pack_unpack_ints_bitwise(arr):
    out = S.unpack_array(S.pack_array(arr))
    assert out.dtype == np.int64
    assert np.array_equal(out, arr)


def test_container_round_trip(tmp_path):
    path = str(tmp_path / "c.json")
    payload = {"a": S.pack_array(np.arange(4.0)), "n": 3}
    S.save_container(path, payload, fmt="confrank-test")
    assert S.load_container(path, fmt="confrank-test") == payload


def test_container_rejects_wrong_format(tmp_path):
    path = str(tmp_path / "c.json")
    S.save_container(path, {"n": 1}, fmt="confrank-test")
    with pytest.raises(S.CheckpointError):
        S.load_container(path, fmt="confrank-other")


def test_container_payload_must_hold_the_required_keys(tmp_path):
    path = str(tmp_path / "c.json")
    S.save_container(path, {"a": 1}, fmt="confrank-test")
    assert S.load_container(path, fmt="confrank-test", keys=("a",)) == {"a": 1}
    with pytest.raises(S.CheckpointError, match="payload has no 'b'"):
        S.load_container(path, fmt="confrank-test", keys=("a", "b"))
    S.save_container(path, [1], fmt="confrank-test")
    with pytest.raises(S.CheckpointError, match="not an object"):
        S.load_container(path, fmt="confrank-test")


def test_container_detects_payload_tamper(tmp_path):
    path = str(tmp_path / "c.json")
    S.save_container(path, {"n": 1}, fmt="confrank-test")
    import json
    with open(path) as fh:
        doc = json.load(fh)
    doc["payload"]["n"] = 2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(S.CheckpointError):
        S.load_container(path, fmt="confrank-test")


def test_container_checksum_is_over_written_payload_text(tmp_path):
    path = tmp_path / "c.json"
    payload = {"n": 1, "a": [1.5, "x"]}
    S.save_container(str(path), payload, fmt="confrank-test")
    raw = path.read_bytes()
    doc = json.loads(raw)
    assert doc["version"] == 2 and doc["payload"] == payload
    text = json.dumps(payload).encode()
    assert raw.endswith(b'"payload": ' + text + b"}")
    assert doc["sha256"] == hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("edit", [('"n": 1', '"n":  1'),
                                  ('{"n": 1, "m": 2}', '{"m": 2, "n": 1}')],
                         ids=["whitespace", "key_order"])
def test_container_refuses_same_json_edits(tmp_path, edit):
    """An edit that leaves the parsed payload equal still changes the bytes
    the checksum covers."""
    path = tmp_path / "c.json"
    S.save_container(str(path), {"n": 1, "m": 2}, fmt="confrank-test")
    text = path.read_text()
    assert edit[0] in text
    path.write_text(text.replace(edit[0], edit[1]))
    assert json.loads(path.read_text())["payload"] == {"n": 1, "m": 2}
    with pytest.raises(S.CheckpointError, match="checksum"):
        S.load_container(str(path), fmt="confrank-test")


def test_day_filename_zero_padded():
    assert S.day_filename(0) == "day_000.json"
    assert S.day_filename(27) == "day_027.json"


@pytest.mark.parametrize("n_events", [None, 0], ids=["tiny_day", "zero_events"])
def test_day_file_round_trip_bitwise(tiny_dataset, tmp_path, n_events):
    _, _, schema, logs, _ = tiny_dataset
    log = logs[1]
    if n_events is not None:
        log = DayLog(log.day, *(getattr(log, f.name)[:n_events]
                                for f in dataclasses.fields(DayLog)[1:]))
    path = str(tmp_path / S.day_filename(log.day))
    S.write_day_file(path, log, schema.hash)
    back = S.read_day_file(path)
    expected = S.day_data_from_log(log, schema.hash)
    assert back.keys() == expected.keys()
    for name, want in expected.items():
        got = back[name]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:  # the day number and schema hash
            assert got == want, name
