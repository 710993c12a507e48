import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from containers import read_v3, write_v3
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from confrank import serialize as S
from confrank.datagen import DayLog


FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    elements=st.floats(width=64))
INT_ARRAYS = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
ARRAYS = st.one_of(FLOAT_ARRAYS, INT_ARRAYS)


def _assert_container_round_trip(path, arrays):
    """The arrays, at any depth of nested dicts, load back byte-equal as
    writable aligned views of their dtype and shape."""
    payload = {"first": arrays[0], "n": len(arrays),
               "nested": {"deeper": {str(i): a for i, a in enumerate(arrays)}}}
    S.save_container(path, payload, fmt="confrank-test")
    back = S.load_container(path, fmt="confrank-test")
    assert back["n"] == len(arrays) and back.keys() == payload.keys()
    got = [back["first"], *back["nested"]["deeper"].values()]
    for out, want in zip(got, [arrays[0], *arrays]):
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()
        assert out.flags.writeable and out.flags.aligned


@given(FLOAT_ARRAYS, st.lists(ARRAYS, max_size=3))
@example(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0]),
         [np.array(-0.0), np.zeros((0, 3)), np.zeros((2, 0), dtype=np.int64)])
def test_pack_unpack_floats_bitwise(tmp_path_factory, first, rest):
    """float64 arrays of any shape, 0-d and 0-size included, with NaN, inf
    and -0.0 kept bit for bit, beside arrays of either dtype."""
    path = str(tmp_path_factory.getbasetemp() / "round_trip_floats.json")
    _assert_container_round_trip(path, [first, *rest])


@given(INT_ARRAYS, st.lists(ARRAYS, max_size=3))
@example(np.array(-1, dtype=np.int64),
         [np.zeros((0,), dtype=np.int64), np.array([np.iinfo(np.int64).min,
                                                    np.iinfo(np.int64).max])])
def test_pack_unpack_ints_bitwise(tmp_path_factory, first, rest):
    """int64 arrays of any shape, 0-d and 0-size included, beside arrays of
    either dtype."""
    path = str(tmp_path_factory.getbasetemp() / "round_trip_ints.json")
    _assert_container_round_trip(path, [first, *rest])


def test_container_round_trip(tmp_path):
    path = str(tmp_path / "c.json")
    S.save_container(path, {"a": np.arange(4.0), "n": 3}, fmt="confrank-test")
    back = S.load_container(path, fmt="confrank-test")
    assert back.keys() == {"a", "n"} and back["n"] == 3
    assert back["a"].tobytes() == np.arange(4.0).tobytes()


def test_container_refuses_a_payload_dict_holding_the_array_tag(tmp_path):
    """No ordinary dict can be read back as an array descriptor."""
    with pytest.raises(ValueError, match="reserved"):
        S.save_container(str(tmp_path / "c.json"), {"x": {S.ARRAY_TAG: "<f8"}},
                         fmt="confrank-test")
    with pytest.raises(TypeError, match="float32"):
        S.save_container(str(tmp_path / "c.json"), {"x": np.zeros(2, np.float32)},
                         fmt="confrank-test")


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
    write_v3(path, "confrank-test", b"[1]", b"")
    with pytest.raises(S.CheckpointError, match="not an object"):
        S.load_container(path, fmt="confrank-test")


@pytest.mark.parametrize("payload", [[1, 2, 3], "text", None])
def test_save_container_refuses_a_payload_that_is_not_a_dict(tmp_path, payload):
    path = tmp_path / "c.json"
    with pytest.raises(TypeError, match=type(payload).__name__):
        S.save_container(str(path), payload, fmt="confrank-test")
    assert not os.listdir(tmp_path)


def test_container_detects_payload_tamper(tmp_path):
    path = tmp_path / "c.json"
    S.save_container(str(path), {"n": 1}, fmt="confrank-test")
    raw = path.read_bytes()
    assert raw.count(b'"n": 1') == 1
    path.write_bytes(raw.replace(b'"n": 1', b'"n": 2'))
    with pytest.raises(S.CheckpointError):
        S.load_container(str(path), fmt="confrank-test")


def test_container_checksum_is_over_written_payload_text(tmp_path):
    """A one-line JSON header padded to 64 bytes, then each array's
    little-endian bytes at a 64-byte-aligned offset; the sha256 covers the
    payload text as written followed by the whole section."""
    path = tmp_path / "c.json"
    arr, ints = np.array([1.5, -0.0, np.inf]), np.arange(2)
    S.save_container(str(path), {"n": 1, "a": [1.5, "x"], "arr": arr, "sub": {"ints": ints}},
                     fmt="confrank-test")
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1
    assert start % 64 == 0
    doc = json.loads(raw[:start])
    described = {"n": 1, "a": [1.5, "x"],
                 "arr": {S.ARRAY_TAG: "<f8", "shape": [3], "offset": 0},
                 "sub": {"ints": {S.ARRAY_TAG: "<i8", "shape": [2], "offset": 64}}}
    assert doc["format"] == "confrank-test" and doc["version"] == 3
    assert doc["payload"] == described
    text = json.dumps(described).encode()
    assert raw[:start].rstrip(b" \n").endswith(b'"payload": ' + text + b"}")
    section = raw[start:]
    assert section == arr.astype("<f8").tobytes() + bytes(40) + ints.astype("<i8").tobytes()
    assert doc["sha256"] == hashlib.sha256(text + section).hexdigest()


@pytest.mark.parametrize("edit", [(b'"n": 1', b'"n":  1'),
                                  (b'{"n": 1, "m": 2}', b'{"m": 2, "n": 1}')],
                         ids=["whitespace", "key_order"])
def test_container_refuses_same_json_edits(tmp_path, edit):
    """An edit that leaves the parsed payload equal still changes the bytes
    the checksum covers."""
    path = tmp_path / "c.json"
    S.save_container(str(path), {"n": 1, "m": 2}, fmt="confrank-test")
    raw = path.read_bytes()
    assert edit[0] in raw
    path.write_bytes(raw.replace(edit[0], edit[1]))
    assert read_v3(path)[0]["payload"] == {"n": 1, "m": 2}
    with pytest.raises(S.CheckpointError, match="checksum"):
        S.load_container(str(path), fmt="confrank-test")


@pytest.mark.parametrize("where", ["payload_text", "array_section"])
def test_container_refuses_one_flipped_byte(tmp_path, where):
    path = tmp_path / "c.json"
    S.save_container(str(path), {"n": 1, "a": np.arange(8.0)}, fmt="confrank-test")
    raw = bytearray(path.read_bytes())
    at = raw.index(b'"n": 1') + 5 if where == "payload_text" else raw.index(b"\n") + 20
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(S.CheckpointError, match="checksum"):
        S.load_container(str(path), fmt="confrank-test")


@pytest.mark.parametrize("desc,message", [
    ({"shape": [4], "offset": 0, S.ARRAY_TAG: "<f4"}, "unknown dtype"),
    ({"shape": [4], "offset": 0, S.ARRAY_TAG: "<f8", "data": ""}, "malformed"),
    ({"shape": [-4], "offset": 0, S.ARRAY_TAG: "<f8"}, "bad shape"),
    ({"shape": 4, "offset": 0, S.ARRAY_TAG: "<f8"}, "bad shape"),
    ({"shape": [5], "offset": 0, S.ARRAY_TAG: "<f8"}, "outside its section"),
    ({"shape": [1], "offset": 64, S.ARRAY_TAG: "<f8"}, "outside its section"),
    ({"shape": [1], "offset": 8, S.ARRAY_TAG: "<f8"}, "outside its section"),
    ({"shape": [1], "offset": -64, S.ARRAY_TAG: "<f8"}, "outside its section"),
], ids=["dtype", "extra_key", "negative_dim", "scalar_shape", "past_end", "past_section",
        "unaligned", "negative_offset"])
def test_container_refuses_a_bad_descriptor(tmp_path, desc, message):
    """A checksum-valid container whose descriptor cannot name a range of its
    32-byte section is refused."""
    path = tmp_path / "c.json"
    write_v3(path, "confrank-test", json.dumps({"a": desc}).encode(), bytes(32))
    with pytest.raises(S.CheckpointError, match=message):
        S.load_container(str(path), fmt="confrank-test")


@pytest.mark.parametrize("existing", [False, True], ids=["new_name", "old_file"])
def test_failed_write_leaves_no_new_file(tmp_path, existing):
    """A container write that fails halfway, here at the file-size limit
    inside the array section, leaves no temporary file, and the final name
    either does not exist or still holds its old, checksum-valid content."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "c.json"
    if existing:
        S.save_container(str(path), {"a": np.arange(4.0)}, fmt="confrank-test")
    before = path.read_bytes() if existing else None
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    if hard != resource.RLIM_INFINITY and hard < 4096:
        pytest.skip("file-size hard limit below 4096 bytes")
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
    try:
        with pytest.raises(OSError):
            S.save_container(str(path), {"a": np.arange(4096.0)}, fmt="confrank-test")
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert os.listdir(tmp_path) == (["c.json"] if existing else [])
    if existing:
        assert path.read_bytes() == before
        assert S.load_container(str(path), fmt="confrank-test")["a"].shape == (4,)
    else:
        with pytest.raises(S.CheckpointError):
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


def test_day_log_inverts_the_day_record(tiny_dataset, tmp_path):
    """A day file's record holds its keys in file order, and serialize.day_log
    rebuilds from it the DayLog it was written from, field for field."""
    _, _, schema, logs, _ = tiny_dataset
    log = logs[1]
    path = str(tmp_path / S.day_filename(log.day))
    S.write_day_file(path, log, schema.hash)
    record = S.read_day_file(path)
    assert list(record) == ["schema_hash", "day", "user_ids", "item_ids", "features", "x",
                            "labels", "conformity_component", "relevance_component"]
    back = S.day_log(record)
    for f in dataclasses.fields(DayLog):
        want, got = getattr(log, f.name), getattr(back, f.name)
        assert type(got) is type(want) and np.array_equal(got, want), f.name
