"""Checksummed containers: checkpoints, dataset day files, world.json, manifests.

A container (format version 3) is one line of JSON, then one binary array
section:

    {"format": …, "version": 3, "sha256": …, "payload": …}<spaces><newline><section>

The header line is padded with spaces to a multiple of 64 bytes. Every
float64/int64 array in the payload (at any depth of nested dicts) is stored
in the section as its raw little-endian bytes, at a 64-byte-aligned offset
from the section start, and replaced in the payload JSON by the descriptor
{"$array": dtype, "shape": […], "offset": n}. No ordinary payload dict may
hold the "$array" key, so a descriptor cannot be mistaken for data. The
sha256 covers the payload text exactly as written followed by the whole
section, so round-trips are bit-exact, a fixed input writes the same bytes,
and any edited byte is refused. Loading returns each array as a writable,
aligned view into the one buffer the file was read into. The manifest also
lists each dataset file's sha256. A day file holds one `day_data_from_log`
record. Every container is written to a temporary file beside its final
name and renamed onto it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from . import config as C
from .datagen import DayLog, World

CHECKPOINT_FORMAT = "confrank-checkpoint"
WORLD_FORMAT = "confrank-world"
DAY_FORMAT = "confrank-day"
MANIFEST_NAME = "manifest.json"

VERSION = 3
ALIGN = 64  # header length and every array offset are multiples of this
ARRAY_TAG = "$array"
_DTYPES = {("f", 8): "<f8", ("i", 8): "<i8"}


class CheckpointError(ValueError):
    """Corrupt container, checksum mismatch, or wrong config/schema hash."""


def write_atomic(path, chunks):
    """Write the byte chunks to a new file beside `path`, then rename it onto
    `path`. If anything fails the new file is removed, and `path` keeps its
    old content or does not exist."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _prefix(fmt: str, digest: str) -> bytes:
    return f'{{"format": "{fmt}", "version": {VERSION}, "sha256": "{digest}", "payload": '.encode()


def _header(fmt: str, digest: str, text: bytes) -> bytes:
    line = b"".join((_prefix(fmt, digest), text, b"}"))
    return line + b" " * (-(len(line) + 1) % ALIGN) + b"\n"


def _describe(node: dict, arrays: list) -> dict:
    """node with every ndarray replaced by its descriptor, recursing into
    dicts; appends each array, little-endian and contiguous, to `arrays`."""
    if ARRAY_TAG in node:
        raise ValueError(f"payload key {ARRAY_TAG!r} is reserved for array descriptors")
    out = {}
    for key, value in node.items():
        if isinstance(value, dict):
            value = _describe(value, arrays)
        elif isinstance(value, np.ndarray):
            dtype = _DTYPES.get((value.dtype.kind, value.dtype.itemsize))
            if dtype is None:
                raise TypeError(f"payload array {key!r} has dtype {value.dtype}, "
                                "not float64 or int64")
            offset = 0
            if arrays:
                offset = -(-(arrays[-1][0] + arrays[-1][1].nbytes) // ALIGN) * ALIGN
            a = np.require(value, dtype, "C")  # copies only a strided or big-endian array
            arrays.append((offset, a))
            value = {ARRAY_TAG: dtype, "shape": list(a.shape), "offset": offset}
        out[key] = value
    return out


def save_container(path, payload: dict, fmt: str = CHECKPOINT_FORMAT):
    if not isinstance(payload, dict):
        raise TypeError(f"container payload must be a dict, not {type(payload).__name__}")
    arrays = []
    text = json.dumps(_describe(payload, arrays)).encode()
    section, end = [], 0
    for offset, a in arrays:
        section += (bytes(offset - end), a)
        end = offset + a.nbytes
    digest = hashlib.sha256(text)
    for chunk in section:
        digest.update(chunk)
    write_atomic(path, [_header(fmt, digest.hexdigest(), text), *section])


def _view(desc: dict, buf: bytearray, start: int, path) -> np.ndarray:
    """The array a descriptor names, as a view into buf's section at `start`."""
    if desc.keys() != {ARRAY_TAG, "shape", "offset"}:
        raise CheckpointError(f"{path} has a malformed array descriptor: {desc}")
    dtype, shape, offset = desc[ARRAY_TAG], desc["shape"], desc["offset"]
    if dtype not in _DTYPES.values():
        raise CheckpointError(f"{path} has an array descriptor of unknown dtype: {desc}")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise CheckpointError(f"{path} has an array descriptor with a bad shape: {desc}")
    count = math.prod(shape)
    if not (type(offset) is int and offset >= 0 and offset % ALIGN == 0
            and start + offset + 8 * count <= len(buf)):
        raise CheckpointError(f"{path} has an array descriptor outside its section: {desc}")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=start + offset).reshape(shape)


def _resolve(node: dict, buf: bytearray, start: int, path):
    """Replace, in place, every descriptor under node by its array."""
    for key, value in node.items():
        if isinstance(value, dict):
            if ARRAY_TAG in value:
                node[key] = _view(value, buf, start, path)
            else:
                _resolve(value, buf, start, path)


def load_container(path, fmt: str = CHECKPOINT_FORMAT, keys=()) -> dict:
    """The payload of a checksum-valid fmt container; it must be an object
    holding every name in keys. Its arrays are views into one buffer."""
    try:
        with open(path, "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(buf) != len(buf):
                raise OSError("file changed size while being read")
        start = buf.find(b"\n") + 1 or len(buf)
        line = buf[:start]
        doc = json.loads(line)
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read container {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise CheckpointError(f"{path} is not a {fmt} container")
    if doc.get("version") != VERSION:
        raise CheckpointError(f"{path} is a version {doc.get('version')} container, not {VERSION}")
    # a sha256 has 64 hex digits, so the payload text starts at a fixed offset
    text = line[len(_prefix(fmt, "0" * 64)):len(line.rstrip()) - 1]
    digest = hashlib.sha256(text)
    digest.update(memoryview(buf)[start:])
    if line != _header(fmt, digest.hexdigest(), text):
        raise CheckpointError(f"checksum mismatch in {path}")
    payload = doc["payload"]
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path} payload is not an object")
    _resolve(payload, buf, start, path)
    for key in keys:
        if key not in payload:
            raise CheckpointError(f"{path} payload has no {key!r}")
    return payload


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- dataset files ------------------------------------------------------


def day_filename(day: int) -> str:
    return f"day_{day:03d}.json"


# the day record's keys after "schema_hash", in file order, each with its DayLog field
_DAY_FIELDS = {"day": "day", "user_ids": "user_ids", "item_ids": "item_ids",
               "features": "features", "x": "x_scalar", "labels": "labels",
               "conformity_component": "conformity_component",
               "relevance_component": "relevance_component"}
_DAY_KEYS = ("schema_hash", *_DAY_FIELDS)


def day_data_from_log(log, schema_hash: str) -> dict:
    """The day record: a DayLog's arrays under the names training reads, plus
    its day number and schema hash. A day file stores exactly this dict."""
    return {"schema_hash": schema_hash,
            **{key: getattr(log, name) for key, name in _DAY_FIELDS.items()}}


def day_log(record: dict) -> DayLog:
    """The DayLog a day record holds (the inverse of day_data_from_log)."""
    return DayLog(**{name: record[key] for key, name in _DAY_FIELDS.items()})


def write_day_file(path, log, schema_hash: str):
    save_container(path, day_data_from_log(log, schema_hash), fmt=DAY_FORMAT)


def read_day_file(path) -> dict:
    return load_container(path, fmt=DAY_FORMAT, keys=_DAY_KEYS)


def write_manifest(out_dir, config_hash: str, schema_hash: str, filenames):
    payload = {
        "config_hash": config_hash,
        "schema_hash": schema_hash,
        "files": {name: file_sha256(os.path.join(out_dir, name)) for name in filenames},
    }
    save_container(os.path.join(out_dir, MANIFEST_NAME), payload, fmt="confrank-manifest")


def load_manifest(out_dir) -> dict:
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    payload = load_container(manifest, fmt="confrank-manifest",
                             keys=("config_hash", "schema_hash", "files"))
    if not isinstance(payload["files"], dict):
        raise CheckpointError(f"{manifest} 'files' is not a mapping of file name to sha256")
    for name, digest in payload["files"].items():
        if name in ("", ".", "..") or os.path.basename(name) != name or type(digest) is not str:
            raise CheckpointError(f"{manifest} lists {name!r}: {digest!r}, not a plain file "
                                  "name and its sha256")
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or file_sha256(path) != digest:
            raise CheckpointError(f"dataset file {name} missing or tampered")
    return payload


# -- world.json: the generator's ground truth ---------------------------

# World's init fields after cfg, in order
_WORLD_ARRAYS = tuple(f.name for f in dataclasses.fields(World) if f.init)[1:]


def write_world_file(path, world: World):
    """world.json: the data config plus every array."""
    arrays = {name: getattr(world, name) for name in _WORLD_ARRAYS}
    arrays["top_decile"] = world.top_decile.astype(np.int64)
    save_container(path, {"config": C.to_dict(world.cfg), "arrays": arrays}, fmt=WORLD_FORMAT)


def read_world_file(path) -> World:
    """Inverse of write_world_file."""
    payload = load_container(path, fmt=WORLD_FORMAT, keys=("config", "arrays"))
    stored = payload["arrays"]
    missing = [name for name in _WORLD_ARRAYS if name not in stored]
    if missing:
        raise CheckpointError(f"{path} has no {missing[0]!r} array")
    a = {name: stored[name] for name in _WORLD_ARRAYS}
    a["top_decile"] = a["top_decile"].astype(bool)
    return World(C._from_dict(C.DataConfig, payload["config"]), **a)
