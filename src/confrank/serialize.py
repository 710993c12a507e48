"""Checksummed containers: checkpoints, dataset day files, world.json, manifests.

Each file is one JSON container whose float64/int64 arrays are base64-packed
little-endian, so round-trips are bit-exact and a fixed input writes the same
bytes. Its sha256 covers the payload text as written; the manifest also lists
each dataset file's sha256. A day file holds one `day_data_from_log` record.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os

import numpy as np

from . import config as C
from .datagen import World

CHECKPOINT_FORMAT = "confrank-checkpoint"
WORLD_FORMAT = "confrank-world"
DAY_FORMAT = "confrank-day"
MANIFEST_NAME = "manifest.json"


class CheckpointError(ValueError):
    """Corrupt container, checksum mismatch, or wrong config/schema hash."""


def pack_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    kind = {"f": "f8", "i": "i8"}[a.dtype.kind]
    a = a.astype("<" + kind, copy=False)
    return {
        "shape": list(a.shape),
        "dtype": kind,
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def unpack_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<" + d["dtype"]).reshape(d["shape"])
    return a.astype(d["dtype"])


VERSION = 2


def _header(fmt: str, digest: str) -> bytes:
    return f'{{"format": "{fmt}", "version": {VERSION}, "sha256": "{digest}", "payload": '.encode()


def save_container(path, payload: dict, fmt: str = CHECKPOINT_FORMAT):
    text = json.dumps(payload).encode()
    with open(path, "wb") as fh:
        fh.writelines((_header(fmt, hashlib.sha256(text).hexdigest()), text, b"}"))


def load_container(path, fmt: str = CHECKPOINT_FORMAT, keys=()) -> dict:
    """The payload of a checksum-valid fmt container; it must be an object
    holding every name in keys."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(memoryview(raw)[len(_header(fmt, "0" * 64)):-1]).hexdigest()
        # a sha256 has 64 hex digits; rebinding `raw` frees the bytes before the parse
        intact, raw = raw.startswith(_header(fmt, digest)) and raw.endswith(b"}"), raw.decode()
        doc = json.loads(raw)
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read container {path}: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise CheckpointError(f"{path} is not a {fmt} container")
    if doc.get("version") != VERSION:
        raise CheckpointError(f"{path} is a version {doc.get('version')} container, not {VERSION}")
    if not intact:
        raise CheckpointError(f"checksum mismatch in {path}")
    payload = doc["payload"]
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path} payload is not an object")
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


def day_data_from_log(log, schema_hash: str) -> dict:
    """The day record: a DayLog's arrays under the names training reads, plus
    its day number and schema hash. A day file stores exactly this dict."""
    return {
        "schema_hash": schema_hash,
        "day": log.day,
        "user_ids": log.user_ids,
        "item_ids": log.item_ids,
        "features": log.features,
        "x": log.x_scalar,
        "labels": log.labels,
        "conformity_component": log.conformity_component,
        "relevance_component": log.relevance_component,
    }


def write_day_file(path, log, schema_hash: str):
    record = day_data_from_log(log, schema_hash)
    save_container(path, {k: pack_array(v) if isinstance(v, np.ndarray) else v
                          for k, v in record.items()}, fmt=DAY_FORMAT)


def read_day_file(path) -> dict:
    payload = load_container(path, fmt=DAY_FORMAT)
    return {k: unpack_array(v) if isinstance(v, dict) else v for k, v in payload.items()}


def write_manifest(out_dir, config_hash: str, schema_hash: str, filenames):
    payload = {
        "config_hash": config_hash,
        "schema_hash": schema_hash,
        "files": {name: file_sha256(os.path.join(out_dir, name)) for name in filenames},
    }
    save_container(os.path.join(out_dir, MANIFEST_NAME), payload, fmt="confrank-manifest")


def load_manifest(out_dir) -> dict:
    payload = load_container(os.path.join(out_dir, MANIFEST_NAME), fmt="confrank-manifest",
                             keys=("config_hash", "schema_hash", "files"))
    for name, digest in payload["files"].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path) or file_sha256(path) != digest:
            raise CheckpointError(f"dataset file {name} missing or tampered")
    return payload


# -- world.json: the generator's ground truth ---------------------------

_WORLD_ARRAYS = ("conformity", "interests", "activity", "age_bucket", "popularity",
                 "topics", "quality", "birth_day", "content_type", "z_log_pop",
                 "top_decile")


def pack_world(world: World) -> dict:
    """Container payload for world.json: the data config plus every array."""
    arrays = {name: getattr(world, name) for name in _WORLD_ARRAYS}
    arrays["top_decile"] = world.top_decile.astype(np.int64)
    return {"config": C.to_dict(world.cfg),
            "arrays": {name: pack_array(a) for name, a in arrays.items()}}


def unpack_world(payload: dict) -> World:
    """Inverse of pack_world."""
    a = {k: unpack_array(v) for k, v in payload["arrays"].items()}
    a["top_decile"] = a["top_decile"].astype(bool)
    return World(C._from_dict(C.DataConfig, payload["config"]), **a)
