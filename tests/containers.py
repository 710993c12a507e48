"""Containers written by hand: the version-3 layout spelled out apart from
confrank.serialize, and the older layouts it must refuse."""

import base64
import hashlib
import json
import os

import numpy as np

from confrank import serialize as S


def read_v3(path):
    """(header document, payload text, array section) of a version-3 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = raw.index(b"\n") + 1
    doc = json.loads(raw[:start])
    text = raw[:start].rstrip(b" \n")[:-1].split(b'"payload": ', 1)[1]
    return doc, text, raw[start:]


def write_v3(path, fmt, text: bytes, section: bytes):
    """A version-3 container of this payload text and array section, with
    the sha256 of both: a header line padded to 64 bytes, then the section."""
    digest = hashlib.sha256(text + section).hexdigest()
    line = b'{"format": "%s", "version": 3, "sha256": "%s", "payload": %s}' % (
        fmt.encode(), digest.encode(), text)
    with open(path, "wb") as fh:
        fh.write(line + b" " * (-(len(line) + 1) % 64) + b"\n" + section)


def rewrite_payload(src, dst, edit):
    """Write to dst a re-signed copy of the version-3 container src whose
    payload edit(payload) has changed in place. The array section is kept
    as it is, so an edit may drop descriptors or add ones into it."""
    doc, _, section = read_v3(src)
    edit(doc["payload"])
    write_v3(dst, doc["format"], json.dumps(doc["payload"]).encode(), section)


def resign_manifest(dataset_dir):
    """Rewrite the manifest of dataset_dir with the sha256 each file it lists
    has now, so that an edited dataset file is refused, if at all, for its
    content and not its digest."""
    path = os.path.join(dataset_dir, S.MANIFEST_NAME)

    def edit(payload):
        for name in payload["files"]:
            payload["files"][name] = S.file_sha256(os.path.join(dataset_dir, name))

    rewrite_payload(path, path, edit)


def _base64_arrays(node):
    """A version-1/2 payload: every array as a {shape, dtype, data} dict,
    data the base64 of its little-endian bytes."""
    if isinstance(node, np.ndarray):
        return {"shape": list(node.shape), "dtype": node.dtype.str[1:],
                "data": base64.b64encode(node.tobytes()).decode("ascii")}
    if isinstance(node, dict):
        return {k: _base64_arrays(v) for k, v in node.items()}
    return node


def rewrite_as_version(path, version: int):
    """Rewrite a version-3 container as one JSON document in an older
    layout, with a checksum valid for that layout: version 2 hashes the
    payload text as written, version 1 a sorted-key compact re-encoding."""
    fmt = read_v3(path)[0]["format"]
    payload = _base64_arrays(S.load_container(path, fmt=fmt))
    text = json.dumps(payload)
    hashed = text if version == 2 else json.dumps(payload, sort_keys=True,
                                                  separators=(",", ":"))
    digest = hashlib.sha256(hashed.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(f'{{"format": "{fmt}", "version": {version}, "sha256": "{digest}", '
                 f'"payload": {text}}}')
