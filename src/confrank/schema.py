"""Feature schema: declares each feature's encoding and causal bucket.

Every feature is either a statistical engagement signal (impression counts,
rates) or an attribute/content descriptor (topics, quality, demographics).
The split is declared, never inferred, so rewiring the causal modules to see
all features is a pure config change.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field, fields

import numpy as np

DENSE = "dense-real"
CATEGORICAL = "categorical"
STATISTICAL = "statistical-engagement"
ATTRIBUTE = "attribute-content"

DEFAULT_TOPICS = 8


class SchemaError(ValueError):
    """Invalid schema declaration or a vector that does not match it."""


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    encoding: str  # DENSE or CATEGORICAL
    bucket: str  # STATISTICAL or ATTRIBUTE
    width: int = 1  # dense column count; 1 for categoricals
    vocab_size: int = 0  # categoricals only

    def validate(self):
        for key in ("width", "vocab_size"):
            if type(getattr(self, key)) is not int:
                raise SchemaError(f"{self.name} {key} must be an integer, "
                                  f"got {getattr(self, key)!r}")
        if self.encoding not in (DENSE, CATEGORICAL):
            raise SchemaError(f"unknown encoding {self.encoding!r} for {self.name}")
        if self.bucket not in (STATISTICAL, ATTRIBUTE):
            raise SchemaError(f"unknown bucket {self.bucket!r} for {self.name}")
        if self.encoding == CATEGORICAL and self.vocab_size < 2:
            raise SchemaError(
                f"categorical {self.name} needs vocab_size >= 2, got {self.vocab_size}"
            )
        if self.width < 1:
            raise SchemaError(f"{self.name} width must be >= 1")


SIDES = ("user", "item")


def _side(name: str) -> str:
    return "user" if name.startswith("user_") else "item"


@dataclass
class Schema:
    """Validated, ordered feature list with a stable content hash.

    Also the one owner of the column layout of a raw feature row: dense
    features take `width` columns, categoricals one column each. The layout
    and the hash are computed once, at construction; `specs` is not changed
    afterwards.
    """

    specs: list = field(default_factory=list)

    def __post_init__(self):
        self.slices = {}  # name -> slice of the feature's columns
        self.cat_col = {}  # categorical name -> its column index
        pos = 0
        for s in self.specs:
            width = s.width if s.encoding == DENSE else 1
            self.slices[s.name] = slice(pos, pos + width)
            if s.encoding == CATEGORICAL:
                self.cat_col[s.name] = pos
            pos += width
        self._arity = pos
        cats = self.cats_for()
        self._cat_cols = np.array([self.cat_col[s.name] for s in cats], dtype=np.int64)
        self._vocab = np.array([s.vocab_size for s in cats], dtype=np.float64)
        canon = "\n".join("|".join(map(str, astuple(s))) for s in self.specs)
        self.hash = hashlib.sha256(canon.encode()).hexdigest()[:16]

    def arity(self) -> int:
        """Raw vector length: dense widths plus one slot per categorical."""
        return self._arity

    def _select(self, encoding, bucket, side) -> list:
        return [s for s in self.specs if s.encoding == encoding
                and (bucket is None or s.bucket == bucket)
                and (side is None or _side(s.name) == side)]

    def dense_for(self, bucket=None, side=None) -> list:
        """Column indices of the dense features in a bucket / on a side."""
        columns = range(self._arity)
        return [c for s in self._select(DENSE, bucket, side) for c in columns[self.slices[s.name]]]

    def cats_for(self, bucket=None, side=None) -> list:
        """Specs of the categorical features in a bucket / on a side."""
        return self._select(CATEGORICAL, bucket, side)

    def check_rows(self, rows) -> np.ndarray:
        """Refuse a feature matrix with the wrong width, a non-finite value,
        or a categorical value that is not an integer inside its vocab."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._arity:
            raise SchemaError(
                f"feature rows of shape {rows.shape} do not match schema arity {self._arity}")
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            r, c = bad[0]
            raise SchemaError(f"non-finite value {rows[r, c]} in row {r}, column {c}")
        idx = rows[:, self._cat_cols]
        bad = np.argwhere((idx != np.floor(idx)) | (idx < 0) | (idx >= self._vocab))
        if bad.size:
            r, j = bad[0]
            spec = self.cats_for()[j]
            raise SchemaError(f"index {idx[r, j]:g} in row {r} out of vocab for {spec.name} "
                              f"(integers 0..{spec.vocab_size - 1})")
        return rows


def validate_schema(specs) -> Schema:
    seen = set()
    for s in specs:
        s.validate()
        if s.name in seen:
            raise SchemaError(f"duplicate feature name {s.name!r}")
        seen.add(s.name)
    return Schema(list(specs))


def default_schema(k_topics: int = DEFAULT_TOPICS, n_age_buckets: int = 6,
                   n_content_types: int = 4) -> Schema:
    """Schema the synthetic generator emits: five statistical engagement
    features plus user/item attribute features over k interest topics."""
    return validate_schema([
        FeatureSpec("item_impression_count", DENSE, STATISTICAL),
        FeatureSpec("item_view_count", DENSE, STATISTICAL),
        FeatureSpec("item_ctr_est", DENSE, STATISTICAL),
        FeatureSpec("user_engagement_count", DENSE, STATISTICAL),
        FeatureSpec("user_social_rate", DENSE, STATISTICAL),
        FeatureSpec("user_age_bucket", CATEGORICAL, ATTRIBUTE, vocab_size=n_age_buckets),
        FeatureSpec("user_interest_weights", DENSE, ATTRIBUTE, width=k_topics),
        FeatureSpec("item_topic_flags", DENSE, ATTRIBUTE, width=k_topics),
        FeatureSpec("item_quality", DENSE, ATTRIBUTE),
        FeatureSpec("content_type", CATEGORICAL, ATTRIBUTE, vocab_size=n_content_types),
    ])


def write_schema_file(schema: Schema, path):
    from .serialize import write_atomic  # serialize imports datagen, which imports schema

    header = "# " + "\t".join(f.name for f in fields(FeatureSpec)) + "\n"
    text = header + "".join("\t".join(map(str, astuple(s))) + "\n" for s in schema.specs)
    write_atomic(path, [text.encode()])


def schema_from_rows(rows) -> Schema:
    """The validated schema of [name, encoding, bucket, width, vocab_size]
    rows (schema file lines, a checkpoint's "schema"). A SchemaError names
    the row at fault but not where the rows came from: callers add that."""
    if not isinstance(rows, list):
        raise SchemaError(f"not a list of rows but {type(rows).__name__}")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 5
                and all(isinstance(f, str) for f in row[:3])):
            raise SchemaError(f"row {i} is not [name, encoding, bucket, width, "
                              f"vocab_size] with a string name, encoding and bucket: {row!r}")
    return validate_schema([FeatureSpec(*row) for row in rows])


def read_schema_file(path) -> Schema:
    rows = []
    with open(path) as fh:
        for number, line in enumerate(map(str.strip, fh), 1):
            if line and not line.startswith("#"):
                cells = line.split("\t")
                try:
                    rows.append(cells[:3] + [int(v) for v in cells[3:]])
                except ValueError as e:
                    raise SchemaError(f"schema file {path} line {number}: {e}") from None
    try:
        return schema_from_rows(rows)
    except SchemaError as e:
        raise SchemaError(f"schema file {path}: {e}") from None
