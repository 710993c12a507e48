import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from confrank import schema as S


def spec_strategy():
    name = st.text(alphabet="abcdefgh_", min_size=1, max_size=8)
    encoding = st.sampled_from([S.DENSE, S.CATEGORICAL])
    bucket = st.sampled_from([S.STATISTICAL, S.ATTRIBUTE])
    return st.builds(
        lambda n, e, b, w, v: S.FeatureSpec(n, e, b, w if e == S.DENSE else 1,
                                            v if e == S.CATEGORICAL else 0),
        name, encoding, bucket, st.integers(1, 4), st.integers(2, 9))


def schema_strategy():
    return st.lists(spec_strategy(), max_size=8,
                    unique_by=lambda s: s.name).map(S.validate_schema)


class TestValidateSchema:
    def test_duplicate_name_rejected(self):
        specs = [S.FeatureSpec("a", S.DENSE, S.STATISTICAL),
                 S.FeatureSpec("a", S.DENSE, S.ATTRIBUTE)]
        with pytest.raises(S.SchemaError, match="duplicate"):
            S.validate_schema(specs)

    def test_empty_schema_is_valid(self):
        schema = S.validate_schema([])
        assert schema.hash == S.validate_schema([]).hash
        assert schema.arity() == 0

    def test_small_vocab_rejected(self):
        with pytest.raises(S.SchemaError, match="vocab"):
            S.validate_schema([S.FeatureSpec("c", S.CATEGORICAL, S.ATTRIBUTE,
                                             vocab_size=1)])

    @pytest.mark.parametrize("field", ["width", "vocab_size"])
    def test_non_integer_size_rejected(self, field):
        spec = S.FeatureSpec("c", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=3)
        with pytest.raises(S.SchemaError, match=f"{field} must be an integer"):
            S.validate_schema([dataclasses.replace(spec, **{field: "3"})])

    def test_hash_changes_with_any_field(self):
        base = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.STATISTICAL)])
        renamed = S.validate_schema([S.FeatureSpec("b", S.DENSE, S.STATISTICAL)])
        rebucketed = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.ATTRIBUTE)])
        widened = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.STATISTICAL, width=2)])
        hashes = {base.hash, renamed.hash, rebucketed.hash, widened.hash}
        assert len(hashes) == 4


def route(raw, schema):
    """One raw row split by the schema's column layout into
    {bucket: (dense values, [(categorical name, index)])}."""
    row = schema.check_rows([raw])[0].tolist()
    return {b: ([row[c] for c in schema.dense_for(b)],
                [(s.name, int(row[schema.cat_col[s.name]])) for s in schema.cats_for(b)])
            for b in (S.STATISTICAL, S.ATTRIBUTE)}


class TestPartition:
    """Routing a raw row into its causal buckets via Schema.dense_for,
    Schema.cats_for and Schema.check_rows."""

    def test_statistical_feature_routed(self):
        schema = S.validate_schema([
            S.FeatureSpec("video_view_count", S.DENSE, S.STATISTICAL),
            S.FeatureSpec("video_topic_id", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=5),
        ])
        parts = route([3.5, 2], schema)
        assert parts[S.STATISTICAL][0] == [3.5]
        assert parts[S.ATTRIBUTE][0] == []
        assert parts[S.ATTRIBUTE][1] == [("video_topic_id", 2)]
        assert parts[S.STATISTICAL][1] == []

    def test_arity_mismatch(self):
        schema = S.default_schema()
        with pytest.raises(S.SchemaError, match="arity"):
            schema.check_rows([[0.0] * (schema.arity() + 1)])

    def test_unknown_vocab_index(self):
        schema = S.validate_schema(
            [S.FeatureSpec("c", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=3)])
        with pytest.raises(S.SchemaError, match="out of vocab"):
            schema.check_rows([[7]])

    @pytest.mark.parametrize("raw,message", [
        ([0.0, 2.5], "out of vocab"),  # categoricals are integers
        ([np.nan, 2.0], "non-finite"),
        ([0.0, -1.0], "out of vocab"),
    ])
    def test_malformed_row_rejected(self, raw, message):
        schema = S.validate_schema([
            S.FeatureSpec("d", S.DENSE, S.STATISTICAL),
            S.FeatureSpec("c", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=3),
        ])
        with pytest.raises(S.SchemaError, match=message):
            schema.check_rows([raw])

    @given(schema_strategy(), st.data())
    def test_partition_merge_roundtrip(self, schema, data):
        raw = []
        for s in schema.specs:
            if s.encoding == S.DENSE:
                raw += [data.draw(st.floats(-10, 10)) for _ in range(s.width)]
            else:
                raw.append(data.draw(st.integers(0, s.vocab_size - 1)))
        row = schema.check_rows([raw])[0].tolist()
        cols = {b: schema.dense_for(b) + [schema.cat_col[s.name] for s in schema.cats_for(b)]
                for b in (S.STATISTICAL, S.ATTRIBUTE)}
        rebuilt = [None] * schema.arity()
        for bucket_cols in cols.values():
            for c in bucket_cols:
                rebuilt[c] = row[c]
        assert rebuilt == raw
        # bijection: every feature in exactly one bucket
        assert len(cols[S.STATISTICAL]) + len(cols[S.ATTRIBUTE]) == len(raw)

    @given(schema_strategy())
    def test_every_column_in_exactly_one_feature_slice(self, schema):
        columns = range(schema.arity())
        owners = [[name for name, sl in schema.slices.items() if c in columns[sl]]
                  for c in columns]
        assert all(len(o) == 1 for o in owners)
        assert list(schema.slices) == [s.name for s in schema.specs]
        for s in schema.specs:
            sl = schema.slices[s.name]
            if s.encoding == S.DENSE:
                assert sl.stop - sl.start == s.width
            else:
                assert sl == slice(schema.cat_col[s.name], schema.cat_col[s.name] + 1)
        assert schema.dense_for() == [c for s in schema.specs if s.encoding == S.DENSE
                                      for c in columns[schema.slices[s.name]]]

    def test_partition_is_pure(self):
        schema = S.default_schema()
        raw = list(np.arange(schema.arity(), dtype=float) % 2)
        a, b = route(raw, schema), route(raw, schema)
        assert a == b


class TestDefaultSchema:
    def test_validates_and_statistical_count(self):
        schema = S.default_schema()
        assert len(schema.dense_for(S.STATISTICAL)) == 5

    def test_hash_stable(self):
        assert S.default_schema().hash == S.default_schema().hash

    def test_hash_value_unchanged(self):
        """Computed once at construction, from the same canonical text as
        ever: datasets and checkpoints written before still match."""
        assert S.default_schema().hash == "bdc83238324be33c"

    def test_file_roundtrip(self, tmp_path):
        schema = S.default_schema()
        path = tmp_path / "schema.tsv"
        S.write_schema_file(schema, path)
        assert S.read_schema_file(path).hash == schema.hash

    def test_file_layout(self, tmp_path):
        """A header naming the FeatureSpec fields, then one tab-separated row
        per feature in FeatureSpec field order."""
        path = tmp_path / "schema.tsv"
        S.write_schema_file(S.default_schema(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# name\tencoding\tbucket\twidth\tvocab_size"
        assert lines[1] == "item_impression_count\tdense-real\tstatistical-engagement\t1\t0"
        assert len(lines) == 11

    def test_short_file_row_refused_naming_file_and_row(self, tmp_path):
        path = tmp_path / "schema.tsv"
        S.write_schema_file(S.default_schema(), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(S.SchemaError, match=f"schema file {path}: row 1 is not"):
            S.read_schema_file(path)
