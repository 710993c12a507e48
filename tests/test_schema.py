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

    def test_hash_changes_with_any_field(self):
        base = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.STATISTICAL)])
        renamed = S.validate_schema([S.FeatureSpec("b", S.DENSE, S.STATISTICAL)])
        rebucketed = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.ATTRIBUTE)])
        widened = S.validate_schema([S.FeatureSpec("a", S.DENSE, S.STATISTICAL, width=2)])
        hashes = {base.hash, renamed.hash, rebucketed.hash, widened.hash}
        assert len(hashes) == 4


class TestPartition:
    def test_statistical_feature_routed(self):
        schema = S.validate_schema([
            S.FeatureSpec("video_view_count", S.DENSE, S.STATISTICAL),
            S.FeatureSpec("video_topic_id", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=5),
        ])
        parts = S.partition([3.5, 2], schema)
        assert parts.statistical_dense == [3.5]
        assert parts.attribute_dense == []
        assert parts.attribute_cats == [("video_topic_id", 2)]
        assert parts.statistical_cats == []

    def test_arity_mismatch(self):
        schema = S.default_schema()
        with pytest.raises(S.SchemaError, match="arity"):
            S.partition([0.0] * (schema.arity() + 1), schema)

    def test_unknown_vocab_index(self):
        schema = S.validate_schema(
            [S.FeatureSpec("c", S.CATEGORICAL, S.ATTRIBUTE, vocab_size=3)])
        with pytest.raises(S.SchemaError, match="out of vocab"):
            S.partition([7], schema)

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
            S.partition(raw, schema)

    @given(schema_strategy(), st.data())
    def test_partition_merge_roundtrip(self, schema, data):
        raw = []
        for s in schema.specs:
            if s.encoding == S.DENSE:
                raw += [data.draw(st.floats(-10, 10)) for _ in range(s.width)]
            else:
                raw.append(data.draw(st.integers(0, s.vocab_size - 1)))
        parts = S.partition(raw, schema)
        assert S.merge(parts, schema) == raw
        # bijection: every feature in exactly one bucket
        n_stat = len(parts.statistical_dense) + len(parts.statistical_cats)
        n_attr = len(parts.attribute_dense) + len(parts.attribute_cats)
        assert n_stat + n_attr == len(raw)

    def test_partition_is_pure(self):
        schema = S.default_schema()
        raw = list(np.arange(schema.arity(), dtype=float) % 2)
        a, b = S.partition(raw, schema), S.partition(raw, schema)
        assert a == b


class TestDefaultSchema:
    def test_validates_and_statistical_count(self):
        schema = S.default_schema()
        assert len(schema.specs_in(S.STATISTICAL)) == 5

    def test_hash_stable(self):
        assert S.default_schema().hash == S.default_schema().hash

    def test_file_roundtrip(self, tmp_path):
        schema = S.default_schema()
        path = tmp_path / "schema.tsv"
        S.write_schema_file(schema, path)
        assert S.read_schema_file(path).hash == schema.hash
