"""Mask formats: round trips, header handling, manifest parsing."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toposcan.mask_io import (
    RAW_MAGIC,
    _p1_digits,
    _pbm_tokens,
    binarize,
    read_manifest,
    read_mask,
    write_mask_pbm,
    write_mask_raw,
)


@pytest.fixture
def checker():
    mask = np.zeros((5, 9), dtype=np.uint8)
    mask[::2, 1::2] = 1
    mask[1::2, ::2] = 1
    return mask


class TestRoundTrips:
    def test_raw_round_trip(self, tmp_path, checker):
        path = tmp_path / "mask.tmsk"
        write_mask_raw(path, checker)
        assert np.array_equal(read_mask(path), checker)

    def test_raw_multiclass_labels(self, tmp_path):
        labels = np.arange(12, dtype=np.uint8).reshape(3, 4) % 4
        path = tmp_path / "labels.tmsk"
        write_mask_raw(path, labels)
        assert np.array_equal(read_mask(path), labels)

    def test_p4_round_trip(self, tmp_path, checker):
        path = tmp_path / "mask.pbm"
        write_mask_pbm(path, checker, binary=True)
        assert np.array_equal(read_mask(path), checker)

    def test_p1_round_trip(self, tmp_path, checker):
        path = tmp_path / "mask_ascii.pbm"
        write_mask_pbm(path, checker, binary=False)
        assert np.array_equal(read_mask(path), checker)

    def test_p4_non_multiple_of_eight_width(self, tmp_path):
        mask = (np.random.default_rng(0).random((3, 11)) > 0.5).astype(np.uint8)
        path = tmp_path / "odd.pbm"
        write_mask_pbm(path, mask, binary=True)
        assert np.array_equal(read_mask(path), mask)

    def test_p1_with_comments(self, tmp_path):
        path = tmp_path / "commented.pbm"
        path.write_bytes(b"P1\n# a comment\n3 2\n# another\n1 0 1\n0 1 0\n")
        assert read_mask(path).tolist() == [[1, 0, 1], [0, 1, 0]]


def p1_by_loop(mask):
    """The P1 file a per-pixel loop writes: reference for ``write_mask_pbm``."""
    h, w = mask.shape
    rows = "".join(" ".join("1" if v else "0" for v in row) + "\n" for row in mask)
    return f"P1\n{w} {h}\n{rows}".encode("ascii")


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (64, 48)])
def test_p1_writer_matches_the_loop_bytes(tmp_path, shape):
    mask = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape) < 0.5
    path = tmp_path / "mask.pbm"
    write_mask_pbm(path, mask, binary=False)
    assert path.read_bytes() == p1_by_loop(mask)


class TestErrors:
    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_mask(path)

    def test_truncated_raw_payload(self, tmp_path):
        path = tmp_path / "short.tmsk"
        import struct

        path.write_bytes(struct.pack("<4sII4x", RAW_MAGIC, 4, 4) + b"\x01" * 5)
        with pytest.raises(ValueError):
            read_mask(path)

    def test_truncated_p1(self, tmp_path):
        path = tmp_path / "short.pbm"
        path.write_bytes(b"P1\n3 3\n1 0 1\n")
        with pytest.raises(ValueError):
            read_mask(path)

    @pytest.mark.parametrize("header", [b"P4\n8", b"P4", b"P1\n3\n"])
    def test_truncated_pbm_header(self, tmp_path, header):
        path = tmp_path / "header.pbm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="truncated PBM header"):
            read_mask(path)

    @pytest.mark.parametrize(
        "data", [b"P4\n1_0 1\n\x00\x00", b"P1\n+3 1\n1 1 1\n", b"P1\n3 \xd9\xa1\n1 1 1\n"]
    )
    def test_pbm_dimensions_must_be_decimal_digits(self, tmp_path, data):
        path = tmp_path / "dims.pbm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="decimal digits"):
            read_mask(path)

    def test_pbm_magic_must_be_a_whole_token(self, tmp_path):
        path = tmp_path / "magic.pbm"
        path.write_bytes(b"P1x\n1 1\n\x80")
        with pytest.raises(ValueError, match="unknown PBM magic"):
            read_mask(path)

    def test_write_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_mask_raw(tmp_path / "bad.tmsk", np.zeros((2, 2, 2)))


class TestBinarize:
    def test_nonzero_default(self):
        labels = np.array([[0, 1], [2, 0]])
        assert binarize(labels, None).tolist() == [[False, True], [True, False]]

    def test_class_selection(self):
        labels = np.array([[0, 1], [2, 2]])
        assert binarize(labels, 2).tolist() == [[False, False], [True, True]]


class TestManifest:
    def test_parses_items_and_resolves_paths(self, tmp_path, checker):
        write_mask_raw(tmp_path / "pred.tmsk", checker)
        write_mask_raw(tmp_path / "gt.tmsk", checker)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "items": [
                        {"pred": "pred.tmsk", "gt": "gt.tmsk", "class_id": 1},
                        {"pred": "pred.tmsk", "gt": "gt.tmsk"},
                    ]
                }
            )
        )
        items = read_manifest(manifest)
        assert len(items) == 2
        assert items[0].class_id == 1
        assert items[1].class_id is None
        assert items[0].pred.exists()

    def test_rejects_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.json"
        manifest.write_text(json.dumps({"items": []}))
        with pytest.raises(ValueError):
            read_manifest(manifest)

    def test_rejects_malformed_json(self, tmp_path):
        manifest = tmp_path / "broken.json"
        manifest.write_text("{not json")
        with pytest.raises(ValueError):
            read_manifest(manifest)

    def test_rejects_missing_fields(self, tmp_path):
        manifest = tmp_path / "fields.json"
        manifest.write_text(json.dumps({"items": [{"pred": "x"}]}))
        with pytest.raises(ValueError):
            read_manifest(manifest)

    @pytest.mark.parametrize("class_id", [True, False])
    def test_rejects_boolean_class_id(self, tmp_path, class_id):
        manifest = tmp_path / "bool.json"
        manifest.write_text(
            json.dumps({"items": [{"pred": "p", "gt": "g", "class_id": class_id}]})
        )
        with pytest.raises(ValueError):
            read_manifest(manifest)

    @pytest.mark.parametrize("class_id", ["1", 1.0, [1]])
    def test_class_id_message_names_path_and_item(self, tmp_path, class_id):
        manifest = tmp_path / "class.json"
        items = [{"pred": "p", "gt": "g"}, {"pred": "p", "gt": "g", "class_id": class_id}]
        manifest.write_text(json.dumps({"items": items}))
        with pytest.raises(ValueError, match=r"class\.json: item 1 class_id must be an integer"):
            read_manifest(manifest)

    @pytest.mark.parametrize("fields", [{"pred": None}, {"gt": 2}, {"pred": ["a"]}])
    def test_rejects_non_string_paths(self, tmp_path, fields):
        manifest = tmp_path / "paths.json"
        manifest.write_text(json.dumps({"items": [{"pred": "p", "gt": "g", **fields}]}))
        with pytest.raises(ValueError, match="must be strings"):
            read_manifest(manifest)

    def test_rejects_deep_nesting(self, tmp_path):
        manifest = tmp_path / "deep.json"
        manifest.write_text('{"items":[' * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            read_manifest(manifest)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
manifest_items = st.dictionaries(
    st.sampled_from(["pred", "gt", "class_id"]) | st.text(), json_values, max_size=4
)
manifests = json_values | st.fixed_dictionaries({"items": st.lists(manifest_items, max_size=3)})
fuzz_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def loop_p1_digits(payload, count):
    """Reference P1 payload parser: one Python step per token and digit."""
    digits = []
    for token, _ in _pbm_tokens(payload):
        for ch in token:
            if ch not in (0x30, 0x31):
                raise ValueError(f"invalid P1 digit {chr(ch)!r}")
            digits.append(ch - 0x30)
        if len(digits) >= count:
            break
    if len(digits) < count:
        raise ValueError("truncated P1 payload")
    return np.array(digits[:count], dtype=np.uint8)


def p1_outcome(parse, payload, count):
    try:
        digits = parse(payload, count)
    except ValueError as exc:
        return str(exc)
    assert digits.dtype == np.uint8
    return digits.tolist()


class TestP1Payload:
    @pytest.mark.parametrize(
        "payload, count, expected",
        [
            (b" 1 0\n1", 3, [1, 0, 1]),
            (b" 101", 3, [1, 0, 1]),
            (b" 1 # 0 x\n0", 2, [1, 0]),
            (b" 1#0 1", 2, "invalid P1 digit '#'"),
            (b" 1 01x", 2, "invalid P1 digit 'x'"),
            (b" 1 0 x", 2, [1, 0]),
            (b" 1 0 # 1", 3, "truncated P1 payload"),
            (b"", 1, "truncated P1 payload"),
        ],
    )
    def test_tokens_comments_and_errors(self, payload, count, expected):
        assert p1_outcome(_p1_digits, payload, count) == expected
        assert p1_outcome(loop_p1_digits, payload, count) == expected

    @given(
        st.lists(st.sampled_from([b"0", b"1", b" ", b"\n", b"\t", b"\r", b"#", b"x"]), max_size=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_parser(self, parts, count):
        payload = b" " + b"".join(parts)
        assert p1_outcome(_p1_digits, payload, count) == p1_outcome(
            loop_p1_digits, payload, count
        )


class TestReaderFuzz:
    """Only ValueError escapes the readers, whatever the file holds."""

    @given(st.sampled_from([b"P1", b"P4", RAW_MAGIC]), st.binary(max_size=64))
    @fuzz_settings
    def test_read_mask_raises_only_value_error(self, tmp_path, prefix, body):
        path = tmp_path / "fuzz.mask"
        path.write_bytes(prefix + body)
        try:
            mask = read_mask(path)
        except ValueError:
            return
        assert mask.dtype == np.uint8 and mask.ndim == 2 and mask.size > 0

    @given(manifests)
    @fuzz_settings
    def test_read_manifest_raises_only_value_error(self, tmp_path, payload):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(payload))
        try:
            items = read_manifest(path)
        except ValueError:
            return
        assert items and all(isinstance(item.class_id, (int, type(None))) for item in items)
