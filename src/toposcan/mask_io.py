"""Mask file formats and the evaluation manifest.

Three on-disk formats are supported, all dependency-free:

* PBM P1: ASCII portable bitmap ("P1", width, height, then 0/1 digits).
* PBM P4: binary portable bitmap (rows packed MSB-first, byte-padded).
* Raw dense: 16-byte header — magic ``TMSK``, uint32-LE height, uint32-LE
  width, 4 reserved zero bytes — followed by height*width label bytes in
  row-major order.

PBM stores width before height and uses 1 for foreground. The raw format
may carry multi-class label values; binarization against a class id
happens at evaluation time.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RAW_MAGIC",
    "ManifestItem",
    "read_mask",
    "write_mask_pbm",
    "write_mask_raw",
    "read_manifest",
    "binarize",
]

RAW_MAGIC = b"TMSK"
_RAW_HEADER = struct.Struct("<4sII4x")  # magic, height, width, reserved
# The bytes that bytes.isspace() accepts, as a lookup table.
_PBM_SPACE = np.zeros(256, dtype=bool)
_PBM_SPACE[list(b" \t\n\v\f\r")] = True


@dataclass(frozen=True)
class ManifestItem:
    """One evaluation pair: prediction path, ground-truth path, class id.

    ``class_id`` of None means "foreground is any nonzero value".
    """

    pred: Path
    gt: Path
    class_id: int | None = None


def write_mask_raw(path: str | Path, mask: np.ndarray) -> None:
    """Write a 2-D label array in the raw dense format (values 0..255)."""
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"mask must be a non-empty 2-D array, got shape {arr.shape}")
    data = arr.astype(np.uint8)
    if not np.array_equal(data, arr):
        raise ValueError("raw masks must hold integer labels in 0..255")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(RAW_MAGIC, h, w))
        fh.write(data.tobytes(order="C"))


def write_mask_pbm(path: str | Path, mask: np.ndarray, binary: bool = True) -> None:
    """Write a binary mask as PBM (P4 when ``binary``, else ASCII P1)."""
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"mask must be a non-empty 2-D array, got shape {arr.shape}")
    bits = arr.astype(bool)
    h, w = bits.shape
    with open(path, "wb") as fh:
        if binary:
            fh.write(f"P4\n{w} {h}\n".encode("ascii"))
            fh.write(np.packbits(bits, axis=1).tobytes())
        else:
            fh.write(f"P1\n{w} {h}\n".encode("ascii"))
            for row in bits:
                fh.write((" ".join("1" if v else "0" for v in row) + "\n").encode("ascii"))


def _pbm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end == -1 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            yield data[pos:end], end
            pos = end


def _p1_digits(payload: bytes, count: int) -> np.ndarray:
    """The first ``count`` 0/1 digits of a P1 payload, as uint8.

    Tokens are read as by :func:`_pbm_tokens` up to and including the one
    that holds the last needed digit; every byte of those must be 0 or 1.
    """
    buf = np.frombuffer(payload, dtype=np.uint8)
    space = _PBM_SPACE[buf]
    at = np.arange(buf.size)
    # A '#' that starts a token comments out the bytes up to its newline.
    starts = (buf == ord("#")) & np.concatenate(([True], space[:-1]))
    last_start = np.maximum.accumulate(np.where(starts, at, -1))
    last_newline = np.maximum.accumulate(np.where(buf == ord("\n"), at, -1))
    in_comment = last_start > np.concatenate(([-1], last_newline[:-1]))
    pos = np.flatnonzero(~space & ~in_comment)
    if pos.size >= count:
        # Read on to the end of the token that holds the last needed digit.
        ends = np.append(np.flatnonzero(space), buf.size)
        token_end = ends[np.searchsorted(ends, pos[count - 1])]
        pos = pos[: np.searchsorted(pos, token_end)]
    digits = buf[pos]
    bad = np.flatnonzero((digits != ord("0")) & (digits != ord("1")))
    if bad.size:
        raise ValueError(f"invalid P1 digit {chr(digits[bad[0]])!r}")
    if digits.size < count:
        raise ValueError("truncated P1 payload")
    return digits[:count] - ord("0")


def _read_pbm(data: bytes) -> np.ndarray:
    tokens = _pbm_tokens(data)
    try:
        (magic, _), (w_tok, _), (h_tok, header_end) = [next(tokens) for _ in range(3)]
    except StopIteration:
        raise ValueError("truncated PBM header") from None
    if magic not in (b"P1", b"P4"):
        raise ValueError(f"unknown PBM magic {magic!r}")
    if not (w_tok.isdigit() and h_tok.isdigit()):
        raise ValueError(f"PBM dimensions must be decimal digits, got {w_tok!r} {h_tok!r}")
    w, h = int(w_tok), int(h_tok)
    if w < 1 or h < 1:
        raise ValueError(f"invalid PBM dimensions {w}x{h}")
    if magic == b"P1":
        return _p1_digits(data[header_end:], h * w).reshape(h, w)
    # P4: a single whitespace byte separates the header from the payload.
    payload = data[header_end + 1 :]
    row_bytes = (w + 7) // 8
    if len(payload) < h * row_bytes:
        raise ValueError("truncated P4 payload")
    rows = np.frombuffer(payload[: h * row_bytes], dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :w]


def read_mask(path: str | Path) -> np.ndarray:
    """Load a mask file, dispatching on its magic bytes.

    Returns:
        uint8 array of shape (height, width); PBM yields 0/1 values,
        the raw format yields its stored label values.

    Raises:
        ValueError: for unknown magic or malformed contents.
    """
    data = Path(path).read_bytes()
    if data[:4] == RAW_MAGIC:
        if len(data) < _RAW_HEADER.size:
            raise ValueError(f"{path}: truncated raw mask header")
        _, h, w = _RAW_HEADER.unpack_from(data)
        if h < 1 or w < 1:
            raise ValueError(f"{path}: invalid raw mask dimensions {h}x{w}")
        body = data[_RAW_HEADER.size :]
        if len(body) < h * w:
            raise ValueError(f"{path}: truncated raw mask payload")
        return np.frombuffer(body[: h * w], dtype=np.uint8).reshape(h, w).copy()
    if data[:2] in (b"P1", b"P4"):
        return _read_pbm(data).astype(np.uint8)
    raise ValueError(f"{path}: unknown mask format (magic {data[:4]!r})")


def binarize(labels: np.ndarray, class_id: int | None) -> np.ndarray:
    """Foreground mask for one class: labels == class_id, or nonzero if None."""
    labels = np.asarray(labels)
    if class_id is None:
        return labels != 0
    return labels == class_id


def read_manifest(path: str | Path) -> list[ManifestItem]:
    """Parse a JSON manifest of mask pairs.

    Expected layout: ``{"items": [{"pred": ..., "gt": ..., "class_id": ...}]}``
    with paths resolved relative to the manifest's directory and
    class_id optional (null or absent means nonzero-is-foreground).

    Raises:
        ValueError: for structural problems, non-string paths, nesting too
            deep to parse, or an empty item list.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: manifest is not valid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: manifest is nested too deeply") from None
    items = payload.get("items") if isinstance(payload, dict) else None
    if not isinstance(items, list) or not items:
        raise ValueError(f"{path}: manifest must contain a non-empty 'items' list")
    base = path.parent
    parsed = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict) or "pred" not in item or "gt" not in item:
            raise ValueError(f"{path}: item {idx} must provide 'pred' and 'gt' paths")
        if not (isinstance(item["pred"], str) and isinstance(item["gt"], str)):
            raise ValueError(f"{path}: item {idx} 'pred' and 'gt' must be strings")
        class_id = item.get("class_id")
        if class_id is not None and (
            not isinstance(class_id, int) or isinstance(class_id, bool)
        ):
            raise ValueError(f"{path}: item {idx} class_id must be an integer or null")
        parsed.append(
            ManifestItem(
                pred=base / item["pred"],
                gt=base / item["gt"],
                class_id=class_id,
            )
        )
    return parsed
