"""Dataset file formats: CSV (one row per sample) and one framed binary codec.

A binary file is a 4-byte magic and a u16 version, then blocks of u32 rows,
u32 cols and rows*cols float64 values in column-major order, all
little-endian; its length must match exactly. WBDS (version 1) holds one
d x n dataset block, samples as columns, and WBLB (version 1), in a ".wblb"
companion file, one k x n label block. WBCP (version 2) holds the d x (n - d)
compressed payload block and then the 1 x n column permutation block, 1 x 0
when columns were not permuted, so a file cut after the payload fails the
length check instead of losing its permutation.
"""
from __future__ import annotations

import csv
import re
import struct
from pathlib import Path

import numpy as np

from .datatypes import Dataset, LabelSet
from .errors import ParseError, ValidationError
from .info_checks import CompressedDataset

FORMATS = ("csv", "wbds")
# (magic, version) of each framed format
_WBDS = (b"WBDS", 1)
_WBLB = (b"WBLB", 1)
_WBCP = (b"WBCP", 2)
_HEADER = struct.Struct("<4sH")
_BLOCK = struct.Struct("<II")
_CSV_COLUMN = re.compile(r"f\d+|y\d+|label")


def _float_repr(x: float) -> str:
    return repr(float(x))


# -- csv ---------------------------------------------------------------------

def export_csv(path, X: Dataset, labels: LabelSet | None = None):
    """One row per sample: feature columns f0..f{d-1} plus optional label column.

    One-hot labels are stored as their class index; real-valued labels as
    y0..y{k-1} columns.
    """
    path = Path(path)
    d = X.feature_dim
    header = [f"f{i}" for i in range(d)]
    label_cols = 0
    if labels is not None:
        if labels.encoding == "one_hot":
            header.append("label")
        else:
            label_cols = labels.output_dim
            header.extend(f"y{i}" for i in range(label_cols))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        classes = labels.class_indices() if labels is not None and labels.encoding == "one_hot" else None
        for j in range(X.sample_count):
            row = [_float_repr(v) for v in X.values[:, j]]
            if classes is not None:
                row.append(str(int(classes[j])))
            elif label_cols:
                row.extend(_float_repr(v) for v in labels.targets[:, j])
            writer.writerow(row)


def ingest_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a text csv file ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    for name in header:
        if not _CSV_COLUMN.fullmatch(name):
            raise ParseError(f"{path}: line 1: unknown column {name!r} (expected f<i>, y<i> or label)")
    feature_idx = [i for i, name in enumerate(header) if name.startswith("f")]
    label_idx = header.index("label") if "label" in header else None
    y_idx = [i for i, name in enumerate(header) if name.startswith("y")]
    if not feature_idx:
        raise ParseError(f"{path}: header has no feature columns (f0, f1, ...)")
    columns, class_ids, y_rows = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}")
        try:
            values = [float(row[i]) for i in feature_idx]
            if label_idx is not None:
                class_ids.append(int(row[label_idx]))
            if y_idx:
                y_rows.append([float(row[i]) for i in y_idx])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if class_ids and class_ids[-1] < 0:
            raise ParseError(f"{path}: line {lineno}: negative class id {class_ids[-1]}")
        if not all(np.isfinite(values)):
            raise ParseError(f"{path}: line {lineno} contains non-finite values")
        columns.append(values)
    if not columns:
        raise ParseError(f"{path}: no data rows")
    X = Dataset(np.array(columns, dtype=np.float64).T)
    labels = None
    if label_idx is not None:
        labels = LabelSet.from_class_ids(class_ids, max(class_ids) + 1)
    elif y_rows:
        labels = LabelSet(np.array(y_rows, dtype=np.float64).T, encoding="real_valued")
    return X, labels


# -- framed binary codec ------------------------------------------------------

def _write_frame(path, fmt: tuple, *blocks: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*fmt))
        for block in blocks:
            fh.write(_BLOCK.pack(*block.shape))
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes(order="F"))


def _read_frame(path, fmt: tuple, block_count: int = 1) -> list:
    """The block_count blocks of a framed file; any other length is a ParseError."""
    magic, version = fmt
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
    if len(data) < _HEADER.size:
        raise ParseError(f"{path}: truncated header at offset 0 ({len(data)} bytes)")
    found_magic, found_version = _HEADER.unpack_from(data)
    if found_magic != magic:
        raise ParseError(f"{path}: bad magic {found_magic!r} at offset 0, expected {magic!r} (unsupported format)")
    if found_version != version:
        raise ParseError(f"{path}: unsupported version {found_version} at offset 4, expected {version}")
    blocks, offset = [], _HEADER.size
    for _ in range(block_count):
        if len(data) - offset < _BLOCK.size:
            raise ParseError(f"{path}: truncated block header at offset {offset} ({len(data)} bytes)")
        rows, cols = _BLOCK.unpack_from(data, offset)
        end = offset + _BLOCK.size + 8 * rows * cols
        if end > len(data):
            raise ParseError(f"{path}: {rows}x{cols} block at offset {offset} needs {end} bytes, found {len(data)}")
        flat = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset + _BLOCK.size)
        blocks.append(flat.reshape((rows, cols), order="F").astype(np.float64))
        offset = end
    if offset != len(data):
        raise ParseError(f"{path}: {len(data) - offset} trailing bytes at offset {offset}")
    return blocks


# -- wbds --------------------------------------------------------------------

def label_companion_path(path) -> Path:
    return Path(path).with_suffix(".wblb")


def export_wbds(path, X: Dataset, labels: LabelSet | None = None):
    _write_frame(path, _WBDS, X.values)
    if labels is not None:
        _write_frame(label_companion_path(path), _WBLB, labels.targets)


def ingest_wbds(path):
    X = Dataset(_read_frame(path, _WBDS)[0])
    labels = None
    companion = label_companion_path(path)
    if companion.exists():
        targets = _read_frame(companion, _WBLB)[0]
        if targets.shape[1] != X.sample_count:
            raise ParseError(f"{companion}: {targets.shape[1]} label columns for {X.sample_count} samples")
        try:
            labels = LabelSet(targets, encoding="one_hot")
        except ValidationError:
            labels = LabelSet(targets, encoding="real_valued")
    return X, labels


def export_compressed(path, c: CompressedDataset):
    perm = np.empty((1, 0)) if c.column_permutation is None else np.reshape(c.column_permutation, (1, c.n))
    _write_frame(path, _WBCP, c.payload, perm)


def ingest_compressed(path) -> CompressedDataset:
    """Read a WBCP file; d and n follow from the payload block's shape."""
    payload, perm = _read_frame(path, _WBCP, block_count=2)
    d, n = payload.shape[0], payload.shape[0] + payload.shape[1]
    if d < 1 or not np.all(np.isfinite(payload)):
        raise ParseError(f"{path}: {d}x{n - d} payload block at offset 6 is empty or not finite")
    if perm.shape == (1, 0):
        return CompressedDataset(payload=payload, d=d, n=n)
    if perm.shape != (1, n) or not np.array_equal(np.sort(perm[0]), np.arange(n)):
        raise ParseError(f"{path}: block at offset {14 + 8 * payload.size} is not a 1x{n} permutation of range({n})")
    return CompressedDataset(payload=payload, d=d, n=n, column_permutation=perm[0].astype(int))


def ingest(path, fmt: str):
    """Load a dataset (+ labels when present) from csv or wbds."""
    if fmt not in FORMATS:
        raise ValidationError(f"unsupported format {fmt!r}; supported: {FORMATS}")
    if not Path(path).exists():
        raise ParseError(f"{path}: no such file")
    return ingest_csv(path) if fmt == "csv" else ingest_wbds(path)


def export(path, fmt: str, X: Dataset, labels: LabelSet | None = None):
    if fmt not in FORMATS:
        raise ValidationError(f"unsupported format {fmt!r}; supported: {FORMATS}")
    export_csv(path, X, labels) if fmt == "csv" else export_wbds(path, X, labels)


# -- plain numeric matrices (CLI outputs) -------------------------------------

def write_matrix_csv(path, A: np.ndarray):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(A):
            writer.writerow([_float_repr(v) for v in row])

