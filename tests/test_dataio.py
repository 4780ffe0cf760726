from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitebench import Dataset, LabelSet
from whitebench.cli import main
from whitebench.dataio import (
    MAX_CLASS_ID,
    export,
    export_compressed,
    export_csv,
    export_wbds,
    ingest,
    ingest_compressed,
    ingest_csv,
    ingest_wbds,
    label_companion_path,
    write_matrix_csv,
)
from whitebench.errors import ParseError, ValidationError, WhitebenchError
from whitebench.info_checks import CompressedDataset
from whitebench.plotting import PlotSpec, emit_plot
from whitebench.runner import ResultRow, write_rows_csv
from whitebench.verify import write_report

FIXTURE = Path(__file__).parent / "data" / "two_samples.csv"


def test_golden_two_sample_csv_fixture():
    X, labels = ingest(FIXTURE)
    assert np.array_equal(X.values, [[1.5, -2.0], [0.25, 4.0], [3.0, 0.0]])
    assert labels.encoding == "one_hot"
    assert np.array_equal(labels.class_indices(), [0, 2])


def test_csv_round_trip(tmp_path, rng):
    X = Dataset(rng.standard_normal((4, 7)))
    idx = rng.integers(0, 3, size=7)
    onehot = np.zeros((3, 7))
    onehot[idx, np.arange(7)] = 1.0
    labels = LabelSet(onehot, encoding="one_hot")
    path = tmp_path / "data.csv"
    export_csv(path, X, labels)
    X2, labels2 = ingest_csv(path)
    assert np.array_equal(X.values, X2.values)
    assert np.array_equal(labels.targets, labels2.targets)


def test_csv_real_valued_labels_round_trip(tmp_path, rng):
    X = Dataset(rng.standard_normal((2, 5)))
    labels = LabelSet(rng.standard_normal((3, 5)), encoding="real_valued")
    path = tmp_path / "real.csv"
    export_csv(path, X, labels)
    _, labels2 = ingest_csv(path)
    assert labels2.encoding == "real_valued"
    assert np.array_equal(labels.targets, labels2.targets)


def test_csv_ragged_row_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(path)


def test_csv_nonfinite_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0\ninf\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        ingest_csv(path)


def test_csv_unknown_column_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,foo,label\n1.0,2.0,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="unknown column 'foo'"):
        ingest_csv(path)


def test_csv_negative_class_id_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\n2.0,-1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3: negative class id -1"):
        ingest_csv(path)


def test_csv_class_id_above_bound_error(tmp_path):
    # the one-hot matrix would have a row per id up to the largest
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\n2.0,99999\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 3: class id 99999 above {MAX_CLASS_ID}"):
        ingest_csv(path)
    assert main(["whiten", "--input", str(path), "--mode", "pca", "--output", str(tmp_path / "w.wbds")]) == 2


def test_csv_binary_file_error(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"WBDS\x01\x00\xff\xfe\x00")
    with pytest.raises(ParseError, match="not a text csv file"):
        ingest_csv(path)


def test_wbds_golden_bytes(tmp_path):
    path = tmp_path / "g.wbds"
    export_wbds(path, Dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    data = path.read_bytes()
    # magic, u16 version 1, u32 rows 2, u32 cols 3, then column-major float64
    assert data[:14] == b"WBDS\x01\x00\x02\x00\x00\x00\x03\x00\x00\x00"
    assert data[14:] == np.array([1.0, 4.0, 2.0, 5.0, 3.0, 6.0], dtype="<f8").tobytes()


def test_wbcp_round_trip_with_permutation(tmp_path):
    c = CompressedDataset(
        payload=[[0.5, -1.0, 2.0], [3.0, 0.25, -4.0]], d=2, n=5,
        column_permutation=np.array([3, 0, 4, 1, 2]),
    )
    path = tmp_path / "c.wbcp"
    export_compressed(path, c)
    assert path.read_bytes()[:6] == b"WBCP\x02\x00"
    c2 = ingest_compressed(path)
    assert (c2.d, c2.n) == (2, 5)
    assert c.payload.tobytes() == c2.payload.tobytes()
    assert np.array_equal(c2.column_permutation, [3, 0, 4, 1, 2])


def test_wbds_round_trip_bit_identical(tmp_path, rng):
    X = Dataset(rng.standard_normal((5, 9)))
    idx = rng.integers(0, 4, size=9)
    onehot = np.zeros((4, 9))
    onehot[idx, np.arange(9)] = 1.0
    labels = LabelSet(onehot, encoding="one_hot")
    path = tmp_path / "data.wbds"
    export_wbds(path, X, labels)
    X2, labels2 = ingest_wbds(path)
    assert X.values.tobytes() == X2.values.tobytes()
    assert labels2.encoding == "one_hot"
    assert labels.targets.tobytes() == labels2.targets.tobytes()
    # re-exporting reproduces the exact same bytes
    path2 = tmp_path / "again.wbds"
    export_wbds(path2, X2, labels2)
    assert path.read_bytes() == path2.read_bytes()
    assert label_companion_path(path).read_bytes() == label_companion_path(path2).read_bytes()


def test_wbds_real_labels_inferred(tmp_path, rng):
    X = Dataset(rng.standard_normal((3, 6)))
    labels = LabelSet(rng.standard_normal((2, 6)), encoding="real_valued")
    path = tmp_path / "real.wbds"
    export_wbds(path, X, labels)
    _, labels2 = ingest_wbds(path)
    assert labels2.encoding == "real_valued"


def test_foreign_format_rejected(tmp_path):
    path = tmp_path / "export.wbds"
    path.write_bytes(b"CIFARFEATDUMP\x00\x00\x00 not a supported container")
    with pytest.raises(ParseError, match="magic"):
        ingest(path)
    with pytest.raises(ParseError, match="unknown file suffix"):
        ingest(path.rename(tmp_path / "export.bin"))


def test_wbds_truncation_error(tmp_path, rng):
    X = Dataset(rng.standard_normal((3, 4)))
    path = tmp_path / "x.wbds"
    export_wbds(path, X)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError, match="bytes"):
        ingest_wbds(path)


def test_missing_file_error():
    with pytest.raises(ParseError, match="no such file"):
        ingest("/nonexistent/path.wbds")


def test_matrix_csv_round_trip(tmp_path, rng):
    A = rng.standard_normal((4, 6))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, A)
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), A)


# -- every binary format rejects damaged files --------------------------------

CODEC_KINDS = ("wbds", "wblb", "wbcp")


@pytest.fixture(scope="module")
def codec_files(tmp_path_factory):
    """Valid small files of each binary format; returns (dir, original bytes per kind)."""
    root = tmp_path_factory.mktemp("codec")
    labels = LabelSet([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], encoding="one_hot")
    export_wbds(root / "d.wbds", Dataset([[1.0, -2.0, 0.5], [0.0, 3.0, 4.0]]), labels)
    export_compressed(root / "c.wbcp", CompressedDataset(
        payload=[[0.5, -1.0, 2.0], [3.0, 0.25, -4.0]], d=2, n=5,
        column_permutation=np.array([3, 0, 4, 1, 2]),
    ))
    return root, {kind: _codec_path(root, kind).read_bytes() for kind in CODEC_KINDS}


def _codec_path(root, kind):
    return {"wbds": root / "d.wbds", "wblb": root / "d.wblb", "wbcp": root / "c.wbcp"}[kind]


def _load_with(codec_files, kind, data: bytes):
    """Write data in place of the kind's file, load it, and restore the original."""
    root, originals = codec_files
    path = _codec_path(root, kind)
    path.write_bytes(data)
    try:
        return ingest_compressed(path) if kind == "wbcp" else ingest_wbds(root / "d.wbds")
    finally:
        path.write_bytes(originals[kind])


@pytest.mark.parametrize("kind", CODEC_KINDS)
def test_codec_rejects_every_truncation(codec_files, kind):
    original = codec_files[1][kind]
    for cut in range(len(original)):
        with pytest.raises(ParseError):
            _load_with(codec_files, kind, original[:cut])


@given(kind=st.sampled_from(CODEC_KINDS), tail=st.binary(min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_codec_rejects_appended_tail(codec_files, kind, tail):
    with pytest.raises(ParseError):
        _load_with(codec_files, kind, codec_files[1][kind] + tail)


@given(kind=st.sampled_from(CODEC_KINDS), data=st.data())
@settings(max_examples=300, deadline=None)
def test_codec_single_byte_overwrite_loads_or_raises(codec_files, kind, data):
    damaged = bytearray(codec_files[1][kind])
    position = data.draw(st.integers(0, len(damaged) - 1), label="position")
    damaged[position] = data.draw(st.integers(0, 255), label="byte")
    try:
        _load_with(codec_files, kind, bytes(damaged))
    except WhitebenchError:
        pass


# -- in-place rewrites ---------------------------------------------------------

def _write_each(kind, path):
    """Write one small file of `kind` to path: every writer the package has."""
    X = Dataset([[1.0, -2.0, 0.5], [0.0, 3.0, 4.0]])
    labels = LabelSet([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], encoding="one_hot")
    if kind == "csv":
        export_csv(path, X, labels)
    elif kind == "wbds":
        export_wbds(path, X, labels)
    elif kind == "wbcp":
        export_compressed(path, CompressedDataset(payload=[[0.5, -1.0, 2.0], [3.0, 0.25, -4.0]], d=2, n=5,
                                                  column_permutation=np.array([3, 0, 4, 1, 2])))
    elif kind == "matrix_csv":
        write_matrix_csv(path, X.values)
    elif kind == "rows_csv":
        write_rows_csv(path, [ResultRow("e", 0, 4, "none", "flow", train_loss=0.125)])
    elif kind == "svg":
        spec = PlotSpec(x="dataset_size", y="test_loss", group="whitening_mode")
        emit_plot(Path(__file__).parent / "data" / "small_results.csv", spec, path)
    else:
        write_report({"passed": True, "suites": {"compression": {"passed": True, "checks": []}}}, path)


WRITERS = ("csv", "wbds", "wbcp", "matrix_csv", "rows_csv", "svg", "report")


@pytest.mark.parametrize("kind", WRITERS)
def test_rewrite_over_a_longer_file_leaves_the_fresh_bytes(tmp_path, kind):
    fresh, reused = tmp_path / "fresh" / "out", tmp_path / "reused" / "out"
    fresh.parent.mkdir()
    reused.parent.mkdir()
    _write_each(kind, fresh)
    written = sorted(p.name for p in fresh.parent.iterdir())  # wbds also writes its .wblb companion
    for name in written:
        old = (fresh.parent / name).read_bytes()
        (reused.parent / name).write_bytes(old[::-1] + b"stale tail" * 100)
    _write_each(kind, reused)
    assert sorted(p.name for p in reused.parent.iterdir()) == written
    for name in written:
        assert (reused.parent / name).read_bytes() == (fresh.parent / name).read_bytes(), name


@pytest.mark.parametrize("kind", WRITERS)
def test_rewrite_creates_a_new_file_with_the_mode_open_gives(tmp_path, kind):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    _write_each(kind, tmp_path / "out")
    assert (tmp_path / "out").stat().st_mode == reference.stat().st_mode


def test_rows_and_report_writers_create_missing_parents(tmp_path):
    for kind in ("rows_csv", "report"):
        path = tmp_path / kind / "a" / "b" / "out"
        _write_each(kind, path)
        assert path.stat().st_size > 0


def test_a_compressed_stack_is_not_written(tmp_path):
    c = CompressedDataset(payload=np.zeros((3, 2, 3)), d=2, n=5)
    with pytest.raises(ValidationError, match="not a stack"):
        export_compressed(tmp_path / "c.wbcp", c)
    assert not (tmp_path / "c.wbcp").exists()
