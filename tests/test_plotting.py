import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from whitebench.errors import ConfigError
from whitebench.plotting import PlotSpec, emit_plot

DATA = Path(__file__).parent / "data"
RESULTS = DATA / "small_results.csv"
GOLDEN = DATA / "golden_plot.svg"

SPEC = PlotSpec(x="dataset_size", y="test_loss", group="whitening_mode", logx=True, title="test loss vs size")


def test_golden_svg_is_byte_identical(tmp_path):
    out = tmp_path / "plot.svg"
    emit_plot(RESULTS, SPEC, out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_emit_twice_identical(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(RESULTS, SPEC, a)
    emit_plot(RESULTS, SPEC, b)
    assert a.read_bytes() == b.read_bytes()


def test_group_count_polylines(tmp_path):
    out = tmp_path / "plot.svg"
    emit_plot(RESULTS, SPEC, out)
    text = out.read_text(encoding="utf-8")
    assert text.count("<polyline") == 2  # one per whitening mode in the fixture
    assert text.count("<polygon") == 2  # 2x standard error bands
    assert "whitening_mode=none" in text and "whitening_mode=train" in text


def test_single_row_single_point(tmp_path):
    single = tmp_path / "one.csv"
    lines = RESULTS.read_text(encoding="utf-8").splitlines()
    single.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    out = tmp_path / "point.svg"
    emit_plot(single, PlotSpec(x="dataset_size", y="test_loss", group="whitening_mode"), out)
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")
    assert "<circle" in text and "<polyline" not in text


def test_missing_column_is_spec_error(tmp_path):
    with pytest.raises(ConfigError, match="no column"):
        emit_plot(RESULTS, PlotSpec(x="dataset_size", y="nope", group="whitening_mode"), tmp_path / "x.svg")


def test_empty_y_rows_skipped(tmp_path):
    # steps_to_cutoff is empty everywhere in the fixture
    with pytest.raises(ConfigError, match="no plottable rows"):
        emit_plot(RESULTS, PlotSpec(x="dataset_size", y="steps_to_cutoff", group="whitening_mode"), tmp_path / "x.svg")


def test_three_mode_sweep_gives_three_polylines(tmp_path):
    rows = ["experiment_id,seed,dataset_size,whitening_mode,optimizer,step_or_time,train_loss,val_loss,test_loss,test_error,steps_to_cutoff,stopping_reason"]
    for mode, base in (("none", 0.3), ("train", 0.4), ("full", 0.5)):
        for size in (8, 16, 32):
            for seed in (0, 1):
                rows.append(f"s,{seed},{size},{mode},flow_none,1.0,0.1,0.2,{base + 0.01 * seed},,,done")
    results = tmp_path / "three.csv"
    results.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "three.svg"
    emit_plot(results, PlotSpec(x="dataset_size", y="test_loss", group="whitening_mode"), out)
    assert out.read_text(encoding="utf-8").count("<polyline") == 3


def test_markup_in_title_and_legend_is_escaped(tmp_path):
    results = tmp_path / "markup.csv"
    results.write_text("size,loss,arm\n1,0.5,a<b&c\n2,0.25,a<b&c\n", encoding="utf-8")
    out = tmp_path / "markup.svg"
    emit_plot(results, PlotSpec(x="size", y="loss", group="arm", title="loss <n> & error"), out)
    texts = [el.text for el in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert "loss <n> & error" in texts
    assert "arm=a<b&c" in texts
