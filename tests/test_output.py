"""CSV and SVG writers: formats, round-trips, atomicity, determinism."""

import math
import os
import stat

import numpy as np
import pytest

from maternlab import KernelSpec, f_exact, f_native_norm_sq, run_rate_study
from maternlab.experiments import RateRow, RateStudy
from maternlab.output import (
    atomic_write_text,
    format_value,
    render_rate_svg,
    write_columns_csv,
    write_matrix_csv,
    write_rates_csv,
    write_xy_csv,
)


def _small_study():
    return run_rate_study(
        KernelSpec(m=2), 1.2, 0.4, [11, 21, 41], 501, f_exact,
        f_norm_sq=f_native_norm_sq(),
    )


def test_format_value_round_trips_doubles():
    rng = np.random.default_rng(271)
    samples = np.concatenate(
        [
            rng.standard_normal(50),
            10.0 ** rng.uniform(-300, 300, size=50),
            [0.0, 1.0, -1.0, 2.0 / 3.0],
        ]
    )
    for v in samples:
        assert float(format_value(v)) == v
    assert format_value(float("nan")) == "nan"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "data.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["data.txt"]


def test_atomic_write_gives_the_umask_default_mode(tmp_path):
    # the renamed result must carry the mode a plain open() would have given
    # it, with the bytes unchanged
    old = os.umask(0o022)
    try:
        for name, text in (("a.csv", "x,y\n1,2.5\n"), ("b.txt", "\u03ba_1\n")):
            atomic_write_text(str(tmp_path / name), text)
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")
        os.umask(0o077)
        write_matrix_csv(str(tmp_path / "m.csv"), np.eye(2))
        assert stat.S_IMODE(os.stat(tmp_path / "m.csv").st_mode) == 0o600
    finally:
        os.umask(old)


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the OS applies the umask when the temp file is created, so the writer
    # never sets it: a thread creating a file meanwhile keeps its own mode
    set_umask = os.umask
    old = set_umask(0o022)

    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", refuse)
    try:
        for mask, mode in ((0o022, 0o644), (0o077, 0o600)):
            set_umask(mask)
            target = tmp_path / f"{mode:o}.csv"
            atomic_write_text(str(target), "x\n")
            assert stat.S_IMODE(os.stat(target).st_mode) == mode
            assert target.read_text() == "x\n"
        assert sorted(os.listdir(tmp_path)) == ["600.csv", "644.csv"]
    finally:
        set_umask(old)


def test_ragged_columns_are_refused_before_writing(tmp_path):
    # either order is refused with one message, and no partial table lands
    path = tmp_path / "xy.csv"
    for xs, ys in (([1, 2], [1, 2, 3]), ([1, 2, 3], [1, 2])):
        with pytest.raises(ValueError, match="one length"):
            write_xy_csv(str(path), "x,y", xs, ys)
        with pytest.raises(ValueError, match="one length"):
            write_columns_csv(str(path), ["a", "b", "c"], [xs, xs, ys])
    assert os.listdir(tmp_path) == []


def test_rates_csv_layout_and_round_trip(tmp_path):
    study = _small_study()
    path = tmp_path / "rates.csv"
    write_rates_csv(str(path), study)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "N,h,rms_global,rms_interior,native_err"
    assert len(lines) == 4
    for line, row in zip(lines[1:], study.rows):
        fields = line.split(",")
        assert int(fields[0]) == row.N
        assert float(fields[1]) == row.h
        assert float(fields[2]) == row.rms_global
        assert float(fields[3]) == row.rms_interior
        assert float(fields[4]) == row.native_err


def test_rates_csv_writes_nan_for_missing_norms(tmp_path):
    study = run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21], 501, f_exact)
    path = tmp_path / "rates.csv"
    write_rates_csv(str(path), study)
    for line in path.read_text().strip().split("\n")[1:]:
        assert line.split(",")[4] == "nan"


def test_xy_and_columns_csv(tmp_path):
    xs = np.linspace(0, 1, 5)
    ys = xs**2
    path = tmp_path / "xy.csv"
    write_xy_csv(str(path), "x,y", xs, ys)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == 6
    assert float(lines[2].split(",")[1]) == ys[1]

    cpath = tmp_path / "cols.csv"
    write_columns_csv(str(cpath), ["a", "b", "c"], [xs, ys, -xs])
    clines = cpath.read_text().strip().split("\n")
    assert clines[0] == "a,b,c"
    assert len(clines) == 6
    with pytest.raises(ValueError):
        write_columns_csv(str(cpath), ["a"], [xs, ys])


def _old_rates_text(study):
    # write_rates_csv before it went through write_columns_csv
    lines = ["N,h,rms_global,rms_interior,native_err"]
    for row in study.rows:
        lines.append(
            ",".join(
                [str(row.N)]
                + [
                    format_value(v)
                    for v in (row.h, row.rms_global, row.rms_interior, row.native_err)
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _old_xy_text(header, xs, ys):
    # write_xy_csv before it went through write_columns_csv
    lines = [header]
    for x, y in zip(xs, ys):
        lines.append(f"{format_value(x)},{format_value(y)}")
    return "\n".join(lines) + "\n"


def test_rates_and_xy_csv_bytes_match_the_row_loops(tmp_path):
    path = tmp_path / "t.csv"
    for study in (
        _small_study(),
        run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21], 501, f_exact),
    ):
        write_rates_csv(str(path), study)
        assert path.read_bytes() == _old_rates_text(study).encode()
    rng = np.random.default_rng(5)
    cases = [
        ("n,kappa", np.arange(1, 11), 10.0 ** rng.uniform(-12, 0, 10)),
        ("x,error", np.linspace(-1.2, 1.2, 2001), rng.standard_normal(2001) * 1e-9),
        ("y,phi", np.array([0.5]), np.array([math.nan])),
    ]
    for header, xs, ys in cases:
        write_xy_csv(str(path), header, xs, ys)
        assert path.read_bytes() == _old_xy_text(header, xs, ys).encode()


def test_matrix_csv_headerless(tmp_path):
    mat = np.array([[1.0, 0.5], [0.25, 2.0]])
    path = tmp_path / "mat.csv"
    write_matrix_csv(str(path), mat)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    back = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.array_equal(back, mat)


def test_svg_is_deterministic_and_complete():
    study = _small_study()
    one = render_rate_svg(study)
    two = render_rate_svg(study)
    assert one == two
    assert one.startswith("<svg")
    assert one.rstrip().endswith("</svg>")
    assert "C=1.2" in one and "N=11,21,41" in one  # config in <desc>
    assert one.count("<polyline") == 3  # three error series
    assert "rms_global" in one and "native_err" in one  # legend labels


def test_svg_skips_unplottable_series():
    study = run_rate_study(KernelSpec(m=2), 1.2, 0.4, [11, 21], 501, f_exact)
    svg = render_rate_svg(study)  # native_err all NaN
    assert svg.count("<polyline") == 2


def test_svg_degrades_on_empty_data():
    rows = (
        RateRow(
            N=11, h=0.24, rms_global=math.nan, rms_interior=math.nan,
            native_err=math.nan, maxabs_global=math.nan, maxabs_interior=math.nan,
        ),
    )
    study = RateStudy(
        kernel=KernelSpec(m=2), C=1.2, interior_margin=0.4, node_counts=(11,),
        grid_size=501, rows=rows, global_rate=None, interior_rate=None,
        global_rate_all=None, interior_rate_all=None,
    )
    svg = render_rate_svg(study)
    assert "no plottable data" in svg
    assert svg.rstrip().endswith("</svg>")
