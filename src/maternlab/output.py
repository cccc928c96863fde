"""CSV tables and SVG rate plots.

Every file goes through a temporary file in the destination directory
followed by an atomic rename, so interrupted runs never leave truncated
tables behind.  Floats are written with 17 significant digits (lossless
for doubles), `.` decimal separator, LF line endings.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "format_value",
    "atomic_write_text",
    "write_rates_csv",
    "write_xy_csv",
    "write_columns_csv",
    "write_matrix_csv",
    "render_rate_svg",
]

_SERIES_STYLE = (
    ("rms_global", "#1f77b4"),
    ("rms_interior", "#d62728"),
    ("native_err", "#2ca02c"),
)


def format_value(v):
    """17-significant-digit decimal form; round-trips any finite double."""
    return f"{float(v):.17g}"


def atomic_write_text(path, text):
    """Write text to path via a same-directory temp file and atomic rename."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies, as in open()
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rates_csv(path, study):
    """Rate table: N,h,rms_global,rms_interior,native_err per ladder level."""
    names = ["N", "h", "rms_global", "rms_interior", "native_err"]
    write_columns_csv(
        path, names, [[getattr(row, name) for row in study.rows] for name in names]
    )


def write_xy_csv(path, header, xs, ys):
    """Two-column table with the given `a,b` header line."""
    write_columns_csv(path, header.split(","), [xs, ys])


def write_columns_csv(path, names, columns):
    """Multi-column table; names and columns align, columns of one length."""
    columns = [np.asarray(c) for c in columns]
    if len(names) != len(columns):
        raise ValueError("one name per column required")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns must be of one length, got {[len(c) for c in columns]}")
    lines = [",".join(names)]
    for i in range(len(columns[0])):
        lines.append(",".join(format_value(c[i]) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_matrix_csv(path, matrix):
    """Headerless numeric matrix, one CSV row per matrix row."""
    matrix = np.asarray(matrix)
    lines = [",".join(format_value(v) for v in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _log_ticks(lo, hi):
    # decade ticks inside [lo, hi] (log10 coordinates), with 2x and 5x minors
    ticks = []
    for dec in range(math.floor(lo), math.ceil(hi) + 1):
        for mult, major in ((1.0, True), (2.0, False), (5.0, False)):
            t = dec + math.log10(mult)
            if lo <= t <= hi:
                ticks.append((t, major))
    return ticks


def render_rate_svg(study, title="convergence study"):
    """Log-log error plot of a RateStudy as a standalone SVG string.

    One polyline per error column; levels with non-finite or nonpositive
    values are skipped.  Output is deterministic for a given study.
    """
    width, height = 720, 540
    x0, x1 = 70.0, 540.0
    y0, y1 = 500.0, 30.0

    series = []
    for name, color in _SERIES_STYLE:
        pts = [
            (row.h, getattr(row, name))
            for row in study.rows
            if math.isfinite(getattr(row, name)) and getattr(row, name) > 0
        ]
        if len(pts) > 0:
            series.append((name, color, pts))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">',
        f"<desc>{title}: C={study.C:g} margin={study.interior_margin:g} "
        f"N={','.join(str(n) for n in study.node_counts)}</desc>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if not series:
        parts.append(f'<text x="{x0}" y="{(y0 + y1) / 2:.2f}">no plottable data</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    hs = [h for _, _, pts in series for h, _ in pts]
    es = [e for _, _, pts in series for _, e in pts]
    lx0, lx1 = math.log10(min(hs)), math.log10(max(hs))
    ly0, ly1 = math.log10(min(es)), math.log10(max(es))
    pad_x = 0.05 * ((lx1 - lx0) or 1.0)
    pad_y = 0.05 * ((ly1 - ly0) or 1.0)
    lx0, lx1 = lx0 - pad_x, lx1 + pad_x
    ly0, ly1 = ly0 - pad_y, ly1 + pad_y

    def sx(h):
        return x0 + (math.log10(h) - lx0) / (lx1 - lx0) * (x1 - x0)

    def sy(e):
        return y0 + (math.log10(e) - ly0) / (ly1 - ly0) * (y1 - y0)

    for t, major in _log_ticks(lx0, lx1):
        px = x0 + (t - lx0) / (lx1 - lx0) * (x1 - x0)
        stroke = "#cccccc" if major else "#eeeeee"
        parts.append(
            f'<line x1="{px:.2f}" y1="{y1:.2f}" x2="{px:.2f}" y2="{y0:.2f}" '
            f'stroke="{stroke}"/>'
        )
        if major:
            parts.append(
                f'<text x="{px:.2f}" y="{y0 + 18:.2f}" text-anchor="middle">'
                f"1e{round(t)}</text>"
            )
    for t, major in _log_ticks(ly0, ly1):
        py = y0 + (t - ly0) / (ly1 - ly0) * (y1 - y0)
        stroke = "#cccccc" if major else "#eeeeee"
        parts.append(
            f'<line x1="{x0:.2f}" y1="{py:.2f}" x2="{x1:.2f}" y2="{py:.2f}" '
            f'stroke="{stroke}"/>'
        )
        if major:
            parts.append(
                f'<text x="{x0 - 6:.2f}" y="{py + 4:.2f}" text-anchor="end">'
                f"1e{round(t)}</text>"
            )
    parts.append(
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
        f'height="{y0 - y1:.2f}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{y0 + 36:.2f}" text-anchor="middle">'
        "node spacing h</text>"
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">error</text>'
    )
    for idx, (name, color, pts) in enumerate(series):
        coords = " ".join(f"{sx(h):.2f},{sy(e):.2f}" for h, e in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for h, e in pts:
            parts.append(
                f'<circle cx="{sx(h):.2f}" cy="{sy(e):.2f}" r="3" fill="{color}"/>'
            )
        ly = y1 + 16 + 18 * idx
        parts.append(
            f'<line x1="{x1 + 12:.2f}" y1="{ly:.2f}" x2="{x1 + 40:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{x1 + 46:.2f}" y="{ly + 4:.2f}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
