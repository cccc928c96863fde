"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in every loaded
``maternlab`` module that holds it (names rebound by ``from .x import y``
included), with a wrapper that appends one span: name, start, end, parent
and a work count computed from the arguments.  Spans stay in memory and
are written once, at exit.  ``layer_metrics`` derives self time (a span's
duration minus that of its direct children) and the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _radii(args, kwargs):
    return np.size(_arg(args, kwargs, 1, "r"))


def _gram_entries(args, kwargs):
    return len(_arg(args, kwargs, 1, "X")) ** 2


def _pairs(args, kwargs):
    return np.size(_arg(args, kwargs, 1, "points")) * len(_arg(args, kwargs, 0, "s").nodes)


def _levels(args, kwargs):
    return len(_arg(args, kwargs, 3, "node_counts"))


def _trials(args, kwargs):
    return _arg(args, kwargs, 1, "n_trials")


def _text_bytes(args, kwargs):
    return len(str(_arg(args, kwargs, 1, "text")).encode("utf-8"))


# (module, function, work count from the arguments, track peak memory)
TARGETS = (
    ("kernels", "kernel_eval", _radii, False),
    ("interpolation", "assemble_gram", _gram_entries, False),
    ("interpolation", "interpolate", None, False),
    ("interpolation", "evaluate", _pairs, True),
    ("interpolation", "native_error_norm", None, False),
    ("testfunctions", "f_exact", None, False),
    ("testfunctions", "convolve_with_indicator", None, False),
    ("experiments", "run_rate_study", _levels, False),
    ("mercer", "nystrom_eig", None, False),
    ("mercer", "hk_gram_matrix", None, False),
    ("mercer", "hk_gram_extended", None, False),
    ("mercer", "eigen_extend", None, False),
    ("seqmodel", "run_trials", _trials, False),
    ("output", "write_rates_csv", None, False),
    ("output", "write_xy_csv", None, False),
    ("output", "write_columns_csv", None, False),
    ("output", "write_matrix_csv", None, False),
    ("output", "render_rate_svg", None, False),
    ("output", "atomic_write_text", _text_bytes, False),
)

OUTPUT_SPANS = tuple(f"output.{fn}" for mod, fn, _, _ in TARGETS if mod == "output")


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.work = []
        self.mem = []
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.mem.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, work=0.0, mem=0.0):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.work[i] = float(work)
        self.mem[i] = float(mem)

    def _wrap(self, name, fn, count, track_memory):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fresh = track_memory and not tracemalloc.is_tracing()
            if fresh:
                tracemalloc.start()
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] if fresh else 0.0
                if fresh:
                    tracemalloc.stop()
                self.close(i, count(args, kwargs) if count else 0.0, peak)

        return traced

    def install(self):
        """Wrap every target wherever a maternlab module holds it."""
        targets = [(importlib.import_module(f"maternlab.{mod}"), mod, fn, count, track) for mod, fn, count, track in TARGETS]
        modules = [m for k, m in sys.modules.items() if k == "maternlab" or k.startswith("maternlab.")]
        for home, mod, fn, count, track in targets:
            orig = getattr(home, fn)
            wrapped = self._wrap(f"{mod}.{fn}", orig, count, track)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        self._saved.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def arrays(self, lo=0, hi=None):
        """Spans [lo, hi) as arrays; parents outside the slice become -1."""
        hi = len(self.start) if hi is None else hi
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id[lo:hi], dtype=np.int64),
            "start": np.array(self.start[lo:hi]),
            "end": np.array(self.end[lo:hi]),
            "parent": parent,
            "work": np.array(self.work[lo:hi]),
            "mem": np.array(self.mem[lo:hi]),
        }

    def absorb(self, spans, parent):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.start)
        ids = [self._id(str(n)) for n in spans["names"]]
        for k in range(len(spans["start"])):
            p = int(spans["parent"][k])
            self.name_id.append(ids[int(spans["name_id"][k])])
            self.parent.append(parent if p < 0 else base + p)
            self.start.append(float(spans["start"][k]))
            self.end.append(float(spans["end"][k]))
            self.work.append(float(spans["work"][k]))
            self.mem.append(float(spans["mem"][k]))

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def _top_ancestor(parent):
    top = np.arange(parent.size)
    has = parent >= 0
    top[has] = parent[has]
    while True:
        nxt = np.where(parent[top] >= 0, parent[top], top)
        if np.array_equal(nxt, top):
            return top
        top = nxt


def layer_metrics(spans):
    """Per-layer figures of one iteration's spans (see BENCHMARK.json)."""
    names = spans["names"]
    label = names[spans["name_id"]] if spans["name_id"].size else np.array([], dtype=names.dtype)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    work = spans["work"]

    def sel(name):
        return label == name

    def total(name, values=dur):
        return float(values[sel(name)].sum())

    def calls(name):
        return int(sel(name).sum())

    parent_label = np.where(child, label[np.where(child, parent, 0)], "")
    is_output = np.isin(label, OUTPUT_SPANS)
    top_output = is_output & ~np.isin(parent_label, OUTPUT_SPANS)
    conv_calls = calls("testfunctions.convolve_with_indicator")
    conv_kernel = int((sel("kernels.kernel_eval") & (parent_label == "testfunctions.convolve_with_indicator")).sum())
    radii = total("kernels.kernel_eval", work)
    entries = total("interpolation.assemble_gram", work)
    pairs = total("interpolation.evaluate", work)
    m = {
        "kernels.kernel_eval.s": total("kernels.kernel_eval", self_time),
        "kernels.kernel_eval.calls": calls("kernels.kernel_eval"),
        "kernels.kernel_eval.radii": radii,
        "kernels.kernel_eval.bytes": 16.0 * radii,
        "interpolation.assemble_gram.s": total("interpolation.assemble_gram"),
        "interpolation.assemble_gram.entries": entries,
        "interpolation.assemble_gram.bytes": 8.0 * entries,
        "interpolation.interpolate.self_s": total("interpolation.interpolate", self_time),
        "interpolation.interpolate.calls": calls("interpolation.interpolate"),
        "interpolation.evaluate.s": total("interpolation.evaluate"),
        "interpolation.evaluate.pairs": pairs,
        "interpolation.evaluate.bytes": 8.0 * pairs,
        "interpolation.evaluate.peak_mb": float(spans["mem"][sel("interpolation.evaluate")].max(initial=0.0)) / 2**20,
        "interpolation.native_error_norm.s": total("interpolation.native_error_norm"),
        "testfunctions.f_exact.s": total("testfunctions.f_exact"),
        "testfunctions.convolve_with_indicator.s": total("testfunctions.convolve_with_indicator"),
        "testfunctions.convolve_with_indicator.kernel_calls_per_point": conv_kernel / conv_calls if conv_calls else 0.0,
        "experiments.run_rate_study.self_s": total("experiments.run_rate_study", self_time),
        "experiments.levels": total("experiments.run_rate_study", work),
        "mercer.nystrom_eig.self_s": total("mercer.nystrom_eig", self_time),
        "mercer.hk_gram_matrix.s": total("mercer.hk_gram_matrix"),
        "mercer.hk_gram_extended.calls": calls("mercer.hk_gram_extended"),
        "mercer.eigen_extend.s": total("mercer.eigen_extend"),
        "seqmodel.run_trials.s": total("seqmodel.run_trials"),
        "seqmodel.trials": total("seqmodel.run_trials", work),
        "output.write_s": float(dur[top_output].sum()),
        "output.bytes": total("output.atomic_write_text", work),
    }
    top = label[_top_ancestor(parent)] if parent.size else label
    for command in ("rates", "interp", "mercer", "bc-check", "seqmodel"):
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    m["cli.rates.solves"] = int((sel("interpolation.interpolate") & (top == "cli.rates")).sum())
    return m
