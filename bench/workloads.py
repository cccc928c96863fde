"""The three workloads: inputs from a seed, one iteration each, and checks.

A workload iteration returns raw outputs; its entry in ``CHECKS`` turns them
into one verdict per operation (an empty list of problems means it passed).  The
checks compare against ``oracles`` only, never against a value the package
reports about itself, so every one of them can fail.

Package functions are looked up on the ``maternlab`` package at call time,
so the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from env import BENCH_DIR, OUT, ROOT

# rate_ladder: the ladder of run_rate_study, grid 10 N_max
LADDER = (161, 321, 641, 1281, 2561)
GRID = 10 * LADDER[-1]
MARGIN = 0.4
STUDIES = (("study_m1", 1, 1.2, False), ("study_m2", 2, 0.8, True))
JITTER_C = 0.8

# spectral_checks
EIG_Q = 1600
EIG_MODES = 48
EXTEND_POINTS = 401
CONV_POINTS = 40
TRIALS = 5000
SEQ_M = 64

CLI_COMMANDS = ("rates", "interp", "mercer", "bc-check", "seqmodel")
CLI_MERCER_MODES = 10
CLI_TRIALS = 1000
CLI_TIMEOUT = 120

# A discretization error may shrink, but may grow by at most this factor
# over its frozen baseline value.
GROWTH = 1.1

# the operations one iteration attempts; each gets one verdict
OPERATIONS = {
    "rate_ladder": ("study_m1", "study_m2", "jittered"),
    "spectral_checks": ("nystrom", "hk_gram", "extend", "convolve", "trials_sobolev", "trials_analytic"),
    "cli_defaults": CLI_COMMANDS,
}


@dataclass(frozen=True)
class Inputs:
    """What the program is given; fields a workload does not use stay None."""

    nodes: np.ndarray = None
    values: np.ndarray = None
    grid: np.ndarray = None
    conv_points: np.ndarray = None
    trial_seed: int = 0


def make_inputs(workload, seed):
    """Generated inputs: the same seed always gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "rate_ladder":
        n = LADDER[-1]
        base = np.linspace(-JITTER_C, JITTER_C, n)
        h = base[1] - base[0]
        nodes = base.copy()
        nodes[1:-1] += rng.uniform(-h / 4, h / 4, n - 2)
        grid = np.linspace(-JITTER_C, JITTER_C, 10 * n)
        return Inputs(nodes=nodes, values=oracles.f_indicator(nodes), grid=grid)
    if workload == "spectral_checks":
        pts = np.sort(rng.uniform(-2.0, 2.0, CONV_POINTS))
        return Inputs(conv_points=pts, trial_seed=int(rng.integers(2**31)))
    if workload == "cli_defaults":
        return Inputs(trial_seed=int(rng.integers(2**31)))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- iterations


def run_rate_ladder(inp, tracer=None):
    import maternlab as ml

    out = {}
    for name, m, C, with_norm in STUDIES:
        out[name] = ml.run_rate_study(
            ml.KernelSpec(m=m),
            C,
            MARGIN,
            LADDER,
            GRID,
            ml.f_exact,
            f_norm_sq=ml.f_native_norm_sq() if with_norm else None,
        )
    s = ml.interpolate(ml.KernelSpec(m=2), ml.NodeSet(inp.nodes, JITTER_C), inp.values)
    out["jittered"] = ml.evaluate(s, inp.grid)
    return out


def run_spectral_checks(inp, tracer=None):
    import maternlab as ml

    sys_ = ml.nystrom_eig(ml.KernelSpec(m=1), -1.0, 1.0, EIG_Q, EIG_MODES)
    gram = ml.hk_gram_matrix(sys_)
    xs = np.linspace(-1.5, 1.5, EXTEND_POINTS)
    ext = np.array([ml.eigen_extend(sys_, n, xs) for n in range(sys_.n_modes)])
    k2 = ml.KernelSpec(m=2)
    conv = np.array([ml.convolve_with_indicator(k2, -1.0, 1.0, x) for x in inp.conv_points])
    f_at = ml.f_exact(inp.conv_points)
    trials = {
        name: ml.run_trials(space, TRIALS, inp.trial_seed)
        for name, space in (
            ("trials_sobolev", ml.sobolev_weights(SEQ_M)),
            ("trials_analytic", ml.analytic_weights(SEQ_M)),
        )
    }
    return {
        "kappa": np.array(sys_.eigenvalues),
        "gram": gram,
        "extend": ext,
        "conv": conv,
        "f_exact": f_at,
        **trials,
    }


def cli_argv(command, inp, out_dir):
    args = [command, "--out", str(out_dir)]
    if command == "seqmodel":
        args += ["--seed", str(inp.trial_seed)]
    return args


def _run_child(argv, log_stem):
    """Run one child process to its end.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  The child is
    reaped with ``os.wait4``, so the peak RSS is its own, not that of every
    child this process has had.
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        with subprocess.Popen(argv, cwd=ROOT, stdout=out_fh, stderr=err_fh) as proc:
            timer = threading.Timer(CLI_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss


def run_cli_defaults(inp, tracer=None):
    """One pass: each subcommand in a fresh process, outputs read back.

    With a tracer, each process runs under bench/traced_cli.py and its spans
    join the tracer's under a ``cli.<subcommand>`` span.
    """
    OUT.mkdir(exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cli-") as tmp:
        for command in CLI_COMMANDS:
            work = Path(tmp) / command
            spans_file = Path(tmp) / f"{command}.npz"
            launcher = [sys.executable, "-m", "maternlab.cli"]
            if tracer is not None:
                launcher = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), "--"]
                span = tracer.open(f"cli.{command}")
            t0 = time.perf_counter()
            code, stdout, stderr, maxrss_kb = _run_child(launcher + cli_argv(command, inp, work), Path(tmp) / command)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                if spans_file.is_file():
                    with np.load(spans_file) as recorded:
                        tracer.absorb(recorded, span)
            files = {}
            if work.is_dir():
                files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}
            out[command] = {
                "returncode": code,
                "stdout": stdout,
                "stderr": stderr,
                "files": files,
                "seconds": elapsed,
                "maxrss_kb": maxrss_kb,
            }
    return out


RUNNERS = {
    "rate_ladder": run_rate_ladder,
    "spectral_checks": run_spectral_checks,
    "cli_defaults": run_cli_defaults,
}


# -------------------------------------------------------------------- checks


def _compare_rows(problems, label, got, want, ref):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    bad = ~(np.abs(got - want) <= ref["rtol"] * np.abs(want) + ref["atol"])
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"{label}[{i}] = {got.flat[i]:.6e}, frozen {want.flat[i]:.6e}")


def check_rate_ladder(inp, out, first=None):
    ref = oracles.frozen()["rate_ladder"]
    verdicts = {}
    for name, *_ in STUDIES:
        study = out[name]
        want = ref[name]
        problems = []
        if tuple(study.node_counts) != LADDER:
            problems.append(f"ladder {study.node_counts}")
        for key in ("global_rate", "interior_rate"):
            got = getattr(study, key)
            if got is None or not abs(got - want[key]) <= ref["rate_atol"]:
                problems.append(f"{key} = {got}, frozen {want[key]:.4f}")
        for col in ("rms_global", "rms_interior", "native_err"):
            got = [getattr(row, col) for row in study.rows]
            if col == "native_err" and name == "study_m1":
                if not all(math.isnan(v) for v in got):
                    problems.append("native_err reported without a norm")
                continue
            _compare_rows(problems, f"{name}.{col}", got, want[col], ref)
        verdicts[name] = problems
    diff = np.asarray(out["jittered"], dtype=float) - oracles.f_indicator(inp.grid)
    rms = float(np.sqrt(np.mean(diff * diff)))
    lo, hi = ref["jittered_rms_window"]
    verdicts["jittered"] = [] if lo <= rms <= hi else [f"jittered rms {rms:.3e} outside [{lo:.1e}, {hi:.1e}]"]
    return verdicts


def _check_kappa(problems, kappa, dev_frozen):
    want = oracles.exp_kernel_eigenvalues(len(dev_frozen))
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != want.shape:
        problems.append(f"{kappa.size} eigenvalues, expected {want.size}")
        return
    dev = np.abs(kappa - want) / want
    bad = ~(dev <= GROWTH * np.asarray(dev_frozen) + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"kappa_{i + 1} relative deviation {dev[i]:.3e} > {GROWTH} x frozen {dev_frozen[i]:.3e}")


def _check_extensions(problems, xs, ext, dev_frozen):
    """Row n of ``ext`` against the analytic extension of mode n, up to sign."""
    ext = np.asarray(ext, dtype=float)
    if ext.shape != (len(dev_frozen), xs.size):
        problems.append(f"extension shape {ext.shape}")
        return
    for n, allowed in enumerate(dev_frozen):
        want = oracles.exp_kernel_extension(n, xs)
        sign = 1.0 if float(ext[n] @ want) >= 0 else -1.0
        dev = float(np.max(np.abs(sign * ext[n] - want)))
        if not dev <= GROWTH * allowed + 1e-12:
            problems.append(f"mode {n + 1} extension deviates {dev:.3e} > {GROWTH} x frozen {allowed:.3e}")
            return


def check_spectral_checks(inp, out, first=None):
    ref = oracles.frozen()["spectral_checks"]
    verdicts = {}

    problems = []
    _check_kappa(problems, out["kappa"], ref["kappa_rel_dev"])
    verdicts["nystrom"] = problems

    gram = np.asarray(out["gram"], dtype=float)
    kappa = np.asarray(out["kappa"], dtype=float)
    problems = []
    if gram.shape != (EIG_MODES, EIG_MODES):
        problems.append(f"gram shape {gram.shape}")
    else:
        err = float(np.max(np.abs(gram * kappa[None, :] - np.eye(EIG_MODES))))
        if not err <= GROWTH * ref["gram_max_dev"]:
            problems.append(f"max|kappa G - I| = {err:.3e} > {GROWTH} x frozen {ref['gram_max_dev']:.3e}")
    verdicts["hk_gram"] = problems

    problems = []
    _check_extensions(problems, np.linspace(-1.5, 1.5, EXTEND_POINTS), out["extend"], ref["extend_max_dev"])
    verdicts["extend"] = problems

    want = oracles.f_indicator(inp.conv_points)
    problems = []
    for label, got, tol in (("convolve", out["conv"], 1e-10), ("f_exact", out["f_exact"], 1e-12)):
        got = np.asarray(got, dtype=float)
        err = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
        if not err <= tol:
            problems.append(f"{label} deviates {err:.3e} from the closed form (tol {tol:.0e})")
    verdicts["convolve"] = problems

    n = np.arange(1, SEQ_M + 1, dtype=float)
    for name, kappa in (("trials_sobolev", n**-4), ("trials_analytic", 0.5**n)):
        rep = out[name]
        problems = []
        if not (rep.all_pass and rep.trials == TRIALS and rep.standard_passes == TRIALS and rep.super_passes == TRIALS):
            problems.append(f"{rep.standard_passes}/{rep.super_passes} of {rep.trials} trials passed")
        if not abs(rep.extremal_ratio - 1.0) <= 1e-12:
            problems.append(f"extremal ratio {rep.extremal_ratio!r}")
        std, sup = oracles.seq_sharpest_ratios(kappa, TRIALS, inp.trial_seed)
        for label, got, want in (("standard", rep.sharpest_standard, std), ("super", rep.sharpest_super, sup)):
            if not abs(got - want) <= 1e-9 * want:
                problems.append(f"sharpest {label} ratio {got!r}, recomputed {want!r}")
        verdicts[name] = problems
    return verdicts


def _csv_rows(blob, header=True):
    lines = blob.decode().strip().split("\n")
    return [[float(v) for v in line.split(",")] for line in lines[1 if header else 0 :]]


def check_cli_defaults(inp, out, first_pass=None):
    """Verdict per subcommand; ``first_pass`` is the run's first pass, whose
    files every later pass must repeat byte for byte (None on the first)."""
    ref = oracles.frozen()["cli_defaults"]
    verdicts = {}
    for command in CLI_COMMANDS:
        res = out.get(command)
        if res is None:
            verdicts[command] = ["not run"]
            continue
        problems = []
        if res["returncode"] != 0:
            problems.append(f"exit code {res['returncode']}: {res['stderr'].strip()[-200:]}")
        if first_pass is not None:
            before = {k: hashlib.sha256(v).hexdigest() for k, v in first_pass[command]["files"].items()}
            after = {k: hashlib.sha256(v).hexdigest() for k, v in res["files"].items()}
            if before != after:
                changed = sorted(set(before.items()) ^ set(after.items()))
                problems.append(f"files differ from the first pass: {[k for k, _ in changed][:4]}")
        try:
            problems += _CLI_CHECKS[command](inp, res, ref)
        except (KeyError, ValueError, IndexError, UnicodeDecodeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        verdicts[command] = problems
    return verdicts


def _cli_rates(inp, res, ref):
    problems = []
    for label, want in ref["rates_stdout"].items():
        match = re.search(re.escape(label) + r" (-?[0-9.]+)", res["stdout"])
        if match is None or not abs(float(match.group(1)) - want) <= ref["rates_stdout_atol"]:
            problems.append(f"printed {label} {match and match.group(1)}, frozen {want}")
    rows = _csv_rows(res["files"]["rates.csv"])
    _compare_rows(problems, "rates.csv", rows, ref["rates_csv"], ref)
    for name in ("rates.svg", f"error_N{int(rows[-1][0]) if rows else 0}.csv"):
        if name not in res["files"]:
            problems.append(f"{name} missing")
    return problems


def _cli_interp(inp, res, ref):
    problems = []
    table = np.array(_csv_rows(res["files"]["interp_N41.csv"]))
    x, f, s, err = table.T
    if x.size != 2001 or not np.max(np.abs(f - oracles.f_indicator(x))) <= 1e-12:
        problems.append("interp_N41.csv: f column does not match the closed form")
    worst = float(np.max(np.abs(oracles.f_indicator(x) - s)))
    if not abs(worst - ref["interp_max_err"]) <= ref["rtol"] * ref["interp_max_err"]:
        problems.append(f"interp max|f - s| = {worst:.6e}, frozen {ref['interp_max_err']:.6e}")
    if not np.allclose(err, f - s, rtol=0, atol=1e-14):
        problems.append("interp_N41.csv: error column != f - s")
    return problems


def _cli_mercer(inp, res, ref):
    problems = []
    kappa = np.array(_csv_rows(res["files"]["eigenvalues.csv"]))[:, 1]
    _check_kappa(problems, kappa, ref["kappa_rel_dev"])
    gram = np.array(_csv_rows(res["files"]["hk_gram.csv"], header=False))
    if gram.shape != (CLI_MERCER_MODES, CLI_MERCER_MODES):
        problems.append(f"hk_gram.csv shape {gram.shape}")
    elif not np.max(np.abs(gram - np.eye(CLI_MERCER_MODES))) <= GROWTH * ref["gram_max_dev"]:
        problems.append(f"hk_gram.csv deviates from I by more than {GROWTH} x frozen {ref['gram_max_dev']:.3e}")
    want = {"eigenvalues.csv", "hk_gram.csv", "extensions.csv"} | {
        f"eigenfunction_{n:02d}.csv" for n in range(1, CLI_MERCER_MODES + 1)
    }
    if set(res["files"]) != want:
        problems.append(f"mercer wrote {sorted(res['files'])}")
    table = np.array(_csv_rows(res["files"]["extensions.csv"]))
    _check_extensions(problems, np.linspace(-2.0, 2.0, EXTEND_POINTS), table[:, 1:].T, ref["extend_max_dev"])
    return problems


def _cli_bc_check(inp, res, ref):
    values = [float(line.split("=")[-1]) for line in res["stdout"].splitlines() if line.startswith("  ")]
    if len(values) != 10 or not max(abs(v) for v in values[:4]) <= 1e-12:
        return [f"bc-check residuals {values[:4]}"]
    return []


def _cli_seqmodel(inp, res, ref):
    want = f"standard {CLI_TRIALS}/{CLI_TRIALS}, superconvergence {CLI_TRIALS}/{CLI_TRIALS}"
    lines = [line for line in res["stdout"].splitlines() if want in line]
    return [] if len(lines) == 2 else [f"seqmodel did not report {CLI_TRIALS}/{CLI_TRIALS} passes for both presets"]


_CLI_CHECKS = {
    "rates": _cli_rates,
    "interp": _cli_interp,
    "mercer": _cli_mercer,
    "bc-check": _cli_bc_check,
    "seqmodel": _cli_seqmodel,
}

CHECKS = {
    "rate_ladder": check_rate_ladder,
    "spectral_checks": check_spectral_checks,
    "cli_defaults": check_cli_defaults,
}
