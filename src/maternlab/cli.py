"""Command-line front end.

Subcommands
-----------
rates     convergence study of the built-in convolution test function
interp    single interpolation run, tabulated on a grid
mercer    Nystrom eigenpairs, native-space Gram check, extensions
bc-check  boundary-condition residuals at configurable endpoints
seqmodel  randomized verification of the sequence-space inequalities

Exit codes: 0 success, 2 configuration error, 3 numerical
(conditioning/truncation) failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import output
from .errors import ConditioningError, InsufficientDataError, TruncationError
from .experiments import ERROR_FLOOR, equidistant_nodes, run_rate_study
from .interpolation import evaluate, interpolate, native_norm_sq
from .kernels import KernelSpec, paper_amplitude
from .mercer import eigen_extend, hk_gram_matrix, nystrom_eig
from .seqmodel import analytic_weights, run_trials, sobolev_weights
from .testfunctions import _bc_coefficients, bc_residuals, f_exact, f_native_norm_sq

__all__ = ["main", "entry", "parse_kernel"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

DEFAULT_NODES = "11,21,41,81,161"

_KERNEL_RE = re.compile(r"^matern:(.+)$")


def parse_kernel(text):
    """Parse `matern:m=<int>[,amp=paper|unit]` into a KernelSpec."""
    match = _KERNEL_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"unrecognized kernel spec {text!r}; expected matern:m=<int>[,amp=paper|unit]"
        )
    params = {}
    for part in match.group(1).split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed kernel parameter {part!r}")
        if key not in ("m", "amp"):
            raise ValueError(f"unknown kernel parameter {key!r}")
        if key in params:
            raise ValueError(f"kernel parameter {key!r} given twice in {text!r}")
        params[key] = value
    if "m" not in params:
        raise ValueError("kernel spec must set m")
    try:
        m = int(params["m"])
    except ValueError:
        raise ValueError(f"m must be an integer, got {params['m']!r}") from None
    amp = params.get("amp", "unit")
    if amp not in ("paper", "unit"):
        raise ValueError(f"amp must be 'paper' or 'unit', got {amp!r}")
    return KernelSpec(m=m, amplitude=paper_amplitude(m) if amp == "paper" else 1.0)


def _parse_node_ladder(text):
    try:
        counts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"node ladder must be comma-separated integers, got {text!r}") from None
    if not counts:
        raise ValueError("node ladder is empty")
    return counts


def _parse_domain(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"domain must be 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"domain endpoints must be numbers, got {text!r}") from None
    return a, b


def _absorb_negative_values(argv):
    # argparse refuses option values that start with '-' unless they parse as
    # plain negative numbers; forms like '-1,1' or '-inf' after --domain need
    # merging into '--domain=-1,1'.  Tokens after a bare '--' stay as they are.
    merged = []
    for i, tok in enumerate(argv):
        if tok == "--":
            return merged + list(argv[i:])
        prev = merged[-1] if merged else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-(\.?\d|inf|nan)", tok, re.I):
            merged[-1] = f"{prev}={tok}"
        else:
            merged.append(tok)
    return merged


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maternlab",
        description="Kernel interpolation rate studies and spectral diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="./out", help="output directory (default ./out)")

    p = sub.add_parser("rates", help="convergence-rate study of the built-in test function")
    p.add_argument("--kernel", default="matern:m=2", help="kernel spec (default matern:m=2)")
    p.add_argument("--C", type=float, default=1.2, help="domain half-width (default 1.2)")
    p.add_argument("--margin", type=float, default=0.4, help="interior margin (default 0.4)")
    p.add_argument("--nodes", default=DEFAULT_NODES, help=f"node ladder (default {DEFAULT_NODES})")
    p.add_argument("--grid", type=int, default=2001, help="evaluation grid size (default 2001)")
    add_common(p)

    p = sub.add_parser("interp", help="single interpolation run tabulated on a grid")
    p.add_argument("--kernel", default="matern:m=2")
    p.add_argument("--C", type=float, default=1.2)
    p.add_argument("--N", type=int, default=41, help="node count (default 41)")
    p.add_argument("--grid", type=int, default=2001)
    add_common(p)

    p = sub.add_parser("mercer", help="Nystrom eigenpairs and extension diagnostics")
    p.add_argument("--kernel", default="matern:m=1")
    p.add_argument("--domain", default="-1,1", help="interval a,b (default -1,1)")
    p.add_argument("--modes", type=int, default=10, help="modes kept (default 10)")
    p.add_argument("--quad", type=int, default=200, help="rule size (default 200)")
    add_common(p)

    p = sub.add_parser("bc-check", help="boundary-condition residuals of the test function")
    p.add_argument("--a", type=float, default=-1.2, help="left endpoint (default -1.2)")
    p.add_argument("--b", type=float, default=1.2, help="right endpoint (default 1.2)")
    add_common(p)

    p = sub.add_parser("seqmodel", help="sequence-space inequality verification")
    p.add_argument("--trials", type=int, default=1000, help="random trials per preset (default 1000)")
    p.add_argument("--M", type=int, default=64, help="sequence length (default 64)")
    p.add_argument("--seed", type=int, default=42, help="base RNG seed (default 42)")
    add_common(p)
    return parser


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_rates(args):
    kernel = parse_kernel(args.kernel)
    counts = _parse_node_ladder(args.nodes)
    f_norm_sq = f_native_norm_sq(kernel)
    study = run_rate_study(
        kernel,
        args.C,
        args.margin,
        counts,
        args.grid,
        f_exact,
        f_norm_sq=f_norm_sq,
    )
    out = _ensure_outdir(args.out)
    output.write_rates_csv(os.path.join(out, "rates.csv"), study)
    output.atomic_write_text(
        os.path.join(out, "rates.svg"), output.render_rate_svg(study)
    )
    n_max = max(counts)
    output.write_xy_csv(
        os.path.join(out, f"error_N{n_max}.csv"),
        "x,error",
        np.linspace(-args.C, args.C, args.grid),
        study.finest_error,
    )
    if study.global_rate is None:
        print(f"wrote {out}/rates.csv ({len(study.rows)} levels)")
        print("error: too few usable levels to fit a rate", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"rates: C={args.C:g} margin={args.margin:g} kernel=m{kernel.m} "
        f"N={{{args.nodes}}} grid={args.grid}"
    )
    if study.interior_rate is None:
        interior = f"interior rate unavailable (fewer than two levels with error >= {ERROR_FLOOR:g})"
    else:
        interior = f"interior rate {study.interior_rate:.3f} (all levels {study.interior_rate_all:.3f})"
    print(f"global rate {study.global_rate:.3f} (all levels {study.global_rate_all:.3f}), {interior}")
    if f_norm_sq is not None:
        print(f"native-norm error exponent vs N: {study.native_exponent:.3f}")
    print(f"wrote {out}/rates.csv, rates.svg, error_N{n_max}.csv")
    return EXIT_OK


def cmd_interp(args):
    kernel = parse_kernel(args.kernel)
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    nodes = equidistant_nodes(args.C, args.N)
    s = interpolate(kernel, nodes, f_exact(nodes.points))
    grid = np.linspace(-args.C, args.C, args.grid)
    values = evaluate(s, grid)
    f_grid = f_exact(grid)
    out = _ensure_outdir(args.out)
    path = os.path.join(out, f"interp_N{args.N}.csv")
    output.write_columns_csv(
        path, ["x", "f", "s", "error"], [grid, f_grid, values, f_grid - values]
    )
    print(
        f"interp: N={args.N} C={args.C:g} kernel=m{kernel.m} "
        f"max|error|={np.max(np.abs(f_grid - values)):.3e} "
        f"norm^2={native_norm_sq(s):.6f}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mercer(args):
    kernel = parse_kernel(args.kernel)
    a, b = _parse_domain(args.domain)
    sys_ = nystrom_eig(kernel, a, b, args.quad, args.modes)
    out = _ensure_outdir(args.out)
    output.write_xy_csv(
        os.path.join(out, "eigenvalues.csv"),
        "n,kappa",
        np.arange(1, sys_.n_modes + 1),
        sys_.eigenvalues,
    )
    for n in range(sys_.n_modes):
        output.write_xy_csv(
            os.path.join(out, f"eigenfunction_{n + 1:02d}.csv"),
            "y,phi",
            sys_.nodes,
            sys_.eigenfunctions[n],
        )
    # scaled Gram kappa_l * (phi_j^E, phi_l^E)_K; identity when orthogonality
    # carries over to the native space
    gram = hk_gram_matrix(sys_) * sys_.eigenvalues[None, :]
    output.write_matrix_csv(os.path.join(out, "hk_gram.csv"), gram)
    pad = 0.5 * (b - a)
    xs = np.linspace(a - pad, b + pad, 401)
    cols = [xs, *eigen_extend(sys_, range(sys_.n_modes), xs).T]
    output.write_columns_csv(
        os.path.join(out, "extensions.csv"),
        ["x"] + [f"phiE_{n + 1}" for n in range(sys_.n_modes)],
        cols,
    )
    off = gram - np.eye(sys_.n_modes)
    print(
        f"mercer: [{a:g},{b:g}] kernel=m{kernel.m} rule={args.quad} modes={sys_.n_modes}"
    )
    print(
        f"kappa_1={sys_.eigenvalues[0]:.6f} trace={float(np.sum(sys_.full_spectrum)):.6f} "
        f"max|gram - I|={np.max(np.abs(off)):.3e}"
    )
    print(f"wrote {out}/eigenvalues.csv, eigenfunction_XX.csv, hk_gram.csv, extensions.csv")
    return EXIT_OK


def cmd_bc_check(args):
    forms = (
        ("two-constraint form (annihilation by (1-D)^2 at a, (1+D)^2 at b):", 2, 2),
        ("printed-chain form (g(a)=g'(a)=g''(a)=g'''(a), g(b)=-g'(b)=g''(b)=-g'''(b)):", 1, 3),
    )
    # both sets before the first print, so a refused pair prints nothing
    residuals = [bc_residuals(f_exact, args.a, args.b, order, rows) for _, order, rows in forms]
    print(f"boundary-condition residuals for the test function at a={args.a:g}, b={args.b:g}")
    for (header, order, rows), values in zip(forms, residuals):
        print(header)
        for label, value in zip(_bc_labels(order, rows), values):
            print(f"  {label:24s} = {value: .6e}")
    return EXIT_OK


def _bc_labels(order, rows):
    # bc_residuals' rows written out, "g(a)-2g'(a)+g''(a)" for order 2, j = 0
    labels = []
    for end, sign in (("a", -1), ("b", 1)):
        for j in range(rows):
            label = ""
            for n, c in enumerate(_bc_coefficients(order, sign), start=j):
                scale = "" if abs(c) == 1 else str(abs(c))
                label += ("-" if c < 0 else "+") + scale + "g" + "'" * n + f"({end})"
            labels.append(label[1:])  # the leading coefficient is +1
    return labels


def cmd_seqmodel(args):
    # both presets before the zero-trials branch, so a bad M is refused there too
    presets = (("sobolev n^-4", sobolev_weights(args.M)), ("analytic 2^-n", analytic_weights(args.M)))
    if args.trials == 0:
        print("seqmodel: 0 trials requested, vacuous pass")
        return EXIT_OK
    failed = False
    for name, space in presets:
        report = run_trials(space, args.trials, args.seed)
        print(
            f"{name}: standard {report.standard_passes}/{report.trials}, "
            f"superconvergence {report.super_passes}/{report.trials}, "
            f"sharpest ratios {report.sharpest_standard:.6f} / {report.sharpest_super:.6f}, "
            f"extremal ratio {report.extremal_ratio:.12f}"
        )
        if not report.all_pass:
            failed = True
            ce = report.counterexample
            print(f"counterexample in trial {ce['trial']}:", file=sys.stderr)
            print(f"  standard: {ce['standard']}", file=sys.stderr)
            print(f"  superconvergence: {ce['superconvergence']}", file=sys.stderr)
    if failed:
        return EXIT_VERIFY
    return EXIT_OK


_DISPATCH = {
    "rates": cmd_rates,
    "interp": cmd_interp,
    "mercer": cmd_mercer,
    "bc-check": cmd_bc_check,
    "seqmodel": cmd_seqmodel,
}


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_absorb_negative_values(raw))
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConditioningError, TruncationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
