"""Harness self-test: every check must be able to fail.

Usage: python3 bench/selftest.py

Runs one real iteration of each workload, asserts that its checks pass,
then feeds deliberately corrupted copies of the outputs through the same
checks and asserts that each corruption is counted as a failed operation
in fail_frac.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import env
import run

CORRUPTIONS = {}


def corruption(workload, op, later_pass=False):
    """Register a corruption that the verdict on ``op`` must catch.

    Outputs are checked as a run's first pass, so each check is tested on
    its own, except for ``later_pass`` corruptions, which are checked as a
    later pass against the real outputs.
    """

    def register(fn):
        CORRUPTIONS.setdefault(workload, []).append((fn.__name__, op, later_pass, fn))
        return fn

    return register


@corruption("rate_ladder", "study_m1")
def m1_global_rate_off(out):
    out["study_m1"] = dataclasses.replace(out["study_m1"], global_rate=out["study_m1"].global_rate + 0.02)


@corruption("rate_ladder", "study_m2")
def m2_interior_rate_off(out):
    out["study_m2"] = dataclasses.replace(out["study_m2"], interior_rate=3.9)


@corruption("rate_ladder", "study_m2")
def m2_level_rms_one_percent_high(out):
    study = out["study_m2"]
    rows = tuple(dataclasses.replace(r, rms_global=r.rms_global * 1.01) if r.N == 641 else r for r in study.rows)
    out["study_m2"] = dataclasses.replace(study, rows=rows)


@corruption("rate_ladder", "jittered")
def jittered_value_off(out):
    out["jittered"] = out["jittered"].copy()
    out["jittered"][1234] += 1e-8


@corruption("spectral_checks", "nystrom")
def kappa1_perturbed(out):
    out["kappa"] = out["kappa"].copy()
    out["kappa"][0] *= 1 + 1e-5


@corruption("spectral_checks", "hk_gram")
def gram_entry_off(out):
    out["gram"] = out["gram"].copy()
    out["gram"][3, 7] += 1e-10


@corruption("spectral_checks", "extend")
def extension_scaled(out):
    out["extend"] = out["extend"].copy()
    out["extend"][4] *= 1.001


@corruption("spectral_checks", "convolve")
def convolution_off(out):
    out["conv"] = out["conv"].copy()
    out["conv"][5] += 1e-9


@corruption("spectral_checks", "trials_sobolev")
def trial_failed(out):
    out["trials_sobolev"] = dataclasses.replace(out["trials_sobolev"], super_passes=out["trials_sobolev"].super_passes - 1)


@corruption("spectral_checks", "trials_analytic")
def sharpest_ratio_off(out):
    rep = out["trials_analytic"]
    out["trials_analytic"] = dataclasses.replace(rep, sharpest_standard=rep.sharpest_standard * (1 - 1e-6))


@corruption("spectral_checks", "trials_analytic")
def extremal_ratio_off(out):
    out["trials_analytic"] = dataclasses.replace(out["trials_analytic"], extremal_ratio=1.0 + 1e-9)


def _edit(out, command, name, old, new):
    blob = out[command]["files"][name].decode()
    if old not in blob:
        raise AssertionError(f"{name} has no {old!r} to corrupt")
    out[command]["files"][name] = blob.replace(old, new, 1).encode()


@corruption("cli_defaults", "rates")
def rates_csv_cell_changed(out):
    line = out["rates"]["files"]["rates.csv"].decode().splitlines()[3]
    cell = line.split(",")[2]
    _edit(out, "rates", "rates.csv", cell, f"{float(cell) * 1.01!r}")


@corruption("cli_defaults", "rates")
def printed_rate_changed(out):
    out["rates"]["stdout"] = out["rates"]["stdout"].replace("interior rate 4.001", "interior rate 3.996", 1)


@corruption("cli_defaults", "mercer")
def mercer_exit_code(out):
    out["mercer"]["returncode"] = 3


@corruption("cli_defaults", "mercer")
def eigenvalue_changed(out):
    line = out["mercer"]["files"]["eigenvalues.csv"].decode().splitlines()[1]
    kappa = line.split(",")[1]
    _edit(out, "mercer", "eigenvalues.csv", kappa, f"{float(kappa) * (1 + 1e-4)!r}")


@corruption("cli_defaults", "mercer")
def hk_gram_cell_changed(out):
    first = out["mercer"]["files"]["hk_gram.csv"].decode().split(",")[1]
    _edit(out, "mercer", "hk_gram.csv", first, "1e-9")


@corruption("cli_defaults", "mercer")
def extension_value_changed(out):
    row = out["mercer"]["files"]["extensions.csv"].decode().splitlines()[200]
    phi = row.split(",")[3]
    _edit(out, "mercer", "extensions.csv", phi, f"{float(phi) + 1e-2!r}")


@corruption("cli_defaults", "interp")
def interp_value_changed(out):
    row = out["interp"]["files"]["interp_N41.csv"].decode().splitlines()[500]
    s = row.split(",")[2]
    _edit(out, "interp", "interp_N41.csv", s, f"{float(s) + 1e-6!r}")


@corruption("cli_defaults", "rates", later_pass=True)
def output_not_repeatable(out):
    # a later pass whose plot differs from the first pass's
    out["rates"]["files"]["rates.svg"] += b"\n"


@corruption("cli_defaults", "bc-check")
def bc_residual_nonzero(out):
    lines = out["bc-check"]["stdout"].splitlines()
    lines[2] = lines[2].split("=")[0] + "=  1.000000e-06"
    out["bc-check"]["stdout"] = "\n".join(lines)


@corruption("cli_defaults", "seqmodel")
def seqmodel_pass_missing(out):
    out["seqmodel"]["stdout"] = out["seqmodel"]["stdout"].replace("standard 1000/1000", "standard 999/1000", 1)


def main():
    if not env.use_checkout_source():
        print(f"error: no package source under {env.SRC}", file=sys.stderr)
        return 2
    import workloads as W

    missed = []
    for workload in run.WORKLOADS:
        inp = W.make_inputs(workload, 1)
        _, out, verdicts = run.iterate(workload, inp, None)
        if workload == "cli_defaults":
            verdicts = W.CHECKS[workload](inp, out, out)
        clean = {op: p for op, p in verdicts.items() if p}
        if clean:
            print(f"{workload}: real outputs fail their checks: {clean}")
            return 1
        print(f"{workload}: real outputs pass all {len(verdicts)} checks")
        for name, op, later_pass, corrupt in CORRUPTIONS[workload]:
            bad = copy.deepcopy(out)
            corrupt(bad)
            tally = run.Tally()
            tally.add(W.CHECKS[workload](inp, bad, out if later_pass else None))
            caught = any(p.startswith(f"{op}:") for p in tally.problems)
            print(f"  {'caught' if caught else 'MISSED'} {name}: fail_frac {tally.failed}/{tally.attempted}")
            for problem in tally.problems:
                print(f"    {problem}")
            if not caught:
                missed.append(name)

        def broken(inp, tracer=None):
            raise FloatingPointError("injected")

        saved = W.RUNNERS[workload]
        W.RUNNERS[workload] = broken
        try:
            _, _, verdicts = run.iterate(workload, inp, None)
        finally:
            W.RUNNERS[workload] = saved
        tally = run.Tally()
        tally.add(verdicts)
        caught = tally.failed == tally.attempted == len(W.OPERATIONS[workload])
        print(f"  {'caught' if caught else 'MISSED'} program_raises: fail_frac {tally.failed}/{tally.attempted}")
        if not caught:
            missed.append(f"{workload}.program_raises")
    print("self-test:", "every corruption was counted" if not missed else f"missed {missed}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
