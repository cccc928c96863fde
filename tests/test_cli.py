"""Command-line behavior: parsing, outputs, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import maternlab
import maternlab.cli as cli
from maternlab import KernelSpec, kernel_eval, kernels
from maternlab.seqmodel import BoundCheck, TrialReport


def test_parse_kernel_forms():
    assert cli.parse_kernel("matern:m=2") == KernelSpec(m=2, amplitude=1.0)
    assert cli.parse_kernel("matern:m=1").m == 1
    k = cli.parse_kernel("matern:m=2,amp=paper")
    assert k.amplitude == pytest.approx(np.sqrt(np.pi / 2.0))
    assert cli.parse_kernel(" matern:m=3,amp=unit ") == KernelSpec(m=3, amplitude=1.0)


def test_parse_kernel_rejections():
    for bad in (
        "gauss:m=2",
        "matern:",
        "matern:d=1",
        "matern:m=1,d=1",  # the lab is one-dimensional: no d key
        "matern:m=3,d=2,amp=unit",
        "matern:m=two",
        "matern:m=2,amp=loud",
        "matern:m=2,shape=1",
        "matern:m=2,d",
        "matern:m=2,m=3",  # a repeated key used to let the last value win
        "matern:m=2,amp=paper,amp=unit",
    ):
        with pytest.raises(ValueError):
            cli.parse_kernel(bad)


def test_negative_value_merging():
    merged = cli._absorb_negative_values(["mercer", "--domain", "-1,1", "--quad", "50"])
    assert merged == ["mercer", "--domain=-1,1", "--quad", "50"]
    merged = cli._absorb_negative_values(["bc-check", "--a", "-1.2", "--b", "1.2"])
    assert merged == ["bc-check", "--a=-1.2", "--b", "1.2"]
    # non-numeric dashes stay untouched
    merged = cli._absorb_negative_values(["rates", "--nodes", "11,21"])
    assert merged == ["rates", "--nodes", "11,21"]
    # an option takes one value: a second number stays a token of its own,
    # as does a number after an option that already has its value
    for argv, want in (
        (["--a", "-1.2", "-3"], ["--a=-1.2", "-3"]),
        (["--domain", "-1,1", "--quad", "-5"], ["--domain=-1,1", "--quad=-5"]),
        (["--x=1", "-1"], ["--x=1", "-1"]),
        (["--", "-1"], ["--", "-1"]),
    ):
        assert cli._absorb_negative_values(argv) == want
    # the signed forms float() reads join too; nothing joins onto or after '--'
    for argv, want in (
        (["--C", "-inf"], ["--C=-inf"]),
        (["--C", "-NaN"], ["--C=-NaN"]),
        (["--domain", "-inf,1"], ["--domain=-inf,1"]),
        (["--domain", "-.5,1"], ["--domain=-.5,1"]),
        (["--", "--C", "-1"], ["--", "--C", "-1"]),
        (["--C", "-help"], ["--C", "-help"]),
    ):
        assert cli._absorb_negative_values(argv) == want


def test_a_bare_double_dash_is_never_an_option(capsys):
    # '-- -1' stays two tokens: joined, '--=-1' would be an ambiguous option
    with pytest.raises(SystemExit) as info:
        cli.main(["seqmodel", "--", "-1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: -- -1" in err and "--=-1" not in err


def test_rates_writes_outputs(tmp_path, capsys):
    rc = cli.main(
        ["rates", "--nodes", "11,21", "--grid", "501", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "rates.csv").exists()
    assert (tmp_path / "rates.svg").exists()
    assert (tmp_path / "error_N21.csv").exists()
    out = capsys.readouterr().out
    assert "global rate" in out
    assert "native-norm error exponent" in out
    header = (tmp_path / "rates.csv").read_text().split("\n")[0]
    assert header == "N,h,rms_global,rms_interior,native_err"
    err_header = (tmp_path / "error_N21.csv").read_text().split("\n")[0]
    assert err_header == "x,error"


def test_rates_single_level_writes_table_then_fails(tmp_path, capsys):
    rc = cli.main(["rates", "--nodes", "11", "--grid", "501", "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "rates.csv").exists()  # the table still lands
    captured = capsys.readouterr()
    assert "too few usable levels" in captured.err


def test_rates_reports_a_missing_interior_fit(tmp_path, capsys):
    # only N = 641 keeps an interior error at or above 1e-13, so the interior
    # fit is missing while the global one stands: the run succeeds and says
    # so, where it used to die formatting None (exit 1)
    rc = cli.main(["rates", "--C", "0.8", "--nodes", "641,1281,2561", "--grid", "25610",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "global rate 2.499 (all levels 2.499), interior rate unavailable " in out
    assert "(fewer than two levels with error >= 1e-13)" in out
    assert (tmp_path / "rates.csv").exists()


def test_rates_conditioning_failure_maps_to_exit_3(tmp_path, capsys):
    rc = cli.main(
        ["rates", "--C", "1e-6", "--margin", "0", "--nodes", "11,21",
         "--grid", "501", "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_bad_configuration_maps_to_exit_2(tmp_path, capsys):
    assert cli.main(["rates", "--kernel", "matern:m=0", "--out", str(tmp_path)]) == 2
    assert cli.main(["rates", "--nodes", "11,banana", "--out", str(tmp_path)]) == 2
    assert cli.main(["mercer", "--domain", "5,1", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # a repeated kernel key used to let the last value win, and bc-check
    # with a >= b printed the left-end (1 - D)^2 residuals at the right end
    # --C 0 used to be refused as "nodes must be strictly increasing", and
    # --C inf warned from inside numpy first
    for argv, named in (
        (["interp", "--kernel", "matern:m=2,amp=paper,amp=unit"], "'amp' given twice"),
        (["bc-check", "--a", "1", "--b", "-1"], "need finite a < b, got a=1.0, b=-1.0"),
        (["bc-check", "--a", "0.5", "--b", "0.5"], "need finite a < b, got a=0.5, b=0.5"),
        (["interp", "--C", "0"], "C must be finite and positive, got 0.0"),
        (["interp", "--C", "inf"], "C must be finite and positive, got inf"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and named in out.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,named",
    [
        (["mercer", "--domain", "5,1"], "need finite a < b, got a=5.0, b=1.0"),
        (["seqmodel", "--trials", "-3"], "n_trials must be a nonnegative integer, got -3"),
        (["seqmodel", "--M", "0"], "M must be a positive integer, got 0"),
        (["seqmodel", "--trials", "0", "--M", "0"], "M must be a positive integer, got 0"),
        # b = inf was refused by f_exact ("x must be finite"), after the
        # first header used to be printed; the interval rule now names it
        (["bc-check", "--b", "inf"], "need finite a < b, got a=-1.2, b=inf"),
        # signed forms float() reads reach the library, not argparse's
        # "expected one argument"
        (["rates", "--C", "-inf"], "C must be finite and positive, got -inf"),
        (["mercer", "--domain", "-inf,1"], "need finite a < b, got a=-inf, b=1.0"),
        # d was a kernel parameter once; the lab is one-dimensional
        (["rates", "--kernel", "matern:m=2,d=2"], "unknown kernel parameter 'd'"),
    ],
    ids=[
        "mercer-domain",
        "seqmodel-trials",
        "seqmodel-M",
        "seqmodel-no-trials-M",
        "bc-check-inf",
        "rates-C-minus-inf",
        "mercer-domain-minus-inf",
        "rates-kernel-d",
    ],
)
def test_ranges_the_library_refuses_exit_2(argv, named, tmp_path, capsys):
    # the CLI parses (and refuses a kernel spec it cannot read); nystrom_eig,
    # run_trials, the weight presets and the residuals refuse, before
    # anything is printed or written
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("m", [68, 85, 86, 172, 200])
@pytest.mark.parametrize("command", ["interp", "rates", "mercer"])
def test_a_large_m_ends_in_an_exit_code(command, m, tmp_path, capsys):
    # From m = 68 interp and rates ended in a traceback (UFuncTypeError: the
    # solver's companion row held integers past int64), and from m = 172
    # mercer did (OverflowError from 1/j! in the translate sums).  Up to
    # m = 85 every path ends in its exit code, with no warning on the way;
    # the m rule refuses a larger m by name, before anything is written.
    # mercer exited 0 there with modes at the eigensolve's rounding; its
    # rounding floor now refuses them.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--kernel", f"matern:m={m}", "--out", str(out)])
    err = capsys.readouterr().err
    if m > 85:
        assert rc == 2
        assert err == f"error: m must be at most 85, got {m}\n"
        assert not out.exists()
    elif command == "mercer":  # the kept eigenvalues sit at rounding level
        assert rc == 3, err
        assert err.startswith("numerical error: eigenvalue ") and "rounding floor" in err
        assert not out.exists()
    else:  # the banded solve's pivots fail
        assert rc == 3, err
        assert err.startswith("numerical error: factorization pivot")


def test_mercer_refuses_modes_at_the_rounding_floor(tmp_path, capsys):
    # m = 10 at the defaults kept modes at rounding level, printed
    # max|gram - I| = 9.986e-01 and exited 0
    out = tmp_path / "out"
    assert cli.main(["mercer", "--kernel", "matern:m=10", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert re.fullmatch(
        r"numerical error: eigenvalue 8 of 10 requested modes \(\S+\) is at or below the rounding floor "
        r"rule_size \* eps \* kappa_1 = \S+; ask for fewer modes\n",
        captured.err,
    ), captured.err


def test_a_paper_amplitude_beyond_the_m_bound_names_m(tmp_path, capsys):
    # paper_amplitude(170) was inf, so KernelSpec refused the amplitude
    assert cli.main(["interp", "--kernel", "matern:m=170,amp=paper", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: m must be at most 85")


def test_empty_interior_window_or_grid_maps_to_exit_2(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["rates", "--margin", "1.1999", "--grid", "2000", "--out", str(tmp_path)])
        assert rc == 2
        assert "margin 1.1999" in capsys.readouterr().err
        rc = cli.main(["interp", "--grid", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: --grid must be >= 1, got 0" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("command", ["rates", "interp", "mercer", "bc-check"])
def test_seed_only_on_seqmodel(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--seed", "1", "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: maternlab")
    assert "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("command", ["rates", "interp"])
def test_no_option_regularizes_the_solve(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--jitter", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --jitter" in capsys.readouterr().err


def test_readme_usage_block_matches_the_parser():
    # every option in the README's usage block exists, and every option
    # exists in the block, but --help and the --out that bc-check and
    # seqmodel accept and ignore
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("maternlab "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"\[(--[\w-]+)", line))
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"} - ({"--out"} if name in ("bc-check", "seqmodel") else set())
        for name, p in sub.choices.items()
    }
    assert documented == parsed


def test_interp_writes_table(tmp_path, capsys):
    rc = cli.main(
        ["interp", "--N", "21", "--grid", "501", "--out", str(tmp_path)]
    )
    assert rc == 0
    path = tmp_path / "interp_N21.csv"
    assert path.exists()
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,f,s,error"
    assert len(lines) == 502
    x, f, s, e = (float(v) for v in lines[250].split(","))
    assert e == pytest.approx(f - s, abs=1e-16)
    assert "max|error|" in capsys.readouterr().out


def test_mercer_writes_spectral_outputs(tmp_path, capsys):
    rc = cli.main(
        ["mercer", "--domain", "-1,1", "--quad", "60", "--modes", "4",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    eig = (tmp_path / "eigenvalues.csv").read_text().strip().split("\n")
    assert eig[0] == "n,kappa"
    assert len(eig) == 5
    assert eig[1].startswith("1,")  # mode indices are one-based in files
    for n in range(1, 5):
        assert (tmp_path / f"eigenfunction_{n:02d}.csv").exists()
    gram = (tmp_path / "hk_gram.csv").read_text().strip().split("\n")
    mat = np.array([[float(v) for v in line.split(",")] for line in gram])
    assert mat.shape == (4, 4)
    assert np.max(np.abs(mat - np.eye(4))) < 1e-6
    ext = (tmp_path / "extensions.csv").read_text().strip().split("\n")
    assert ext[0] == "x,phiE_1,phiE_2,phiE_3,phiE_4"
    assert "kappa_1" in capsys.readouterr().out


def test_mercer_extends_all_modes_without_a_kernel_matrix(tmp_path, monkeypatch):
    sizes = []

    def counted(k, r, out=None):
        sizes.append(np.size(r))
        return kernel_eval(k, r, out)

    # the rule and the extension both sample through the kernels module
    monkeypatch.setattr(kernels, "kernel_eval", counted)
    assert cli.main(["mercer", "--modes", "10", "--out", str(tmp_path)]) == 0
    # the rule's own 200 x 200 samples are the only kernel evaluations, once
    # for B before the eigensolve and once for the gram after it: the 401
    # extension points never meet the 200 rule nodes in one array
    assert sizes == [200 * 200] * 2, sizes


def test_mercer_truncation_maps_to_exit_3(tmp_path, capsys):
    rc = cli.main(
        ["mercer", "--kernel", "matern:m=4", "--quad", "60", "--modes", "60",
         "--out", str(tmp_path)]
    )
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_bc_check_prints_both_residual_sets(capsys):
    assert cli.main(["bc-check"]) == 0
    out = capsys.readouterr().out
    assert "two-constraint form" in out
    assert "printed-chain form" in out
    # the annihilation residuals vanish, the chain gaps do not
    values = [float(m) for m in re.findall(r"= *(-?\d\.\d+e[+-]\d+)", out)]
    assert len(values) == 10
    assert max(abs(v) for v in values[:4]) < 1e-10
    assert min(abs(v) for v in values[4:]) > 0.5


def test_seqmodel_passes_and_reports(capsys):
    assert cli.main(["seqmodel", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "sobolev" in out and "analytic" in out
    assert "extremal ratio" in out
    # --seed reaches the trials: another seed draws other sequences
    assert cli.main(["seqmodel", "--trials", "50", "--seed", "3"]) == 0
    assert capsys.readouterr().out != out


def test_seqmodel_zero_trials_vacuous(capsys):
    assert cli.main(["seqmodel", "--trials", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_seqmodel_counterexample_maps_to_exit_4(monkeypatch, capsys):
    # the inequalities cannot fail for positive weights, so the failure
    # path is exercised with a fabricated report
    fake = TrialReport(
        trials=1,
        standard_passes=0,
        super_passes=1,
        sharpest_standard=2.0,
        sharpest_super=0.5,
        extremal_ratio=1.0,
        counterexample={
            "trial": 0,
            "f": np.ones(4),
            "subset": np.zeros(4, dtype=bool),
            "standard": BoundCheck(2.0, 0.5, 1.0, False),
            "superconvergence": BoundCheck(0.5, 0.5, 1.0, True),
        },
    )
    monkeypatch.setattr(cli, "run_trials", lambda space, n, seed: fake)
    rc = cli.main(["seqmodel", "--trials", "1"])
    assert rc == 4
    assert "counterexample in trial 0" in capsys.readouterr().err


def test_seqmodel_validation(capsys):
    assert cli.main(["seqmodel", "--trials", "-3"]) == 2
    assert cli.main(["seqmodel", "--M", "0"]) == 2
    capsys.readouterr()


_SCIPY_PROBE = """
import contextlib, io, json, sys
import maternlab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_modules()}
for command in ("rates", "interp", "mercer", "bc-check", "seqmodel"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--out", sys.argv[1]])
    seen[command] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def _run_probe(script, *args):
    env = dict(os.environ)
    src = str(Path(maternlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_defaults_load_no_scipy(tmp_path):
    # Every subcommand at its defaults runs on numpy alone (the banded
    # m <= 2 solve, closed-form tails, a 200-point dense Nystrom eigh), so a
    # fresh process never pays the scipy import; only the parity eigensolve
    # of rules of 1536 points or more loads it, lazily.
    seen = _run_probe(_SCIPY_PROBE, str(tmp_path))
    assert seen.pop("import") == []
    assert seen == {
        command: [0, []] for command in ("rates", "interp", "mercer", "bc-check", "seqmodel")
    }


_THRESHOLD_PROBE = """
import json, sys
from maternlab import KernelSpec, nystrom_eig

seen = []
for rule in (1535, 1536):
    nystrom_eig(KernelSpec(m=1), -1.0, 1.0, rule, 4)
    seen.append("scipy.linalg" in sys.modules)
print(json.dumps(seen))
"""


def test_only_rules_of_1536_points_or_more_load_scipy_linalg():
    # importing scipy.linalg costs about 0.3 s in a fresh process, more than
    # the parity eigensolve saves below 1536 points
    assert _run_probe(_THRESHOLD_PROBE) == [False, True]


_CLOSED_FORM_PROBE = """
import json, sys
from maternlab import KernelSpec, box_convolution, f_exact

f_exact([-2.0, 0.0, 1.0], 3)
for m in (1, 2, 3, 4):
    for order in range(2 * m):
        box_convolution(KernelSpec(m=m), [-2.0, 0.0, 1.0], order)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_d1_closed_forms_load_no_scipy():
    # box convolutions of every kernel are closed forms, evaluated on numpy
    # alone
    assert _run_probe(_CLOSED_FORM_PROBE) == []


def test_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule and the derivatives of p are the package's own,
    # so the import does not pay for numpy.polynomial
    probe = "import json, sys, maternlab\nprint(json.dumps('numpy.polynomial' in sys.modules))"
    assert _run_probe(probe) is False
