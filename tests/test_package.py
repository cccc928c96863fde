"""The package's public surface: one list per module, re-exported whole."""

import ast
import builtins
import dataclasses
import importlib
import sys
from pathlib import Path

import maternlab
from maternlab import (
    cli,
    errors,
    experiments,
    interpolation,
    kernels,
    mercer,
    seqmodel,
    testfunctions,
)

MODULES = (errors, experiments, interpolation, kernels, mercer, seqmodel, testfunctions)


def test_package_exports_the_union_of_module_lists():
    union = set()
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__)
        union |= set(module.__all__)
    assert set(maternlab.__all__) == union
    assert len(maternlab.__all__) == len(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(maternlab, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from maternlab import *", namespace)
    assert namespace["run_trials"] is seqmodel.run_trials
    assert set(maternlab.__all__) <= set(namespace)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_targets():
    # the (module, function) pairs that bench/spans.py wraps for --trace 1
    spans = ast.parse((BENCH / "spans.py").read_text())
    targets = next(
        node.value
        for node in spans.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def _bench_calls(name):
    # the names bench/<name> calls as ml.<name> on the package
    return {
        node.attr
        for node in ast.walk(ast.parse((BENCH / name).read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ml"
    }


def test_names_the_benchmark_uses_resolve():
    # bench/spans.py wraps (module, function) pairs for --trace 1 and
    # bench/workloads.py calls ml.<name> on the package; a rename here
    # would break the benchmark without failing any other test
    pairs = _bench_targets()
    assert len(pairs) >= 10
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"maternlab.{module}"), name))
    called = _bench_calls("workloads.py")
    assert {"nystrom_eig", "eigen_extend", "hk_gram_matrix"} <= called
    for name in called:
        assert hasattr(maternlab, name), name


def test_the_benchmark_self_test_rewrites_only_report_fields():
    # bench/selftest.py corrupts reports by dataclasses.replace(report,
    # field=...); a renamed field would break its run without failing any
    # other test, since no test runs it
    calls = [
        node
        for node in ast.walk(ast.parse((BENCH / "selftest.py").read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.replace"
    ]
    keywords = {kw.arg for call in calls for kw in call.keywords}
    assert len(calls) >= 5 and keywords, "no dataclasses.replace call found: the search is broken"
    reports = (experiments.RateStudy, experiments.RateRow, seqmodel.TrialReport)
    fields = {f.name for cls in reports for f in dataclasses.fields(cls)}
    assert keywords <= fields, sorted(keywords - fields)


def test_only_the_parity_eigensolve_imports_scipy():
    # scipy is a lazy dependency of one function: the LAPACK calls of the
    # parity eigensolve.  A new scipy import anywhere else fails here, so it
    # has to be added knowingly, and with it this list.
    importers = set()

    def visit(node, scope):  # scope: module.function of the enclosing def
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(scope)
            visit(child, scope)

    for path in sorted(Path(mercer.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert importers == {"mercer._parity_eigh"}


def test_only_post_init_writes_frozen_fields():
    # object.__setattr__ writes a field of a frozen dataclass.  Only
    # __post_init__ may, while the value is built, so an instance stays a
    # value that no later call changes.
    writers = set()

    def visit(node, scope):  # scope: module.Class.function of the enclosing def
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and getattr(func.value, "id", None) == "object"
            ):
                writers.add(scope)
            visit(child, scope)

    for path in sorted(Path(mercer.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert writers, "no object.__setattr__ found: the search is broken"
    assert all(scope.endswith(".__post_init__") for scope in writers), sorted(writers)


def test_every_error_type_is_raised_and_given_an_exit_code():
    # An error type that nothing raises is dead, and so is the except clause
    # in cli.main that catches it: each goes with its last raise.  Every type
    # that is raised has its exit code in cli.main.
    raised = set()
    for path in sorted(Path(mercer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    types = set(errors.__all__) - {"MaternlabError"}
    assert types <= raised, sorted(types - raised)
    main = next(
        node
        for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = set()
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            clause = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {ast.unparse(e) for e in clause}
    assert caught, "no except clause found in cli.main: the search is broken"
    assert caught - set(dir(builtins)) == types


# Public functions that no other module and no public function of their
# own calls, and public methods and properties (Class.name) that nothing
# outside their class reads, that the benchmark does not name either, each
# with the ROADMAP item that reserves it; one that leaves this list gets a
# caller first, or goes.
RESERVED = {
    "project_samples": "ROADMAP item 5: the eigencoefficient range test calls it",
    "verify_superconvergence": "ROADMAP item 5: the spectral-rate study calls it",
    "NodeSet.spacing": "ROADMAP item 3: the rate study reports the fill distance",
}


def _named_by_the_benchmark():
    # bench/spans.py TARGETS and the ml.<name> calls of bench/workloads.py
    # and bench/reference.py
    return {name for _, name in _bench_targets()} | _bench_calls("workloads.py") | _bench_calls("reference.py")


def _referenced(node):
    # every name and attribute a piece of code reads; an import binds a
    # name without reading it, so an import alone is no use
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_function_has_a_caller_or_a_reason():
    # A public function that only the tests call is code that only the
    # tests use: it needs a caller in another module under src/maternlab/
    # (cli.py included) or in a public function of its own module, a place
    # in the benchmark, or a line in RESERVED saying why it stays.  So does
    # each public method and property of a public class, __call__ counted
    # as public: a reader outside its class under src/maternlab/, a read in
    # the benchmark, or a line in RESERVED.  Calling an instance names no
    # __call__, so a __call__ always needs the line.
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(Path(mercer.__file__).parent.glob("*.py"))}
    bench = set().union(*(_referenced(ast.parse((BENCH / name).read_text())) for name in ("workloads.py", "reference.py")))
    uncalled, methods = set(), 0
    for module in MODULES:
        stem = module.__name__.rsplit(".", 1)[1]
        public = {
            node.name: node
            for node in trees[stem].body
            if isinstance(node, ast.FunctionDef) and node.name in module.__all__
        }
        callers = set().union(*(_referenced(tree) for other, tree in trees.items() if other != stem))
        for name in public:
            own = set().union(*(_referenced(node) for other, node in public.items() if other != name))
            if name not in callers | own:
                uncalled.add(name)
        classes = [node for node in trees[stem].body if isinstance(node, ast.ClassDef) and node.name in module.__all__]
        for cls in classes:
            outside = set().union(*(_referenced(node) for tree in trees.values() for node in tree.body if node is not cls))
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or (item.name.startswith("_") and item.name != "__call__"):
                    continue
                methods += 1
                if item.name not in outside | bench:
                    uncalled.add(f"{cls.name}.{item.name}")
    assert methods >= 5, "too few public methods and properties found: the search is broken"
    unreserved = uncalled - _named_by_the_benchmark() - set(RESERVED)
    assert not unreserved, f"no caller, no benchmark use and no reservation: delete {sorted(unreserved)}"
    assert set(RESERVED) <= uncalled, f"reserved but called, drop from RESERVED: {sorted(set(RESERVED) - uncalled)}"


# Modules whose public functions may read their arguments themselves, each
# with the reason; every other module leaves that to the rules in kernels.
READS_ITS_OWN_ARGUMENTS = {
    "kernels": "holds the argument rules",
    "cli": "parses the strings of argv, which the library's rules then check",
    "output": "is not re-exported, and writes what the CLI hands it",
}
READERS = {"np.asarray", "np.array", "float", "int", "operator.index", "np.random.SeedSequence"}


def _public_callables(tree, public):
    # (name, def) of each public function, and of each public method and
    # __post_init__ of a public class
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    not item.name.startswith("_") or item.name == "__post_init__"
                ):
                    yield f"{node.name}.{item.name}", item


def test_arguments_are_read_by_the_rules_in_kernels():
    # kernels is the one module that decides how an argument becomes a
    # number or an index: no public function, method or __post_init__
    # elsewhere hands one of its parameters, or a field self.<name>, to
    # np.asarray, np.array, float, int, operator.index or np.random.SeedSequence
    readers, seen = [], 0
    for path in sorted(Path(mercer.__file__).parent.glob("*.py")):
        if path.stem in READS_ITS_OWN_ARGUMENTS or path.stem == "__init__":
            continue
        public = set(importlib.import_module(f"maternlab.{path.stem}").__all__)
        for name, fn in _public_callables(ast.parse(path.read_text()), public):
            seen += 1
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs} - {"self"}
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) in READERS):
                    continue
                for arg in call.args:
                    own = isinstance(arg, ast.Name) and arg.id in params
                    field = isinstance(arg, ast.Attribute) and getattr(arg.value, "id", None) == "self"
                    if own or field:
                        readers.append(f"{path.stem}.{name}: {ast.unparse(call)}")
    assert seen > 20, "too few public callables found: the search is broken"
    assert readers == []


def _bench_workloads(monkeypatch):
    # bench/workloads.py, unedited.  The bench modules import each other by
    # bare name, so bench/ joins the path for the calling test only.
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("env", "oracles", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


def _assert_passes(workloads, workload, inp, out):
    verdicts = workloads.CHECKS[workload](inp, out)
    assert set(verdicts) == set(workloads.OPERATIONS[workload])
    assert all(problems == [] for problems in verdicts.values()), verdicts


def _one_iteration_passes(monkeypatch, workload):
    # One iteration through the benchmark's own RUNNERS and CHECKS (seed 1):
    # a change that breaks one of its gates fails here before it reaches a
    # benchmark run.
    workloads = _bench_workloads(monkeypatch)
    inp = workloads.make_inputs(workload, 1)
    _assert_passes(workloads, workload, inp, workloads.RUNNERS[workload](inp))


def test_one_spectral_checks_iteration_passes_the_benchmark_checks(monkeypatch):
    _one_iteration_passes(monkeypatch, "spectral_checks")


def test_one_rate_ladder_iteration_passes_the_benchmark_checks(monkeypatch):
    _one_iteration_passes(monkeypatch, "rate_ladder")


def test_the_cli_defaults_pass_the_benchmark_checks(monkeypatch, tmp_path, capsys):
    # The five subcommands at the benchmark's argv, run in-process with their
    # files read from tmp_path, judged by CHECKS["cli_defaults"]: a CLI edit
    # that changes a checked output fails here.  Nothing lands in bench/out.
    workloads = _bench_workloads(monkeypatch)
    before = sorted(workloads.OUT.rglob("*"))
    inp = workloads.make_inputs("cli_defaults", 1)
    out = {}
    for command in workloads.CLI_COMMANDS:
        work = tmp_path / command
        code = cli.main(workloads.cli_argv(command, inp, work))
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())} if work.is_dir() else {}
        out[command] = {"returncode": code, "stdout": captured.out, "stderr": captured.err, "files": files}
    _assert_passes(workloads, "cli_defaults", inp, out)
    assert sorted(workloads.OUT.rglob("*")) == before
