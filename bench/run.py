"""maternlab benchmark: one workload per process, closed loop, one client.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

A run does one untimed warm-up iteration, then runs iterations back to
back until ``--seconds`` have passed, checking every output.  Set-up is
measured in fresh probe processes spread over the run: two before the
warm-up, two before each timed iteration and two at the end.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates traced and untraced
iterations and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object.  ``--workload all`` runs each
workload in its own process and prints every end-to-end metric with its
unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import env

env.pin_threads()

WORKLOADS = ("rate_ladder", "spectral_checks", "cli_defaults")
PROBES_PER_SLOT = 2
PROBE_TIMEOUT = 60


def declared_metrics(trace):
    with open(env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload, seed, count=PROBES_PER_SLOT):
    """Seconds from spawning a fresh process to its inputs being ready,
    for each of ``count`` processes started one after another."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(env.BENCH_DIR / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=env.ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, verdicts):
        for op, problems in verdicts.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op}: {'; '.join(problems)}")


def iterate(workload, inp, first, tracer=None):
    """Run and check one iteration; returns (seconds, outputs, verdicts)."""
    import workloads as W

    t0 = time.perf_counter()
    try:
        out = W.RUNNERS[workload](inp, tracer)
    except Exception as exc:  # the program failed: every operation counts as failed
        elapsed = time.perf_counter() - t0
        return elapsed, None, {op: [f"raised {exc!r}"] for op in W.OPERATIONS[workload]}
    elapsed = time.perf_counter() - t0
    try:
        verdicts = W.CHECKS[workload](inp, out, first)
    except Exception as exc:  # malformed output the checks could not read
        verdicts = {op: [f"check raised {exc!r}"] for op in W.OPERATIONS[workload]}
    return elapsed, out, verdicts


def cli_peak_kb(out):
    """Largest peak RSS of the CLI processes of one cli_defaults pass."""
    return max((res["maxrss_kb"] for res in out.values()), default=0) if out else 0


def run(workload, seed, seconds, trace):
    setup = measure_setup(workload, seed)

    import maternlab
    import spans
    import workloads as W

    if not os.path.samefile(os.path.dirname(maternlab.__file__), env.SRC / "maternlab"):
        raise RuntimeError(f"imported maternlab from {maternlab.__file__}, not this checkout")

    inp = W.make_inputs(workload, seed)
    tally = Tally()
    _, first, verdicts = iterate(workload, inp, None)  # warm-up, untimed
    tally.add(verdicts)
    child_kb = cli_peak_kb(first) if workload == "cli_defaults" else 0

    tracer = spans.Tracer() if trace else None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    last = 0.0
    # Start an iteration only if it should end within --seconds, and always
    # run two: a median needs them, and a traced run needs one of each kind.
    while len(plain) + len(traced) < 2 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        setup += measure_setup(workload, seed)
        use_trace = trace and len(traced) <= len(plain)
        if use_trace:
            tracer.install()
            root = tracer.open("bench.iteration")
        try:
            elapsed, out, verdicts = iterate(workload, inp, first, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.close(root)
                tracer.uninstall()
        tally.add(verdicts)
        if use_trace:
            traced.append(elapsed)
            layers.append(spans.layer_metrics(tracer.arrays(root + 1)))
        else:
            plain.append(elapsed)
            if workload == "cli_defaults":
                child_kb = max(child_kb, cli_peak_kb(out))
        last = time.perf_counter() - t0
    setup += measure_setup(workload, seed)

    env.OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": env.machine_info(),
        "setup_samples_s": setup,
        "wall_samples_s": plain,
        "traced_samples_s": traced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    if trace:
        tracer.save(env.OUT / f"{workload}-spans.npz")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        peak_kb = child_kb if workload == "cli_defaults" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    record["metrics"] = metrics
    with open(env.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record, trace):
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    m = record["machine"]
    print(
        f"machine: {m['nproc']}/{m['cpu_count']} cores, caches {m['caches']}, {m['ram_mb']} MB RAM, "
        f"Python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
        f"BLAS {m['blas'].get('name')} {m['blas'].get('version')} x{m['blas_threads']} threads"
    )
    samples = {
        "wall_s": len(record["wall_samples_s"]),
        "setup_s": len(record["setup_samples_s"]),
        "peak_rss_mb": 1,
    }
    for name, unit in units.items():
        n = samples.get(name, len(record["traced_samples_s"]))
        print(f"{record['workload']} {name} = {record['metrics'][name]:.6g} {unit} (n={n})")
    frac = record["failed"] / record["attempted"]
    print(f"{record['workload']} fail_frac = {frac:.6g} ({record['failed']}/{record['attempted']} operations)")
    for problem in record["problems"]:
        print(f"  failed: {problem}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def run_all(seed, seconds):
    """Each workload in its own process; print every end-to-end metric."""
    failed = False
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=env.ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed = True
            continue
        print("\n".join(line for line in lines[:-1] if workload == WORKLOADS[0] or not line.startswith("machine:")))
        failed |= not json.loads(lines[-1])["correct"]
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.use_checkout_source():
        print(f"error: no package source under {env.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
