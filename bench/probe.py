"""Set-up probe: a fresh process that imports the package and builds inputs.

Usage: python3 bench/probe.py <workload> <seed>

Prints ``ready`` once the first timed iteration could start; the parent
times process start to that line.  On cli_defaults the set-up is the
import every CLI call pays.
"""

import sys

import env

if __name__ == "__main__":
    if not env.use_checkout_source():
        sys.exit("probe: no package source in this checkout")
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "cli_defaults":
        import maternlab.cli  # noqa: F401
    else:
        import maternlab  # noqa: F401
    import workloads

    workloads.make_inputs(workload, seed)
    print("ready", flush=True)
