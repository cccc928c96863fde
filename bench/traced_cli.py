"""Run one ``maternlab`` CLI call with tracing on and save its spans.

Usage: python3 bench/traced_cli.py <spans.npz> -- <subcommand> [options]

Exits with the CLI's own exit code.
"""

import sys

import env

if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--" or not env.use_checkout_source():
        sys.exit("usage: traced_cli.py <spans.npz> -- <subcommand> [options]")
    import maternlab.cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = maternlab.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.save(sys.argv[1])
    sys.exit(code)
