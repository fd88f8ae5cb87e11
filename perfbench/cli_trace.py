"""Run one monosmooth CLI command with span tracing on.

    python3 perfbench/cli_trace.py SUMMARY_JSON ARG...

Installs the tracer on monosmooth's modules, calls monosmooth.cli.main(ARGS)
and exits with its return code.  The span summary is written to
SUMMARY_JSON even when the command raises, so a traceback still exits 1 as
it does without tracing.
"""

import json
import sys

import monosmooth
import monosmooth.cli
from tracing import Tracer


def launch(summary_path, argv):
    tracer = Tracer()
    tracer.install(monosmooth)
    try:
        return monosmooth.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2:]))
