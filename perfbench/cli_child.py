"""Run one minkqm CLI command with the benchmark's span tracer installed.

    PYTHONPATH=src python3 perfbench/cli_child.py spectrum --system free --M 1 --E0=-1 --n 0..2

The command's stdout and exit code are the CLI's own.  The span summary
is written to stderr as the last line, after ``spans.TRACE_PREFIX``.
"""

import json
import sys

import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    from minkqm import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(spans.TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")
    sys.exit(code)
