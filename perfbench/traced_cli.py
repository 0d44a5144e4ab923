"""Run the treedet CLI in this process with spans around its layers.

    python3 perfbench/traced_cli.py TRACE_FILE ARG...

ARG... are the CLI arguments, exactly as for ``treedet``.  The spans are
written to TRACE_FILE as JSONL when the command returns.
"""

import sys

import treedet.cli

from spans import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return treedet.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)


if __name__ == "__main__":
    raise SystemExit(main())
