"""Run one ``repro.cli`` command with the benchmark's layer wrappers on.

Usage::

    python servicebench/launch.py SPANS_FILE -- --workspace W serve --port 0

The traced benchmark run starts its service and worker processes through
this launcher instead of ``python -m repro.cli``.  The command line after
``--`` is handed to ``repro.cli.main`` unchanged; the spans are written
to ``SPANS_FILE`` when the command returns (the benchmark stops servers
with SIGINT, their normal shutdown path).
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    from tracing import Tracer, install_server_wrappers

    tracer = Tracer(process=" ".join(cli_args[2:4]))
    install_server_wrappers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
