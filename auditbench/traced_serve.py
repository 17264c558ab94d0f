"""Run ``repro-audit`` with layer tracing installed.

    python auditbench/traced_serve.py SPANS.json serve --db DIR ...

Installs the span wrappers of :mod:`tracing` into the imported program,
then hands the remaining arguments to ``repro.cli.main`` unchanged.
The spans are written to ``SPANS.json`` when the process exits (the
server exits after its SIGTERM drain).
"""

from __future__ import annotations

import atexit
import sys

from tracing import Tracer, install_server


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_server(tracer)
    atexit.register(tracer.dump, spans_path)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
