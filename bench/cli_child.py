"""Traced CLI child process.

Usage: ``python bench/cli_child.py SPANS_OUT COMMAND [CLI ARGS...]``

Times ``import tessarine.cli`` in this fresh interpreter, installs the
tracer, runs the CLI's ``main`` on the remaining arguments, writes the
spans and the import time to SPANS_OUT, and exits with ``main``'s code.
The benchmark runs it with ``PYTHONPATH`` set to the checkout's ``src``.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import tessarine.cli

    import_ms = (time.perf_counter() - start) * 1e3
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tessarine.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.write(out, {"import_ms": import_ms})


if __name__ == "__main__":
    sys.exit(main())
