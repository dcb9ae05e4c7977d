"""Run the gaussgem command line with span tracing; write the spans on exit.

Usage: python bench/traced_cli.py SPANS.npz [gaussgem arguments...]

Behaves like ``python -m gaussgem.cli`` (same stdout, stderr and exit code),
except that ``gaussgem.cli`` is imported as a module rather than run as
``__main__``, so the tracer can wrap its functions.
"""

import sys

from tracing import Tracer, save_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import gaussgem.cli

    tracer = Tracer()
    tracer.install()
    try:
        return gaussgem.cli.main(argv)
    finally:
        tracer.uninstall()
        save_spans(spans_path, tracer.arrays())


if __name__ == "__main__":
    sys.exit(main())
