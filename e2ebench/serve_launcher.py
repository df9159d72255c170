"""Start ``python -m repro serve`` with the layer wrappers installed.

The traced ``serve-mixed`` passes run the service through this launcher::

    python3 serve_launcher.py SPANS.json serve --port 0 ...

It installs the same wrappers as the traced CLI passes plus the
service's own, calls ``repro.__main__.main`` with the remaining
arguments, and writes the spans to SPANS.json once the service exits.
"""

import sys

import repro.__main__ as cli
import repro.serve.server  # noqa: F401  (loaded so its names get wrapped)

import tracing


def main(argv) -> int:
    spans_out, args = argv[0], argv[1:]
    tracing.install(serve=True)
    try:
        return cli.main(args)
    finally:
        tracing.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
