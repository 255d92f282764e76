"""Run one CLI invocation with tracing on and write its spans to a file.

Usage: ``python bench/cli_child.py SPANS_PATH <sherman-bounds arguments>``.
It calls the same ``sherman_bounds.cli.main`` that ``python -m
sherman_bounds.cli`` runs, so stdout and the exit code are unchanged.
"""

import json
import sys

import sherman_bounds.cli as cli
import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
