"""Run one ``boundkey`` command with its layer calls traced.

Usage: python perfbench/cli_traced.py SPANS_FILE PARENT_SPAN -- CLI_ARGS...

Wraps the layer functions that ``boundkey.cli`` imported, calls
``boundkey.cli.run(CLI_ARGS)``, writes the spans and counters to
SPANS_FILE and exits with the command's exit code.
"""

import sys

from tracer import Tracer, wrap_module_names


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    spans_file, parent = argv[0], argv[1]
    import boundkey.cli

    tracer = Tracer(parent=parent)
    wrap_module_names(tracer, boundkey.cli)
    try:
        return boundkey.cli.run(argv[3:])
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
