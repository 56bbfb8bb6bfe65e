"""List the lines of ``src/boundkey`` that the tier-1 tests never run.

    python3 tools/unhit_lines.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors -p
no:cacheprovider`` from the checkout's root, with its ``src`` first on the
path) in this process under a line tracer, with pytest's own output sent to
stderr.  Then prints, for every line of ``src/boundkey`` that holds code and
never ran, ``path:line  source``.  A line counts as code when the compiled
module has an instruction on it; a line that runs only in a child process
(the tests that start a fresh interpreter) counts as not run.  Exits with
pytest's status when the suite fails, 0 otherwise.  Uses the standard library
only and takes no options.
"""

from __future__ import annotations

import contextlib
import os
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boundkey"


def code_lines(path: Path) -> set[int]:
    """Every line that an instruction of the compiled module sits on."""
    lines, pending = set(), [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_tier1(hits: defaultdict[str, set[int]]) -> int:
    """Run the suite once with every line of the package's frames recorded
    in ``hits``, keyed by file name; returns pytest's exit status."""
    prefix = str(PACKAGE) + os.sep

    # one local tracer shared by every traced frame: a closure per frame
    # would allocate inside the memory-bounded tests it traces
    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)).rstrip(os.pathsep)
    sys.path.insert(0, str(ROOT / "src"))
    sys.argv = ["pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            runpy.run_module("pytest", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        return int(stop.code or 0)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return 0


def main() -> None:
    hits: defaultdict[str, set[int]] = defaultdict(set)
    status = run_tier1(hits)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(code_lines(path) - hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    sys.exit(status)


if __name__ == "__main__":
    main()
