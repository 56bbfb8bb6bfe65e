"""Digest a fixed set of boundkey CLI runs, one line per command.

    python3 tools/cli_digest.py

Runs the commands below, in order, from a fresh temporary directory with
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPATH`` set to the ``src`` of the
checkout this script sits in.  For each command it prints
``sha256  command``, the digest taken over the exit code, stdout and every
file the command wrote, with the temporary directory's path replaced by
``<tmp>``.  Two checkouts print the same line for a command exactly when
that command behaves byte for byte the same in both.  Uses the standard
library only and takes no options.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    "gen hadamard --out hadamard.json",
    "gen fourier-d3 --out fourier-d3.json",
    *(f"{command} --state {state}.json"
      for state in ("hadamard", "fourier-d3")
      for command in ("ppt --extremality --robustness", "key", "observables")),
    "settings",
    "settings --targets key",
    "settings --targets coherence",
    "er --restarts 1 --seed 5",
    "er --restarts 1 --seed 8",
    "simulate --shots 1000000 --seed 7 --out records.tsv",
    "certify --records records.tsv",
    "simulate --prepared --shots 100000 --seed 3 --out prepared.tsv",
    "certify --records prepared.tsv",
    "simulate --noise 0.003 --shots 100000 --seed 11 --out noisy.tsv",
    "certify --records noisy.tsv",
    "simulate --shots 1 --seed 2 --out one-shot.tsv",
    "simulate --noise 1 --shots 1000 --seed 4 --out full-noise.tsv",
    "certify --records full-noise.tsv",
]


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def main() -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        marker = str(work).encode()
        for command in COMMANDS:
            before = _snapshot(work)
            run = subprocess.run([sys.executable, "-m", "boundkey.cli", *command.split()],
                                 cwd=work, env=env, capture_output=True)
            digest = hashlib.sha256(f"exit {run.returncode}\n".encode())
            digest.update(run.stdout.replace(marker, b"<tmp>"))
            for name, data in _snapshot(work).items():
                if before.get(name) != data:
                    digest.update(f"\nfile {name}\n".encode() + data.replace(marker, b"<tmp>"))
            print(f"{digest.hexdigest()}  {command}", flush=True)


if __name__ == "__main__":
    main()
