"""Machine-speed sidecar, so that times from a shared host can be compared.

On a host shared with other tenants the same code runs at speeds that differ
by up to two times, from one vCPU to the other at the same instant and on one
vCPU from one second to the next; a single ten-second operation can land in
either phase.  The harness therefore pins itself, its child processes and
this sidecar to one CPU.  The sidecar times a fixed reference kernel every
PERIOD_S, by the CPU time it takes, and so samples the speed of that CPU
while the workload runs on it.  The *slowdown* over an interval is the mean
sampled reference time inside it over REFERENCE_S.  Each operation's time
is divided by the slowdown over that operation, and rates are multiplied by
the slowdown over the loop; this expresses them in *reference seconds*,
seconds on that CPU at the reference speed.

The kernel calls no boundkey code, so a change to the program moves the
reported figures in full.  The sidecar uses about 4% of the pinned CPU, the
same share on every run.

Run as a script, this file is the sidecar:
``python speed.py SAMPLES_FILE``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: mean CPU time of one ``reference()`` call, sampled by the sidecar while a
#: workload shares the CPU, on the 2-vCPU Intel Xeon (2.1 GHz) host the
#: benchmark was defined on
REFERENCE_S = 0.005
#: interval between two samples
PERIOD_S = 0.25
#: intervals shorter than this are widened around their middle, so that a
#: short operation is normalised by a few samples
MIN_WINDOW_S = 5.0

_rng = np.random.default_rng(20050614)


def _hermitian(n: int) -> np.ndarray:
    a = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return a + a.conj().T


_MATS = [_hermitian(16) for _ in range(8)]
_LARGE = [_hermitian(36) for _ in range(3)] + [_hermitian(64)]


def _entropy_pair(center: float, offset: float) -> float:
    total = 0.0
    for w in (center + offset, center - offset):
        if w > 0.0:
            total -= w * math.log2(w)
    return total


def reference() -> float:
    """The fixed reference kernel: a scalar minimisation written the way
    boundkey's scans are (closures, small float helpers), then Hermitian
    eigendecompositions and products of 16 x 16 matrices, then
    eigendecompositions of the 36 x 36 and 64 x 64 sizes the d = 3 family
    members reach."""
    best = math.inf
    for k in range(1500):

        def value(d: float) -> float:
            return 1.0 - _entropy_pair(d / 2.0, 0.01) - _entropy_pair((1.0 - d) / 2.0, 0.02)

        best = min(best, value(0.1 + k * 1e-4))
    for m in _MATS:
        w, v = np.linalg.eigh(m)
        best += float(np.einsum("ij,jk,ik->i", v.conj().T, m, v.T).real.sum())
        best += float(np.abs(np.kron(np.kron(m[:2, :2], m[:2, :2]), m[:4, :4]) @ m).sum())
    for m in _LARGE:
        best += float(np.linalg.eigvalsh(m @ m)[0])
    return best


class Sidecar:
    """The sampling process and the samples it wrote: (time, CPU seconds)."""

    def __init__(self, samples_file: Path):
        self._file = samples_file
        self._proc: subprocess.Popen | None = None
        self._samples: list[tuple[float, float]] | None = None

    def start(self, timeout_s: float = 30.0) -> None:
        """Start sampling; returns once the first sample is in."""
        self._proc = subprocess.Popen([sys.executable, __file__, str(self._file)])
        deadline = time.perf_counter() + timeout_s
        while not (self._file.is_file() and self._file.stat().st_size):
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("the speed sidecar did not start")
            time.sleep(0.05)

    def stop(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        if self._samples is None:
            rows = [line.split() for line in self._file.read_text().splitlines()]
            self._samples = [(float(t), float(c)) for t, c in rows if t and c]
        return self._samples

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time over [start, end], widened to MIN_WINDOW_S
        and, if still empty, to the nearest sample; over REFERENCE_S."""
        samples = self.samples()
        if not samples:
            raise RuntimeError("the speed sidecar recorded no samples")
        if end - start < MIN_WINDOW_S:
            middle = (start + end) / 2.0
            start, end = middle - MIN_WINDOW_S / 2.0, middle + MIN_WINDOW_S / 2.0
        inside = [c for t, c in samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2.0
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return sum(inside) / len(inside) / REFERENCE_S


def _sample_forever(samples_file: str) -> None:
    parent = os.getppid()
    with open(samples_file, "a") as out:
        while os.getppid() == parent:
            reference()  # warms the caches the workload has just used
            cpu0, t0 = time.thread_time(), time.perf_counter()
            reference()
            cpu1, t1 = time.thread_time(), time.perf_counter()
            out.write(f"{(t0 + t1) / 2.0!r} {cpu1 - cpu0!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample_forever(sys.argv[1])
