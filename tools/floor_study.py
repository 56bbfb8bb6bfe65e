"""Measure how tight the library's certified key floor is, at fixed shots.

    python3 tools/floor_study.py

Runs the library's certificate path on the flagship state rho_H: the
settings cover of its five verification targets (O1, R1, I1, R2, I2),
``sample_scheme`` with ``total // k`` shots on each of the cover's k
settings, ``estimate_parameters`` at delta = 0.05 and the report's
certified floor, for seeds 0-19 and every total on a fixed grid of
{7, 9, 11, 13, 16, 20, 23, 26, 30, 40} million shots.  A floor of None (no
valid state in the confidence rectangle) counts as not positive.  Prints
seed 0's floor, the median, the worst and the count of positive floors at
7, 13 and 26 million shots, then the smallest total on the grid at which at
least 19 of the 20 seeds give a positive floor.

The seeds, the grid and delta are fixed, and the seeds fix every record, so
two checkouts print the same lines exactly when their floors agree.  BLAS
runs on one thread, as in ``tools/cli_digest.py``.  Puts the ``src`` of the
checkout this script sits in first on the path.  Uses numpy and the
standard library only and takes no options.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import boundkey as bk  # noqa: E402

SEEDS = range(20)
DELTA = 0.05
GRID = tuple(m * 10**6 for m in (7, 9, 11, 13, 16, 20, 23, 26, 30, 40))
TABLE_TOTALS = (7 * 10**6, 13 * 10**6, 26 * 10**6)
CERTIFY_SEEDS = 19  # positive seeds out of 20 that count as certifying


def floors(rho, cover, total: int) -> list[float]:
    """The certified floor of each seed at ``total`` shots, -inf for None."""
    out = []
    for seed in SEEDS:
        records = bk.sample_scheme(rho, cover.settings, total // cover.size, seed)
        floor = bk.estimate_parameters(records, cover, DELTA).certified_bound
        out.append(float("-inf") if floor is None else floor)
    return out


def main() -> None:
    rho = bk.rho_h()
    cover = bk.min_settings_cover(bk.verification_observables(rho).named())
    by_total = {total: floors(rho, cover, total) for total in GRID}

    print(f"rho_H, {cover.size} settings, seeds {SEEDS[0]}-{SEEDS[-1]}, delta {DELTA}")
    print("total_shots  per_setting  seed0  median  worst  positive")
    for total in TABLE_TOTALS:
        values = by_total[total]
        positive = sum(v > 0.0 for v in values)
        print(f"{total}  {total // cover.size}  {values[0]:+.5f}  {np.median(values):+.5f}"
              f"  {min(values):+.5f}  {positive}/{len(values)}")
    certifying = [total for total in GRID
                  if sum(v > 0.0 for v in by_total[total]) >= CERTIFY_SEEDS]
    print(f"shots to certify ({CERTIFY_SEEDS}/{len(SEEDS)} seeds positive): "
          f"{certifying[0] if certifying else 'none on the grid'}")


if __name__ == "__main__":
    main()
