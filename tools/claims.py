"""Print the source paper's claims, one line each, with the library's number
behind each claim, or "not in code" where the library has none yet.

    python3 tools/claims.py

The claims are the abstract's (arXiv:quant-ph/0506203): bound entangled
states with positive key; the smallest of them is 4 x 4; the key comes from
the one-way Devetak-Winter protocol; the key-distillable bound entangled
states have nonzero volume in any dimension; the state's key can be verified
from local observables; and 7 collective settings are optimal.  The
verification targets are built by ``verification_observables``, as the CLI
builds them.  Every number is fixed by the library and the seed 7, so two
checkouts print the same lines when their numbers agree.  BLAS runs on one
thread, as in ``tools/cli_digest.py``.  Puts the ``src`` of the checkout
this script sits in first on the path.  Uses numpy and the standard library
only and takes no options.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import boundkey as bk  # noqa: E402
from boundkey.keyrate import corner_blocks  # noqa: E402

SEED = 7
SHOTS = 10**6  # per setting
CERTIFICATE_TARGETS = ("O1", "R1", "R2")  # what the floor reads: D, re_a, re_b


def fixed(value: float, places: int = 6) -> str:
    """``value`` to ``places`` decimals, with no negative zero."""
    return f"{round(value, places) + 0.0:+.{places}f}"


def ppt_and_key(name: str, rho) -> str:
    """Whether ``rho`` is PPT, with its smallest partial-transpose
    eigenvalue, and its twirl-hashing key bound."""
    is_ppt, min_eig = bk.ppt_check(rho)
    key = bk.twirl_hashing_bound(rho)(rho)
    return (f"{name} {'PPT' if is_ppt else 'NPT'} (smallest eigenvalue of the partial "
            f"transpose {fixed(min_eig, 9)}), twirl-hashing key {fixed(key)}")


def main() -> None:
    flagship = bk.rho_h()
    fourier = bk.rho_u(bk.fourier(3))[0]
    print("bound entangled with positive key: "
          f"{ppt_and_key('rho_H', flagship)}; {ppt_and_key('fourier-d3', fourier)}")

    dims, labels = flagship.dims, flagship.labels
    print(f"smallest is 4 x 4: rho_H, the family's d = 2 member, has dims {dims} on "
          f"{' '.join(labels)}, a {dims[0] * dims[2]} x {dims[1] * dims[3]} cut AA'|BB'")

    sigma = bk.privacy_squeeze(flagship, bk.canonical_twisting(*corner_blocks(flagship)))
    print("one-way Devetak-Winter: rate of the squeezed rho_H, no preprocessing (q = 0), "
          f"{fixed(bk.dw_rate(bk.ccq_from_state(sigma)))}; best preprocessing q: not in code")

    print("nonzero volume in arbitrary dimension: not in code "
          "(ppt --robustness scans a line of white noise only)")

    named = bk.verification_observables(flagship).named()
    cover = bk.min_settings_cover(named)
    records = bk.sample_scheme(flagship, cover.settings, SHOTS, SEED)
    floor = bk.estimate_parameters(records, cover).certified_bound
    print(f"verification from local observables: {cover.size}-setting cover of "
          f"{', '.join(cover.targets)}, seed {SEED}, {SHOTS} shots per setting, certified "
          f"floor {'none' if floor is None else fixed(floor)}; shots to certify: not in code")

    seven = bk.min_settings_cover({name: named[name] for name in CERTIFICATE_TARGETS})
    print(f"7 settings, optimal: the cover of {', '.join(seven.targets)} has {seven.size} "
          f"settings and the library's lower bound is {seven.lower_bound}; optimality is "
          f"{'proven' if seven.size == seven.lower_bound else 'not proven'} in the library, "
          f"and the certificate still uses the {cover.size}-setting cover")


if __name__ == "__main__":
    main()
