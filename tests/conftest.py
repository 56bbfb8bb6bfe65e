"""Shared fixtures.

The flagship measurement-scheme search (about 0.03 s of greedy rounds,
each scoring every candidate against the targets' residual) is built once
per session.
"""

import numpy as np
import pytest

import boundkey as bk


def _random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture(scope="session")
def random_unitary():
    """``random_unitary(d, rng)``: a Haar-random d x d unitary drawn from
    ``rng`` (QR of a complex Gaussian matrix, phases fixed by R's diagonal)."""
    return _random_unitary


@pytest.fixture(scope="session")
def flagship():
    return bk.rho_h()


@pytest.fixture(scope="session")
def twisted_observables():
    mix = bk.mixture_from_unitary(bk.hadamard())
    tau = bk.canonical_twisting(mix.x1, mix.x2)
    return bk.build_observables(tau)


@pytest.fixture(scope="session")
def full_scheme(twisted_observables):
    obs = twisted_observables
    return bk.min_settings_cover([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2])
