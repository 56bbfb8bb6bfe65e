"""Shared fixtures.

The flagship measurement-scheme search (about 0.03 s of greedy rounds,
each scoring every candidate against the targets' residual) is built once
per session.
"""

import pytest

import boundkey as bk


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
