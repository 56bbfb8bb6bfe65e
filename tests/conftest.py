"""Shared fixtures.

The exhaustive measurement-scheme search costs seconds, so it is built once
per session and routed through the CLI's cache, letting the command tests
reuse the same search result.
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
def full_scheme(flagship):
    from boundkey.cli import _scheme_for

    return _scheme_for(flagship)
