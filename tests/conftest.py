"""Shared fixtures.

The flagship measurement-scheme search (about 0.03 s of greedy rounds,
each scoring every candidate against the targets' residual) is built once
per session.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import boundkey as bk
from boundkey import keyrate, shots, states
from boundkey.linalg import DensityOperator


def _random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture(scope="session")
def random_unitary():
    """``random_unitary(d, rng)``: a Haar-random d x d unitary drawn from
    ``rng`` (QR of a complex Gaussian matrix, phases fixed by R's diagonal)."""
    return _random_unitary


def _exact_record(rho, setting):
    return SimpleNamespace(setting=setting, counts=shots._born_distributions(rho, [setting])[0],
                           shots=1.0)


@pytest.fixture(scope="session")
def exact_record():
    """``exact_record(rho, setting)``: the infinite-shot limit of a setting's
    record, its Born probabilities as ``counts`` over ``shots = 1.0``.  Not a
    ``ShotRecord``, which holds whole-number counts only; it carries the
    three fields ``estimate_parameters`` reads."""
    return _exact_record


@pytest.fixture(scope="session")
def private_bit():
    """``private_bit(x)``: the private bit in X-form, the state on
    (2, 2, d, d) whose key-qubit corner blocks are sqrt(X X+), X, X+,
    sqrt(X+ X), all times 1/2; ``x`` must have unit trace norm."""
    def build(x):
        assert abs(bk.trace_norm(x) - 1.0) <= 1e-10
        return states.assemble_standard_form(x, x, 1.0)

    return build


@pytest.fixture(scope="session")
def flagship():
    return bk.rho_h()


@pytest.fixture(scope="session")
def twisted_observables():
    tau = bk.canonical_twisting(*keyrate.corner_blocks(bk.rho_h()))
    return bk.build_observables(tau)


@pytest.fixture(scope="session")
def full_scheme(twisted_observables):
    obs = twisted_observables
    return bk.min_settings_cover([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2])


@pytest.fixture
def validations(monkeypatch):
    """The list of the dims of every state validated while the test runs:
    ``DensityOperator.__post_init__`` wrapped to record each call."""
    calls = []
    check = DensityOperator.__post_init__

    def counted(self):
        calls.append(self.dims)
        check(self)

    monkeypatch.setattr(DensityOperator, "__post_init__", counted)
    return calls
