import numpy as np
import pytest

from spingate import PulseSpec, SystemParams, calibrate_pi_duration


@pytest.fixture(scope="session")
def params12():
    return SystemParams(omega1=500.0, omega2=100.0, coupling_j=5.0)


@pytest.fixture(scope="session")
def tau12(params12):
    return calibrate_pi_duration(params12, PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0))


@pytest.fixture(scope="session")
def pulse12(tau12):
    return PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=tau12)


@pytest.fixture(scope="session")
def params24():
    return SystemParams(omega1=500.06, omega2=100.0, coupling_j=5.0)


@pytest.fixture(scope="session")
def pulse24_template(params24):
    a2 = 0.10016
    a1 = a2 * params24.omega1 / params24.omega2
    return PulseSpec(carrier=95.0, a1=a1, a2=a2, duration=0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls to numpy.linalg.eigh made while the test runs."""
    calls = []
    original = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
