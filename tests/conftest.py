import pytest

from microfatigue.device import Device
from microfatigue.protocols import calibrate_defaults


@pytest.fixture(scope="session")
def nominal_device():
    return Device.nominal()


@pytest.fixture(scope="session")
def calibrated_params(nominal_device):
    return calibrate_defaults(nominal_device)
