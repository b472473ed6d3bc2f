import pytest

from photon_transistor import cavity


@pytest.fixture(autouse=True)
def cold_pulse_moments():
    """Every test starts with no memoised pulse moments, so rule counts do not depend on test order."""
    cavity._pulse_moments.cache_clear()
