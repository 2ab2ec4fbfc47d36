import pytest

from nlvar import energy


@pytest.fixture
def cold_p_factor():
    """Start with no factor of P kept, so that the test's minimize factors
    P itself, through whatever dpptrf the test has put in place."""
    energy._half_square_inverse.cache_clear()
    yield
    energy._half_square_inverse.cache_clear()
