import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
