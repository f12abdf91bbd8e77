import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from meshfd import linalg

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


@pytest.fixture
def one_matrix_ranks(monkeypatch):
    """The shape of every one-matrix rank the library takes, `linalg.numerical_rank` patched wherever it is bound.

    A per-patch rank (`spaces.unisolvency_rank`, or any one patch's matrix given to
    `numerical_rank`) shows up here; the batched rank pass does not.
    """
    calls, rank = [], linalg.numerical_rank
    for module in [mod for name, mod in sys.modules.items() if name.split(".")[0] == "meshfd"]:
        if getattr(module, "numerical_rank", None) is rank:
            monkeypatch.setattr(module, "numerical_rank", lambda a: calls.append(np.shape(a)) or rank(a))
    return calls
