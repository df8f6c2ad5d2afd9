import multiprocessing

import pytest

from pipeguard import evaluation, learning


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Worker pools (the ledger's vote fan-out) end within the call that starts them."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def suite():
    return evaluation.calibration_suite()


@pytest.fixture(scope="session")
def proposed_policy(suite):
    config = learning.TrainConfig(algorithm="DQN", episodes=3000,
                                  learning_rate=0.3, seed=0)
    return evaluation.train_mitigation_policy(suite, config)


@pytest.fixture(scope="session")
def detector_only_policy(suite):
    """Policy trained without cross-stage correlation (RLOnly arm)."""
    config = learning.TrainConfig(algorithm="DQN", episodes=3000,
                                  learning_rate=0.3, seed=0)
    return evaluation.train_mitigation_policy(suite, config, correlation=False)
