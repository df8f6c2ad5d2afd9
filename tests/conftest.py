import multiprocessing
import os

import pytest

from pipeguard import evaluation, learning, ledger


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """Worker pools (the ledger's vote fan-out) end within the call that starts them."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def dying_workers(monkeypatch):
    """A ledger pool worker exits, unannounced, at its first vote."""
    parent, real = os.getpid(), ledger.bft_commit

    def vote(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(ledger, "bft_commit", vote)


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
