import numpy as np
import pytest

from hitrack import make_config, init_weights
from hitrack.weights import named_arrays


@pytest.fixture(scope="session")
def toy_cfg():
    return make_config("toy")


@pytest.fixture(scope="session")
def toy_params(toy_cfg):
    return init_weights(toy_cfg, seed=7)


@pytest.fixture(scope="session")
def tiny_cfg():
    return make_config("tiny")


@pytest.fixture(scope="session")
def tiny_params(tiny_cfg):
    return init_weights(tiny_cfg, seed=7)


@pytest.fixture(scope="session")
def toy_cfg64():
    return make_config("toy", dtype="float64")


@pytest.fixture(scope="session")
def toy_params64(toy_cfg64):
    return init_weights(toy_cfg64, seed=7)


@pytest.fixture()
def toy_pair(toy_cfg):
    rng = np.random.default_rng(123)
    tpl = rng.uniform(0, 255, (toy_cfg.template_size, toy_cfg.template_size, 3)).astype(np.float32)
    srch = rng.uniform(0, 255, (toy_cfg.search_size, toy_cfg.search_size, 3)).astype(np.float32)
    return tpl, srch


def count_params(params) -> int:
    """Every value the parameter tree stores, summed over its tensors."""
    return sum(int(a.size) for _, a in named_arrays(params))


def total_params_with_extras(report) -> int:
    """A cost report's static parameters plus its routing extras'."""
    return report.total_params + sum(c.params for c in report.extras.values())


def make_separable_dataset(seed=0, n=400, dim=32):
    """Two feature clusters: easy (target 0.9) vs hard (target 0.1)."""
    rng = np.random.default_rng(seed)
    easy = rng.normal(1.0, 0.3, size=(n // 2, dim))
    hard = rng.normal(-1.0, 0.3, size=(n // 2, dim))
    features = np.vstack([easy, hard])
    targets = np.concatenate([np.full(n // 2, 0.9), np.full(n // 2, 0.1)])
    return features, targets
