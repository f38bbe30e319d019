import os

import numpy as np
import pytest

# pyproject's pytest `pythonpath` puts src/ on this process's sys.path;
# subprocesses started by the tests (the CLI, thread-cap probes) import
# tssf from the same checkout through PYTHONPATH
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def random_spd(rng, c, spread=1.0):
    """Well-conditioned random SPD matrix: Q diag(exp(spread*u)) Q^T."""
    q = random_orthogonal(rng, c)
    w = np.exp(spread * rng.uniform(-1.0, 1.0, size=c))
    return (q * w) @ q.T


def random_orthogonal(rng, c):
    q, r = np.linalg.qr(rng.standard_normal((c, c)))
    return q * np.sign(np.diag(r))


def random_invertible(rng, c, cond=4.0):
    """Random invertible matrix with singular values in [1/sqrt(cond), sqrt(cond)]."""
    u = random_orthogonal(rng, c)
    v = random_orthogonal(rng, c)
    s = np.exp(rng.uniform(-0.5, 0.5, size=c) * np.log(cond))
    return (u * s) @ v.T


def random_symmetric(rng, c, scale=1.0):
    a = rng.standard_normal((c, c)) * scale
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
