import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_smatrix(rng, invertible=True):
    """Random complex S matrix with nonzero T(L->R) (and det, if asked)."""
    from ptscatter import ScatteringCoefficients

    while True:
        vals = rng.normal(size=8)
        s = ScatteringCoefficients(t_lr=complex(vals[0], vals[1]), r_rl=complex(vals[2], vals[3]),
                                   r_lr=complex(vals[4], vals[5]), t_rl=complex(vals[6], vals[7]))
        if abs(s.t_lr) > 0.1 and (not invertible or abs(s.det) > 0.05):
            return s


def random_transfer(rng) -> np.ndarray:
    """Random complex 2x2 transfer matrix with |M_RR| > 0.1 and |det M| > 0.05."""
    while True:
        m = rng.normal(size=8).view(complex).reshape(2, 2)
        if abs(m[0, 0]) > 0.1 and abs(np.linalg.det(m)) > 0.05:
            return m
