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


def random_transfer(rng):
    from ptscatter import TransferMatrix

    while True:
        vals = rng.normal(size=8)
        m = TransferMatrix(m_rr=complex(vals[0], vals[1]), m_rl=complex(vals[2], vals[3]),
                           m_lr=complex(vals[4], vals[5]), m_ll=complex(vals[6], vals[7]))
        if abs(m.m_rr) > 0.1 and abs(m.det) > 0.05:
            return m
