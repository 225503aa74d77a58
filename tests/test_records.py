"""The package's record classes: construction, immutability, equality, repr and vars()."""

import dataclasses
import math

import pytest

from ptscatter import cli, core, current, numeric, potentials, separable, symmetry


def _g(x):
    return math.exp(-abs(x))


WELL = potentials.SquareWellParams(1.0, 0.5, 1.0)

# (class, required fields, defaults of the other fields, other values for those fields);
# every dict lists its fields in declaration order
RECORDS = [
    (core.WaveNumber, {"k": 1.5}, {}, {}),
    (core.AsymptoticAmplitudes, dict(zip(("a1p", "b1p", "a1m", "b1m", "a2p", "b2p", "a2m", "b2m"),
                                         (1j, 2, 3, 4, 5, 6, 7, 8j))), {}, {}),
    (core.ScatteringCoefficients, {"t_lr": 1j, "r_lr": 0.5, "t_rl": 1j, "r_rl": -0.5}, {}, {}),
    (potentials.SquareWellParams, {"v0": 1.0, "v1": 0.5, "b": 2.0}, {}, {}),
    (potentials.LatticeParams, {"well": WELL, "a": 0.5, "n": 3}, {}, {}),
    (potentials.ScarfParams, {"s": 1.3, "lam": 0.7j}, {"eps": 0.0}, {"eps": 0.2}),
    (potentials.CentrifugalParams, {"alpha_strength": 0.5, "eps": 0.1}, {}, {}),
    (numeric.IntegrationConfig, {}, {"step": 1e-3, "match_margin": 1.0},
     {"step": 2e-3, "match_margin": 2.0}),
    (numeric.WavefunctionGrid, {"x": (0.0, 1.0), "psi": (1j, 2j), "dpsi": (0j, 1j), "k": 1.0,
                                "direction": "right"}, {}, {}),
    (separable.SeparableKernel, {"g": _g, "h": _g, "alpha": 0.1, "beta": 0.2, "lam": 1.0},
     {"gamma": None, "delta": None, "support": 40.0}, {"gamma": 1.0, "delta": 2.0, "support": 20.0}),
    (separable.NonlocalIntermediates, dict(zip(
        ("n_plus", "n_minus", "d_plus", "script_d_minus", "q_part", "i_plus", "i_minus", "omega",
         "delta_t"), (1j, 2j, 3, 4, 5, 6, 7, 0.5, 8j))), {}, {}),
    (symmetry.SymmetryClass, {},
     {"hermitian": False, "parity": False, "time_reversal": False, "pt": False,
      "parity_generalized": False, "x0": None, "reality": False, "symmetric_xy": False},
     {"hermitian": True, "parity": True, "time_reversal": True, "pt": True,
      "parity_generalized": True, "x0": 0.5, "reality": True, "symmetric_xy": True}),
    (symmetry.RelationRecord, {"name": "pt_unimodular_det", "anchor": "|det S| = 1",
                               "residual": 1e-16, "tolerance": 1e-10, "holds": True, "suite": "pt"},
     {"applicable": True}, {"applicable": False}),
    (symmetry.RelationReport, {"records": ()}, {}, {}),
    (symmetry.ExactPtResult, {"is_exact": True, "theta_lr": 0.25, "theta_rl": 0.5}, {}, {}),
    (current.CurrentProfile, {"grid": (-1.0, 1.0), "rho": (1j, 1j), "j": (0j, 0j)}, {}, {}),
    (current.AsymptoticCurrent, {"j_plus_inf": 1j, "j_minus_inf": -1j}, {}, {}),
    (cli.Problem, {"kind": "yamaguchi", "label": ("kind",), "coefficients": _g},
     {"potential": None, "kernel": None}, {"potential": _g, "kernel": "kernel"}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, required, defaults, others", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_keyword_and_default_construction(self, cls, required, defaults, others):
        full = {**required, **others}
        by_position = cls(*full.values())
        by_keyword = cls(**dict(reversed(full.items())))
        assert list(vars(by_position).items()) == list(full.items())
        assert list(vars(by_keyword).items()) == list(full.items())
        assert list(vars(cls(*required.values())).items()) == list({**required, **defaults}.items())
        with pytest.raises(TypeError):
            cls(*full.values(), None)

    def test_assignment_and_deletion_raise(self, cls, required, defaults, others):
        record = cls(*required.values())
        name = next(iter({**required, **defaults}))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert getattr(record, name) == {**required, **defaults}[name]

    def test_equal_fields_equal_records_and_hashes(self, cls, required, defaults, others):
        a, b = cls(*required.values()), cls(**required)
        assert a == b and not a != b and hash(a) == hash(b)
        if others:
            assert a != cls(*required.values(), *others.values())
        assert a != tuple(vars(a).values())

    def test_repr_names_every_field(self, cls, required, defaults, others):
        full = {**required, **others}
        fields = ", ".join(f"{name}={value!r}" for name, value in full.items())
        assert repr(cls(*full.values())) == f"{cls.__name__}({fields})"

    def test_not_a_dataclass(self, cls, required, defaults, others):
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("make", [
    lambda: core.WaveNumber(0.0),
    lambda: core.WaveNumber(-1.0),
    lambda: potentials.SquareWellParams(-0.1, 0.0, 1.0),
    lambda: potentials.ScarfParams(1.3, 0.7, eps=math.pi / 2),
    lambda: potentials.ScarfParams(1.3, 0.7, -2.0),
    lambda: numeric.IntegrationConfig(step=0.0),
    lambda: numeric.IntegrationConfig(-1e-3),
], ids=["k-zero", "k-negative", "v0-negative", "eps-half-pi", "eps-beyond", "step-zero",
        "step-negative"])
def test_post_init_rejects_bad_values(make):
    with pytest.raises(ValueError):
        make()


def test_local_potential_stays_a_dataclass():
    v = potentials.square_well_potential(WELL)
    moved = dataclasses.replace(v, x_left=-2.0)
    assert (moved.x_left, moved.x_right, moved.evaluate) == (-2.0, v.x_right, v.evaluate)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.x_left = 0.0
