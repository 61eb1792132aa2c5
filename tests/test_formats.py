"""The JSON form of reports, records and configs: each dataclass's fields in declaration order."""

import dataclasses
import json

import numpy as np
import pytest

from perturb import arrowhead, bounds, rs_solver
from perturb.ensembles import SpectrumSpec, realize_spectrum, sample_arrowhead_vector, sample_gue
from perturb.experiments import ExperimentConfig, run_experiment
from perturb.matcore import matrix_to_json

MULTISCALE = SpectrumSpec("multiscale", 0, {"eps": 1.0})


def _complex_report():
    s = realize_spectrum(MULTISCALE.with_n(6))
    rep = rs_solver.solve(np.diag(s.lambdas), 0.1 * sample_gue(6, 3))
    assert rep.method == "rs" and np.iscomplexobj(rep.q) and np.iscomplexobj(rep.u_tilde)
    return rep


def _secular_solution():
    s = realize_spectrum(MULTISCALE.with_n(6))
    g = sample_arrowhead_vector(6, 4)
    return arrowhead.arrowhead_eigvec(s, g, arrowhead.solve_gamma(s, g))


def _config():
    return ExperimentConfig(
        kind="weyl", spectrum=MULTISCALE, ensemble={"tag": "goe"}, n_list=(8, 12), trials=2,
        seed=5, p=3.0, output={"path": "o", "format": "json"},
    )


INSTANCES = {
    "SolverReport": _complex_report,
    "SecularSolution": _secular_solution,
    "AssumptionReport": lambda: bounds.assumption_report(realize_spectrum(MULTISCALE.with_n(6))),
    "TrialRecord": lambda: run_experiment(_config())[0][0],
    "SummaryStats": lambda: run_experiment(_config())[1],
    "SpectrumSpec": lambda: MULTISCALE.with_n(6),
    "ExperimentConfig": _config,
}


@pytest.mark.parametrize("name", INSTANCES)
def test_keys_are_the_fields_in_declaration_order(name):
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name
    out = obj.to_dict()
    assert list(out) == [f.name for f in dataclasses.fields(obj)]
    assert json.loads(json.dumps(out)) == out  # plain JSON values only


def test_complex_arrays_encode_as_matrix_entries():
    rep = _complex_report()
    out = rep.to_dict()
    for name in ("q", "u_tilde", "coord_ratios"):
        value = getattr(rep, name)
        assert out[name] == json.loads(matrix_to_json(np.atleast_2d(value)))["entries"]
    assert out["q"] == [[float(z.real), float(z.imag)] for z in rep.q]


def test_config_roundtrip():
    cfg = _config()
    out = cfg.to_dict()
    assert out["seed"] == {"master": 5}
    assert out["n_list"] == [8, 12] and out["spectrum"] == {"family": "multiscale", "n": 0,
                                                            "params": {"eps": 1.0}}
    assert ExperimentConfig.from_dict(out) == cfg
    spec = MULTISCALE.with_n(6)
    assert SpectrumSpec.from_dict(spec.to_dict()) == spec
