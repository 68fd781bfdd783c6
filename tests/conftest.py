import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rivote.core import UtilitySpec
from rivote.election import profile_belief
from rivote.presets import example3_scenario, figure2_scenario, figure3_scenario, table1_scenario
from rivote.scenario_io import scenario_from_dict


@pytest.fixture(scope="session")
def abs_spec():
    return UtilitySpec(family="absolute")


@pytest.fixture(scope="session")
def quad_spec():
    return UtilitySpec(family="quadratic")


def bench_workloads():
    """The benchmark's ``bench/workloads.py`` (its inputs: belief streams and
    game documents), loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def two_level_belief(spec, a1, a2, t, probs=(0.5, 0.5)):
    """Belief over the four profiles of two equiprobable (by default) levels."""
    p = np.asarray(probs, dtype=float)
    return profile_belief(spec, (a1, a2), np.outer(p, p), t)


@pytest.fixture(scope="session")
def table_belief(abs_spec):
    """Factory for the benchmark two-level belief (levels .01 and .4)."""
    return lambda t: two_level_belief(abs_spec, 0.01, 0.4, t)


@pytest.fixture(scope="session")
def figure2():
    return scenario_from_dict(figure2_scenario())


@pytest.fixture(scope="session")
def table1():
    return scenario_from_dict(table1_scenario())


@pytest.fixture()
def figure3_factory():
    return lambda xi, **kw: scenario_from_dict(figure3_scenario(xi, **kw))


@pytest.fixture()
def example3_factory():
    return lambda eta, **kw: scenario_from_dict(example3_scenario(eta, **kw))
