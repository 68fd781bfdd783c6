"""Every equilibrium record carries its game's belief builder.

``r.belief(t)`` must be the belief the game's public builder returns,
and every attention statistic of a record (its attention solutions, its
``attentive`` flags, the truncation statistic) must be read from it.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivote.election import (
    commitment_belief,
    electorate_attention,
    enumerate_equilibria,
    perfect_observation_winner,
    profile_belief,
)
from rivote.news import expected_winning_matrix, signal_belief
from rivote.scenario_io import scenario_from_dict
from rivote.solver import attention_membership, solve_attention

GROUPS = [[-0.02, 0.25], [-0.001, 0.25], [0.001, 0.25], [0.02, 0.25]]


def game(n, family="absolute", xi=None, eta=None, mu=1.0, types=((0.3, 0.5), (0.8, 0.5))):
    """Two- or three-type game on the interior grid k/(n+1)."""
    doc = {"schema_version": 1, "policies": {"beta": [k / (n + 1) for k in range(1, n + 1)]},
           "utility": {"family": family, "office_rent": 0.0, "win_weight": 12.0,
                       "lose_weight": 1.0, "loser_sign": -1},
           "candidates": {"beta": [list(t) for t in types]},
           "electorate": {"groups": GROUPS}, "attention": {"mu": mu}}
    if xi is not None:
        doc["news"] = {"family": "slant", "xi": xi, "signals": [0.25, 0.75]}
    if eta is not None:
        doc["commitment"] = {"eta": eta}
    return scenario_from_dict(doc)


def public_belief(pipeline, scenario, record, t):
    """Voter t's belief for ``record``, built by its game's public builder."""
    if pipeline == "noisy":
        return signal_belief(scenario.news, scenario.utility, record.assignment.levels,
                             record.assignment.sigma, t)
    if pipeline == "commitment":
        return commitment_belief(scenario, record.assignment, t)
    return profile_belief(scenario.utility, record.assignment.levels,
                          record.assignment.sigma, t)


GAMES = {"baseline": {}, "noisy": {"xi": 0.75}, "commitment": {"eta": 0.5}}


@pytest.mark.parametrize("pipeline", GAMES)
def test_record_belief_is_the_public_builder_bitwise(pipeline):
    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records and all(r.kind == pipeline for r in records)
    for r in records:
        for t, sol in r.attention:
            carried, direct = r.belief(t), public_belief(pipeline, scenario, r, t)
            assert carried.support == direct.support
            assert carried.probs.tobytes() == direct.probs.tobytes()
            assert carried.values.tobytes() == direct.values.tobytes()
            # the attached solution is the solution under that belief
            assert sol.m.tobytes() == solve_attention(direct, scenario.mu).m.tobytes()


@pytest.mark.parametrize("pipeline", GAMES)
def test_electorate_attention_is_a_per_group_solve_bitwise(pipeline):
    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records
    for r in records:
        belief, attention = electorate_attention(scenario, r.assignment)
        assert [t for t, _ in attention] == [t for t, _ in GROUPS]
        for t, sol in attention:
            direct = public_belief(pipeline, scenario, r, t)
            assert belief(t).values.tobytes() == direct.values.tobytes()
            want = solve_attention(direct, scenario.mu)
            assert (sol.regime, sol.m.tobytes(), sol.m_bar, sol.info) == (
                want.regime, want.m.tobytes(), want.m_bar, want.info)


def test_sigma_is_built_once_read_only_and_bitwise():
    scenario = game(8)
    record = enumerate_equilibria(scenario)[0]
    assignment = record.assignment
    # every group's belief reads the one array
    assert assignment.sigma is assignment.sigma
    assert not assignment.sigma.flags.writeable
    assert assignment.sigma.tobytes() == np.outer(assignment.level_probs,
                                                  assignment.level_probs).tobytes()
    with pytest.raises(ValueError):
        assignment.sigma[0, 0] = 1.0


@pytest.mark.parametrize("pipeline", GAMES)
def test_expected_w_is_the_kernel_winner_on_played_levels(pipeline):
    # perfect observation in the baseline and under commitment, news otherwise
    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records
    for r in records:
        levels = np.array(r.assignment.levels)
        expected = (expected_winning_matrix(scenario.news, levels) if pipeline == "noisy"
                    else perfect_observation_winner(scenario, -levels[:, None], levels[None, :]))
        np.testing.assert_array_equal(r.expected_w, expected)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    family=st.sampled_from(["absolute", "quadratic"]),
    pipeline=st.sampled_from(list(GAMES)),
    knob=st.floats(0.05, 0.95),
    log_mu=st.floats(-3.0, 2.0),
)
def test_attentive_flag_is_the_one_rule(n, family, pipeline, knob, log_mu):
    knobs = {k: knob for k in GAMES[pipeline]}
    mu = 10.0 ** log_mu
    scenario = game(n, family=family, mu=mu, **knobs)
    for r in enumerate_equilibria(scenario):
        for t, flag in r.attentive:
            assert flag == attention_membership(r.belief(t), mu)


BUILDERS = {"baseline": ("rivote.election", "profile_belief"),
            "noisy": ("rivote.election", "signal_belief"),
            "commitment": ("rivote.election", "value_matrix")}


@pytest.mark.parametrize("pipeline", GAMES)
def test_truncation_statistic_reuses_the_enumeration_beliefs(pipeline, monkeypatch):
    # every group's belief was built while enumerating; judging a group again
    # builds none, while a new voter type builds one per record
    import importlib

    from rivote.election import truncation_statistic

    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records
    module, name = BUILDERS[pipeline]
    module = importlib.import_module(module)
    builder, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or builder(*a, **k))
    for t, _ in GROUPS:
        truncation_statistic(scenario, records, t)
    assert calls == []
    truncation_statistic(scenario, records, 0.5)
    assert calls
