"""Equilibrium records are plain data read through the game's one gate.

A record carries no belief: voter t's belief under it is
``game_belief(scenario, r.assignment, t)``, bitwise the belief the game's
public builder returns, and every attention statistic of a record (its
attention solutions, its ``attentive`` flags, the truncation statistic)
must agree with it.  Records pickle and round-trip.
"""
import copy
import itertools
import math
import pickle
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rivote.core
import rivote.election
from rivote.core import UtilitySpec, ValidationError
from rivote.election import (
    StrategyAssignment,
    electorate_attention,
    enumerate_equilibria,
    game_belief,
    perfect_observation_winner,
    profile_belief,
    truncation_statistic,
)
from rivote.news import MarkovKernel, expected_winning_matrix, signal_belief
from rivote.presets import figure2_scenario
from rivote.scenario_io import scenario_from_dict
from rivote.solver import BeliefOverProfiles, attentive, solve_attention

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
    if pipeline == "commitment":  # the eta-blend of the proposals' and the own types' beliefs
        a, eta = record.assignment, scenario.eta
        proposed = profile_belief(scenario.utility, a.policies, a.sigma, t)
        own = profile_belief(scenario.utility, a.types, a.sigma, t)
        return replace(proposed, values=eta * proposed.values + (1.0 - eta) * own.values)
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
            gated = game_belief(scenario, r.assignment, t)
            direct = public_belief(pipeline, scenario, r, t)
            assert gated.support == direct.support
            assert gated.probs.tobytes() == direct.probs.tobytes()
            assert gated.values.tobytes() == direct.values.tobytes()
            # the attached solution is the solution under that belief
            assert sol.m.tobytes() == solve_attention(direct, scenario.mu).m.tobytes()


@pytest.mark.parametrize("pipeline", GAMES)
def test_electorate_attention_is_a_per_group_solve_bitwise(pipeline):
    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records
    for r in records:
        support, attention = electorate_attention(scenario, r.assignment)
        assert [t for t, _ in attention] == [t for t, _ in GROUPS]
        for t, sol in attention:
            direct = public_belief(pipeline, scenario, r, t)
            assert support == direct.support
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
            belief = game_belief(scenario, r.assignment, t)
            assert flag == attentive(belief.values, belief.probs, mu)


@pytest.mark.parametrize("pipeline", GAMES)
def test_truncation_statistic_reuses_the_enumeration_beliefs(pipeline, monkeypatch):
    # each call admits every record's assignment once, building its one
    # belief through the gate, and keeps exactly the records on which voter
    # t's game_belief is attentive, at any mu and for group and other types
    scenario = game(8, **GAMES[pipeline])
    records = enumerate_equilibria(scenario)
    assert records
    gate, admitted = rivote.election._admitted_game, []
    monkeypatch.setattr(rivote.election, "_admitted_game",
                        lambda s, a=None: admitted.append((s, a)) or gate(s, a))
    for t, mu in itertools.product([t for t, _ in GROUPS] + [0.5], [0.01, 1.0, 100.0]):
        at_mu = replace(scenario, mu=mu)
        admitted.clear()
        kept, spread = truncation_statistic(at_mu, records, t)
        assert admitted == [(at_mu, r.assignment) for r in records]
        beliefs = [game_belief(at_mu, r.assignment, t) for r in records]
        assert kept == tuple(r for r, b in zip(records, beliefs)
                             if attentive(b.values, b.probs, mu))
        assert (spread is None) == (kept == ())


def test_truncation_statistic_refuses_a_scenario_that_does_not_admit_the_records():
    # figure 2's records judged in a figure-2 game whose candidate types are .25/.75
    figure2 = figure2_scenario()
    records = enumerate_equilibria(scenario_from_dict(figure2))
    figure2["candidates"]["beta"] = [[0.25, 0.5], [0.75, 0.5]]
    foreign = scenario_from_dict(figure2)
    with pytest.raises(ValidationError, match="^the assignment's types are not the "
                                              "scenario's candidate types$"):
        truncation_statistic(foreign, records, -0.001)


@pytest.mark.parametrize("pipeline", GAMES)
def test_records_are_plain_data_that_pickle(pipeline):
    records = enumerate_equilibria(game(8, **GAMES[pipeline]))
    assert records
    for r, twin in zip(records, pickle.loads(pickle.dumps(records))):
        assert twin.assignment == r.assignment
        assert (twin.gaps, twin.min_gap, twin.total_info) == (r.gaps, r.min_gap, r.total_info)
        assert twin.expected_w.tobytes() == r.expected_w.tobytes()
        assert [(t, s.m.tobytes()) for t, s in twin.attention] == [
            (t, s.m.tobytes()) for t, s in r.attention]


def electorate_game(pipeline, family, group_types, mu, news="slant"):
    """Eight-type game on the grid k/9 with equally weighted voter groups at
    ``group_types`` and their mirror images, so that the game is admitted (a
    voter's belief does not depend on the other groups); noisy games read
    slant news or news that reveals the policy."""
    grid = [k / 9 for k in range(1, 9)]
    group_types = sorted({*group_types, *(-t for t in group_types)})
    doc = {"schema_version": 1, "policies": {"beta": grid},
           "utility": {"family": family, "office_rent": 0.0, "win_weight": 12.0,
                       "lose_weight": 1.0, "loser_sign": -1},
           "candidates": {"beta": [[(k + 0.5) / 9, 1 / 8] for k in range(1, 9)]},
           "electorate": {"groups": [[t, 1 / len(group_types)] for t in group_types]},
           "attention": {"mu": mu}}
    if pipeline == "noisy":
        doc["news"] = ({"family": "slant", "xi": 0.75, "signals": [0.25, 0.75]} if news == "slant"
                       else {"family": "revealing", "policies": grid})
    if pipeline == "commitment":
        doc["commitment"] = {"eta": 0.5}
    return scenario_from_dict(doc)


def assignment_of(scenario, policies):
    """The scenario's eight candidate types playing ``policies`` of its grid."""
    types = scenario.beta_types
    return StrategyAssignment(types.type_values, types.type_probs, tuple(policies))


@settings(max_examples=150, deadline=None)
@given(
    pipeline=st.sampled_from(list(GAMES)),
    family=st.sampled_from(["absolute", "quadratic"]),
    news=st.sampled_from(["slant", "revealing"]),
    # multiples of 1/20 in [-1, 1]: groups at t = 0 and mirror pairs give all-zero and tied values
    group_types=st.sets(st.integers(-20, 20), min_size=1, max_size=40),
    levels=st.lists(st.integers(1, 8), min_size=8, max_size=8),
    log_mu=st.floats(math.log(1e-3), math.log(3.0)),
)
def test_every_group_is_solve_attention_of_its_public_belief(pipeline, family, news,
                                                              group_types, levels, log_mu):
    # supports of 1 to 64 profiles: one to eight levels played, squared
    mu = math.exp(log_mu)
    scenario = electorate_game(pipeline, family, sorted(k / 20 for k in group_types), mu, news)
    grid = scenario.beta_axis.values
    policies = (grid[:8] if pipeline == "commitment"
                else tuple(sorted(grid[i - 1] for i in levels)))
    record = SimpleNamespace(assignment=assignment_of(scenario, policies))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # revealing news drops unplayed signals
        support, attention = electorate_attention(scenario, record.assignment)
        direct = {t: public_belief(pipeline, scenario, record, t) for t, _ in attention}
        gated = {t: game_belief(scenario, record.assignment, t) for t, _ in attention}
    assert [t for t, _ in attention] == list(scenario.electorate.group_types)
    for t, sol in attention:
        want = solve_attention(direct[t], mu)
        assert support == gated[t].support == direct[t].support
        assert gated[t].probs.tobytes() == direct[t].probs.tobytes()
        assert gated[t].values.tobytes() == direct[t].values.tobytes()
        assert (sol.regime, sol.m.tobytes(), sol.m_bar, sol.likelihood_ratio, sol.info,
                sol.residual) == (want.regime, want.m.tobytes(), want.m_bar,
                                  want.likelihood_ratio, want.info, want.residual)


@pytest.mark.parametrize("pipeline", ["baseline", "commitment"])
@pytest.mark.parametrize("chunk", [1, 2 ** 15])
def test_electorate_batch_chunks_do_not_change_beliefs(monkeypatch, pipeline, chunk):
    # 41 groups on 8 levels: one group per chunk, or all in one, give the same bits
    scenario = electorate_game(pipeline, "quadratic", [k / 20 for k in range(-20, 21)], 0.05)
    assignment = assignment_of(scenario, scenario.beta_axis.values[:8])
    ts = scenario.electorate.group_types
    want = rivote.election._game_beliefs(scenario, assignment, ts)
    monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
    support, probs, values = rivote.election._game_beliefs(scenario, assignment, ts)
    assert support == want[0] and probs.tobytes() == want[1].tobytes()
    assert values.tobytes() == want[2].tobytes()
    for t, row in zip(ts, values):
        direct = public_belief(pipeline, scenario, SimpleNamespace(assignment=assignment), t)
        assert row.tobytes() == direct.values.tobytes()


def test_profile_belief_refuses_a_zero_level_probability():
    # only the news rule drops zero-probability profiles
    with pytest.raises(ValidationError, match="support probabilities must be positive"):
        profile_belief(UtilitySpec(), (0.1, 0.4), np.outer([1.0, 0.0], [1.0, 0.0]), 0.0)


@pytest.mark.parametrize("chunk", [1, 40, 2 ** 15])
def test_noisy_electorate_warns_once_with_the_dropped_count(monkeypatch, chunk):
    # revealing news on eight policies, two of them played: 64 - 4 profiles
    # have no mass, for every one of the seven groups alike; posterior chunks
    # of any size give the same beliefs
    monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
    types = [-0.3, -0.1, -0.01, 0.0, 0.01, 0.1, 0.3]
    scenario = electorate_game("noisy", "absolute", types, 0.05, news="revealing")
    grid = scenario.beta_axis.values
    record = SimpleNamespace(assignment=assignment_of(scenario, [grid[1]] * 4 + [grid[6]] * 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        support, attention = electorate_attention(scenario, record.assignment)
    assert [str(w.message).split()[:2] for w in caught] == [["dropped", "60"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t, sol in attention:
            direct = public_belief("noisy", scenario, record, t)
            gated = game_belief(scenario, record.assignment, t)
            assert support == gated.support == direct.support and len(direct.support) == 4
            assert gated.values.tobytes() == direct.values.tobytes()
            assert sol.m.tobytes() == solve_attention(direct, 0.05).m.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    pipeline=st.sampled_from(list(GAMES)),
    family=st.sampled_from(["absolute", "quadratic"]),
    news=st.sampled_from(["slant", "revealing"]),
    group_types=st.sets(st.integers(-20, 20), min_size=1, max_size=12),
    levels=st.lists(st.integers(1, 8), min_size=8, max_size=8),
    off_group=st.integers(-20, 19),
)
def test_game_belief_is_the_one_row_case_of_its_game_batch(pipeline, family, news, group_types,
                                                           levels, off_group):
    # group types on multiples of 1/20 and one type between them; supports of 1 to 64 profiles
    scenario = electorate_game(pipeline, family, sorted(k / 20 for k in group_types), 1.0, news)
    grid = scenario.beta_axis.values
    policies = (grid[:8] if pipeline == "commitment"
                else tuple(sorted(grid[i - 1] for i in levels)))
    record = SimpleNamespace(assignment=assignment_of(scenario, policies))
    ts = scenario.electorate.group_types + ((off_group + 0.5) / 20,)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # revealing news drops unplayed signals
        batch = rivote.election._game_beliefs(scenario, record.assignment, np.array(ts))
        support, _ = electorate_attention(scenario, record.assignment)
        rows = {t: (game_belief(scenario, record.assignment, t),
                    public_belief(pipeline, scenario, record, t)) for t in ts}
    assert support == batch[0]
    for values, t in zip(batch[2], ts):
        for b in rows[t]:
            assert b.support == batch[0]
            assert b.probs.tobytes() == batch[1].tobytes()
            assert b.values.tobytes() == values.tobytes()


def test_objects_holding_arrays_compare_by_identity():
    # ==, hash and `in` read no array, so a deep copy is another object, not an error
    scenario = scenario_from_dict(figure2_scenario())
    record = enumerate_equilibria(scenario)[0]
    objects = (MarkovKernel(np.eye(2)), BeliefOverProfiles(("a", "b"), [0.5, 0.5], [1.0, 2.0]),
               record.attention[0][1], record)
    for obj in objects:
        twin = copy.deepcopy(obj)
        assert obj == obj and obj != twin and hash(obj) == hash(obj)
        assert obj in [twin, obj] and obj not in [twin]
    assert enumerate_equilibria(scenario)[0] != record
