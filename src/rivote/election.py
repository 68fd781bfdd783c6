"""Symmetric electoral competition over finite grids.

One game table (``_admitted_game``) holds every part of the baseline,
noisy-news and limited-commitment games: beta's winning matrix, commitment
level and the voter's array rule, which the electorate's belief batch and
the attention-set scan read.  On it: vote aggregation, incentive checks,
exact pruned enumeration of pure symmetric equilibria and the truncation
statistic behind the comparative statics in the attention cost.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    EXACT,
    TOL,
    NumericError,
    Scenario,
    UtilitySpec,
    ValidationError,
    chunks,
    grid_floats,
    probability_floats,
    require_symmetric,
    utility,
    value_matrix,
    winning_prob,
)
from .news import NewsTechnology, audit_news, expected_winning_matrix, posterior_value_matrix
from .solver import (
    AttentionSolution,
    BeliefOverProfiles,
    attentive,
    belief_batch,
    solve_groups,
)


# ---------------------------------------------------------------------------
# Strategies and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyAssignment:
    """Pure symmetric candidate strategy: beta's type -> policy map.

    Candidate alpha plays the mirror image (type -t proposes the negation of
    beta's policy for t).
    """

    types: tuple[float, ...]
    type_probs: tuple[float, ...]
    policies: tuple[float, ...]

    def __post_init__(self) -> None:
        types = tuple(float(t) for t in self.types)
        probs = tuple(float(p) for p in self.type_probs)
        policies = tuple(float(a) for a in self.policies)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "type_probs", probs)
        object.__setattr__(self, "policies", policies)
        if not (len(types) == len(probs) == len(policies)):
            raise ValidationError("types, probabilities and policies must align")
        grid_floats(types, "types")
        probability_floats(probs, "type probabilities")
        if any(not 0 < a < math.inf for a in policies):
            raise ValidationError("beta policies must be positive and finite")

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """Distinct policy values actually played, ascending."""
        return tuple(sorted(set(self.policies)))

    @cached_property
    def level_probs(self) -> tuple[float, ...]:
        return tuple(sum(p for a, p in zip(self.policies, self.type_probs) if a == lvl)
                     for lvl in self.levels)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Joint probability of the two candidates' levels, read-only."""
        sigma = np.outer(self.level_probs, self.level_probs)
        sigma.setflags(write=False)
        return sigma


def _require_on_grid(scenario: Scenario, policies) -> None:
    """Refuses the first of ``policies`` off candidate beta's grid."""
    for a in policies:
        if a not in scenario.beta_axis.values:
            raise ValidationError(f"policy {a!r} is not on candidate beta's grid")


def assignment_for(scenario: Scenario, policies: tuple[float, ...]) -> StrategyAssignment:
    """Assignment of the scenario's beta types to the given grid policies."""
    _require_on_grid(scenario, policies)
    return StrategyAssignment(
        scenario.beta_types.type_values, scenario.beta_types.type_probs, policies
    )


def game_of(scenario: Scenario) -> str:
    """The game a scenario describes: "noisy" with a news technology,
    "commitment" with eta < 1, else "baseline"."""
    if scenario.news is not None:
        return "noisy"
    return "commitment" if scenario.eta < 1.0 else "baseline"


@dataclass(frozen=True, eq=False)
class EquilibriumRecord:
    """One symmetric equilibrium with its attention diagnostics, plain data
    that pickles; voter t's belief under it is ``game_belief(scenario,
    r.assignment, t)``.  Compared by identity."""

    kind: str                      # game_of(scenario): "baseline" | "noisy" | "commitment"
    assignment: StrategyAssignment
    attention: tuple[tuple[float, AttentionSolution], ...]  # (group type, solution)
    attentive: tuple[tuple[float, bool], ...]
    gaps: tuple[tuple[float, float], ...]  # (beta type, deviation slack)
    min_gap: float
    expected_w: np.ndarray         # beta's winning probability per on-path profile
    total_info: float              # group-weighted mutual information (nats)


# ---------------------------------------------------------------------------
# Values, beliefs, winners
# ---------------------------------------------------------------------------

def _profile_arrays(spec: UtilitySpec, levels, sigma, t):
    """The baseline game's array rule: sigma and voter t's ``value_matrix``."""
    return sigma, value_matrix(spec, levels, t)


def _commitment_arrays(spec: UtilitySpec, eta: float, types, levels, sigma, t):
    """The limited-commitment game's array rule: each proposal valued as the mix
    of it, weight eta, and its proposer's own type (played when the winner reneges)."""
    return sigma, eta * value_matrix(spec, levels, t) + (1.0 - eta) * value_matrix(spec, types, t)


def profile_belief(spec: UtilitySpec, a_values, sigma, t: float) -> BeliefOverProfiles:
    """Belief over on-path policy profiles with voter t's differential values:
    the one-type ``belief_batch`` of the baseline game's array rule."""
    support, probs, values = belief_batch(partial(_profile_arrays, spec), a_values, sigma, [t])
    return BeliefOverProfiles(support, probs, values[0])


def _game_beliefs(scenario: Scenario, assignment: StrategyAssignment, ts):
    """``belief_batch`` of the admitted game row's array rule: the beliefs of
    the types ``ts`` under an assignment that ``_admitted_game`` admits."""
    row, news = _admitted_game(scenario, assignment), scenario.news
    return belief_batch(row.arrays, assignment.levels, assignment.sigma, ts, news and news.signals)


def game_belief(scenario: Scenario, assignment: StrategyAssignment, t: float) -> BeliefOverProfiles:
    """Voter t's belief under the assignment in the scenario's game: ``_game_beliefs`` at [t]."""
    support, probs, values = _game_beliefs(scenario, assignment, [t])
    return BeliefOverProfiles(support, probs, values[0])


def perfect_observation_winner(scenario: Scenario, a_alpha, a_beta) -> np.ndarray:
    """Beta's winning probability when every voter group observes the profile
    and best-responds, broadcasting over policy arrays: the one
    perfect-observation rule, which prices the baseline and commitment games.

    The groups' votes are evaluated over a leading group axis, in ``chunks``
    of groups, and a group indifferent within 1e-12 splits 1/2-1/2 (a model
    choice); ``_majority`` counts the votes.
    """
    spec = scenario.utility
    shape = np.broadcast_shapes(np.shape(a_alpha), np.shape(a_beta))
    t = np.reshape(scenario.electorate.group_types, (-1,) + (1,) * len(shape))
    votes = itertools.chain.from_iterable(
        winning_prob(utility(spec, a_beta, c) - utility(spec, a_alpha, c), EXACT)
        for c in (t[part] for part in chunks(len(t), math.prod(shape))))
    return _majority(scenario, votes)


def _majority(scenario: Scenario, votes) -> np.ndarray:
    """Beta's winning probability: the groups' votes for beta, weighted and
    summed in group order, mapped to {0, 1/2, 1} with the usual tolerance."""
    share = 0.0
    for (_, weight), vote in zip(scenario.electorate.groups, votes):
        share = share + weight * vote
    return winning_prob(share - 0.5, TOL)


def electorate_attention(scenario: Scenario, assignment: StrategyAssignment):
    """``(support, attention)`` under the assignment in the scenario's game,
    refused as ``_admitted_game`` refuses: the support of the ``_game_beliefs``
    of every voter group, built and validated once, and ``(t,
    solve_attention(game_belief(scenario, assignment, t), mu))`` per group in
    group order, by one ``solve_groups`` call on that batch."""
    ts = scenario.electorate.group_types
    support, probs, values = _game_beliefs(scenario, assignment, ts)
    probs = BeliefOverProfiles(support, probs, values[0]).probs
    return support, tuple(zip(ts, solve_groups(values, probs, scenario.mu)))


def aggregate_and_rationalize(scenario: Scenario, assignment: StrategyAssignment) -> np.ndarray:
    """Winning matrix implied by every group's optimal attention strategy: the
    ``_majority`` of the ``electorate_attention`` votes on the on-path profiles
    at the scenario's mu.  Refused before any group is solved: what
    ``_admitted_game`` refuses, then any game but the baseline."""
    _admitted_game(scenario, assignment)
    _require_baseline(scenario, "aggregate_and_rationalize")
    _, attention = electorate_attention(scenario, assignment)
    return _majority(scenario, (sol.m for _, sol in attention)).reshape(assignment.sigma.shape)


def _require_baseline(scenario: Scenario, what: str) -> None:
    if (game := game_of(scenario)) != "baseline":
        raise ValidationError(f"{what} models the baseline game only, "
                              f"not the scenario's {game} game")


# ---------------------------------------------------------------------------
# Candidate incentive compatibility
# ---------------------------------------------------------------------------

def stage_tables(spec: UtilitySpec, own_grid, opp_grid, own_types, opp_types, eta=None):
    """(win, lose) stage values of one candidate on the grid.

    ``win[k, a] = R + win_weight * u(a, t_k)`` prices a win of own type k
    with policy a; ``lose[j, x, k] = (-loser_sign * lose_weight) * u(x, t_k)``
    a loss to opponent type j playing x.  Under limited commitment (``eta``
    given) each value blends the proposal, weight eta, with the proposer's
    own type, played when the winner reneges.
    """
    def win(a, t):
        return spec.office_rent + spec.win_weight * utility(spec, a, t)

    def lose(x, t):
        return (-spec.loser_sign * spec.lose_weight) * utility(spec, x, t)

    t = own_types[:, None]
    win_v, lose_v = win(own_grid, t), lose(opp_grid[None, :, None], own_types)
    if eta is not None:
        win_v = eta * win_v + (1.0 - eta) * win(t, t)
        lose_v = eta * lose_v + (1.0 - eta) * lose(opp_types[:, None, None], own_types)
    return win_v, np.broadcast_to(lose_v, (len(opp_types), *lose_v.shape[1:]))


def _payoffs(w, win, lose, probs) -> np.ndarray:
    """One candidate's payoff table: ``pay[j, x, k, a]`` is what opponent type
    j, of probability ``probs[j]``, playing grid index x adds to own type k's
    payoff at own index a, ``p * (w * win + (1 - w) * lose)`` with ``w[x, a]``
    the own winning probability and (win, lose) the ``stage_tables``."""
    w, p = w[:, None, :], np.array(probs)[:, None, None, None]
    return p * (w * win + (1.0 - w) * lose[..., None])


def _margins(pay, own, opp, gain=None) -> np.ndarray:
    """``ub[r, k, b]``: own type k's payoff at ``own[r, k]`` less its payoff at b
    (inf at b = ``own[r, k]``) when opponent j plays ``opp[r, j]``, plus any
    ``gain[k, own[r, k], b]``.  Payoffs add up opponent by opponent, and
    rounding is monotone, so with no gain the least entry per type is bitwise
    the scalar loop's slack (infinite on a one-point grid)."""
    total = np.zeros((len(own), *pay.shape[2:]))
    for j in range(opp.shape[1]):
        total += pay[j, opp[:, j]]
    r, k = np.arange(len(own))[:, None], np.arange(own.shape[1])
    ub = total[r, k, own][..., None] - total
    if gain is not None:
        ub += gain[k, own]
    ub[r, k, own] = math.inf
    return ub


class ICKernel:
    """Batched incentive check and pruned search of pure symmetric
    assignments on one grid.

    Built once per game from beta's winning-probability matrix ``w`` on the
    grid (``w[i, j]`` at the profile (-grid[i], grid[j])) and the
    ``stage_tables`` of both candidates under ``spec`` (and ``eta`` under
    limited commitment), as one ``_payoffs`` table per candidate that
    ``gaps``, ``bound`` and ``search`` all read through ``_margins``.  Alpha's
    game is the mirror image: its policies are indexed by their magnitude on
    beta's grid and its types are the negated beta types in reverse.  An
    assignment is the row of beta's grid indices per type.  Alpha's side is
    checked too: where W + W^T != 1, as on the aggregated on-path cells of
    the rationalized check, its slack is not beta's mirrored.
    """

    def __init__(self, grid, types, probs, w, spec: UtilitySpec, eta=None):
        self.grid, self._increasing = tuple(grid), eta is not None
        self.types = tuple(types)
        self.alpha_types = tuple(-t for t in reversed(self.types))
        self.w = w = np.asarray(w, dtype=float)
        g, b_types, a_types = np.array(self.grid), np.array(self.types), np.array(self.alpha_types)
        beta = stage_tables(spec, g, -g, b_types, a_types, eta)
        alpha = stage_tables(spec, -g, g, a_types, b_types, eta)
        self._beta = _payoffs(w, *beta, tuple(reversed(probs)))
        self._alpha = _payoffs((1.0 - w).T, *alpha, tuple(probs))

    def gaps(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(beta, alpha) slack per assignment row and type, in type order."""
        return self.bound(rows).min(axis=2), _margins(self._alpha, rows[:, ::-1], rows).min(axis=2)

    @cached_property
    def _open_gains(self) -> np.ndarray:
        """``gains[m, k, a, b]``: the most beta's opponents j < m can add to type
        k's payoff at a over b, each maximised over its policy, for what ``bound``
        reads only: m < n and k < n - 1, one of the four (j, k) slices with two types."""
        pay, (n, size) = self._beta, self._beta.shape[:2]
        gain = np.zeros((n, n - 1, size, size))
        for j, k, part in itertools.product(range(n - 1), range(n - 1), chunks(size, size ** 2)):
            gain[j + 1, k, part] = (pay[j, :, k, part, None] - pay[j, :, k, None]).max(axis=0)
        return np.cumsum(gain, axis=0)

    def bound(self, prefixes: np.ndarray) -> np.ndarray:
        """Upper bound on beta type k's payoff at its policy a_k less its payoff
        at b, over every completion of each row prefix (prefixes x assigned
        types x grid; inf at b = a_k): alpha's types that mirror assigned ones,
        its last, add their exact term, the open ones their largest.  A
        complete row has no open type: its least entry is the exact slack."""
        level, n_open = prefixes.shape[1], len(self.types) - prefixes.shape[1]
        gain = self._open_gains[n_open, :level] if n_open else None
        return _margins(self._beta[n_open:, :, :level], prefixes, prefixes[:, ::-1], gain)

    def search(self, max_prefixes: int):
        """(grid indices, beta's (type, slack) pairs) of every incentive
        compatible row, in lexicographic order.  Prefixes grow one type at a
        time, by an index above the last under limited commitment (any index
        otherwise), over ``max_prefixes`` visited are refused, and a prefix
        whose ``bound`` is below -TOL by more than a rounding margin is cut: no
        completion of it can pass.  Complete rows are judged by their exact
        ``gaps``."""
        n, size = len(self.types), len(self.grid)
        margin = 1e-9 * max(1.0, np.abs(self._beta).max())
        rows, visited = np.zeros((1, 0), dtype=np.intp), 0
        for level in range(1, n + 1):
            allowed = np.ones((len(rows), size), dtype=bool)
            if self._increasing and level > 1:
                allowed &= rows[:, -1:] < np.arange(size)
            if (visited := visited + int(allowed.sum())) > max_prefixes:
                raise ValidationError(f"{visited} prefixes exceed the cap {max_prefixes}; "
                                      "raise max_assignments explicitly to search this grid")
            parent, nxt = np.nonzero(allowed)
            rows = np.column_stack([rows[parent], nxt])
            keep, slack = np.ones(len(rows), dtype=bool), np.empty((len(rows), n))
            for part in chunks(len(rows), n * size):
                if level < n:
                    keep[part] = self.bound(rows[part]).min(axis=(1, 2)) >= -TOL - margin
                else:
                    slack[part], alpha = self.gaps(rows[part])
                    keep[part] = np.minimum(slack[part].min(axis=1), alpha.min(axis=1)) >= -TOL
            rows, slack = rows[keep], slack[keep]
        return [(tuple(r), tuple(zip(self.types, s)))
                for r, s in zip(rows.tolist(), slack.tolist())]


class GameRow(NamedTuple):
    """A row of the game table, ``_admitted_game``: the three games share one
    kernel and differ only in beta's winning matrix on the grid (the groups'
    majority, or signal-wise under news), the commitment level blended into
    the stage values (None but under limited commitment, which admits strictly
    increasing maps only) and the voter rule ``arrays(levels, sigma, t) -> (probs, values)``,
    broadcasting over leading axes of the levels and t, that ``_game_beliefs``
    and ``attention_set`` read."""

    w_of: Callable[[Scenario], np.ndarray]
    eta: float | None
    arrays: Callable


def _perfect_w(scenario: Scenario) -> np.ndarray:
    """Beta's winning matrix on the grid under perfect observation: the groups' majority."""
    g = np.array(scenario.beta_axis.values)
    return perfect_observation_winner(scenario, -g[:, None], g[None, :])


def _signal_wise_w(scenario: Scenario) -> np.ndarray:
    """Beta's winning matrix on the grid under news: decided signal-wise."""
    return expected_winning_matrix(scenario.news, scenario.beta_axis.values)


def _admitted_game(scenario: Scenario, assignment: StrategyAssignment | None = None) -> GameRow:
    """The row for ``game_of(scenario)`` of a symmetric scenario whose news, if
    any, passes ``audit_news`` on beta's grid: the one gate of every reader of
    a scenario's game, cached in the frozen scenario's ``__dict__`` as by
    ``cached_property`` (pickles and copies carry the fields only); a refusal
    is not.  An ``assignment`` is refused where its types are not the
    scenario's, where under limited commitment its policies do not strictly
    increase in type order, then at its first policy off beta's grid."""
    if (row := vars(scenario).get("_admitted")) is None:
        require_symmetric(scenario)
        spec, eta, news = scenario.utility, scenario.eta, scenario.news
        if news is not None and (problems := audit_news(news, scenario.beta_axis.values)):
            raise ValidationError("news technology rejected: " + "; ".join(problems))
        own = scenario.beta_types.type_values
        row = vars(scenario)["_admitted"] = {
            "baseline": GameRow(_perfect_w, None, partial(_profile_arrays, spec)),
            "noisy": GameRow(_signal_wise_w, None, partial(posterior_value_matrix, news, spec)),
            "commitment": GameRow(_perfect_w, eta, partial(_commitment_arrays, spec, eta, own)),
        }[game_of(scenario)]
    if assignment is not None:
        if tuple(zip(assignment.types, assignment.type_probs)) != scenario.beta_types.types:
            raise ValidationError("the assignment's types are not the scenario's candidate types")
        if row.eta is not None and assignment.policies != assignment.levels:
            raise ValidationError("limited commitment requires strictly increasing policies")
        _require_on_grid(scenario, assignment.policies)
    return row


def check_ic(
    scenario: Scenario, assignment: StrategyAssignment, rationalized: bool = False
) -> tuple[bool, dict]:
    """Incentive compatibility of a pure symmetric assignment in the
    scenario's game.

    Deviations are priced by the game's winning matrix.  In the baseline game
    ``rationalized=True`` instead takes the on-path cells from aggregating
    optimal attention strategies.  Returns (ok, slack per (candidate, type)).
    Refused: what ``_admitted_game`` refuses of the scenario and the
    assignment, policies off beta's grid among them.
    """
    w_of, eta, _ = _admitted_game(scenario, assignment)
    grid = scenario.beta_axis.values
    w = w_of(scenario)
    if rationalized:
        _require_baseline(scenario, "rationalized=True")
        on = np.isin(grid, assignment.levels)  # the levels ascend, as the grid does
        w[np.ix_(on, on)] = aggregate_and_rationalize(scenario, assignment)
    kernel = ICKernel(grid, assignment.types, assignment.type_probs, w, scenario.utility, eta)
    beta, alpha = kernel.gaps(np.array([[grid.index(a) for a in assignment.policies]]))
    gaps = dict(zip((("beta", t) for t in kernel.types), beta[0].tolist()))
    gaps.update(zip((("alpha", t) for t in kernel.alpha_types), alpha[0].tolist()))
    return min(gaps.values()) >= -TOL, gaps


# ---------------------------------------------------------------------------
# Equilibrium enumeration
# ---------------------------------------------------------------------------

def equilibrium_records(scenario: Scenario, kernel: ICKernel, scored) -> list[EquilibriumRecord]:
    """One record per (grid indices, beta's (type, slack) pairs) of ``scored``.

    Each record is plain data: every group's ``electorate_attention``
    solution (a row of one ``_game_beliefs`` batch) and their weighted
    mutual information as ``total_info``.  A group is attentive unless its
    solution is the ``corner_zero`` regime (``solver.attentive``).
    """
    groups = scenario.electorate.groups
    records = []
    for row, beta_gaps in scored:
        assignment = assignment_for(scenario, tuple(kernel.grid[i] for i in row))
        _, attention = electorate_attention(scenario, assignment)
        idx = sorted(set(row))
        records.append(EquilibriumRecord(
            kind=game_of(scenario),
            assignment=assignment,
            attention=attention,
            attentive=tuple((t, sol.regime != "corner_zero") for t, sol in attention),
            gaps=beta_gaps,
            min_gap=min(g for _, g in beta_gaps),
            expected_w=kernel.w[np.ix_(idx, idx)],
            total_info=sum(w * sol.info for (_, w), (_, sol) in zip(groups, attention)),
        ))
    return records


def enumerate_equilibria(
    scenario: Scenario,
    max_assignments: int = 200_000,
    verify_rationalizable: bool = False,
) -> list[EquilibriumRecord]:
    """All pure symmetric equilibria of the scenario's game, in lexicographic
    policy order.

    ``ICKernel.search`` cuts the prefixes whose payoff bound rules out
    incentive compatibility (so ``max_assignments`` caps visited prefixes)
    and judges complete rows by their exact slack under the game's winning
    matrix; each record carries its groups' attention.  A news technology
    that fails ``audit_news`` on the grid is refused.  ``verify_rationalizable``
    (baseline game only) checks that every record's own attention strategies,
    counted by ``_majority``, reproduce its winner.
    """
    w_of, eta, _ = _admitted_game(scenario)
    if verify_rationalizable:
        _require_baseline(scenario, "verify_rationalizable")
    types = scenario.beta_types
    kernel = ICKernel(scenario.beta_axis.values, types.type_values, types.type_probs,
                      w_of(scenario), scenario.utility, eta)
    records = equilibrium_records(scenario, kernel, kernel.search(max_assignments))
    if verify_rationalizable:
        for r in records:
            rationalized = _majority(scenario, (sol.m for _, sol in r.attention))
            if not np.array_equal(rationalized.reshape(r.expected_w.shape), r.expected_w):
                raise NumericError(
                    "aggregated attention strategies do not rationalize the "
                    f"perfect-observation winner for policies {r.assignment.policies}"
                )
    return records


# ---------------------------------------------------------------------------
# Attention sets
# ---------------------------------------------------------------------------

def frontier_scan(a1_grid, a2_grid, mu: float, level_probs, arrays,
                  floats_per_pair: int) -> np.ndarray:
    """Rows (a1, first grid a2 > a1 + 1e-12 at which the voter is ``attentive``,
    or NaN) of a finite a1 and a finite, strictly increasing a2: the one scan
    that judges pairs.  ``arrays(levels, sigma) -> (probs, values)`` is the
    voter's belief over the profiles of the pairs ``levels[p] = (a1, a2)``,
    with sigma the joint level probabilities.  Zero-probability profiles are
    masked out (probability 0 and the pair's least kept value add nothing to
    the exponential moment) and counted in one warning to the frontier's
    caller; a1 is scanned in row ``chunks`` of ``floats_per_pair`` per pair."""
    if not mu > 0:
        raise ValidationError("mu must be positive")
    p = probability_floats(level_probs, "level probabilities")
    if p.shape != (2,):
        raise ValidationError("level probabilities must be two positive numbers summing to 1")
    a1 = grid_floats(a1_grid, "a1 grid", increasing=False)
    a2 = grid_floats(a2_grid, "a2 grid")
    sigma, first, dropped = np.outer(p, p), np.full(a1.shape, np.nan), 0
    for part in chunks(a1.size, a2.size * floats_per_pair):
        rows = a1[part, None]
        pairs = a2 > rows + EXACT
        if not pairs.any():
            continue
        levels = np.stack([np.broadcast_to(rows, pairs.shape)[pairs],
                           np.broadcast_to(a2, pairs.shape)[pairs]], axis=-1)
        probs, values = arrays(levels, sigma)
        probs, values = probs.reshape(*probs.shape[:-2], -1), values.reshape(len(levels), -1)
        if not (keep := probs > 0).all():
            dropped += int(np.count_nonzero(~keep))
            floor = np.min(values, axis=-1, where=keep, initial=np.inf, keepdims=True)
            probs, values = np.where(keep, probs, 0.0), np.where(keep, values, floor)
        member = np.zeros(pairs.shape, dtype=bool)
        member[pairs] = attentive(values, probs, mu)
        hit = member.any(axis=1)
        first[part][hit] = a2[member.argmax(axis=1)[hit]]
    if dropped:
        warnings.warn(f"dropped {dropped} zero-probability news profiles from the attention "
                      "supports of the scanned policy pairs", stacklevel=3)
    return np.column_stack([a1, first])


def attention_frontier(spec: UtilitySpec, a1_grid, a2_grid, t: float, mu: float,
                       level_probs=(0.5, 0.5)) -> np.ndarray:
    """Indifference frontier of a two-level attention set as a polyline: for
    each a1, the smallest grid a2 > a1 at which voter t, judging each pair
    under its profile belief, pays attention (NaN when none does)."""
    return frontier_scan(a1_grid, a2_grid, mu, level_probs,
                         partial(_profile_arrays, spec, t=t), 4)


def attention_frontier_noisy(tech: NewsTechnology, spec: UtilitySpec, a1_grid, a2_grid,
                             t: float, mu: float, level_probs=(0.5, 0.5)) -> np.ndarray:
    """Noisy-news counterpart of ``attention_frontier``: each pair is judged
    under its signal belief, without its zero-probability news profiles."""
    return frontier_scan(a1_grid, a2_grid, mu, level_probs,
                         partial(posterior_value_matrix, tech, spec, t=t), 4 * tech.k ** 2)


def attention_set(scenario: Scenario, a1_grid, a2_grid, t: float) -> np.ndarray:
    """Frontier of voter t's attention set in the scenario's game:
    ``frontier_scan`` of the game row's array rule at t and the scenario's
    mu, with the two candidate types' probabilities as the probabilities of
    the levels a1 < a2.  Refused: what ``_admitted_game`` refuses, then the
    commitment game and a scenario without exactly two candidate types."""
    row = _admitted_game(scenario)
    if game_of(scenario) == "commitment":
        raise ValidationError("attention-set scans the baseline and noisy games, "
                              "not the scenario's commitment game")
    if (n := len(scenario.beta_types.types)) != 2:
        raise ValidationError("attention-set scans two policy levels, one per candidate "
                              f"type, but the scenario has {n} candidate types")
    k = scenario.news.k if scenario.news else 1
    return frontier_scan(a1_grid, a2_grid, scenario.mu, scenario.beta_types.type_probs,
                         partial(row.arrays, t=t), 4 * k ** 2)


def _median_differential(spec: UtilitySpec, a_values) -> float:
    """Median-voter utility spread u(a_1, 0) - u(a_N, 0) of a policy matrix."""
    a = tuple(a_values)
    return float(utility(spec, a[0], 0.0) - utility(spec, a[-1], 0.0))


def truncation_statistic(
    scenario: Scenario, records: list[EquilibriumRecord], t: float
) -> tuple[tuple[EquilibriumRecord, ...], float | None]:
    """Equilibria that retain voter t's attention at the scenario's mu, and
    the smallest median-utility spread among them (None when the set is
    empty): ``attentive`` on voter t's ``game_belief`` per record, so refused
    where the scenario's game does not admit the records' assignments."""
    beliefs = (game_belief(scenario, r.assignment, t) for r in records)
    kept = tuple(r for r, b in zip(records, beliefs) if attentive(b.values, b.probs, scenario.mu))
    if not kept:
        return kept, None
    return kept, min(_median_differential(scenario.utility, r.assignment.levels) for r in kept)
