"""Symmetric electoral competition over finite grids.

Vote aggregation from optimal attention strategies, candidate incentive
checks and exact, pruned enumeration of pure symmetric equilibria for the
baseline, noisy-news and limited-commitment games (one game table, one
kernel), attention-set membership and boundary scans, and the truncation
statistic that drives the comparative statics in the attention cost.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .core import (
    EXACT,
    TOL,
    NumericError,
    Scenario,
    UtilitySpec,
    ValidationError,
    require_symmetric,
    utility,
)
from .solver import (
    AttentionSolution,
    BeliefOverProfiles,
    attention_membership,
    attentive,
    solve_attention,
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
        if any(hi <= lo for lo, hi in zip(types, types[1:])):
            raise ValidationError("types must be strictly increasing")
        if any(p <= 0 for p in probs) or abs(sum(probs) - 1.0) > EXACT:
            raise ValidationError("type probabilities must be positive and sum to 1")
        if any(a <= 0 for a in policies):
            raise ValidationError("beta policies must be positive")

    @property
    def levels(self) -> tuple[float, ...]:
        """Distinct policy values actually played, ascending."""
        return tuple(sorted(set(self.policies)))

    @property
    def level_probs(self) -> tuple[float, ...]:
        levels = self.levels
        return tuple(
            sum(p for a, p in zip(self.policies, self.type_probs) if a == lvl)
            for lvl in levels
        )

    def sigma(self) -> np.ndarray:
        p = np.array(self.level_probs)
        return np.outer(p, p)


def assignment_for(scenario: Scenario, policies: tuple[float, ...]) -> StrategyAssignment:
    """Assignment of the scenario's beta types to the given grid policies."""
    grid = scenario.beta_axis.values
    for a in policies:
        if a not in grid:
            raise ValidationError(f"policy {a!r} is not on candidate beta's grid")
    return StrategyAssignment(
        scenario.beta_types.type_values, scenario.beta_types.type_probs, policies
    )


def game_of(scenario: Scenario) -> str:
    """The game a scenario describes: "noisy" with a news technology,
    "commitment" with eta < 1, else "baseline"."""
    if scenario.news is not None:
        return "noisy"
    return "commitment" if scenario.eta < 1.0 else "baseline"


@dataclass(frozen=True)
class EquilibriumRecord:
    """One symmetric equilibrium with its attention diagnostics; ``belief(t)``
    is voter t's belief in the game that produced it, built once per t."""

    kind: str                      # game_of(scenario): "baseline" | "noisy" | "commitment"
    assignment: StrategyAssignment
    attention: tuple[tuple[float, AttentionSolution], ...]  # (group type, solution)
    attentive: tuple[tuple[float, bool], ...]
    gaps: tuple[tuple[float, float], ...]  # (beta type, deviation slack)
    min_gap: float
    expected_w: np.ndarray         # beta's winning probability per on-path profile
    belief: Callable[[float], BeliefOverProfiles] = field(repr=False, compare=False)

    def total_information(self, weights: dict[float, float]) -> float:
        """Weighted mutual information summed over voter groups (nats)."""
        return sum(weights[t] * sol.info for t, sol in self.attention)


# ---------------------------------------------------------------------------
# Values, beliefs, winners
# ---------------------------------------------------------------------------

def value_matrix(spec: UtilitySpec, a_values, t: float) -> np.ndarray:
    """v[..., i, j] = differential utility of profile (-a_i, a_j) for voter t."""
    a = np.asarray(a_values, dtype=float)
    return utility(spec, a, t)[..., None, :] - utility(spec, -a, t)[..., :, None]


def profile_belief(spec: UtilitySpec, a_values, sigma, t: float) -> BeliefOverProfiles:
    """Belief over on-path policy profiles with voter t's differential values."""
    a = tuple(float(x) for x in a_values)
    sigma = np.asarray(sigma, dtype=float)
    support = tuple((-ai, aj) for ai in a for aj in a)
    return BeliefOverProfiles(support, sigma.ravel(), value_matrix(spec, a, t).ravel())


def on_path_belief(
    scenario: Scenario, assignment: StrategyAssignment, t: float
) -> BeliefOverProfiles:
    """Belief builder of the baseline game: ``profile_belief`` of the
    assignment's played levels."""
    return profile_belief(scenario.utility, assignment.levels, assignment.sigma(), t)


def _winning_prob(margin, tol: float) -> np.ndarray:
    """1 for a positive margin, 0 for a negative one, 1/2 within ``tol`` of 0."""
    return np.where(np.abs(margin) <= tol, 0.5, np.where(margin > 0, 1.0, 0.0))


def downsian_winner(spec: UtilitySpec, a_alpha, a_beta) -> np.ndarray:
    """Perfect-observation winner: the policy the median voter prefers wins.

    Returns beta's winning probability, broadcasting over policy arrays; a
    median tie within 1e-12 splits.
    """
    return _winning_prob(utility(spec, a_beta, 0.0) - utility(spec, a_alpha, 0.0), EXACT)


def downsian_matrix(spec: UtilitySpec, a_values) -> np.ndarray:
    a = np.asarray(a_values, dtype=float)
    return downsian_winner(spec, -a[:, None], a[None, :])


def perfect_observation_winner(scenario: Scenario, a_alpha, a_beta) -> np.ndarray:
    """Winner when every voter observes the profile and best-responds.

    Off-path rule: each voter chooses beta iff their differential utility is
    strictly positive; shares map to {0, 1/2, 1} with the usual tolerance.
    Broadcasts over policy arrays.
    """
    spec = scenario.utility
    share = 0.0
    for t, weight in scenario.electorate.groups:  # a running sum in group order
        share = share + weight * (utility(spec, a_beta, t) - utility(spec, a_alpha, t) > 0.0)
    return _winning_prob(share - 0.5, TOL)


def aggregate_and_rationalize(scenario: Scenario, assignment: StrategyAssignment) -> np.ndarray:
    """Winning matrix implied by every group's optimal attention strategy.

    Solves each voter group's attention problem on the on-path profiles at
    the scenario's mu, forms the weighted vote share per profile and maps it
    to {0, 1/2, 1}.
    """
    require_symmetric(scenario)
    levels = assignment.levels
    sigma = assignment.sigma()
    n = len(levels)
    share = np.zeros((n, n))
    for t, weight in scenario.electorate.groups:
        sol = solve_attention(profile_belief(scenario.utility, levels, sigma, t), scenario.mu)
        share += weight * sol.m.reshape(n, n)
    return _winning_prob(share - 0.5, TOL)


# ---------------------------------------------------------------------------
# Candidate incentive compatibility
# ---------------------------------------------------------------------------

# Most floats any temporary of the IC kernel holds; the search scores its
# rows in chunks that respect it.
IC_CHUNK_FLOATS = 2 ** 15


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
    at = own[:, :, None]
    ub = np.take_along_axis(total, at, 2) - total
    if gain is not None:
        ub += gain[np.arange(own.shape[1]), own]
    np.put_along_axis(ub, at, math.inf, 2)
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
    checked too: where W + W^T != 1 (ties that go to alpha, as in the
    rationalized check) its slack is not beta's mirrored.
    """

    def __init__(self, grid, types, probs, w, spec: UtilitySpec, eta=None):
        self.grid = tuple(grid)
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

    def check(self, policies) -> tuple[bool, dict]:
        """(ok, slack per (candidate, type)) of beta's policies per type;
        policies off beta's grid are refused."""
        if off := [a for a in policies if a not in self.grid]:
            raise ValidationError(f"assigned policy {off[0]!r} is off candidate beta's grid")
        beta, alpha = self.gaps(np.array([[self.grid.index(a) for a in policies]]))
        gaps = dict(zip((("beta", t) for t in self.types), beta[0].tolist()))
        gaps.update(zip((("alpha", t) for t in self.alpha_types), alpha[0].tolist()))
        return min(gaps.values()) >= -TOL, gaps

    @cached_property
    def _open_gains(self) -> np.ndarray:
        """``gains[m, k, a, b]``: the most beta's opponents j < m can add to
        type k's payoff at a over b, each maximised over its policy."""
        pay, (n, size) = self._beta, self._beta.shape[:2]
        gain = np.zeros((n + 1, n, size, size))
        step = max(1, IC_CHUNK_FLOATS // size ** 2)
        for j, k, lo in itertools.product(range(n), range(n), range(0, size, step)):
            part = pay[j, :, k, lo:lo + step, None] - pay[j, :, k, None]
            gain[j + 1, k, lo:lo + step] = part.max(axis=0)
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

    def search(self, follows, max_prefixes: int):
        """(grid indices, beta's (type, slack) pairs) of every incentive
        compatible row, in lexicographic order.  Prefixes grow one type at a
        time by the indices ``follows(last, next)`` allows (all when None),
        over ``max_prefixes`` visited are refused, and a prefix whose ``bound``
        is below -TOL by more than a rounding margin is cut: no completion of
        it can pass.  Complete rows are judged by their exact ``gaps``."""
        n, size = len(self.types), len(self.grid)
        margin = 1e-9 * max(1.0, np.abs(self._beta).max())
        chunk = max(1, IC_CHUNK_FLOATS // (n * size))
        rows, visited = np.zeros((1, 0), dtype=np.intp), 0
        for level in range(1, n + 1):
            allowed = np.ones((len(rows), size), dtype=bool)
            if follows is not None and level > 1:
                allowed &= follows(rows[:, -1:], np.arange(size))
            if (visited := visited + int(allowed.sum())) > max_prefixes:
                raise ValidationError(f"{visited} prefixes exceed the cap {max_prefixes}; "
                                      "raise max_assignments explicitly to search this grid")
            parent, nxt = np.nonzero(allowed)
            rows = np.column_stack([rows[parent], nxt])
            keep, slack = np.ones(len(rows), dtype=bool), np.empty((len(rows), n))
            for lo in range(0, len(rows), chunk):
                part = slice(lo, lo + chunk)
                if level < n:
                    keep[part] = self.bound(rows[part]).min(axis=(1, 2)) >= -TOL - margin
                else:
                    slack[part], alpha = self.gaps(rows[part])
                    keep[part] = np.minimum(slack[part].min(axis=1), alpha.min(axis=1)) >= -TOL
            rows, slack = rows[keep], slack[keep]
        return [(tuple(r), tuple(zip(self.types, s)))
                for r, s in zip(rows.tolist(), slack.tolist())]


def _game(scenario: Scenario):
    """The game table's row for ``game_of(scenario)``: (W builder, eta or
    None, prefix rule, belief builder).

    The three games share one kernel and differ only here: beta's winning
    matrix on the grid (perfect observation, or decided signal-wise under
    news), the commitment level blended into the stage values, the rule
    ``follows(last, next)`` on consecutive types' policy indices (None for
    every map, ``np.less`` for the increasing maps of limited commitment)
    and voter t's belief ``belief(scenario, assignment, t)``.
    news and extensions import this module, so their builders load here.
    """
    from .extensions import commitment_belief
    from .news import expected_winning_matrix, news_belief

    def perfect(s):
        return downsian_matrix(s.utility, s.beta_axis.values)

    def signal_wise(s):
        return expected_winning_matrix(s.news, s.beta_axis.values)

    return {
        "baseline": (perfect, None, None, on_path_belief),
        "noisy": (signal_wise, None, None, news_belief),
        "commitment": (perfect, scenario.eta, np.less, commitment_belief),
    }[game_of(scenario)]


def check_ic(
    scenario: Scenario, assignment: StrategyAssignment, w_source: str = "downsian"
) -> tuple[bool, dict]:
    """Incentive compatibility of a pure symmetric assignment in the
    scenario's game.

    Deviations are priced by the game's winning matrix.  In the baseline game
    ``w_source="rationalized"`` instead takes the on-path cells from
    aggregating optimal attention strategies.  Returns (ok, slack per
    (candidate, type)); maps the game's prefix rule excludes are refused.
    """
    require_symmetric(scenario)
    w_of, eta, follows, _ = _game(scenario)
    policies = np.array(assignment.policies)  # ordered as their grid indices
    if follows is not None and not follows(policies[:-1], policies[1:]).all():
        raise ValidationError("limited commitment requires strictly increasing policies")
    grid = scenario.beta_axis.values
    if w_source == "downsian":
        w = w_of(scenario)
    elif w_source == "rationalized":
        if (game := game_of(scenario)) != "baseline":
            raise ValidationError(f"w_source='rationalized' models the baseline game only, "
                                  f"not the scenario's {game} game")
        levels = assignment.levels
        on_path = aggregate_and_rationalize(scenario, assignment)
        g = np.array(grid)
        w = perfect_observation_winner(scenario, -g[:, None], g[None, :])
        at = np.array([levels.index(a) if a in levels else -1 for a in grid])
        on = at >= 0
        w[np.ix_(on, on)] = on_path[np.ix_(at[on], at[on])]
    else:
        raise ValidationError(f"unknown w_source {w_source!r}")
    kernel = ICKernel(grid, assignment.types, assignment.type_probs, w, scenario.utility, eta)
    return kernel.check(assignment.policies)


# ---------------------------------------------------------------------------
# Equilibrium enumeration
# ---------------------------------------------------------------------------

def equilibrium_records(
    scenario: Scenario,
    kernel: ICKernel,
    scored,
    belief: Callable[[Scenario, StrategyAssignment, float], BeliefOverProfiles],
) -> list[EquilibriumRecord]:
    """One record per (grid indices, beta's (type, slack) pairs) of ``scored``.

    ``belief(scenario, assignment, t)`` builds voter t's belief in the
    scenario's game; each record carries it bound to its assignment and
    cached per t, and attaches every group's attention solution under it at
    the scenario's mu.  A group is attentive unless its solution is the
    ``corner_zero`` regime (``solver.attentive``).
    """
    records = []
    for row, beta_gaps in scored:
        assignment = assignment_for(scenario, tuple(kernel.grid[i] for i in row))
        bound = cache(partial(belief, scenario, assignment))
        attention = tuple(
            (t, solve_attention(bound(t), scenario.mu)) for t, _ in scenario.electorate.groups
        )
        idx = sorted(set(row))
        records.append(EquilibriumRecord(
            kind=game_of(scenario),
            assignment=assignment,
            attention=attention,
            attentive=tuple((t, sol.regime != "corner_zero") for t, sol in attention),
            gaps=beta_gaps,
            min_gap=min(g for _, g in beta_gaps),
            expected_w=kernel.w[np.ix_(idx, idx)],
            belief=bound,
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
    matrix; each record carries the game's beliefs.  A news technology
    that fails ``audit_news`` on the grid is refused.  ``verify_rationalizable``
    (baseline game only) checks that aggregated attention strategies
    reproduce every record's winner.
    """
    require_symmetric(scenario)
    game = game_of(scenario)
    if verify_rationalizable and game != "baseline":
        raise ValidationError(f"verify_rationalizable models the baseline game only, "
                              f"not the scenario's {game} game")
    if game == "noisy":
        from .news import audit_news

        if problems := audit_news(scenario.news, scenario.beta_axis.values):
            raise ValidationError("news technology rejected: " + "; ".join(problems))
    w_of, eta, follows, belief = _game(scenario)
    types = scenario.beta_types
    kernel = ICKernel(scenario.beta_axis.values, types.type_values, types.type_probs,
                      w_of(scenario), scenario.utility, eta)
    records = equilibrium_records(scenario, kernel, kernel.search(follows, max_assignments),
                                  belief)
    if verify_rationalizable:
        for r in records:
            rationalized = aggregate_and_rationalize(scenario, r.assignment)
            if not np.array_equal(rationalized, r.expected_w):
                raise NumericError(
                    "aggregated attention strategies do not rationalize the "
                    f"perfect-observation winner for policies {r.assignment.policies}"
                )
    return records


# ---------------------------------------------------------------------------
# Attention sets
# ---------------------------------------------------------------------------

def frontier_scan(a1_grid, a2_grid, mu: float, level_probs, attentive_pairs,
                  floats_per_pair: int) -> np.ndarray:
    """Rows (a1, first grid a2 > a1 + 1e-12 with ``attentive_pairs(a1, a2, p)``
    true, or NaN), where the callback judges the pairs (a1[i], a2[i]) under
    level probabilities p; a1 is scanned in row chunks that hold
    ``floats_per_pair`` per pair within ``IC_CHUNK_FLOATS``."""
    if not mu > 0:
        raise ValidationError("mu must be positive")
    p = np.asarray(level_probs, dtype=float)
    if p.shape != (2,) or np.any(p <= 0) or abs(float(p.sum()) - 1.0) > EXACT:
        raise ValidationError("level probabilities must be two positive numbers summing to 1")
    a1 = np.asarray(a1_grid, dtype=float)
    a2 = np.asarray(a2_grid, dtype=float)
    first = np.full(a1.shape, np.nan)
    size = max(1, IC_CHUNK_FLOATS // max(1, a2.size * floats_per_pair))
    for lo in range(0, a1.size, size):
        rows = a1[lo:lo + size, None]
        pairs = a2 > rows + EXACT
        if not pairs.any():
            continue
        member = np.zeros(pairs.shape, dtype=bool)
        member[pairs] = attentive_pairs(np.broadcast_to(rows, pairs.shape)[pairs],
                                        np.broadcast_to(a2, pairs.shape)[pairs], p)
        hit = member.any(axis=1)
        first[lo:lo + size][hit] = a2[member.argmax(axis=1)[hit]]
    return np.column_stack([a1, first])


def attention_frontier(spec: UtilitySpec, a1_grid, a2_grid, t: float, mu: float,
                       level_probs=(0.5, 0.5)) -> np.ndarray:
    """Indifference frontier of a two-level attention set as a polyline.

    For each a1, returns the smallest grid a2 > a1 at which voter t pays
    attention (NaN when no grid point qualifies).  Rows are (a1, a2).
    """
    def attentive_pairs(a1, a2, p):
        # per pair, the four profile values in profile_belief's order
        values = value_matrix(spec, np.stack([a1, a2], -1), t).reshape(-1, 4)
        return attentive(values, np.outer(p, p).ravel(), mu)

    return frontier_scan(a1_grid, a2_grid, mu, level_probs, attentive_pairs, 4)


def median_differential(spec: UtilitySpec, a_values) -> float:
    """Median-voter utility spread u(a_1, 0) - u(a_N, 0) of a policy matrix."""
    a = tuple(a_values)
    return float(utility(spec, a[0], 0.0) - utility(spec, a[-1], 0.0))


def truncation_statistic(
    scenario: Scenario, records: list[EquilibriumRecord], t: float
) -> tuple[tuple[EquilibriumRecord, ...], float | None]:
    """Equilibria that retain voter t's attention at the scenario's mu, and
    the smallest median-utility spread among them (None when the set is
    empty); each record is judged under its own belief, ``r.belief(t)``."""
    kept = tuple(r for r in records if attention_membership(r.belief(t), scenario.mu))
    if not kept:
        return kept, None
    return kept, min(median_differential(scenario.utility, r.assignment.levels) for r in kept)
