"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the library's solution formulas: the attention
oracle maximises the net objective by exhaustive grid search, the Bayes
oracle builds the full joint table, the utility oracle reads one point at a
time, the winner oracle counts one group's scalar vote at a time, and the
incentive oracle walks grid x opponent types one scalar payoff at a time.
The solver, news-audit, news-posterior and noisy-frontier oracles are the
library's earlier loops: one first-order-condition evaluation per bisection
step, one policy and one 2x2 log minor at a time, one news profile and one
policy pair at a time; the exponential-moment oracle is the library's
earlier ``log_mean_exp``, on numpy's ``max`` and ``sum``, and the
mutual-information oracle its earlier body, one ``binary_entropy`` call for
E[m] and one for m.  The two-issue oracle calls ``u2`` and the frontier one
scalar point at a time.  The equilibrium oracle is the library's earlier
exhaustive search: every map of the game's strategy set scored by
``ICKernel.gaps`` in chunks (``passing``), with no pruning.  The Downsian
winner, a voter at t = 0, is the textbook rule that a symmetric electorate
with a group at 0 reproduces.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from rivote import core, election
from rivote.core import (
    EXACT,
    TOL,
    NumericError,
    Scenario,
    UtilitySpec,
    ValidationError,
    utility,
    winning_prob,
)
from rivote.election import StrategyAssignment, value_matrix
from rivote.solver import (
    _MAX_BISECT,
    _MBAR_FLOOR,
    AttentionSolution,
    BeliefOverProfiles,
    attention_membership,
    binary_entropy,
)


def _h(m):
    """Bernoulli entropy, safe at 0 and 1."""
    return -(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m))


def _best_on(grids, probs, values, mu, dtype=np.float64):
    """Best net objective on the product of four grids, and where it is.

    Scored in ``dtype``: one point of the first axis per step, over blocks of
    eight points of the second axis, small enough to stay in cache, with each
    step's temporaries written in place.  The entropy uses logs clipped at the
    dtype's smallest normal, so it is exact inside and 0 at the endpoints.
    """
    per = [(p * (g * v + mu * _h(g))).astype(dtype) for g, p, v in zip(grids, probs, values)]
    pm = [(p * g).astype(dtype) for g, p in zip(grids, probs)]
    mu = dtype(mu)
    tiny = np.finfo(dtype).tiny
    best = -math.inf
    best_point = None
    for lo in range(0, len(grids[1]), 8):
        # the last three axes' objective and mean attention, less the first axis's
        obj = per[1][lo:lo + 8, None, None] + per[2][:, None] + per[3]
        m = pm[1][lo:lo + 8, None, None] + pm[2][:, None] + pm[3]
        x, y, log = (np.empty_like(m) for _ in range(3))
        for i0, (o0, s0) in enumerate(zip(per[0], pm[0])):
            np.add(m, s0, out=x)
            np.subtract(1.0, x, out=y)
            np.maximum(x, tiny, out=x)
            np.maximum(y, tiny, out=y)
            x *= np.log(x, out=log)
            y *= np.log(y, out=log)
            x += y
            x *= mu
            x += obj  # the net objective, less o0
            flat = int(np.argmax(x))
            if x.flat[flat] + o0 > best:
                best = float(x.flat[flat] + o0)
                i1, i2, i3 = np.unravel_index(flat, x.shape)
                best_point = (grids[0][i0], grids[1][lo + i1], grids[2][i2], grids[3][i3])
    return best, best_point


def brute_force_objective_max(values, probs, mu, coarse=0.01, fine=0.0005):
    """Grid maximisation of E[m v] - mu * I over four choice probabilities.

    Full sweep at step ``coarse``, then a local refinement at step ``fine``
    around the best coarse point.  The net objective is concave in the
    choice probabilities, so one refinement box suffices; the coarse pass
    only locates it, in single precision, and the refined pass computes the
    value in double precision.  Returns the refined maximum and the coarse
    point.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    assert len(values) == 4

    coarse_grid = np.arange(0.0, 1.0 + coarse / 2, coarse)
    _, point = _best_on([coarse_grid] * 4, probs, values, mu, np.float32)
    fine_grids = [
        np.unique(np.clip(np.arange(c - coarse, c + coarse + fine / 2, fine), 0.0, 1.0))
        for c in point
    ]
    refined, _ = _best_on(fine_grids, probs, values, mu)
    return refined, point


def blahut_arimoto(values, probs, mu, tol=1e-15, max_steps=1_000_000):
    """Optimal attention by the Blahut-Arimoto alternation, for any support.

    With a Shannon cost the voter's problem is a rate-distortion problem, so
    alternating m_i = m_bar e^{x_i} / (m_bar e^{x_i} + 1 - m_bar), x = v/mu,
    with m_bar = sum_i p_i m_i climbs to the optimum from any interior start;
    no first-order condition is solved.  e = exp(-|x|) keeps every step
    finite, and both m and 1 - m are formed directly.  Stops when m_bar moves
    by at most ``tol`` or after ``max_steps``; returns (net objective
    E[m v] - mu I at the final m, m_bar).
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    x = values / mu
    pos = x >= 0
    e = np.exp(-np.abs(x))

    def choice(m_bar):
        """(m, 1 - m) of the logit rule at m_bar."""
        beta = np.where(pos, m_bar, m_bar * e)
        alpha = np.where(pos, (1.0 - m_bar) * e, 1.0 - m_bar)
        return beta / (beta + alpha), alpha / (beta + alpha)

    m_bar = 0.5
    for _ in range(max_steps):
        new = min(float(np.dot(probs, choice(m_bar)[0])), 1.0)  # sum(p) may round above 1
        done = abs(new - m_bar) <= tol
        m_bar = new
        if done:
            break
    m, rest = choice(m_bar)
    # I = H(m_bar) - sum_i p_i H(m_i), with 0 log 0 = 0
    info = -(xlogy(m_bar, m_bar) + xlogy(1.0 - m_bar, 1.0 - m_bar))
    info += float(np.dot(probs, xlogy(m, m) + xlogy(rest, rest)))
    return float(np.dot(probs, m * values)) - mu * info, m_bar


def random_tp2_technology(rng, n_policies=4, k=None):
    """Symmetric technology with strictly log-supermodular rows.

    log f(w|a) = g(a) h(w) + c(w) - normaliser, with g and h increasing, is
    strictly ratio-ordered in (a, w).
    """
    from rivote.news import NewsTechnology

    k = int(rng.integers(2, 5)) if k is None else k
    signals = tuple(0.02 + np.cumsum(rng.uniform(0.03, 0.2, k)))
    policies = tuple(0.02 + np.cumsum(rng.uniform(0.03, 0.2, n_policies)))
    g = np.cumsum(rng.uniform(0.3, 1.2, n_policies))
    h = np.cumsum(rng.uniform(0.3, 1.2, k))
    c = rng.uniform(-0.5, 0.5, k)
    rows = np.exp(np.outer(g, h) + c)
    rows /= rows.sum(axis=1, keepdims=True)
    return NewsTechnology.from_table(signals, policies, rows), policies


def random_symmetric_sigma(rng, n):
    s = rng.uniform(0.05, 1.0, (n, n))
    sigma = s + s.T
    return sigma / sigma.sum()


def random_kernel(rng, k):
    from rivote.news import MarkovKernel

    m = rng.uniform(0.05, 1.0, (k, k))
    return MarkovKernel(m / m.sum(axis=1, keepdims=True))


def bayes_posterior_differential(levels, level_probs, rows, u_fn, m, n, t):
    """Posterior differential utility by full joint-table enumeration.

    ``rows[i]`` is the signal pmf of candidate beta at policy ``levels[i]``;
    candidate alpha mirrors.  Signal profile (m, n) indexes (alpha, beta)
    report magnitudes.
    """
    num = 0.0
    den = 0.0
    for i, (ai, pi) in enumerate(zip(levels, level_probs)):
        for j, (aj, pj) in enumerate(zip(levels, level_probs)):
            joint = pi * pj * rows[i][m] * rows[j][n]
            v = u_fn(aj, t) - u_fn(-ai, t)
            num += joint * v
            den += joint
    return num / den


# ---------------------------------------------------------------------------
# Scalar utility oracle
# ---------------------------------------------------------------------------

def _table_lookup(table, a: float, t: float) -> float:
    """One table entry by linear search: the first grid point within 1e-12."""
    def index(grid, x, what):
        for i, g in enumerate(grid):
            if abs(g - x) <= EXACT:
                return i
        raise KeyError(f"{what}={x!r} is not on the utility table grid")

    return table.u[index(table.a_values, a, "policy")][index(table.t_values, t, "type")]


def voter_utility(spec: UtilitySpec, a: float, t: float) -> float:
    """u(a, t) for the selected family."""
    if spec.family == "absolute":
        return -abs(t - a)
    if spec.family == "quadratic":
        d = t - a
        return -d * d
    assert spec.table is not None
    return _table_lookup(spec.table, a, t)


def winner_value(spec: UtilitySpec, a: float, t: float) -> float:
    """Utility of a type-t candidate who wins and implements policy a."""
    return spec.office_rent + spec.win_weight * voter_utility(spec, a, t)


def loser_value(spec: UtilitySpec, a_winner: float, t: float) -> float:
    """Utility of a type-t candidate who loses while a_winner is implemented."""
    return -spec.loser_sign * spec.lose_weight * voter_utility(spec, a_winner, t)


# ---------------------------------------------------------------------------
# Perfect-observation winner oracles
# ---------------------------------------------------------------------------

def downsian_winner(spec: UtilitySpec, a_alpha, a_beta) -> np.ndarray:
    """Downs's winner: the policy a voter at t = 0 prefers wins, a tie within
    1e-12 splits.  Beta's winning probability, broadcasting over policy arrays."""
    return winning_prob(utility(spec, a_beta, 0.0) - utility(spec, a_alpha, 0.0), EXACT)


def downsian_matrix(spec: UtilitySpec, a_values) -> np.ndarray:
    """``downsian_winner`` at every profile (-a_i, a_j) of the grid."""
    a = np.asarray(a_values, dtype=float)
    return downsian_winner(spec, -a[:, None], a[None, :])


def majority_winner(scenario: Scenario, x: float, a: float) -> float:
    """Beta's winning probability at the profile (x, a) when every group
    observes it: weight x vote summed group by group with scalar utilities,
    a group within 1e-12 of indifference and a share within 1e-9 of 1/2
    splitting."""
    spec, share = scenario.utility, 0.0
    for t, weight in scenario.electorate.groups:
        share += weight * float(winning_prob(voter_utility(spec, a, t)
                                             - voter_utility(spec, x, t), EXACT))
    return float(winning_prob(share - 0.5, TOL))


def majority_matrix(scenario: Scenario) -> np.ndarray:
    """``majority_winner`` at every profile (-a_i, a_j) of beta's grid, one
    cell at a time."""
    grid = scenario.beta_axis.values
    return np.array([[majority_winner(scenario, -x, a) for a in grid] for x in grid])


# ---------------------------------------------------------------------------
# Scalar incentive-compatibility oracle
# ---------------------------------------------------------------------------

def deviation_gaps(own_types, own_policies, grid, opp_types, opp_probs, opp_policies,
                   win_prob, win_value, lose_value):
    """Per-type slack of the assigned policy over the best grid deviation.

    ``win_prob(opp_policy, own_policy)`` is the candidate's own winning
    probability; ``win_value(a, t)`` and ``lose_value(opp_policy, opp_type, t)``
    price the two outcomes.  A single-point grid leaves infinite slack.
    """
    gaps = []
    for t, a_star in zip(own_types, own_policies):
        payoffs = []
        for a in grid:
            wv = win_value(a, t)
            total = 0.0
            for t2, p2, x2 in zip(opp_types, opp_probs, opp_policies):
                w = win_prob(x2, a)
                total += p2 * (w * wv + (1.0 - w) * lose_value(x2, t2, t))
            payoffs.append(total)
        i_star = grid.index(a_star)
        others = [v for i, v in enumerate(payoffs) if i != i_star]
        gaps.append((t, payoffs[i_star] - max(others) if others else math.inf))
    return gaps


def _two_sided_gaps(scenario: Scenario, assignment: StrategyAssignment, w_beta):
    """Deviation slacks for both candidates given beta's winning-probability
    function ``w_beta(a_alpha, a_beta)``; alpha's game is the mirror."""
    spec = scenario.utility
    b_types = assignment.types
    b_probs = assignment.type_probs
    b_pols = assignment.policies
    a_types = tuple(-t for t in reversed(b_types))
    a_probs = tuple(reversed(b_probs))
    a_pols = tuple(-a for a in reversed(b_pols))

    def win_value(a, t):
        return winner_value(spec, a, t)

    def lose_value(x, _t_opp, t):
        return loser_value(spec, x, t)

    beta = deviation_gaps(
        b_types, b_pols, list(scenario.beta_axis.values),
        a_types, a_probs, a_pols,
        lambda x, a: w_beta(x, a), win_value, lose_value,
    )
    alpha = deviation_gaps(
        a_types, a_pols, list(scenario.beta_axis.alpha_values),
        b_types, b_probs, b_pols,
        lambda x, a: 1.0 - w_beta(a, x), win_value, lose_value,
    )
    return beta, alpha


def commitment_gaps(scenario: Scenario, assignment: StrategyAssignment, eta: float):
    """Both candidates' slacks under limited commitment, by the scalar loop."""
    spec = scenario.utility

    def win_value(a, t):
        return eta * winner_value(spec, a, t) + (1.0 - eta) * winner_value(spec, t, t)

    def lose_value(x, t_opp, t):
        return eta * loser_value(spec, x, t) + (1.0 - eta) * loser_value(spec, t_opp, t)

    def w_beta(x, a):
        return majority_winner(scenario, x, a)

    b_types = assignment.types
    b_probs = assignment.type_probs
    b_pols = assignment.policies
    a_types = tuple(-t for t in reversed(b_types))
    a_probs = tuple(reversed(b_probs))
    a_pols = tuple(-a for a in reversed(b_pols))
    beta = deviation_gaps(
        b_types, b_pols, list(scenario.beta_axis.values),
        a_types, a_probs, a_pols, w_beta, win_value, lose_value,
    )
    alpha = deviation_gaps(
        a_types, a_pols, list(scenario.beta_axis.alpha_values),
        b_types, b_probs, b_pols,
        lambda x, a: 1.0 - w_beta(a, x), win_value, lose_value,
    )
    return beta, alpha


def exhaustive_rows(scenario: Scenario):
    """The game's strategies as grid-index rows in lexicographic order: every
    type -> policy map, or the strictly increasing ones under limited
    commitment."""
    n, k = len(scenario.beta_axis.values), len(scenario.beta_types.types)
    if election.game_of(scenario) == "commitment":
        return itertools.combinations(range(n), k)
    return itertools.product(range(n), repeat=k)


def table_kernel(scenario: Scenario, w=None) -> election.ICKernel:
    """The IC kernel the game table builds for the scenario's game, on the
    winning matrix ``w`` instead of the game's when one is given."""
    game, types = election._admitted_game(scenario), scenario.beta_types
    w = game.w_of(scenario) if w is None else w
    return election.ICKernel(scenario.beta_axis.values, types.type_values,
                             types.type_probs, w, scenario.utility, game.eta)


def passing(kernel: election.ICKernel, rows):
    """The library's earlier unpruned scan: (grid indices, beta's (type,
    slack) pairs) of every incentive compatible row of the iterable ``rows``,
    in its order, scored by ``kernel.gaps`` in chunks of rows within
    ``rivote.core.CHUNK_FLOATS``."""
    size = max(1, core.CHUNK_FLOATS // (len(kernel.types) * len(kernel.grid)))
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, size)):
        beta, alpha = kernel.gaps(np.array(chunk, dtype=np.intp))
        ok = np.minimum(beta.min(axis=1), alpha.min(axis=1)) >= -election.TOL
        for r in np.flatnonzero(ok):
            yield chunk[r], tuple(zip(kernel.types, beta[r].tolist()))


def exhaustive_equilibria(scenario: Scenario):
    """Records of every incentive compatible row of ``exhaustive_rows``,
    scored by ``passing`` without pruning or a cap; perfect observation is
    priced by ``majority_matrix``."""
    noisy = election.game_of(scenario) == "noisy"
    kernel = table_kernel(scenario, None if noisy else majority_matrix(scenario))
    return election.equilibrium_records(scenario, kernel,
                                        passing(kernel, exhaustive_rows(scenario)))


# ---------------------------------------------------------------------------
# Attention solver oracle: one first-order-condition evaluation per step
# ---------------------------------------------------------------------------

def _choice_probs(x: np.ndarray, m_bar: float) -> np.ndarray:
    """Shifted-logit rule m(x) = m_bar e^x / (m_bar e^x + 1 - m_bar), stably."""
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = m_bar / (m_bar + (1.0 - m_bar) * e)
    e = np.exp(x[~pos])
    out[~pos] = m_bar * e / (m_bar * e + 1.0 - m_bar)
    return out


def _foc(x: np.ndarray, probs: np.ndarray, m_bar: float) -> float:
    """E[(e^x - 1) / (m_bar e^x + 1 - m_bar)]: strictly decreasing in m_bar."""
    terms = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    terms[pos] = (1.0 - e) / (m_bar + (1.0 - m_bar) * e)
    e = np.exp(x[~pos])
    terms[~pos] = (e - 1.0) / (m_bar * e + 1.0 - m_bar)
    return float(np.dot(probs, terms))


def log_mean_exp(values, probs, mu: float):
    """log E[exp(values / mu)] over the last axis, the library's earlier body:
    numpy's ``max`` and ``sum`` wrappers and an unconditional broadcast."""
    if not mu > 0:
        raise ValidationError("mu must be positive")
    x = np.asarray(values, dtype=float) / mu
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite scaled payoffs in exponential moment")
    p = np.broadcast_to(np.asarray(probs, dtype=float), x.shape)
    top = np.max(x, axis=-1, keepdims=True)
    at_top = x == top
    m = np.sum(np.where(at_top, p, 0.0), axis=-1, keepdims=True)
    s = np.sum(np.where(at_top, 0.0, p * np.exp(x - top)), axis=-1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + top)[..., 0][()]


def mutual_information(m, probs) -> float:
    """H(E[m]) - E[H(m)] in nats, the library's earlier body: E[m] as a float,
    then one ``binary_entropy`` call for it and one for m."""
    m = np.asarray(m, dtype=float)
    p = np.asarray(probs, dtype=float)
    m_bar = float(np.dot(p, m))
    value = binary_entropy(m_bar) - float(np.dot(p, binary_entropy(m)))
    # exact arithmetic gives value >= 0; rounding can dip a few ulp below
    return max(value, 0.0)


def solve_attention(belief: BeliefOverProfiles, mu: float) -> AttentionSolution:
    """Optimal attention strategy under ``belief`` at marginal cost ``mu``.

    Corner regimes are detected from the exponential-moment inequalities; the
    interior average probability is found by bisection on the first-order
    condition, which is strictly decreasing in the average.
    """
    if not mu > 0:
        raise ValidationError("mu must be positive")
    probs = belief.probs
    n = len(belief.support)

    # log_mean_exp refuses values/mu that are not finite
    if not log_mean_exp(belief.values, probs, mu) >= -EXACT:  # log E[exp(v/mu)] < -1e-12
        return AttentionSolution("corner_zero", 0.0, 0.0, np.zeros(n), 0.0, 0.0)
    if log_mean_exp(-belief.values, probs, mu) < 0.0:  # E[exp(-v/mu)] < 1: always choose beta
        return AttentionSolution("corner_one", 1.0, math.inf, np.ones(n), 0.0, 0.0)

    x = belief.values / mu

    lo, hi = _MBAR_FLOOR, 1.0 - _MBAR_FLOOR
    f_lo = _foc(x, probs, lo)
    f_hi = _foc(x, probs, hi)
    if f_lo <= 0.0:
        m_bar = lo
    elif f_hi >= 0.0:
        m_bar = hi
    else:
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if _foc(x, probs, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        m_bar = 0.5 * (lo + hi)

    m = _choice_probs(x, m_bar)
    residual = abs(float(np.dot(probs, m)) / m_bar - 1.0)
    return AttentionSolution(
        "interior",
        m_bar,
        m_bar / (1.0 - m_bar),
        m,
        mutual_information(m, probs),
        residual,
    )


# ---------------------------------------------------------------------------
# News technology audit oracle: one policy, one 2x2 minor at a time
# ---------------------------------------------------------------------------

def pmf_rows(tech, a_values) -> np.ndarray:
    """The technology's rows, one ``pmf`` call per policy."""
    return np.stack([tech.pmf(a) for a in a_values])


def audit_rows(tech, a_values, warn_zero: bool = True) -> list[str]:
    """Hard violations of the pmf invariants; zero entries only warn."""
    problems = []
    zero_at = []
    for a in a_values:
        row = tech.pmf(a)
        if np.any(row < 0):
            problems.append(f"negative signal probability at policy {a}")
        if abs(float(row.sum()) - 1.0) > EXACT:
            problems.append(f"signal probabilities at policy {a} do not sum to 1")
        if np.any(row == 0):
            zero_at.append(a)
    if zero_at and warn_zero:
        warnings.warn(
            f"technology {tech.label!r} lacks full support at "
            f"{len(zero_at)} policies (first: {zero_at[0]})",
            stacklevel=2,
        )
    return problems


def news_row_problems(tech, a_values) -> list[str]:
    """``audit_news``'s row checks as one loop over the grid's batched rows:
    per policy, a negative entry, then a sum that is not within 1e-12 of 1
    (NaN included)."""
    a = [float(x) for x in a_values]
    problems = []
    for ai, row in zip(a, tech.pmf(np.array(a))):
        if np.any(row < 0):
            problems.append(f"negative signal probability at policy {ai}")
        if not abs(row.sum() - 1.0) <= EXACT:
            problems.append(f"signal probabilities at policy {ai} do not sum to 1")
    return problems


def is_monotone_revealing(tech, a_values) -> bool:
    """Whether every policy maps to exactly one signal, in increasing order."""
    rows = pmf_rows(tech, a_values)
    if not np.all(np.isin(rows, (0.0, 1.0))):
        return False
    if not np.all(rows.sum(axis=1) == 1.0):
        return False
    hits = np.argmax(rows, axis=1)
    return bool(np.all(np.diff(hits) > 0))


@dataclass(frozen=True)
class LogSupermodularityReport:
    ok: bool
    violation: tuple | None = None       # (a, a', w, w') with a<a', w<w'
    indeterminate: tuple | None = None   # first compared cell with zero mass

    def describe(self) -> str:
        if self.ok:
            return "log-supermodular on the audited grid"
        if self.indeterminate is not None:
            a, w = self.indeterminate
            return f"indeterminate: zero probability at policy {a}, signal {w}"
        a, a2, w, w2 = self.violation
        return f"ratio ordering fails for policies ({a}, {a2}) and signals ({w}, {w2})"


def check_log_supermodularity(tech, a_values) -> LogSupermodularityReport:
    """Strict positivity of every 2x2 minor of log f on the policy grid."""
    a = tuple(float(x) for x in a_values)
    rows = pmf_rows(tech, a)
    for (i, i2), (m, m2) in itertools.product(
        itertools.combinations(range(len(a)), 2),
        itertools.combinations(range(tech.k), 2),
    ):
        cells = rows[[i, i, i2, i2], [m, m2, m, m2]]
        if np.any(cells <= 0):
            bad = [(i, m), (i, m2), (i2, m), (i2, m2)][int(np.argmax(cells <= 0))]
            return LogSupermodularityReport(
                False, indeterminate=(a[bad[0]], tech.signals[bad[1]])
            )
        minor = (
            math.log(rows[i, m])
            + math.log(rows[i2, m2])
            - math.log(rows[i, m2])
            - math.log(rows[i2, m])
        )
        if minor <= EXACT:
            return LogSupermodularityReport(
                False, violation=(a[i], a[i2], tech.signals[m], tech.signals[m2])
            )
    return LogSupermodularityReport(True)


def audit_news(tech, a_values) -> list[str]:
    """The pmf problems, then, unless the technology is monotone revealing,
    the ratio-ordering verdict; zero cells warn only in the second case."""
    revealing = is_monotone_revealing(tech, a_values)
    problems = audit_rows(tech, a_values, warn_zero=not revealing)
    if not revealing:
        report = check_log_supermodularity(tech, a_values)
        if not report.ok:
            problems.append(report.describe())
    return problems


# ---------------------------------------------------------------------------
# News posterior and noisy frontier oracles: one profile, one pair at a time
# ---------------------------------------------------------------------------

def posterior_value_matrix(tech, spec: UtilitySpec, levels, sigma, t: float):
    """(P, nu) by a loop over the k x k news profiles; zero-marginal cells NaN."""
    levels = tuple(float(a) for a in levels)
    sigma = np.asarray(sigma, dtype=float)
    f = pmf_rows(tech, levels)
    v = value_matrix(spec, levels, t)
    marginal = f.T @ sigma @ f
    k = tech.k
    nu = np.full((k, k), np.nan)
    for m in range(k):
        for n in range(k):
            if marginal[m, n] <= 0:
                continue
            weights = sigma * np.outer(f[:, m], f[:, n])
            nu[m, n] = float(np.sum((weights / marginal[m, n]) * v))
    return marginal, nu


def signal_belief(tech, spec: UtilitySpec, levels, sigma, t: float):
    """(belief over the positive-probability news profiles, dropped count)."""
    marginal, nu = posterior_value_matrix(tech, spec, levels, sigma, t)
    k = tech.k
    support = []
    probs = []
    values = []
    dropped = 0
    for m in range(k):
        for n in range(k):
            if marginal[m, n] <= 0:
                dropped += 1
                continue
            support.append((-tech.signals[m], tech.signals[n]))
            probs.append(marginal[m, n])
            values.append(nu[m, n])
    return BeliefOverProfiles(tuple(support), np.array(probs), np.array(values)), dropped


def attention_frontier_noisy(tech, spec: UtilitySpec, a1_grid, a2_grid, t: float, mu: float,
                             level_probs=(0.5, 0.5)) -> np.ndarray:
    """Noisy frontier by building one signal belief per (a1, a2) pair."""
    p = np.asarray(level_probs, dtype=float)
    out = np.full((len(a1_grid), 2), np.nan)
    for i, a1 in enumerate(np.asarray(a1_grid, dtype=float)):
        out[i, 0] = a1
        for a2 in np.asarray(a2_grid, dtype=float):
            if a2 <= a1 + EXACT:
                continue
            belief, _ = signal_belief(tech, spec, (a1, a2), np.outer(p, p), t)
            if attention_membership(belief, mu):
                out[i, 1] = a2
                break
    return out


# ---------------------------------------------------------------------------
# Two-issue reduction oracle: one scalar u2 call at a time
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximiser of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _central(f, x: float, h: float = 1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def multi_issue_reduce(u2, frontier, a_grid=None, t_grid=None, lattice: int = 21,
                       tangency_tol: float = 1e-10):
    """The two-issue reduction by per-point central differences and one
    golden-section search per type."""
    from rivote.extensions import MultiIssueReduction

    a_grid = np.linspace(-1.0, 1.0, 200) if a_grid is None else np.asarray(a_grid, float)
    t_grid = np.linspace(-1.0, 1.0, 21) if t_grid is None else np.asarray(t_grid, float)
    lat = np.linspace(-1.0, 1.0, lattice)
    eps = 1e-9

    # monotonicity of u2 in each issue
    for t in (t_grid[0], 0.0, t_grid[-1]):
        for a in lat:
            for b in lat:
                if _central(lambda x: u2(x, b, t), a) <= eps:
                    raise ValidationError(f"u2 is not strictly increasing in a at {(a, b, t)}")
                if _central(lambda x: u2(a, x, t), b) <= eps:
                    raise ValidationError(f"u2 is not strictly increasing in b at {(a, b, t)}")

    # single crossing: -u2_a/u2_b strictly increasing in t
    interior = lat[1:-1]
    for a in interior:
        for b in interior:
            slopes = [
                -_central(lambda x: u2(x, b, t), a) / _central(lambda x: u2(a, x, t), b)
                for t in t_grid
            ]
            for t1, t2, s1, s2 in zip(t_grid, t_grid[1:], slopes, slopes[1:]):
                if s2 <= s1 + EXACT:
                    raise ValidationError(
                        f"single crossing fails at (a, b)={(a, b)}: slope at t={t2} "
                        f"does not exceed slope at t={t1}"
                    )

    def uhat(a: float, t: float) -> float:
        return u2(a, frontier(a), t)

    table = np.array([[uhat(a, t) for a in a_grid] for t in t_grid])
    tangency = tuple(golden_max(lambda a: uhat(a, t), -1.0, 1.0, tangency_tol) for t in t_grid)

    problems: list[str] = []
    for row, t, a_star in zip(table, t_grid, tangency):
        diffs = np.diff(row)
        before = a_grid[1:] <= a_star
        after = a_grid[:-1] >= a_star
        if np.any(diffs[before] <= -eps):
            problems.append(f"uhat(., {t}) is not increasing left of its peak")
        if np.any(diffs[after] >= eps):
            problems.append(f"uhat(., {t}) is not decreasing right of its peak")
        second = np.diff(row, 2)
        if np.any(second > -EXACT):
            problems.append(f"uhat(., {t}) is not strictly concave on the grid")

    # increasing differences only asserted under the sign conditions on u2_at, u2_bt
    u_at = []
    u_bt = []
    for a in interior:
        for b in interior:
            u_at.append(_central(lambda t: _central(lambda x: u2(x, b, t), a), 0.0, 1e-4))
            u_bt.append(_central(lambda t: _central(lambda x: u2(a, x, t), b), 0.0, 1e-4))
    gate = (
        all(x >= -eps for x in u_at)
        and all(x <= eps for x in u_bt)
        and (any(x > eps for x in u_at) or any(x < -eps for x in u_bt))
    )
    sid_ok = None
    if gate:
        inc = np.diff(table, axis=1)
        sid_ok = bool(np.all(np.diff(inc, axis=0) >= -EXACT))

    return MultiIssueReduction(
        a_grid=tuple(float(a) for a in a_grid),
        t_grid=tuple(float(t) for t in t_grid),
        uhat_table=table,
        tangency=tangency,
        problems=tuple(problems),
        sid_ok=sid_ok,
    )
