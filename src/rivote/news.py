"""Noisy news technologies over finite signal grids.

A technology gives candidate beta's signal pmf per policy; candidate alpha's
is the mirror image by construction, so the symmetric-environment requirement
holds identically.  Garbling post-composes a Markov kernel per candidate and
preserves the representation, which makes Blackwell comparisons constructive.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT,
    Scenario,
    UtilitySpec,
    ValidationError,
    require_symmetric,
)
from .election import (
    EquilibriumRecord,
    ICKernel,
    StrategyAssignment,
    assignment_rows,
    equilibrium_records,
    frontier_scan,
    game_kernel,
    require_game,
    value_matrix,
)
from .solver import BeliefOverProfiles, attentive


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic garbling kernel on one candidate's signal grid.

    The opposite candidate is garbled by the mirror kernel, so a single
    matrix describes a symmetric garble of the whole technology.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("garbling kernel must be a square matrix")
        if np.any(m < 0):
            raise ValidationError("garbling kernel entries must be nonnegative")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > EXACT:
            raise ValidationError("garbling kernel rows must sum to 1")

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def product(self) -> np.ndarray:
        """Kernel on the product signal space, row-major over (alpha, beta)."""
        return np.kron(self.matrix, self.matrix)

    @staticmethod
    def identity(k: int) -> MarkovKernel:
        return MarkovKernel(np.eye(k))

    @staticmethod
    def uniform(k: int) -> MarkovKernel:
        """Total garbling: every signal is remapped to the uniform draw."""
        return MarkovKernel(np.full((k, k), 1.0 / k))

    @staticmethod
    def slant_shift(lam: float) -> MarkovKernel:
        """Two-signal kernel moving mass ``lam`` from the centrist report to
        the extreme one."""
        if not 0.0 <= lam <= 1.0:
            raise ValidationError("shift weight must lie in [0, 1]")
        return MarkovKernel(np.array([[1.0 - lam, lam], [0.0, 1.0]]))


class NewsTechnology:
    """Per-policy signal pmf of candidate beta on an increasing signal grid."""

    def __init__(self, signals, row_fn, label: str = "custom"):
        sig = tuple(float(w) for w in signals)
        if len(sig) < 2:
            raise ValidationError("a news technology needs at least two signals")
        if sig[0] <= 0 or sig[-1] > 1 or any(b <= a for a, b in zip(sig, sig[1:])):
            raise ValidationError("signals must be strictly increasing in (0, 1]")
        self.signals = sig
        self._row_fn = row_fn
        self.label = label

    @property
    def k(self) -> int:
        return len(self.signals)

    def pmf(self, a: float) -> np.ndarray:
        """Signal distribution when candidate beta's policy is ``a``."""
        row = np.asarray(self._row_fn(float(a)), dtype=float)
        if row.shape != (self.k,):
            raise ValidationError("technology row has the wrong length")
        return row

    def pmf_matrix(self, a_values) -> np.ndarray:
        return np.stack([self.pmf(a) for a in a_values])

    def audit_rows(self, a_values, warn_zero: bool = True) -> list[str]:
        """Hard violations of the pmf invariants; zero entries only warn."""
        problems = []
        zero_at = []
        for a in a_values:
            row = self.pmf(a)
            if np.any(row < 0):
                problems.append(f"negative signal probability at policy {a}")
            if abs(float(row.sum()) - 1.0) > EXACT:
                problems.append(f"signal probabilities at policy {a} do not sum to 1")
            if np.any(row == 0):
                zero_at.append(a)
        if zero_at and warn_zero:
            warnings.warn(
                f"technology {self.label!r} lacks full support at "
                f"{len(zero_at)} policies (first: {zero_at[0]})",
                stacklevel=2,
            )
        return problems

    def garbled(self, kernel: MarkovKernel) -> NewsTechnology:
        """Post-compose with a per-candidate kernel; the result is a garble of
        this technology by construction."""
        if kernel.order != self.k:
            raise ValidationError("kernel order does not match the signal grid")
        base = self._row_fn
        matrix = kernel.matrix
        return NewsTechnology(
            self.signals,
            lambda a: np.asarray(base(a), dtype=float) @ matrix,
            label=f"{self.label}+garbled",
        )

    @staticmethod
    def slant(xi: float, signals=(0.25, 0.75)) -> NewsTechnology:
        """Two-signal slanting family: the extreme report comes with
        probability a + xi*(1-a); larger xi means noisier, more slanted news."""
        if not 0.0 < xi < 1.0:
            raise ValidationError("slant parameter must lie in (0, 1)")

        def row(a: float) -> np.ndarray:
            extreme = a + xi * (1.0 - a)
            return np.array([1.0 - extreme, extreme])

        return NewsTechnology(signals, row, label=f"slant(xi={xi})")

    @staticmethod
    def from_table(signals, policies, rows) -> NewsTechnology:
        pol = tuple(float(a) for a in policies)
        table = np.array(rows, dtype=float)
        if table.shape != (len(pol), len(signals)):
            raise ValidationError("technology table shape does not match its grids")
        return NewsTechnology(signals, _policy_rows(pol, table), label="table")

    @staticmethod
    def revealing(policies) -> NewsTechnology:
        """Fully revealing technology: the signal grid is the policy grid and
        each policy maps to its own signal with probability one."""
        pol = tuple(float(a) for a in policies)
        return NewsTechnology(pol, _policy_rows(pol, np.eye(len(pol))), label="revealing")


def _policy_rows(policies: tuple[float, ...], table: np.ndarray):
    """Row function of a tabulated technology: a policy reads the row of the
    first table policy within 1e-12; one off the table is a ValidationError."""
    pol = np.array(policies)

    def row(a: float) -> np.ndarray:
        hits = np.flatnonzero(np.abs(pol - a) <= EXACT)
        if not hits.size:
            raise ValidationError(f"policy {a!r} is not on the technology's grid")
        return table[hits[0]]

    return row


def is_monotone_revealing(tech: NewsTechnology, a_values) -> bool:
    """Whether every policy maps to exactly one signal, in increasing order.

    Such a technology is the noiseless limit: the ratio-ordering audit is
    vacuous (zero cells everywhere) and the noisy game collapses to the
    baseline one.
    """
    rows = tech.pmf_matrix(a_values)
    if not np.all(np.isin(rows, (0.0, 1.0))):
        return False
    if not np.all(rows.sum(axis=1) == 1.0):
        return False
    hits = np.argmax(rows, axis=1)
    return bool(np.all(np.diff(hits) > 0))


# ---------------------------------------------------------------------------
# Log-supermodularity audit
# ---------------------------------------------------------------------------

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


def check_log_supermodularity(tech: NewsTechnology, a_values) -> LogSupermodularityReport:
    """Strict positivity of every 2x2 minor of log f on the policy grid."""
    a = tuple(float(x) for x in a_values)
    rows = tech.pmf_matrix(a)
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


# ---------------------------------------------------------------------------
# Posteriors and attention over news profiles
# ---------------------------------------------------------------------------

def posterior_value_matrix(
    tech: NewsTechnology, spec: UtilitySpec, levels, sigma, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(P, nu): signal-profile marginal and the posterior differential utility.

    nu[m, n] is the expected differential utility of choosing beta given the
    news profile (-w_m, w_n); cells with zero marginal probability are NaN.
    Broadcasts over leading axes of ``levels`` (..., L) and ``sigma`` (..., L, L).
    """
    levels = np.asarray(levels, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    distinct, at = np.unique(levels, return_inverse=True)
    f = tech.pmf_matrix(distinct)[at.reshape(levels.shape)]      # (..., L, k)
    v = value_matrix(spec, levels, t)
    ft = np.swapaxes(f, -1, -2)
    marginal = ft @ sigma @ f
    positive = marginal > 0
    # weights[..., m, n, i, j] = sigma[i, j] * f[i, m] * f[j, n]
    weights = sigma[..., None, None, :, :] * (ft[..., :, None, :, None] * ft[..., None, :, None, :])
    scale = np.where(positive, marginal, 1.0)[..., None, None]
    terms = (weights / scale) * v[..., None, None, :, :]
    nu = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1)
    return marginal, np.where(positive, nu, np.nan)


def posterior_value(
    tech: NewsTechnology, spec: UtilitySpec, levels, sigma, m: int, n: int, t: float
) -> float:
    """Posterior differential utility at the news profile (-w_m, w_n)."""
    marginal, nu = posterior_value_matrix(tech, spec, levels, sigma, t)
    if marginal[m, n] <= 0:
        raise ValidationError(
            f"news profile ({-tech.signals[m]}, {tech.signals[n]}) has zero "
            "probability; its posterior is undefined"
        )
    return float(nu[m, n])


def signal_belief(
    tech: NewsTechnology, spec: UtilitySpec, levels, sigma, t: float
) -> BeliefOverProfiles:
    """Belief over news profiles with posterior differential values.

    Zero-probability profiles are dropped from the support with a warning.
    """
    marginal, nu = posterior_value_matrix(tech, spec, levels, sigma, t)
    keep = marginal.ravel() > 0
    if dropped := int(np.count_nonzero(~keep)):
        warnings.warn(f"dropped {dropped} zero-probability news profiles from the "
                      "attention support", stacklevel=2)
    profiles = itertools.product((-w for w in tech.signals), tech.signals)
    support = tuple(itertools.compress(profiles, keep))
    return BeliefOverProfiles(support, marginal.ravel()[keep], nu.ravel()[keep])


def attention_frontier_noisy(tech: NewsTechnology, spec: UtilitySpec, a1_grid, a2_grid,
                             t: float, mu: float, level_probs=(0.5, 0.5)) -> np.ndarray:
    """Noisy-news counterpart of ``attention_frontier``: each pair (a1, a2) is
    judged under its signal belief.  A zero-probability news profile is masked
    out (probability 0 and the pair's smallest kept value, so that it adds
    nothing to the exponential moment); one warning counts them over the scan."""
    dropped = 0

    def attentive_pairs(a1, a2, p):
        nonlocal dropped
        levels = np.stack([a1, a2], axis=-1)
        marginal, nu = posterior_value_matrix(tech, spec, levels, np.outer(p, p), t)
        probs, values = marginal.reshape(len(a1), -1), nu.reshape(len(a1), -1)
        keep = probs > 0
        dropped += int(np.count_nonzero(~keep))
        floor = np.min(values, axis=-1, where=keep, initial=np.inf, keepdims=True)
        return attentive(np.where(keep, values, floor), np.where(keep, probs, 0.0), mu)

    out = frontier_scan(a1_grid, a2_grid, mu, level_probs, attentive_pairs, 4 * tech.k ** 2)
    if dropped:
        warnings.warn(f"dropped {dropped} zero-probability news profiles from the attention "
                      "supports of the scanned policy pairs", stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# Noisy equilibrium enumeration
# ---------------------------------------------------------------------------

def downsian_signal_matrix(k: int) -> np.ndarray:
    """Winner as if news were fully revealing: the more centrist report wins,
    equal reports split.  Entry (m, n) is beta's winning probability."""
    w = np.zeros((k, k))
    w[np.tril_indices(k, -1)] = 1.0
    np.fill_diagonal(w, 0.5)
    return w


def expected_winning_matrix(tech: NewsTechnology, a_values) -> np.ndarray:
    """G[i, j]: beta's winning probability when alpha plays -a_i and beta a_j,
    with the winner decided signal-wise by centrism."""
    rows = tech.pmf_matrix(a_values)
    return rows @ downsian_signal_matrix(tech.k) @ rows.T


def _noisy_kernel(scenario: Scenario, types, probs) -> ICKernel:
    w = expected_winning_matrix(scenario.news, scenario.beta_axis.values)
    return game_kernel(scenario, w, types, probs)


def check_ic_noisy(
    scenario: Scenario, assignment: StrategyAssignment
) -> tuple[bool, dict]:
    """Incentive compatibility when winners are decided by news reports."""
    require_game(scenario, "noisy")
    require_symmetric(scenario)
    kernel = _noisy_kernel(scenario, assignment.types, assignment.type_probs)
    return kernel.check(assignment.policies)


def news_belief(
    scenario: Scenario, assignment: StrategyAssignment, t: float
) -> BeliefOverProfiles:
    """Belief builder of the noisy-news game: ``signal_belief`` of the
    assignment's played levels under the scenario's technology."""
    return signal_belief(scenario.news, scenario.utility, assignment.levels, assignment.sigma(), t)


def enumerate_equilibria_noisy(
    scenario: Scenario, max_assignments: int = 200_000
) -> list[EquilibriumRecord]:
    """All pure symmetric equilibria under the scenario's news technology.

    Refuses technologies that fail the pmf or log-supermodularity audits.
    Attached attention solutions live on the news-profile support.
    """
    require_game(scenario, "noisy")
    require_symmetric(scenario)
    tech = scenario.news
    grid = scenario.beta_axis.values
    revealing = is_monotone_revealing(tech, grid)
    problems = tech.audit_rows(grid, warn_zero=not revealing)
    if problems:
        raise ValidationError("news technology rejected: " + "; ".join(problems))
    if not revealing:
        report = check_log_supermodularity(tech, grid)
        if not report.ok:
            raise ValidationError("news technology rejected: " + report.describe())

    rows = assignment_rows(scenario, max_assignments)
    types = scenario.beta_types
    kernel = _noisy_kernel(scenario, types.type_values, types.type_probs)
    return equilibrium_records(scenario, kernel, rows, "noisy", news_belief)
