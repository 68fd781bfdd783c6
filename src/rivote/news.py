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

from .core import EXACT, Scenario, UtilitySpec, ValidationError
from .election import StrategyAssignment, frontier_scan, value_matrix
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
        if problem := stochastic_problem(m):
            raise ValidationError(f"garbling kernel {problem}")

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


def stochastic_problem(rows) -> str | None:
    """Why ``rows`` is not a table of probability distributions (finite,
    nonnegative entries, each row summing to 1 within 1e-12), or None."""
    m = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(m)):
        return "entries must be finite"
    if np.any(m < 0):
        return "entries must be nonnegative"
    if np.any(np.abs(m.sum(axis=-1) - 1.0) > EXACT):
        return "rows must sum to 1"
    return None


class NewsTechnology:
    """Per-policy signal pmf of candidate beta on an increasing signal grid.
    ``row_fn`` must broadcast: policies of shape (...) give rows (..., k)."""

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

    def pmf(self, a) -> np.ndarray:
        """Signal distributions when candidate beta's policy is ``a``: policies
        of shape (...) give rows of shape (..., k)."""
        a = np.asarray(a, dtype=float)
        rows = np.asarray(self._row_fn(a), dtype=float)
        if rows.shape != a.shape + (self.k,):
            raise ValidationError("technology row has the wrong length")
        return rows

    def garbled(self, kernel: MarkovKernel) -> NewsTechnology:
        """Post-compose with a per-candidate kernel; the result is a garble of
        this technology by construction."""
        if kernel.order != self.k:
            raise ValidationError("kernel order does not match the signal grid")
        # one 1 x k product per policy: a policy's row has the same bits
        # alone as in a batch, which one (n, k) @ (k, k) product does not give
        return NewsTechnology(
            self.signals,
            lambda a: (self.pmf(a)[..., None, :] @ kernel.matrix)[..., 0, :],
            label=f"{self.label}+garbled",
        )

    @staticmethod
    def slant(xi: float, signals=(0.25, 0.75)) -> NewsTechnology:
        """Two-signal slanting family: the extreme report comes with
        probability a + xi*(1-a); larger xi means noisier, more slanted news."""
        if not 0.0 < xi < 1.0:
            raise ValidationError("slant parameter must lie in (0, 1)")

        def row(a):
            extreme = a + xi * (1.0 - a)
            return np.stack([1.0 - extreme, extreme], axis=-1)

        return NewsTechnology(signals, row, label=f"slant(xi={xi})")

    @staticmethod
    def from_table(signals, policies, rows) -> NewsTechnology:
        """Tabulated technology: a policy reads the row of the first table
        policy within 1e-12; a policy off the table is a ValidationError."""
        pol = np.array(policies, dtype=float)
        table = np.array(rows, dtype=float)
        if table.shape != (len(pol), len(signals)):
            raise ValidationError("technology table shape does not match its grids")
        if problem := stochastic_problem(table):
            raise ValidationError(f"technology table {problem}")

        def row(a):
            near = np.abs(a[..., None] - pol) <= EXACT
            on_grid = near.any(axis=-1)
            if not np.all(on_grid):
                off = float(a[~on_grid].flat[0])
                raise ValidationError(f"policy {off!r} is not on the technology's grid")
            return table[np.argmax(near, axis=-1)]

        return NewsTechnology(signals, row, label="table")

    @staticmethod
    def revealing(policies) -> NewsTechnology:
        """Fully revealing technology: the signal grid is the policy grid and
        each policy maps to its own signal with probability one."""
        return NewsTechnology.from_table(policies, policies, np.eye(len(policies)))


def audit_news(tech: NewsTechnology, grid) -> list[str]:
    """Why ``tech`` is not admissible on the policy grid (empty if it is): each
    row that is not a signal distribution, then, unless the technology is
    monotone revealing (the noiseless limit), the first empty cell, which
    also warns once, or failed 2x2 log minor over policy, then signal pairs."""
    a = [float(x) for x in grid]
    rows = tech.pmf(np.array(a))
    problems = []
    for ai, row in zip(a, rows):
        if np.any(row < 0):
            problems.append(f"negative signal probability at policy {ai}")
        if not abs(row.sum() - 1.0) <= EXACT:
            problems.append(f"signal probabilities at policy {ai} do not sum to 1")
    if (np.all((rows == 0) | (rows == 1)) and np.all(rows.sum(axis=-1) == 1.0)
            and np.all(np.diff(np.argmax(rows, axis=-1)) > 0)):
        return problems

    if (zero_at := np.flatnonzero(np.any(rows == 0, axis=-1))).size:
        warnings.warn(f"technology {tech.label!r} lacks full support at {zero_at.size} "
                      f"policies (first: {a[zero_at[0]]})", stacklevel=2)
    # math.log, not np.log: numpy's vectorised log can differ in the last bit,
    # and each minor is compared with a 1e-12 threshold
    logf = np.full(rows.shape, np.nan)
    logf[rows > 0] = [math.log(x) for x in rows[rows > 0]]
    i, i2 = (x[:, None] for x in np.triu_indices(len(a), 1))   # policy pairs
    m, m2 = np.triu_indices(tech.k, 1)                          # signal pairs
    minor = logf[i, m] + logf[i2, m2] - logf[i, m2] - logf[i2, m]
    failed = ~(minor > EXACT)                                   # NaN at empty cells
    if np.any(failed):
        p, q = np.unravel_index(np.argmax(failed), failed.shape)
        at = (i[p, 0], i[p, 0], i2[p, 0], i2[p, 0])
        to = (m[q], m2[q], m[q], m2[q])
        if np.any(empty := rows[at, to] <= 0):
            c = np.argmax(empty)
            problems.append(f"indeterminate: zero probability at policy {a[at[c]]}, "
                            f"signal {tech.signals[to[c]]}")
        else:
            problems.append(f"ratio ordering fails for policies ({a[at[0]]}, {a[at[2]]}) "
                            f"and signals ({tech.signals[to[0]]}, {tech.signals[to[1]]})")
    return problems


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
    f = tech.pmf(levels)                                          # (..., L, k)
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
# The noisy-news game's winner and beliefs
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
    rows = tech.pmf(a_values)
    return rows @ downsian_signal_matrix(tech.k) @ rows.T


def news_belief(
    scenario: Scenario, assignment: StrategyAssignment, t: float
) -> BeliefOverProfiles:
    """Belief builder of the noisy-news game: ``signal_belief`` of the
    assignment's played levels under the scenario's technology."""
    return signal_belief(scenario.news, scenario.utility, assignment.levels, assignment.sigma(), t)

