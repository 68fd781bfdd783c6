"""Noisy news technologies over finite signal grids.

A technology gives candidate beta's signal pmf per policy; candidate alpha's
is the mirror image by construction, so the symmetric-environment requirement
holds identically.  Garbling post-composes a Markov kernel per candidate and
preserves the representation, which makes Blackwell comparisons constructive.
``posterior_value_matrix`` is the noisy game's voter rule in ``election``'s game table.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (EXACT, UtilitySpec, ValidationError, _grid_index, grid_floats, value_matrix,
                   winning_prob)
from .solver import BeliefOverProfiles, belief_batch


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Row-stochastic garbling kernel on one candidate's signal grid.

    The opposite candidate is garbled by the mirror kernel, so a single
    matrix describes a symmetric garble of the whole technology.  Compared by identity.
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


def _row_faults(rows) -> tuple[np.ndarray, np.ndarray]:
    """The one signal-row rule, row by row: (has a negative entry, does not
    sum to 1 within 1e-12); a NaN or infinite entry puts its row's sum off."""
    return np.any(rows < 0, axis=-1), ~(np.abs(rows.sum(axis=-1) - 1.0) <= EXACT)


def stochastic_problem(rows) -> str | None:
    """Why ``rows`` is not a table of probability distributions (finite,
    nonnegative entries, each row summing to 1 within 1e-12), or None."""
    m = np.asarray(rows, dtype=float)
    if not np.isfinite(m).all():
        return "entries must be finite"
    negative, off = _row_faults(m)
    if negative.any():
        return "entries must be nonnegative"
    return "rows must sum to 1" if off.any() else None


class NewsTechnology:
    """Per-policy signal pmf of candidate beta on an increasing signal grid.
    ``row_fn`` must broadcast: policies of shape (...) give rows (..., k)."""

    def __init__(self, signals, row_fn, label: str = "custom"):
        sig = tuple(float(w) for w in signals)
        if len(sig) < 2:
            raise ValidationError("a news technology needs at least two signals")
        if not (0 < grid_floats(sig, "signals")[0] and sig[-1] <= 1):
            raise ValidationError("signals must lie in (0, 1]")
        self.signals = sig
        self._row_fn = row_fn
        self.label = label

    def _key(self) -> tuple:
        """What ``==`` reads: the signals, the label and the rule, a ``partial``
        by function and arguments (arrays by value), else itself."""
        rule = self._row_fn
        parts = ((rule.func, *rule.args, *rule.keywords, *rule.keywords.values())
                 if isinstance(rule, partial) else (rule,))
        return self.signals, self.label, *(
            (p.shape, tuple(p.ravel().tolist())) if isinstance(p, np.ndarray) else p for p in parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, NewsTechnology) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.signals, self.label))  # what equal technologies share

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
        return NewsTechnology(self.signals, partial(_garbled_rows, self, kernel.matrix),
                              label=f"{self.label}+garbled")

    @staticmethod
    def slant(xi: float, signals=(0.25, 0.75)) -> NewsTechnology:
        """Two-signal slanting family: the extreme report comes with
        probability a + xi*(1-a); larger xi means noisier, more slanted news."""
        if not 0.0 < xi < 1.0:
            raise ValidationError("slant parameter must lie in (0, 1)")
        return NewsTechnology(signals, partial(_slant_rows, xi), label=f"slant(xi={xi})")

    @staticmethod
    def from_table(signals, policies, rows) -> NewsTechnology:
        """Tabulated technology on a strictly increasing policy grid: a policy
        reads the row of the grid point within 1e-12, else is refused."""
        pol = grid_floats(policies, "technology policy grid")
        table = np.array(rows, dtype=float)
        if table.shape != (len(pol), len(signals)):
            raise ValidationError("technology table shape does not match its grids")
        if problem := stochastic_problem(table):
            raise ValidationError(f"technology table {problem}")
        return NewsTechnology(signals, partial(_table_rows, pol, table), label="table")

    @staticmethod
    def revealing(policies) -> NewsTechnology:
        """Fully revealing technology: the signal grid is the policy grid and
        each policy maps to its own signal with probability one."""
        return NewsTechnology.from_table(policies, policies, np.eye(len(policies)))


def _slant_rows(xi: float, a):
    extreme = a + xi * (1.0 - a)
    return np.stack([1.0 - extreme, extreme], axis=-1)


def _table_rows(pol, table, a):
    return table[_grid_index(pol, a, "policy {!r} is not on the technology's grid")]


def _garbled_rows(tech: NewsTechnology, matrix, a):
    # one 1 x k product per policy: a policy's row has the same bits
    # alone as in a batch, which one (n, k) @ (k, k) product does not give
    return (tech.pmf(a)[..., None, :] @ matrix)[..., 0, :]


def audit_news(tech: NewsTechnology, grid) -> list[str]:
    """Why ``tech`` is not admissible on the policy grid (empty if it is): each
    row that is not a signal distribution, then, unless the technology is
    monotone revealing (the noiseless limit), the first empty cell, which
    also warns once, or failed 2x2 log minor over policy, then signal pairs."""
    a = [float(x) for x in grid]
    rows = tech.pmf(np.array(a))
    negative, off = _row_faults(rows)
    problems = [msg for i in np.flatnonzero(negative | off) for msg, bad in (
        (f"negative signal probability at policy {a[i]}", negative[i]),
        (f"signal probabilities at policy {a[i]} do not sum to 1", off[i])) if bad]
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


def signal_belief(
    tech: NewsTechnology, spec: UtilitySpec, levels, sigma, t: float
) -> BeliefOverProfiles:
    """Belief over news profiles with posterior differential values: the one-type
    ``belief_batch`` of ``posterior_value_matrix``, zero-probability profiles dropped."""
    support, probs, values = belief_batch(partial(posterior_value_matrix, tech, spec),
                                          levels, sigma, [t], tech.signals)
    return BeliefOverProfiles(support, probs, values[0])


# ---------------------------------------------------------------------------
# The noisy-news game's winner
# ---------------------------------------------------------------------------

def expected_winning_matrix(tech: NewsTechnology, a_values) -> np.ndarray:
    """G[i, j]: beta's winning probability when alpha plays -a_i and beta a_j,
    with the winner decided signal-wise by centrism: the more centrist report
    wins, and ``winning_prob`` splits equal reports."""
    rows, w = tech.pmf(a_values), np.array(tech.signals)
    return rows @ winning_prob(w[:, None] - w[None, :], EXACT) @ rows.T
