"""Model extensions: costly dissemination, limited commitment, two-issue games.

Each extension rewrites a piece of the baseline game (an equilibrium filter,
a transformed differential utility, an augmented single-issue utility) and
then reuses the same solver and enumeration machinery.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EXACT, Scenario, TabulatedUtility, UtilitySpec, ValidationError
from .election import EquilibriumRecord, StrategyAssignment, value_matrix
from .solver import BeliefOverProfiles, entropy


# ---------------------------------------------------------------------------
# Costly information dissemination
# ---------------------------------------------------------------------------

def dissemination_filter(
    records: list[EquilibriumRecord], scenario: Scenario
) -> tuple[EquilibriumRecord, ...]:
    """Keep equilibria whose electorate-wide mutual information covers the
    scenario's dissemination cost; without a cost every record is kept.

    The no-loss requirement compares the weighted sum of per-group attention
    levels (nats) against the fixed dissemination cost.
    """
    cost = scenario.dissemination_cost
    if cost is None:
        return tuple(records)
    weights = dict(scenario.electorate.groups)
    if records:
        h_max = max(entropy(r.assignment.sigma().ravel()) for r in records)
        if not 0.0 < cost < h_max:
            warnings.warn(
                f"dissemination cost {cost} outside (0, {h_max:.6g}); "
                "the filter degenerates",
                stacklevel=2,
            )
    return tuple(r for r in records if r.total_information(weights) >= cost - EXACT)


# ---------------------------------------------------------------------------
# Limited commitment
# ---------------------------------------------------------------------------

def commitment_belief(
    scenario: Scenario, assignment: StrategyAssignment, t: float
) -> BeliefOverProfiles:
    """Belief over proposal profiles whose values mix the proposal, weight
    ``scenario.eta``, and the proposer's own type (played when the winner
    reneges)."""
    if any(hi <= lo for lo, hi in zip(assignment.policies, assignment.policies[1:])):
        raise ValidationError("limited commitment requires strictly increasing policies")
    eta = scenario.eta
    spec = scenario.utility
    policies = assignment.policies
    types = assignment.types
    v_pol = value_matrix(spec, policies, t)
    v_typ = value_matrix(spec, types, t)
    values = eta * v_pol + (1.0 - eta) * v_typ
    p = np.array(assignment.type_probs)
    support = tuple((-ai, aj) for ai in policies for aj in policies)
    return BeliefOverProfiles(support, np.outer(p, p).ravel(), values.ravel())


# ---------------------------------------------------------------------------
# Two issues reduced to one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frontier:
    """Feasible trade-off curve b = B(a) between the two issues.

    ``b`` and ``b_prime`` must broadcast over numpy arrays of ``a``, as
    ``rivote.utility`` does.
    """

    b: Callable
    b_prime: Callable
    label: str = "custom"


def quarter_circle_frontier() -> Frontier:
    """Preset frontier: quarter circle of radius 2 centred at (-1, -1), with
    zero slope at a = -1 and unbounded slope at a = 1."""

    def b(a):
        x = np.asarray(a, dtype=float) + 1.0
        return -1.0 + np.sqrt(np.maximum(4.0 - x * x, 0.0))

    def b_prime(a):
        x = np.asarray(a, dtype=float) + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x * x < 4.0, -x / np.sqrt(4.0 - x * x), -np.inf)[()]

    return Frontier(b, b_prime, label="quarter_circle")


def tabulated_frontier(a_points, b_points) -> Frontier:
    """Shape-preserving (monotone cubic) interpolation of frontier samples.

    Fritsch-Carlson (1980) Hermite cubic with PCHIP's slopes: weighted
    harmonic means of the secants inside, one-sided three-point estimates at
    the ends, zeroed where they would turn upward.  Outside the samples the
    end pieces extend.  The secants of decreasing samples are all negative,
    so the rule's sign-change cases never arise.
    """
    a = np.asarray(a_points, dtype=float)
    bv = np.asarray(b_points, dtype=float)
    if a.ndim != 1 or a.shape != bv.shape or a.size < 3:
        raise ValidationError("frontier table needs matching 1-d samples (>= 3)")
    if np.any(np.diff(a) <= 0) or np.any(np.diff(bv) >= 0):
        raise ValidationError("frontier samples must be increasing in a, decreasing in b")
    h = np.diff(a)
    m = np.diff(bv) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.empty_like(bv)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    end, next_ = [0, -1], [1, -2]
    d[end] = np.minimum(
        ((2.0 * h[end] + h[next_]) * m[end] - h[end] * m[next_]) / (h[end] + h[next_]), 0.0
    )
    # p(s) = ((c3 s + c2) s + d[k]) s + b[k] on the piece from a[k], s = x - a[k]
    tilt = (d[:-1] + d[1:] - 2.0 * m) / h
    c3 = tilt / h
    c2 = (m - d[:-1]) / h - tilt

    def piece(x):
        k = np.clip(np.searchsorted(a, x, side="right") - 1, 0, a.size - 2)
        return k, np.asarray(x, dtype=float) - a[k]

    def b(x):
        k, s = piece(x)
        return ((c3[k] * s + c2[k]) * s + d[k]) * s + bv[k]

    def b_prime(x):
        k, s = piece(x)
        return (3.0 * c3[k] * s + 2.0 * c2[k]) * s + d[k]

    return Frontier(b, b_prime, label="table")


def audit_frontier(frontier: Frontier, n: int = 201) -> list[str]:
    """Strict decrease, strict concavity and the endpoint slope conditions,
    checked at sampling resolution on [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, n)
    vals = frontier.b(grid)
    problems = []
    if np.any(np.diff(vals) >= 0):
        problems.append("frontier is not strictly decreasing on the sample")
    slopes = np.diff(vals) / np.diff(grid)
    if np.any(np.diff(slopes) >= 0):
        problems.append("frontier is not strictly concave on the sample")
    h = grid[1] - grid[0]
    if abs(frontier.b_prime(-1.0 + h)) > 2.0 * math.sqrt(h):
        problems.append("frontier slope at the left endpoint is not near zero")
    if frontier.b_prime(1.0 - h) > -0.5 / math.sqrt(h):
        problems.append("frontier slope at the right endpoint is not steep")
    return problems


def weighted_bliss_utility(bliss: float = 2.0, slope: float = 0.5):
    """Preset two-issue utility: concave bliss-point pulls on both issues with
    type-dependent weights; higher types weigh issue b more.  Broadcasts over
    its three arguments."""
    if not 0.0 < slope < 1.0:
        raise ValidationError("weight slope must lie in (0, 1)")

    def u2(a, b, t):
        da, db = a - bliss, b - bliss
        return -(1.0 - slope * t) * (da * da) - (1.0 + slope * t) * (db * db)

    return u2


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol: float = 1e-10):
    """Golden-section maximiser of a unimodal function on [lo, hi].

    Broadcasts over ``lo`` and ``hi``: ``f`` is called on an array of probe
    points, one per bracket, and each bracket takes the steps it would take
    alone until it is no wider than ``tol``.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while np.any(live := b - a > tol):
        # a live bracket whose peak lies left of d keeps [a, d] and probes a new
        # c; the others keep [c, b] and probe a new d
        steps = [live & (fc >= fd), live & ~(fc >= fd)]
        a, b = np.where(steps[1], c, a), np.where(steps[0], d, b)
        x = np.where(steps[0], b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, fc, d, fd = (np.select(steps, [x, d], c), np.select(steps, [fx, fd], fc),
                        np.select(steps, [c, x], d), np.select(steps, [fc, fx], fd))
    return (0.5 * (a + b))[()]


@dataclass(frozen=True)
class MultiIssueReduction:
    """Augmented single-issue economy produced from a two-issue utility."""

    frontier: Frontier
    a_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    uhat_table: np.ndarray            # shape (len(t_grid), len(a_grid))
    tangency: tuple[float, ...]       # argmax of uhat(., t) per sampled type
    problems: tuple[str, ...]         # failed monotonicity/concavity checks
    sid_checked: bool                 # sign conditions for increasing differences held
    sid_ok: bool | None

    def utility_spec(self, **spec_kwargs) -> UtilitySpec:
        """Tabulated voter utility for the augmented single-issue game."""
        table = TabulatedUtility(self.a_grid, self.t_grid, tuple(map(tuple, self.uhat_table.T)))
        return UtilitySpec(family="table", table=table, **spec_kwargs)


def multi_issue_reduce(u2, frontier: Frontier, a_grid=None, t_grid=None, lattice: int = 21,
                       tangency_tol: float = 1e-10) -> MultiIssueReduction:
    """Collapse a two-issue utility onto the frontier.

    Audits monotonicity of ``u2`` in both issues and the single-crossing
    condition (the indifference-curve slope -u2_a/u2_b must strictly increase
    in the type) on a coarse lattice, refusing on the first violation.  The
    augmented utility uhat(a, t) = u2(a, B(a), t) is tabulated on ``a_grid``,
    tangency points are located by golden-section search, and the shape
    properties expected of uhat are verified by finite differences.
    ``u2(a, b, t)`` and the frontier must broadcast over numpy arrays, as
    ``rivote.utility`` does: each audit is one call on a lattice mesh.
    """
    a_grid = np.linspace(-1.0, 1.0, 200) if a_grid is None else np.asarray(a_grid, float)
    t_grid = np.linspace(-1.0, 1.0, 21) if t_grid is None else np.asarray(t_grid, float)
    lat = np.linspace(-1.0, 1.0, lattice)
    interior = lat[1:-1]
    eps = 1e-9

    def gradient(a, b, t, h=1e-5):
        """Central differences of u2 in a and in b."""
        return ((u2(a + h, b, t) - u2(a - h, b, t)) / (2.0 * h),
                (u2(a, b + h, t) - u2(a, b - h, t)) / (2.0 * h))

    # monotonicity of u2 in each issue, on a (t, a, b) mesh
    mt, ma, mb = np.meshgrid([t_grid[0], 0.0, t_grid[-1]], lat, lat, indexing="ij")
    bad = np.argwhere(np.stack(gradient(ma, mb, mt), axis=-1) <= eps)  # C order
    if bad.size:
        point = tuple(float(m[tuple(bad[0, :3])]) for m in (ma, mb, mt))
        raise ValidationError(f"u2 is not strictly increasing in {'ab'[bad[0, 3]]} at {point}")

    # single crossing: -u2_a/u2_b strictly increasing in t, on an (a, b, t) mesh
    u_a, u_b = gradient(*np.meshgrid(interior, interior, t_grid, indexing="ij"))
    slopes = -u_a / u_b
    bad = np.argwhere(slopes[..., 1:] <= slopes[..., :-1] + EXACT)
    if bad.size:
        i, j, k = bad[0]
        raise ValidationError(
            f"single crossing fails at (a, b)={(float(interior[i]), float(interior[j]))}: "
            f"slope at t={float(t_grid[k + 1])} does not exceed slope at t={float(t_grid[k])}"
        )

    table = u2(a_grid[None, :], frontier.b(a_grid)[None, :], t_grid[:, None])
    tangency = golden_max(lambda a: u2(a, frontier.b(a), t_grid),
                          np.full(t_grid.shape, -1.0), 1.0, tangency_tol)
    diffs = np.diff(table, axis=1)
    failed = np.stack([
        np.any((diffs <= -eps) & (a_grid[1:] <= tangency[:, None]), axis=1),
        np.any((diffs >= eps) & (a_grid[:-1] >= tangency[:, None]), axis=1),
        np.any(np.diff(table, 2, axis=1) > -EXACT, axis=1),
    ], axis=1)
    shapes = ("increasing left of its peak", "decreasing right of its peak",
              "strictly concave on the grid")
    problems = [f"uhat(., {t}) is not {shape}"
                for t, row in zip(t_grid, failed) for shape, flag in zip(shapes, row) if flag]

    # increasing differences only asserted under the sign conditions on u2_at, u2_bt
    h_t = 1e-4
    mesh = np.meshgrid(interior, interior, [-h_t, h_t], indexing="ij")
    u_at, u_bt = (np.diff(g, axis=-1) / (2.0 * h_t) for g in gradient(*mesh))
    gate = bool(np.all(u_at >= -eps) and np.all(u_bt <= eps)
                and (np.any(u_at > eps) or np.any(u_bt < -eps)))
    sid_ok = bool(np.all(np.diff(diffs, axis=0) >= -EXACT)) if gate else None

    return MultiIssueReduction(
        frontier=frontier, a_grid=tuple(map(float, a_grid)), t_grid=tuple(map(float, t_grid)),
        uhat_table=table, tangency=tuple(map(float, tangency)), problems=tuple(problems),
        sid_checked=gate, sid_ok=sid_ok,
    )
