"""Model extensions: costly dissemination and two-issue games.

Each extension rewrites a piece of the baseline game (an equilibrium filter,
an augmented single-issue utility) and then reuses the same solver and
enumeration machinery.  Limited commitment is one of the three games of
``election``'s game table.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import EXACT, Scenario, TabulatedUtility, UtilitySpec, ValidationError, grid_floats
from .solver import entropy

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .election import EquilibriumRecord


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
    if records:
        h_max = max(entropy(r.assignment.sigma.ravel()) for r in records)
        if not 0.0 < cost < h_max:
            warnings.warn(
                f"dissemination cost {cost} outside (0, {h_max:.6g}); "
                "the filter degenerates",
                stacklevel=2,
            )
    return tuple(r for r in records if r.total_info >= cost - EXACT)


# ---------------------------------------------------------------------------
# Two issues reduced to one
# ---------------------------------------------------------------------------

def quarter_circle_frontier() -> Callable:
    """Preset frontier b = B(a), the issues' feasible trade-off: a quarter
    circle of radius 2 centred at (-1, -1), flat at a = -1 and vertical at 1."""

    def b(a):
        x = np.asarray(a, dtype=float) + 1.0
        return -1.0 + np.sqrt(np.maximum(4.0 - x * x, 0.0))

    return b


def tabulated_frontier(a_points, b_points) -> Callable:
    """Shape-preserving (monotone cubic) interpolation of frontier samples.

    Fritsch-Carlson (1980) Hermite cubic with PCHIP's slopes: weighted
    harmonic means of the secants inside, one-sided three-point estimates at
    the ends, zeroed where they would turn upward.  Outside the samples the
    end pieces extend.  The secants of decreasing samples are all negative,
    so the rule's sign-change cases never arise.
    """
    a = grid_floats(a_points, "frontier a samples")
    bv = grid_floats(b_points, "frontier b samples", increasing=False)
    if a.ndim != 1 or a.shape != bv.shape or a.size < 3:
        raise ValidationError("frontier table needs matching 1-d samples (>= 3)")
    if np.any(np.diff(bv) >= 0):
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

    def b(x):
        k = np.minimum(np.maximum(np.searchsorted(a, x, side="right") - 1, 0), a.size - 2)
        s = np.asarray(x, dtype=float) - a[k]
        return ((c3[k] * s + c2[k]) * s + d[k]) * s + bv[k]

    return b


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
    while (live := b - a > tol).any():
        # a live bracket whose peak lies left of d keeps [a, d] and probes a new c,
        # the others keep [c, b] and probe a new d; a finished one's probes go unread
        up = fc >= fd
        left, right = live & up, live & ~up
        a, b = np.where(right, c, a), np.where(left, d, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = f(x)
        c, fc, d, fd = (np.where(up, x, d), np.where(up, fx, fd),
                        np.where(up, c, x), np.where(up, fc, fx))
    return (0.5 * (a + b))[()]


@dataclass(frozen=True)
class MultiIssueReduction:
    """Augmented single-issue economy produced from a two-issue utility."""

    a_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    uhat_table: np.ndarray            # shape (len(t_grid), len(a_grid))
    tangency: tuple[float, ...]       # argmax of uhat(., t) per sampled type
    problems: tuple[str, ...]         # failed monotonicity/concavity checks
    sid_ok: bool | None               # None unless the sign conditions held

    def utility_spec(self, **spec_kwargs) -> UtilitySpec:
        """Tabulated voter utility for the augmented single-issue game."""
        table = TabulatedUtility(self.a_grid, self.t_grid, tuple(map(tuple, self.uhat_table.T)))
        return UtilitySpec(family="table", table=table, **spec_kwargs)


def multi_issue_reduce(u2, frontier: Callable, a_grid=None, t_grid=None,
                       lattice: int = 21) -> MultiIssueReduction:
    """Collapse a two-issue utility onto the frontier.

    Audits monotonicity of ``u2`` in both issues and the single-crossing
    condition (the indifference-curve slope -u2_a/u2_b must strictly increase
    in the type) on a coarse lattice, refusing on the first violation.  The
    augmented utility uhat(a, t) = u2(a, B(a), t) is tabulated on ``a_grid``,
    tangency points are located by golden-section search, and the shape
    properties expected of uhat are verified by finite differences.
    The grids must be finite and strictly increasing; ``u2(a, b, t)`` and the
    frontier must broadcast as ``rivote.utility`` does: each audit is one call.
    """
    a_grid = grid_floats(np.linspace(-1.0, 1.0, 200) if a_grid is None else a_grid, "a_grid")
    t_grid = grid_floats(np.linspace(-1.0, 1.0, 21) if t_grid is None else t_grid, "t_grid")
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

    table = u2(a_grid[None, :], frontier(a_grid)[None, :], t_grid[:, None])
    tangency = golden_max(lambda a: u2(a, frontier(a), t_grid), np.full(t_grid.shape, -1.0), 1.0)
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
        a_grid=tuple(map(float, a_grid)), t_grid=tuple(map(float, t_grid)), uhat_table=table,
        tangency=tuple(map(float, tangency)), problems=tuple(problems), sid_ok=sid_ok,
    )
