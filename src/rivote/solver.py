"""Single-voter attention problem with a mutual-information cost.

The voter chooses, state by state, the probability of picking candidate beta.
The optimum is either a corner (ignore politics, vote deterministically) or an
interior shifted-logit rule whose average probability solves a one-dimensional
monotone fixed point.  All exponential moments are evaluated with max-shifted
exponentials so small attention costs cannot overflow.  Every solve goes
through ``solve_groups``; one belief is its one-row case.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import EXACT, NumericError, ValidationError, chunks, probability_floats

Regime = Literal["corner_zero", "corner_one", "interior"]

_MBAR_FLOOR = 1e-12
_MAX_BISECT = 200
_MAX_NEWTON = 60
_NEWTON_TOL = 1e-8   # log-odds step below which Newton stops
_U = 2.0 ** -53       # unit roundoff


def entropy(probs) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0; NaN and inf are refused."""
    p = np.asarray(probs, dtype=float)
    if not np.all((p >= 0) & (p < math.inf)):
        raise ValidationError("probabilities must be finite and nonnegative")
    nz = p[p > 0]
    return float(-np.dot(nz, np.log(nz)))


def binary_entropy(m) -> np.ndarray | float:
    """Entropy of a Bernoulli(m) decision, elementwise, in nats; refuses NaN, inf."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValidationError("decision probabilities must be finite")
    out = np.zeros_like(m)
    inner = (m > 0) & (m < 1)
    mi = m[inner]
    out[inner] = -(mi * np.log(mi) + (1.0 - mi) * np.log1p(-mi))
    return float(out) if out.ndim == 0 else out


def mutual_information(m, probs) -> float:
    """Mutual information (nats) between the state and a binary decision.

    ``m``, one 1-D row, gives the per-state probability of the beta decision,
    ``probs`` the state distribution; H(state) minus the mean posterior entropy,
    computed on the decision side by one ``binary_entropy`` call: H(p.m) - E[H(m)].
    """
    m = np.asarray(m, dtype=float)
    p = np.asarray(probs, dtype=float)
    # E[m] = p . m, not the bisection's m_bar, which differs from it in the last bits
    h = binary_entropy(np.concatenate((m, [np.dot(p, m)])))
    value = float(h[-1]) - float(np.dot(p, h[:-1]))
    # exact arithmetic gives value >= 0; rounding can dip a few ulp below
    return max(value, 0.0)


@dataclass(frozen=True, eq=False)
class BeliefOverProfiles:
    """A finite belief over profiles together with the voter's payoff gains.

    ``values[k]`` is the differential utility of choosing beta at support
    point ``support[k]``; ``probs`` must be strictly positive and sum to one.
    Compared by identity.
    """

    support: tuple
    probs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        probs = probability_floats(self.probs, "support probabilities")
        values = np.array(self.values, dtype=float)
        probs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "values", values)
        n = len(self.support)
        if probs.shape != (n,) or values.shape != (n,):
            raise ValidationError("support, probs and values must have equal length")
        if len(set(self.support)) != n:
            raise ValidationError("support points must be distinct")


def belief_batch(arrays, levels, sigma, ts, signals=None) -> tuple:
    """(support, probs, values[len(ts), n]) of the voter types ``ts`` under a game's
    array rule ``arrays(levels, sigma, t) -> (probs, values)``, in ``chunks`` of L^2
    floats per type, (k L)^2 under k news ``signals``: profiles (-a_i, a_j) of the
    levels, or (-w_m, w_n) of the signals without the zero-probability ones (warned)."""
    levels, ts = tuple(map(float, levels)), np.asarray(ts, dtype=float)
    labels = levels if signals is None else signals
    floats = (len(levels) * (len(labels) if signals else 1)) ** 2
    parts = [arrays(levels, sigma, ts[part, None]) for part in chunks(len(ts), floats)]
    support = tuple(itertools.product([-w for w in labels], labels))
    probs = np.asarray(parts[0][0], dtype=float).ravel()
    values = [v.reshape(len(v), -1) for _, v in parts]
    values = values[0] if len(values) == 1 else np.concatenate(values)
    if signals is not None and not (keep := probs > 0).all():
        warnings.warn(f"dropped {np.count_nonzero(~keep)} zero-probability news profiles "
                      "from the attention support", stacklevel=3)
        support = tuple(itertools.compress(support, keep))
        probs, values = probs[keep], values[:, keep]
    return support, probs, values


@dataclass(frozen=True, eq=False)
class AttentionSolution:
    """Optimal attention strategy for one voter under one belief, compared by identity."""

    regime: Regime
    m_bar: float                 # average probability of choosing beta
    likelihood_ratio: float      # m_bar / (1 - m_bar); inf at the upper corner
    m: np.ndarray                # per-support-point choice probabilities
    info: float                  # mutual information spent, in nats
    residual: float              # fixed-point residual |E[m]/m_bar - 1|

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def objective(self, belief: BeliefOverProfiles, mu: float) -> float:
        """Expected gain net of the attention cost, E[m*v] - mu*I."""
        return float(np.dot(belief.probs, self.m * belief.values)) - mu * self.info


def log_mean_exp(values, probs, mu: float):
    """log E[exp(values / mu)] over the last axis; ``probs`` broadcasts against
    ``values`` by numpy's rules, with the same shape or a trailing one ((n,) for
    (g, n) values).  The mass m at the maximum is split out of the max-shifted
    sum s of the other points, log1p(s / m) + log(m) + max, which keeps full
    precision when one point dominates.  ``probs`` must be positive; a ``mu``
    that is not positive is a ValidationError.
    """
    if not mu > 0:
        raise ValidationError("mu must be positive")
    x = np.asarray(values, dtype=float) / mu
    if not np.isfinite(x).all():
        raise NumericError("non-finite scaled payoffs in exponential moment")
    p = np.asarray(probs, dtype=float)
    # ufunc reductions, not np.max and np.sum, whose dispatch dominates a short row
    top = np.maximum.reduce(x, axis=-1, keepdims=True)
    at_top = x == top
    m = np.add.reduce(np.where(at_top, p, 0.0), axis=-1, keepdims=True)
    s = np.add.reduce(np.where(at_top, 0.0, p * np.exp(x - top)), axis=-1, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + top)[..., 0][()]


def attentive(values, probs, mu: float):
    """The one attentiveness rule: E[exp(values / mu)] >= 1, up to 1e-12; a voter who
    fails it ignores politics (``corner_zero``).  Broadcasts like ``log_mean_exp``."""
    return _attends(log_mean_exp(values, probs, mu))


def _attends(log_moment):  # the one threshold on log E[exp(v / mu)]
    return log_moment >= -EXACT


def _radius(probs: np.ndarray, pos: np.ndarray, q: np.ndarray, den: np.ndarray) -> float:
    """R(m) = 2 E(m): twice the rounding bound of ``_bisect`` on
    fl(foc(m)), from the terms q and denominators computed at m."""
    rel = 2 * (len(probs) + 4) * _U + np.where(pos, 0.0, 5 * _U / den)
    return 2.0 * float(np.dot(probs, np.abs(q) * rel)) + 1e-300  # + underflow in the dot


def _foc(probs, pos, e, num, m: float):
    """(foc(m), q, den): the one evaluation of the FOC at the average m, with
    its terms q = num / den and their denominators."""
    den = np.where(pos, m + (1.0 - m) * e, m * e + 1.0 - m)
    q = num / den
    return float(np.dot(probs, q)), q, den


def _window(probs, pos, e, num, lo: float, hi: float) -> tuple[float, float]:
    """Points a < b around the FOC's root that certify the sign of every
    midpoint outside (a, b); a side that does not certify falls back to lo
    or hi, where every midpoint is evaluated."""
    y_lo, y_hi = math.log(lo / (1.0 - lo)), math.log(hi / (1.0 - hi))
    y = 0.0
    for _ in range(_MAX_NEWTON):  # safeguarded Newton in log-odds y = log(m / (1 - m))
        m = 1.0 / (1.0 + math.exp(-y))
        f, q, den = _foc(probs, pos, e, num, m)
        if f > 0.0:
            y_lo = y
        else:
            y_hi = y
        # -F'(m), since d den/dm = num; the 1e-300 keeps the step's division defined
        slope = float(np.dot(probs, q * q)) + 1e-300
        step = f / (slope * m * (1.0 - m))
        y += step
        if abs(step) < _NEWTON_TOL:
            break
        if not y_lo < y < y_hi:
            y = 0.5 * (y_lo + y_hi)
    root = 1.0 / (1.0 + math.exp(-y))
    w = 2.0 * _radius(probs, pos, q, den) / slope
    a, b = max(root - w, lo), min(root + w, hi)
    if a > lo:
        f, q, den = _foc(probs, pos, e, num, a)
        if not f > _radius(probs, pos, q, den):
            a = lo
    if b < hi:
        f, q, den = _foc(probs, pos, e, num, b)
        if not -f > _radius(probs, pos, q, den):
            b = hi
    return a, b


def _bisect(probs, pos, e, num) -> float:
    """Bisection of the FOC on [floor, 1 - floor] in plain float halvings;
    ``_foc`` is evaluated at the two floors, by ``_window`` and at the
    midpoints inside the window only.

    F(m) = E[(e^x - 1) / (m e^x + 1 - m)], x = v / mu, is strictly decreasing
    in the average m.  e = exp(-|x|) and the numerators num are computed once
    per row; a step evaluates the denominators only, den = m + (1 - m) e
    where x >= 0 (divided through by e^x so that nothing overflows) and
    m e + 1 - m where x < 0, and foc(m) = fl(sum p q), q = num / den.

    The bisection's bits depend only on the sign of foc at its midpoints, and
    foc is evaluated only where that sign is not certified.  In exact
    arithmetic on the float inputs p, e and num, d den/dm has the sign of num,
    so every q is nonincreasing in m: the positive part P(m) of F falls and
    the negative part N(m) rises.  Rounding, with u = 2^-53 and n terms:

    - x >= 0: den adds nonnegative terms, so q is off by at most about 4u,
      relatively, at every m;
    - x < 0: fl(fl(m e) + 1) - m is off by at most about 3u absolutely, so q
      is off by at most 2u + 3u / den relatively, which is large for m near 1
      and tiny e;
    - the dot adds at most n u sum p |q|, in any summation order.

    So |foc(m) - F(m)| <= E(m) = sum p |q| rho, rho = 2 (n + 4) u, plus 5 u / den
    where x < 0; the constants leave room for the computed q and den standing
    in for the exact ones, and ``_radius`` gives R = 2 E.  Left of a point a,
    P is larger and each negative term and its bound are smaller, so F - E
    there is at least F(a) - E(a) >= foc(a) - R(a): foc(a) > R(a) certifies
    foc > 0 at every midpoint <= a.  Right of b, den > 1e-12 keeps a negative
    term's lower bound |q| (1 - rho - 5 u / den) growing as den falls, while
    P (1 + rho) falls: -foc(b) > R(b) certifies foc <= 0 at every midpoint
    >= b.  A safeguarded Newton iteration in log-odds, with
    F'(m) = -sum p q^2, puts a and b about 2 R / |F'| either side of the
    root (``_window``); a side that does not certify falls back to evaluating
    every midpoint, which is the plain bisection.
    """
    lo, hi = _MBAR_FLOOR, 1.0 - _MBAR_FLOOR
    if _foc(probs, pos, e, num, lo)[0] <= 0.0:
        return lo
    if _foc(probs, pos, e, num, hi)[0] >= 0.0:
        return hi
    a, b = _window(probs, pos, e, num, lo, hi)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= a or (mid < b and _foc(probs, pos, e, num, mid)[0] > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_attention(belief: BeliefOverProfiles, mu: float) -> AttentionSolution:
    """Optimal attention under ``belief`` at cost ``mu``: one row of ``solve_groups``."""
    return solve_groups(belief.values[None], belief.probs, mu)[0]


def solve_groups(values, probs, mu: float) -> list[AttentionSolution]:
    """Optimal attention of each row of ``values[groups, n]`` under ``probs`` at cost ``mu``,
    the one solve path: one ``log_mean_exp`` call over the values and their negation decides
    both corners (not attentive: never beta; E[exp(-v/mu)] < 1: always beta) and refuses
    mu <= 0 and non-finite values / mu; ``_bisect`` solves each interior row."""
    moments = log_mean_exp(np.concatenate((values, -values)), probs, mu)
    zero, one = ~_attends(moments[:len(values)]), moments[len(values):] < 0.0
    return [_solution(v, probs, mu, z, o) for v, z, o in zip(values, zero.tolist(), one.tolist())]


def _solution(values, probs, mu: float, zero: bool, one: bool) -> AttentionSolution:
    if zero:
        return AttentionSolution("corner_zero", 0.0, 0.0, np.zeros(len(probs)), 0.0, 0.0)
    if one:
        return AttentionSolution("corner_one", 1.0, math.inf, np.ones(len(probs)), 0.0, 0.0)
    x = values / mu
    pos = x >= 0
    e = np.exp(-np.abs(x))
    num = np.where(pos, 1.0 - e, e - 1.0)
    m_bar = _bisect(probs, pos, e, num)

    # shifted-logit rule m = m_bar e^x / (m_bar e^x + 1 - m_bar)
    m = np.where(pos, m_bar, m_bar * e) / _foc(probs, pos, e, num, m_bar)[2]
    residual = abs(float(np.dot(probs, m)) / m_bar - 1.0)
    return AttentionSolution(
        "interior",
        m_bar,
        m_bar / (1.0 - m_bar),
        m,
        mutual_information(m, probs),
        residual,
    )


def attention_membership(belief: BeliefOverProfiles, mu: float) -> bool:
    """Whether the voter pays attention: E[exp(v/mu)] >= 1, up to 1e-12."""
    return bool(attentive(belief.values, belief.probs, mu))


def gamma_inverse(y: float) -> float:
    """Unique nonnegative root of exp(x) + exp(-x) = y, i.e. log(y/2 + sqrt(y^2/4 - 1))."""
    if not y >= 2.0 - EXACT:
        raise ValidationError("gamma_inverse requires y >= 2")
    if y <= 2.0:
        return 0.0
    return math.acosh(0.5 * y)


def attention_threshold_delta(mu: float, t: float, kappa: float, diag_mass: float) -> float:
    """Minimal median-utility spread needed for voter t to possibly pay attention.

    ``diag_mass`` is the probability of the tying (diagonal) profiles; the
    bound is mu * gamma_inverse(2b) with
    b = (exp(kappa|t|/mu) - diag_mass) / (1 - diag_mass).
    """
    if not mu > 0 or not kappa > 0:
        raise ValidationError("mu and kappa must be positive")
    if not 0.0 <= diag_mass < 1.0:
        raise ValidationError("diag_mass must lie in [0, 1)")
    arg = kappa * abs(t) / mu
    if arg > 500.0:  # b ~ exp(arg): acosh(b) = log(2b) to double precision
        return mu * (math.log(2.0) + arg - math.log1p(-diag_mass))
    b = (math.exp(arg) - diag_mass) / (1.0 - diag_mass)
    return mu * gamma_inverse(2.0 * b)
