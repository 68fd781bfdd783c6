"""Primitives of the electoral game: policy grids, utility families, populations.

Everything here is an immutable value object or a pure function, safe to share
across threads.  Two rules check every input: ``grid_floats`` its axes and
``probability_floats`` its distributions.  Structural identities (mirror symmetry,
increasing differences, concavity, the partisan-gap constant) are audited
numerically on the configured finite grids instead of being trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Literal

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .news import NewsTechnology

TOL = 1e-9      # default tolerance for threshold comparisons
EXACT = 1e-12   # tolerance for identities expected to hold to rounding error
CHUNK_FLOATS = 2 ** 15  # most floats a temporary of a batched kernel holds

VoterFamily = Literal["absolute", "quadratic", "table"]


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class SymmetryError(ValidationError):
    """A mirror-symmetric game was required but not supplied."""


class NumericError(ArithmeticError):
    """A numerical routine produced non-finite intermediates."""


def chunks(n: int, floats_each: int) -> Iterator[slice]:
    """Slices covering range(n) in order, each as many items of ``floats_each``
    floats as fit in ``CHUNK_FLOATS`` (one at least): every batch's chunk rule."""
    step = max(1, CHUNK_FLOATS // max(1, floats_each))
    return map(slice, range(0, n, step), range(step, n + step, step))


def grid_floats(values, what: str, increasing: bool = True) -> np.ndarray:
    """``values`` as a new float array, refused (ValidationError) unless every
    entry is finite and, with ``increasing``, exceeds the one before."""
    x = np.array(values, dtype=float)
    if not np.isfinite(x).all() or increasing and not (x[1:] > x[:-1]).all():
        raise ValidationError(f"{what} must be finite" + " and strictly increasing" * increasing)
    return x


def probability_floats(values, what: str) -> np.ndarray:
    """``values`` as a new float array, refused (ValidationError) unless every
    entry is positive and they sum to 1 within 1e-12 (so none is empty)."""
    p = np.array(values, dtype=float)
    if not (p > 0).all():
        raise ValidationError(f"{what} must be positive")
    if not abs(float(p.sum()) - 1.0) <= EXACT:
        raise ValidationError(f"{what} must sum to 1")
    return p


# ---------------------------------------------------------------------------
# Policy grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyAxis:
    """Candidate beta's finite policy grid in (0, 1]; candidate alpha draws
    from its mirror image, ``alpha_values``."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValidationError("policy axis is empty")
        if not (0.0 < grid_floats(vals, "policy values")[0] and vals[-1] <= 1.0):
            raise ValidationError("beta policies must lie in (0, 1]")

    @property
    def alpha_values(self) -> tuple[float, ...]:
        """Candidate alpha's grid: beta's negated, ascending."""
        return tuple(-v for v in reversed(self.values))


# ---------------------------------------------------------------------------
# Utility families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabulatedUtility:
    """Custom voter utility given on a rectangular (policy, type) grid."""

    a_values: tuple[float, ...]
    t_values: tuple[float, ...]
    u: tuple[tuple[float, ...], ...]  # u[i][j] at (a_values[i], t_values[j])

    def __post_init__(self) -> None:
        a = grid_floats(self.a_values, "tabulated policy grid")
        t = grid_floats(self.t_values, "tabulated type grid")
        object.__setattr__(self, "a_values", tuple(a.tolist()))
        object.__setattr__(self, "t_values", tuple(t.tolist()))
        object.__setattr__(self, "u", tuple(tuple(float(x) for x in row) for row in self.u))
        if len(self.u) != len(a) or any(len(row) != len(t) for row in self.u):
            raise ValidationError("utility table shape does not match its grids")
        u = grid_floats(self.u, "utility table values", increasing=False)
        # numpy copies for lookups; not fields, so equality and hashing ignore them
        object.__setattr__(self, "_arrays", (a, t, u))


@dataclass(frozen=True)
class UtilitySpec:
    """Voter utility family plus the candidates' winner/loser parameters.

    ``loser_sign`` controls the sign of the loser's policy term: the losing
    candidate of type t receives ``-loser_sign * lose_weight * u(a_winner, t)``
    (so +1 rewards distance from the implemented policy, -1 penalises it).
    """

    family: VoterFamily = "absolute"
    office_rent: float = 0.0    # R
    win_weight: float = 0.0     # weight on the winner's policy term
    lose_weight: float = 0.0    # weight on the loser's policy term
    loser_sign: int = 1
    kappa: float | None = None  # partisan-gap constant; derived when None
    table: TabulatedUtility | None = None

    def __post_init__(self) -> None:
        if self.family not in ("absolute", "quadratic", "table"):
            raise ValidationError(f"unknown utility family {self.family!r}")
        if self.family == "table" and self.table is None:
            raise ValidationError("family 'table' requires a utility table")
        if not all(0 <= x < math.inf for x in (self.office_rent, self.win_weight,
                                               self.lose_weight)):
            raise ValidationError("office rent and preference weights must be finite and >= 0")
        if self.loser_sign not in (1, -1):
            raise ValidationError("loser_sign must be +1 or -1")
        if self.kappa is not None and not 0 < self.kappa < math.inf:
            raise ValidationError("kappa must be positive and finite")


def _grid_index(grid: np.ndarray, x: np.ndarray, refusal: str) -> np.ndarray:
    """Index of the first grid point within 1e-12 of each x; the first x off
    the grid is refused with ``refusal.format(x)``.

    The match lies next to where ``x - 1e-12`` sorts into the grid, so only
    that point and its two neighbours are compared."""
    at = np.searchsorted(grid, x - EXACT) - 1  # the left neighbour, then 0 and +1
    near = np.minimum(np.maximum(at[..., None] + np.arange(3), 0), len(grid) - 1)
    hit = np.abs(grid[near] - x[..., None]) <= EXACT
    found = hit.any(axis=-1)
    if not found.all():
        raise ValidationError(refusal.format(float(x[~found][0])))
    return np.maximum(at + hit.argmax(axis=-1), 0)  # the first hit is never past the end


def utility(spec: UtilitySpec, a, t):
    """u(a, t) for the selected family, broadcasting policies against types.

    A table is read at the first grid point within 1e-12 of each (a, t); a
    point off the table is a ValidationError.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    if spec.family == "absolute":
        return -np.abs(t - a)
    if spec.family == "quadratic":
        return -np.square(t - a)
    a_grid, t_grid, u = spec.table._arrays
    return u[_grid_index(a_grid, a, "policy={!r} is not on the utility table grid"),
             _grid_index(t_grid, t, "type={!r} is not on the utility table grid")]


def value_matrix(spec: UtilitySpec, a_values, t: float) -> np.ndarray:
    """v[..., i, j] = differential utility of profile (-a_i, a_j) for voter t."""
    a = np.asarray(a_values, dtype=float)
    return utility(spec, a, t)[..., None, :] - utility(spec, -a, t)[..., :, None]


def winning_prob(margin, tol: float) -> np.ndarray:
    """The one tie rule: 1 for a positive margin, 0 for a negative one, 1/2
    within ``tol`` of 0."""
    return np.where(np.abs(margin) <= tol, 0.5, np.where(margin > 0, 1.0, 0.0))


def _derived_kappa(
    spec: UtilitySpec,
    alpha_values: tuple[float, ...],
    beta_values: tuple[float, ...],
    positive_types: tuple[float, ...] = (),
) -> float:
    """Partisan-gap constant: built-in families have closed forms, tables are
    minimised by brute force over the configured grids."""
    if spec.kappa is not None:
        return spec.kappa
    if spec.family == "absolute":
        return 2.0 * beta_values[0]
    if spec.family == "quadratic":
        return 4.0 * beta_values[0]
    ts = np.array([t for t in positive_types if t > 0])
    if not ts.size:
        raise ValidationError("deriving kappa for a table needs positive voter types")
    gaps = _partisan_gaps(spec, alpha_values, beta_values, ts)
    kappa = float(np.min(gaps / ts[:, None, None], initial=math.inf))
    if not math.isfinite(kappa) or kappa <= 0:
        raise ValidationError("table utility admits no positive partisan-gap constant")
    return kappa


def _partisan_gaps(spec: UtilitySpec, alpha_values, beta_values, types) -> np.ndarray:
    """v(a, t) - v(a, 0) per (type, alpha policy, beta policy), where v is the
    gain of beta's policy over alpha's."""
    x = np.asarray(alpha_values, dtype=float)[:, None]
    y = np.asarray(beta_values, dtype=float)[None, :]
    t = np.asarray(types, dtype=float)[:, None, None]
    return (utility(spec, y, t) - utility(spec, x, t)) - (
        utility(spec, y, 0.0) - utility(spec, x, 0.0)
    )


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateSpec:
    """Finite type distribution of candidate beta, types sorted ascending in
    (0, 1]; candidate alpha's types are the mirror image."""

    types: tuple[tuple[float, float], ...]  # (type, probability)

    def __post_init__(self) -> None:
        pairs = tuple(sorted((float(t), float(p)) for t, p in self.types))
        object.__setattr__(self, "types", pairs)
        probability_floats([p for _, p in pairs], "type probabilities")
        types = grid_floats([t for t, _ in pairs], "candidate types")
        if not (0 < types[0] and types[-1] <= 1):
            raise ValidationError("beta types must lie in (0, 1]")

    @property
    def type_values(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.types)

    @property
    def type_probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.types)


@dataclass(frozen=True)
class Electorate:
    """Finite weighted voter groups standing in for a continuous type density."""

    groups: tuple[tuple[float, float], ...]  # (type, weight)

    def __post_init__(self) -> None:
        pairs = tuple(sorted((float(t), float(w)) for t, w in self.groups))
        object.__setattr__(self, "groups", pairs)
        probability_floats([w for _, w in pairs], "group weights")
        types = grid_floats([t for t, _ in pairs], "voter group types")
        if not (-1 <= types[0] and types[-1] <= 1):
            raise ValidationError("group types must lie in [-1, 1]")

    @property
    def group_types(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.groups)

    def is_symmetric(self) -> bool:
        table = {t: w for t, w in self.groups}
        return all(-t in table and abs(table[-t] - w) <= EXACT for t, w in self.groups)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A full game description from candidate beta's half: candidate alpha is
    its mirror image through the median.  Optional sections switch on the
    extensions."""

    beta_axis: PolicyAxis
    utility: UtilitySpec
    beta_types: CandidateSpec
    electorate: Electorate
    mu: float
    news: "NewsTechnology | None" = None
    eta: float = 1.0
    dissemination_cost: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.beta_axis, PolicyAxis):
            raise ValidationError("beta_axis must be a PolicyAxis")
        if not 0 < self.mu < math.inf:
            raise ValidationError("marginal attention cost mu must be positive and finite")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError("commitment level eta must lie in [0, 1]")
        if self.news is not None and self.eta < 1.0:
            raise ValidationError("news cannot be combined with limited commitment (eta < 1)")
        if self.dissemination_cost is not None and not 0 <= self.dissemination_cost < math.inf:
            raise ValidationError("dissemination cost must be finite and >= 0")

    def __getstate__(self) -> dict:
        """Pickles and copies carry the fields only, not what is cached on the object."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def kappa(self) -> float:
        positive = tuple(t for t in self.electorate.group_types if t > 0)
        return _derived_kappa(
            self.utility, self.beta_axis.alpha_values, self.beta_axis.values, positive)


def symmetry_failures(scenario: Scenario) -> list[str]:
    """Reasons the scenario is not mirror-symmetric (empty list when it is):
    an asymmetric electorate or a tabulated utility that fails the audit."""
    problems: list[str] = []
    if not scenario.electorate.is_symmetric():
        problems.append("electorate is not symmetric around the median")
    if scenario.utility.family == "table":
        a_grid = scenario.beta_axis.alpha_values + scenario.beta_axis.values
        t_grid = scenario.electorate.group_types + scenario.beta_types.type_values
        t_grid = tuple(sorted(set(t_grid + tuple(-t for t in t_grid))))
        problems += audit_mirror_symmetry(scenario.utility, a_grid, t_grid)
    return problems


def require_symmetric(scenario: Scenario) -> None:
    problems = symmetry_failures(scenario)
    if problems:
        raise SymmetryError(
            "symmetric-equilibrium routine refused an asymmetric scenario: "
            + "; ".join(problems)
        )


# ---------------------------------------------------------------------------
# Numerical audits of the maintained assumptions
# ---------------------------------------------------------------------------

def audit_mirror_symmetry(
    spec: UtilitySpec, a_values: tuple[float, ...], t_values: tuple[float, ...]
) -> list[str]:
    """Check u(a, t) == u(-a, -t) on the grid (exact for built-in families)."""
    a = np.reshape(a_values, (-1, 1))
    t = np.asarray(t_values, dtype=float)
    try:
        lhs = utility(spec, a, t)
        rhs = utility(spec, -a, -t)
    except ValidationError as exc:
        return [f"mirror symmetry untestable: {exc}"]
    return [
        f"u({a_values[i]},{t_values[j]}) != u({-a_values[i]},{-t_values[j]}): "
        f"{lhs[i, j]} vs {rhs[i, j]}"
        for i, j in np.argwhere(np.abs(lhs - rhs) > EXACT)
    ]


def audit_increasing_differences(
    spec: UtilitySpec, a_values: tuple[float, ...], t_values: tuple[float, ...]
) -> list[str]:
    """Increasing differences of u in (a, t) on the grid.

    Weak monotonicity is required everywhere; strictness only where the type
    pair overlaps the policy pair (the absolute-loss family is flat for
    voters more extreme than both policies).
    """
    u = utility(spec, np.reshape(a_values, (-1, 1)), t_values)  # rows by policy
    inc = u[1:] - u[:-1]              # u(a2, t) - u(a, t)
    gap = inc[:, 1:] - inc[:, :-1]    # at (a, a2) x (t, t2)
    problems = []
    for i, j in np.argwhere(gap <= EXACT):
        a, a2, t, t2 = a_values[i], a_values[i + 1], t_values[j], t_values[j + 1]
        if gap[i, j] < -EXACT:
            problems.append(f"decreasing differences at a in ({a},{a2}), t in ({t},{t2})")
        elif max(t, a) < min(t2, a2):
            problems.append(f"flat differences at a in ({a},{a2}), t in ({t},{t2})")
    return problems


def audit_concavity(
    spec: UtilitySpec, a_values: tuple[float, ...], t_values: tuple[float, ...]
) -> list[str]:
    """Discrete concavity of u(., t): chord slopes must not increase."""
    u = utility(spec, np.reshape(a_values, (-1, 1)), t_values)  # rows by policy
    slopes = (u[1:] - u[:-1]) / np.diff(np.asarray(a_values, dtype=float))[:, None]
    kinks = slopes[1:] > slopes[:-1] + EXACT
    return [
        f"convex kink of u(., {t_values[j]}) at {a_values[i + 1]}"
        for j, i in np.argwhere(kinks.T)
    ]


def audit_partisan_gap(
    spec: UtilitySpec,
    alpha_values: tuple[float, ...],
    beta_values: tuple[float, ...],
    positive_types: tuple[float, ...],
    kappa: float,
) -> list[str]:
    """min over profiles of v(a, t) - v(a, 0) must exceed kappa * t for t > 0."""
    ts = [t for t in positive_types if t > 0]
    worst = _partisan_gaps(spec, alpha_values, beta_values, ts).min(axis=(1, 2), initial=math.inf)
    return [
        f"partisan gap {float(w)} below kappa*t = {kappa * t} at t={t}"
        for t, w in zip(ts, worst)
        if w < kappa * t - EXACT
    ]


def audit_scenario(scenario: Scenario) -> list[str]:
    """All maintained-assumption audits on the configured grids."""
    axis = scenario.beta_axis
    a_grid = axis.alpha_values + axis.values
    beta_types = scenario.beta_types.type_values
    t_grid = tuple(sorted(set(
        scenario.electorate.group_types + beta_types + tuple(-t for t in beta_types))))
    problems = symmetry_failures(scenario)
    problems += audit_increasing_differences(scenario.utility, a_grid, t_grid)
    problems += audit_concavity(scenario.utility, a_grid, t_grid)
    positive = tuple(t for t in scenario.electorate.group_types if t > 0)
    if positive:
        try:
            kappa = scenario.kappa()
        except ValidationError as exc:
            problems.append(str(exc))
        else:
            problems += audit_partisan_gap(
                scenario.utility, axis.alpha_values, axis.values, positive, kappa)
    return problems
