"""Scenario files: a single JSON document describing the whole game.

Sections: ``policies``, ``utility``, ``candidates``, ``electorate``,
``attention``, plus optional ``news``, ``commitment``, ``dissemination`` and
``issues``.  A ``schema_version`` field is mandatory.  Validation collects
every problem with its JSON path before raising.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .core import (
    CandidateSpec,
    Electorate,
    PolicyAxis,
    Scenario,
    TabulatedUtility,
    UtilitySpec,
    ValidationError,
)
from .news import NewsTechnology

SCHEMA_VERSION = 1


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(raw, path: str, problems: list[str]) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_number(v) for v in p) for p in raw
    ):
        problems.append(f"{path}: expected a list of [number, number] pairs")
        return ()
    return tuple((float(a), float(b)) for a, b in raw)


def _numbers(raw, path: str, problems: list[str]) -> tuple[float, ...]:
    if not isinstance(raw, list) or not all(_number(v) for v in raw):
        problems.append(f"{path}: expected a list of numbers")
        return ()
    return tuple(float(v) for v in raw)


def _news_from_dict(data: dict, problems: list[str]) -> NewsTechnology | None:
    family = data.get("family")
    try:
        if family == "slant":
            signals = tuple(data.get("signals", (0.25, 0.75)))
            return NewsTechnology.slant(float(data["xi"]), signals)
        if family == "table":
            return NewsTechnology.from_table(
                data["signals"], data["policies"], data["rows"]
            )
        if family == "revealing":
            return NewsTechnology.revealing(data["policies"])
    except (KeyError, TypeError, ValidationError) as exc:
        problems.append(f"news: {exc}")
        return None
    problems.append(f"news.family: unknown family {family!r}")
    return None


def _issues_utility(data: dict, base: UtilitySpec, lookup_a, lookup_t,
                    problems: list[str]) -> UtilitySpec | None:
    """Collapse a two-issue section onto its frontier and tabulate the result.

    The augmented table covers a dense audit grid plus every policy and type
    the scenario will actually look up; the candidates' stage parameters are
    carried over from the ``utility`` section.
    """
    import numpy as np

    from .extensions import (
        multi_issue_reduce,
        quarter_circle_frontier,
        tabulated_frontier,
        weighted_bliss_utility,
    )

    front = data.get("frontier", "quarter_circle")
    try:
        if front == "quarter_circle":
            frontier = quarter_circle_frontier()
        elif isinstance(front, dict):
            frontier = tabulated_frontier(front["a"], front["b"])
        else:
            problems.append(f"issues.frontier: unknown preset {front!r}")
            return None
        u2spec = data.get("utility2", {})
        if u2spec.get("family", "weighted_bliss") != "weighted_bliss":
            problems.append(f"issues.utility2: unknown family {u2spec.get('family')!r}")
            return None
        u2 = weighted_bliss_utility(
            bliss=float(u2spec.get("bliss", 2.0)), slope=float(u2spec.get("slope", 0.5))
        )
        def merged(dense, extra):
            # points the table is read at must survive the merge verbatim; drop dense points
            # that would land within rounding distance of them
            extra = np.asarray(sorted(set(extra)), dtype=float)
            dense = np.asarray(dense, dtype=float)
            keep = np.abs(dense[:, None] - extra[None, :]).min(axis=1) > 1e-9
            return np.unique(np.concatenate([dense[keep], extra]))

        grid_size = int(data.get("a_grid_size", 200))
        a_grid = merged(np.linspace(-1.0, 1.0, grid_size), lookup_a)
        t_grid = merged(np.linspace(-1.0, 1.0, 21), lookup_t)
        reduction = multi_issue_reduce(u2, frontier, a_grid=a_grid, t_grid=t_grid)
        return reduction.utility_spec(
            office_rent=base.office_rent,
            win_weight=base.win_weight,
            lose_weight=base.lose_weight,
            loser_sign=base.loser_sign,
        )
    except (KeyError, TypeError, ValidationError) as exc:
        problems.append(f"issues: {exc}")
        return None


def scenario_from_dict(data: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version: must be {SCHEMA_VERSION}")
    for section in ("policies", "utility", "candidates", "electorate", "attention"):
        if section not in data:
            problems.append(f"{section}: missing required section")
    if problems:
        raise ValidationError("invalid scenario: " + "; ".join(problems))

    pol = data["policies"]
    beta_vals = _numbers(pol.get("beta"), "policies.beta", problems)
    beta_axis = alpha_axis = None
    if beta_vals:
        try:
            beta_axis = PolicyAxis(beta_vals, "beta")
            if "alpha" in pol:
                alpha_axis = PolicyAxis(_numbers(pol["alpha"], "policies.alpha", problems), "alpha")
            else:
                alpha_axis = beta_axis.mirrored()
        except ValidationError as exc:
            problems.append(f"policies: {exc}")

    util = data["utility"]
    utility = None
    try:
        table = None
        if util.get("family") == "table":
            tbl = util.get("table", {})
            table = TabulatedUtility(
                _numbers(tbl.get("a"), "utility.table.a", problems),
                _numbers(tbl.get("t"), "utility.table.t", problems),
                tuple(tuple(row) for row in tbl.get("values", ())),
            )
        utility = UtilitySpec(
            family=util.get("family", "absolute"),
            office_rent=float(util.get("office_rent", 0.0)),
            win_weight=float(util.get("win_weight", 0.0)),
            lose_weight=float(util.get("lose_weight", 0.0)),
            loser_sign=int(util.get("loser_sign", 1)),
            kappa=util.get("kappa"),
            table=table,
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"utility: {exc}")

    cand = data["candidates"]
    beta_types = alpha_types = None
    try:
        beta_types = CandidateSpec(_pairs(cand.get("beta"), "candidates.beta", problems), "beta")
        if "alpha" in cand:
            alpha_types = CandidateSpec(
                _pairs(cand["alpha"], "candidates.alpha", problems), "alpha"
            )
        else:
            alpha_types = beta_types.mirrored()
    except ValidationError as exc:
        problems.append(f"candidates: {exc}")

    electorate = None
    try:
        electorate = Electorate(
            _pairs(data["electorate"].get("groups"), "electorate.groups", problems)
        )
    except ValidationError as exc:
        problems.append(f"electorate: {exc}")

    att = data["attention"]
    mu = att.get("mu")
    if not _number(mu) or mu <= 0:
        problems.append("attention.mu: must be a positive number")

    if "issues" in data and utility is not None and not problems:
        lookup_a = list(beta_axis.values) + list(alpha_axis.values)
        lookup_t = [t for t, _ in electorate.groups]
        lookup_t += [t for t, _ in beta_types.types] + [t for t, _ in alpha_types.types]
        augmented = _issues_utility(data["issues"], utility, lookup_a, lookup_t, problems)
        if augmented is not None:
            utility = augmented

    news = None
    if "news" in data:
        news = _news_from_dict(data["news"], problems)
    eta = data.get("commitment", {}).get("eta", 1.0)
    if not _number(eta):
        problems.append("commitment.eta: must be a number")
    cost = data.get("dissemination", {}).get("cost")
    if cost is not None and not _number(cost):
        problems.append("dissemination.cost: must be a number")

    if problems:
        raise ValidationError("invalid scenario: " + "; ".join(problems))
    try:
        return Scenario(
            alpha_axis=alpha_axis,
            beta_axis=beta_axis,
            utility=utility,
            alpha_types=alpha_types,
            beta_types=beta_types,
            electorate=electorate,
            mu=float(mu),
            news=news,
            eta=float(eta),
            dissemination_cost=None if cost is None else float(cost),
        )
    except ValidationError as exc:
        raise ValidationError(f"invalid scenario: {exc}") from exc


def load_scenario_dict(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_scenario_dict(path))


def dump_scenario(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def scenario_hash(data: dict) -> str:
    """Stable short hash of a scenario document for output provenance."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
