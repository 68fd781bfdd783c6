"""Scenario files: a single JSON document describing the whole game.

Sections: ``policies``, ``utility``, ``candidates``, ``electorate``,
``attention``, plus optional ``news``, ``commitment``, ``dissemination`` and
``issues``.  A ``schema_version`` field is mandatory.  Validation collects
every problem with its JSON path before raising.  A scenario describes
candidate beta; alpha is its mirror image, and an ``alpha`` entry of
``policies`` or ``candidates`` is accepted only when it restates that image.
"""
from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .core import (
    EXACT,
    CandidateSpec,
    Electorate,
    PolicyAxis,
    Scenario,
    TabulatedUtility,
    UtilitySpec,
    ValidationError,
)
from .extensions import (
    multi_issue_reduce,
    quarter_circle_frontier,
    tabulated_frontier,
    weighted_bliss_utility,
)
from .news import NewsTechnology, stochastic_problem

SCHEMA_VERSION = 1
_REQUIRED = ("policies", "utility", "candidates", "electorate", "attention")
_OPTIONAL = ("news", "commitment", "dissemination", "issues")


def _number(x) -> bool:
    """A finite float or an int within float range (JSON parses NaN and Infinity)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _scalar(data: dict, key: str, path: str, default, problems: list[str], kind=float):
    """``data[key]`` (``default`` when absent) as ``kind``, or None where the
    default is None; anything but a number, or for ``int`` an integral one,
    is a problem at ``path``."""
    value = data.get(key, default)
    if value is None and default is None:
        return None
    if _number(value) and (kind is float or float(value).is_integer()):
        return kind(value)
    problems.append(f"{path}: must be {'a number' if kind is float else 'an integer'}")
    return None


def _made(problems: list[str], path: str, make, *args):
    """``make(*args)``, or None after recording its ValidationError at ``path``."""
    try:
        return make(*args)
    except ValidationError as exc:
        problems.append(f"{path}: {exc}")
        return None


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


def _rows(raw, path: str, problems: list[str]) -> tuple[tuple[float, ...], ...]:
    if not isinstance(raw, list) or not all(
        isinstance(r, list) and all(_number(v) for v in r) for r in raw
    ) or len({len(r) for r in raw}) > 1:
        problems.append(f"{path}: expected equal-length lists of numbers")
        return ()
    return tuple(tuple(float(v) for v in r) for r in raw)


def _news_from_dict(data: dict, problems: list[str]) -> NewsTechnology | None:
    family = data.get("family")
    if family not in ("slant", "table", "revealing"):
        problems.append(f"news.family: unknown family {family!r}")
        return None
    found = len(problems)
    if family == "slant":
        if not _number(data.get("xi")):
            problems.append("news.xi: must be a number")
        signals = _numbers(data.get("signals", [0.25, 0.75]), "news.signals", problems)
    if family == "table":
        signals = _numbers(data.get("signals"), "news.signals", problems)
        rows = _rows(data.get("rows"), "news.rows", problems)
        if rows and (problem := stochastic_problem(rows)):
            problems.append(f"news.rows: {problem}")
    if family in ("table", "revealing"):
        policies = _numbers(data.get("policies"), "news.policies", problems)
    if len(problems) > found:
        return None
    if family == "slant":
        return _made(problems, "news", NewsTechnology.slant, float(data["xi"]), signals)
    if family == "table":
        return _made(problems, "news", NewsTechnology.from_table, signals, policies, rows)
    return _made(problems, "news", NewsTechnology.revealing, policies)


def _issues_utility(data: dict, base: UtilitySpec, lookup_a, lookup_t,
                    problems: list[str]) -> UtilitySpec | None:
    """Collapse a two-issue section onto its frontier and tabulate the result.

    The augmented table covers a dense audit grid plus every policy and type
    the scenario will actually look up; the candidates' stage parameters are
    carried over from the ``utility`` section.
    """
    front = data.get("frontier", "quarter_circle")
    try:
        if front == "quarter_circle":
            frontier = quarter_circle_frontier()
        elif isinstance(front, dict):
            a, b = (_numbers(front.get(k), f"issues.frontier.{k}", problems) for k in "ab")
            if not (a and b):
                return None
            frontier = tabulated_frontier(a, b)
            secants = np.diff(b) / np.diff(a)
            if np.any(np.diff(secants) >= 0):
                problems.append("issues.frontier: samples must be strictly concave "
                                "(secant slopes strictly decreasing)")
                return None
        else:
            problems.append(f"issues.frontier: unknown preset {front!r}")
            return None
        u2spec = data.get("utility2", {})
        if not isinstance(u2spec, dict):
            problems.append("issues.utility2: expected a JSON object")
            return None
        if u2spec.get("family", "weighted_bliss") != "weighted_bliss":
            problems.append(f"issues.utility2: unknown family {u2spec.get('family')!r}")
            return None
        found = len(problems)
        shape = {name: _scalar(u2spec, name, f"issues.utility2.{name}", default, problems)
                 for name, default in (("bliss", 2.0), ("slope", 0.5))}
        grid_size = _scalar(data, "a_grid_size", "issues.a_grid_size", 200, problems, int)
        if len(problems) > found:
            return None
        u2 = weighted_bliss_utility(**shape)

        def merged(dense, extra):
            # points the table is read at must survive the merge verbatim; drop dense points
            # that would land within rounding distance of them
            extra = np.asarray(sorted(set(extra)), dtype=float)
            dense = np.asarray(dense, dtype=float)
            keep = np.abs(dense[:, None] - extra[None, :]).min(axis=1) > 1e-9
            return np.unique(np.concatenate([dense[keep], extra]))

        a_grid = merged(np.linspace(-1.0, 1.0, grid_size), lookup_a)
        t_grid = merged(np.linspace(-1.0, 1.0, 21), lookup_t)
        reduction = multi_issue_reduce(u2, frontier, a_grid=a_grid, t_grid=t_grid)
        stage = ("office_rent", "win_weight", "lose_weight", "loser_sign")
        return reduction.utility_spec(**{name: getattr(base, name) for name in stage})
    except (TypeError, ValueError, ValidationError) as exc:
        problems.append(f"issues: {exc}")
        return None


def scenario_from_dict(data: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version: must be {SCHEMA_VERSION}")
    for section in _REQUIRED + _OPTIONAL:
        if section not in data and section in _REQUIRED:
            problems.append(f"{section}: missing required section")
        elif not isinstance(data.get(section, {}), dict):
            problems.append(f"{section}: expected a JSON object")
    if problems:
        raise ValidationError("invalid scenario: " + "; ".join(problems))

    pol = data["policies"]
    beta_vals = _numbers(pol.get("beta"), "policies.beta", problems)
    beta_axis = None
    if pol.get("beta") == []:
        problems.append("policies.beta: expected at least one policy")
    elif beta_vals:
        beta_axis = _made(problems, "policies", PolicyAxis, beta_vals)
    if beta_axis is not None and "alpha" in pol and pol["alpha"] != list(beta_axis.alpha_values):
        problems.append("policies.alpha: must be the mirror image of policies.beta")

    util = data["utility"]
    utility = None
    found = len(problems)
    table = None
    if util.get("family") == "table":
        tbl = util.get("table", {})
        if not isinstance(tbl, dict):
            problems.append("utility.table: expected a JSON object")
        else:
            table = [_numbers(tbl.get("a"), "utility.table.a", problems),
                     _numbers(tbl.get("t"), "utility.table.t", problems),
                     _rows(tbl.get("values"), "utility.table.values", problems)]
    stage = {name: _scalar(util, name, f"utility.{name}", default, problems)
             for name, default in (("office_rent", 0.0), ("win_weight", 0.0),
                                   ("lose_weight", 0.0), ("kappa", None))}
    stage["loser_sign"] = _scalar(util, "loser_sign", "utility.loser_sign", 1, problems, int)
    if len(problems) == found:
        utility = _made(problems, "utility", lambda: UtilitySpec(
            family=util.get("family", "absolute"), table=table and TabulatedUtility(*table),
            **stage))

    cand = data["candidates"]
    beta_types = _made(problems, "candidates", CandidateSpec,
                       _pairs(cand.get("beta"), "candidates.beta", problems))
    if beta_types is not None and "alpha" in cand:
        alpha = sorted(_pairs(cand["alpha"], "candidates.alpha", malformed := []))
        mirror = sorted((-t, p) for t, p in beta_types.types)
        if malformed or len(alpha) != len(mirror) or any(
            a != b or abs(p - q) > EXACT for (a, p), (b, q) in zip(alpha, mirror)
        ):
            problems.append("candidates.alpha: must be the mirror image of candidates.beta")

    electorate = _made(problems, "electorate", Electorate,
                       _pairs(data["electorate"].get("groups"), "electorate.groups", problems))

    att = data["attention"]
    mu = att.get("mu")
    if not _number(mu) or mu <= 0:
        problems.append("attention.mu: must be a positive number")

    if "issues" in data and utility is not None and not problems:
        lookup_a = beta_axis.values + beta_axis.alpha_values
        lookup_t = electorate.group_types + beta_types.type_values
        lookup_t += tuple(-t for t in beta_types.type_values)
        augmented = _issues_utility(data["issues"], utility, lookup_a, lookup_t, problems)
        if augmented is not None:
            utility = augmented

    news = None
    if "news" in data:
        news = _news_from_dict(data["news"], problems)
    eta = _scalar(data.get("commitment", {}), "eta", "commitment.eta", 1.0, problems)
    cost = _scalar(data.get("dissemination", {}), "cost", "dissemination.cost", None, problems)

    if problems:
        raise ValidationError("invalid scenario: " + "; ".join(problems))
    try:
        return Scenario(
            beta_axis=beta_axis,
            utility=utility,
            beta_types=beta_types,
            electorate=electorate,
            mu=float(mu),
            news=news,
            eta=eta,
            dissemination_cost=cost,
        )
    except ValidationError as exc:
        raise ValidationError(f"invalid scenario: {exc}") from exc


def load_scenario_dict(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON text
        raise ValidationError(f"{path}: not a readable JSON file ({exc})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_scenario_dict(path))


def scenario_hash(data: dict) -> str:
    """Stable short hash of a scenario document for output provenance."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
