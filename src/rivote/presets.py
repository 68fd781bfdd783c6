"""Ready-made scenario documents used by the demos, tests and the CLI.

Each preset is a plain scenario dict (serialisable as-is);
``scenario_from_dict`` turns it into a live Scenario.  The negative loser
sign in the benchmark scenarios is deliberate: it is the sign under which the
published two-equilibrium configuration is actually incentive compatible
(see README).
"""
from __future__ import annotations

from .scenario_io import SCHEMA_VERSION

_THIRDS = [[-0.001, 1 / 3], [0.0, 1 / 3], [0.001, 1 / 3]]


def table1_scenario(mu: float = 0.09) -> dict:
    """Two equiprobable policy levels .01 and .4 under absolute loss; the
    voter-group grid covers the published attention table."""
    return {
        "schema_version": SCHEMA_VERSION,
        "policies": {"beta": [0.01, 0.4]},
        "utility": {"family": "absolute", "office_rent": 8.0, "win_weight": 12.0,
                    "lose_weight": 1.0, "loser_sign": -1},
        "candidates": {"beta": [[0.3, 0.5], [0.8, 0.5]]},
        "electorate": {"groups": [[-0.2, 0.2], [-0.05, 0.2], [0.0, 0.2],
                                  [0.05, 0.2], [0.2, 0.2]]},
        "attention": {"mu": mu},
    }


def figure2_scenario(mu: float = 10.0) -> dict:
    """Three policy levels (.01, .2, .4), centrist/extreme candidate types
    (.3, .8), office rent 8 with winner weight 12 and loser weight 1."""
    return {
        "schema_version": SCHEMA_VERSION,
        "policies": {"beta": [0.01, 0.2, 0.4]},
        "utility": {"family": "absolute", "office_rent": 8.0, "win_weight": 12.0,
                    "lose_weight": 1.0, "loser_sign": -1},
        "candidates": {"beta": [[0.3, 0.5], [0.8, 0.5]]},
        "electorate": {"groups": _THIRDS},
        "attention": {"mu": mu},
    }


def figure3_scenario(xi: float, mu: float = 1.0, n_policies: int = 50) -> dict:
    """Slanted two-signal news over a dense interior policy grid; candidate
    bliss points sit at 1/4 and 3/4."""
    grid = [k / (n_policies + 1) for k in range(1, n_policies + 1)]
    return {
        "schema_version": SCHEMA_VERSION,
        "policies": {"beta": grid},
        "utility": {"family": "absolute", "office_rent": 8.0, "win_weight": 3.0,
                    "lose_weight": 1.0, "loser_sign": -1},
        "candidates": {"beta": [[0.25, 0.5], [0.75, 0.5]]},
        "electorate": {"groups": _THIRDS},
        "attention": {"mu": mu},
        "news": {"family": "slant", "xi": xi, "signals": [0.25, 0.75]},
    }


def example3_scenario(eta: float, mu: float = 10.0) -> dict:
    """Limited-commitment variant of the three-level benchmark."""
    doc = figure2_scenario(mu)
    doc["commitment"] = {"eta": eta}
    return doc

