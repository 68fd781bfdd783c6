"""Equilibrium policies are cost-invariant, but attention truncates them.

Two candidate types (centrist .3, extreme .8) pick from three policy levels.
The winner is always decided as if voters observed policies perfectly, so
the equilibrium set never moves with the attention cost.  What does move is
which equilibria anybody watches: as the cost rises, only assignments with a
wide enough policy spread clear the attention hurdle.
"""
from dataclasses import replace

import numpy as np

from rivote import (
    attention_set,
    enumerate_equilibria,
    scenario_from_dict,
    truncation_statistic,
)
from rivote.presets import figure2_scenario
from rivote.solver import attention_threshold_delta

scenario = scenario_from_dict(figure2_scenario())

print("Equilibrium set (perfect-observation deviation pricing)")
records = enumerate_equilibria(scenario, verify_rationalizable=True)
for r in records:
    pairs = ", ".join(f"{t}->{a}" for t, a in zip(r.assignment.types, r.assignment.policies))
    print(f"  {{{pairs}}}  min deviation slack {r.min_gap:.4f}")

print("\nInvariance: the same set at every attention cost")
for mu in (0.1, 1.0, 10.0, 100.0):
    pols = [r.assignment.policies for r in enumerate_equilibria(replace(scenario, mu=mu))]
    print(f"  mu={mu:6.1f}: {pols}")

print("\nTruncation: which equilibria keep the near-median groups watching")
for mu in (0.5, 5.0, 10.0, 40.0):
    kept, diff = truncation_statistic(replace(scenario, mu=mu), records, -0.001)
    names = [r.assignment.policies for r in kept]
    spread = "-" if diff is None else f"{diff:.3f}"
    print(f"  mu={mu:5.1f}: attentive equilibria {names}  min median spread {spread}")

print("\nClosed-form hurdle vs scanned frontier (tau=.001, mu=10)")
delta = attention_threshold_delta(10.0, 0.001, 2.0, 0.5)
print(f"  threshold spread u(a1,0)-u(a2,0) must reach {delta:.4f}")
frontier = attention_set(scenario, np.arange(0.05, 0.65, 0.1), np.arange(0.005, 1.0, 0.005),
                         -0.001)
for a1, a2 in frontier:
    print(f"  a1={a1:.2f}: attention starts at a2={a2:.3f} (gap {a2 - a1:.3f})")
