"""Three extensions: costly dissemination, partial commitment, two issues.

Each one is a light rewrite of the baseline game.  A dissemination cost
filters equilibria by the total attention they generate; partial commitment
blends proposals with the proposer's own type and splits the attention
condition into an inference effect and a hurdle; a two-issue policy space
collapses onto its Pareto frontier and reuses the whole pipeline.
"""
import math
from dataclasses import replace

import numpy as np

from rivote import dissemination_filter, enumerate_equilibria
from rivote.election import assignment_for
from rivote.extensions import (
    commitment_belief,
    multi_issue_reduce,
    quarter_circle_frontier,
    weighted_bliss_utility,
)
from rivote.presets import build, example3_scenario, figure2_scenario
from rivote.solver import attention_membership, gamma_inverse

print("Costly dissemination: equilibria must generate enough eyeballs")
scenario = build(figure2_scenario(mu=0.09))
records = enumerate_equilibria(scenario)
weights = dict(scenario.electorate.groups)
for r in records:
    print(f"  {r.assignment.policies}: total attention {r.total_information(weights):.4f} nats")
for cost in (0.05, 0.20, 0.35):
    kept = dissemination_filter(records, replace(scenario, dissemination_cost=cost))
    print(f"  cost {cost:.2f}: {[r.assignment.policies for r in kept]}")

print("\nPartial commitment: inference effect vs the hurdle of indifference")
mu, tau = 10.0, 0.001
hurdle = mu * gamma_inverse(4 * math.exp(2 * tau / mu) - 2)
print(f"  hurdle {hurdle:.4f}; type spread (inference effect at eta=0) is 0.50")
for pols in ((0.01, 0.2), (0.01, 0.4)):
    gap = pols[1] - pols[0]
    flips = []
    for eta in np.linspace(0, 1, 11):
        s = build(example3_scenario(float(eta)))
        member = attention_membership(commitment_belief(s, assignment_for(s, pols), -tau), mu)
        flips.append("#" if member else ".")
    print(f"  proposals {pols} (spread {gap:.2f}): attention over eta 0..1  {''.join(flips)}")
print("  narrow proposals lose the voter once promises start to bind;")
print("  only a spread beyond the hurdle keeps attention at full commitment.")

print("\nCommitment equilibria at a few levels")
for eta in (1.0, 0.6, 0.2):
    recs = enumerate_equilibria(build(example3_scenario(eta)))
    print(f"  eta={eta:.1f}: {[r.assignment.policies for r in recs]}")

print("\nTwo issues collapsed onto the frontier")
reduction = multi_issue_reduce(weighted_bliss_utility(), quarter_circle_frontier())
ts = reduction.t_grid[::5]
tangencies = reduction.tangency[::5]
for t, a in zip(ts, tangencies):
    print(f"  type {t:+.1f} is happiest on the frontier at a = {a:+.4f}")
print("  tangency points fall with the type (pro-second-issue voters trade")
print(f"  the first issue away); shape checks clean: {reduction.problems == ()}")
