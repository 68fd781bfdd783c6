"""Noisy news, slanting, and what garbling does to attention and policies.

News about each candidate is a two-valued report whose extreme value gets
more likely both with the policy and with the slant parameter xi.  Raising
xi is exactly a Blackwell garble (a centrist-to-extreme mass shift), and it
has two effects: attention sets shrink toward wide policy spreads, and the
equilibrium proposals drift out to the candidates' bliss points.
"""
import numpy as np

from rivote import (
    MarkovKernel,
    NewsTechnology,
    attention_membership,
    audit_news,
    enumerate_equilibria,
    posterior_value,
    signal_belief,
)
from rivote.presets import build, figure3_scenario

print("The slant family is closed under centrist-to-extreme garbling")
xi, xi2 = 0.6, 0.75
lam = (xi2 - xi) / (1 - xi)
shifted = NewsTechnology.slant(xi).garbled(MarkovKernel.slant_shift(lam))
target = NewsTechnology.slant(xi2)
grid = np.linspace(0.05, 0.95, 10)
gap = np.max(np.abs(shifted.pmf(grid) - target.pmf(grid)))
print(f"  max row difference after shifting xi={xi} by lam={lam:.3f}: {gap:.1e}")
verdict = "; ".join(audit_news(target, grid)) or "log-supermodular on the audited grid"
print(f"  ratio ordering: {verdict}")

print("\nPosterior stakes fall as news degrades (median voter, widest profile)")
sigma = np.full((2, 2), 0.25)
for x in (0.3, 0.6, 0.9):
    tech = NewsTechnology.slant(x)
    nu = posterior_value(tech, build(figure3_scenario(x)).utility, (0.2, 0.6), sigma, 1, 0, 0.0)
    print(f"  xi={x:.1f}: value of hearing (extreme alpha, centrist beta) = {nu:+.4f}")

print("\nEquilibria and attention sets across the slant grid")
scan = np.arange(0.05, 1.0, 0.05)
pairs = [(a1, a2) for a1 in scan for a2 in scan if a2 > a1 + 1e-9]
for x in (0.6, 0.75, 0.9):
    scenario = build(figure3_scenario(x))
    records = enumerate_equilibria(scenario)
    members = sum(
        attention_membership(
            signal_belief(scenario.news, scenario.utility, p, sigma, -0.001), scenario.mu
        )
        for p in pairs
    )
    pols = [r.assignment.policies for r in records]
    print(f"  xi={x:.2f}: equilibria {pols}")
    print(f"          attentive (a1, a2) pairs on the scan grid: {members}/{len(pairs)}")
print("\nBliss points sit at (0.25, 0.75): noisier news pushes proposals there.")
