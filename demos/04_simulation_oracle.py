#!/usr/bin/env python3
"""The Monte Carlo oracle: seeded, reproducible, and honest about error.

Every exact number in the package can be corroborated by simulation. This
script samples paths with the built-in splitmix64 streams and compares the
estimates (with their standard errors) against the exact solver values.
"""

from fractions import Fraction as F

from exactchain import PathRng, SimConfig, sample_path
from exactchain.analysis import expected_cost_until, until_probability
from exactchain.crowds import FIG3, build_crowds, joint_first_last, path_shape_error
from exactchain.simulate import estimate_cost, estimate_joint_first_last, estimate_until
from exactchain.zeroconf import ZeroconfParams, build_zeroconf

params = ZeroconfParams(N=1, p=F(1, 2), q=F(1, 2), r=1, E=0)
rchain = build_zeroconf(params)
chain = rchain.chain

print("A few sampled allocation runs (seed 42):")
for i in range(4):
    path = sample_path(chain, "Start", PathRng(42, i), max_steps=12)
    print(f"  path {i}: {' -> '.join(path.states)}")

exact = until_probability(chain, chain.states, {"Error"}, "Start")
cfg = SimConfig(seed=7, samples=200_000)
est = estimate_until(chain, chain.states, {"Error"}, "Start", cfg)
dev = abs(est.mean - float(exact)) / est.std_error
print(f"\nP(error): exact {exact} = {float(exact)}")
print(f"  estimate {est.mean:.5f} +- {est.std_error:.5f} "
      f"({est.samples_used} samples, {est.censored} censored, {dev:.2f} sigma off)")

exact_cost = expected_cost_until(rchain, {"Ok", "Error"}, "Start")
cest = estimate_cost(rchain, {"Ok", "Error"}, "Start", cfg)
cdev = abs(cest.mean - float(exact_cost)) / cest.std_error
print(f"\nE[cost]: exact {exact_cost} = {float(exact_cost)}")
print(f"  estimate {cest.mean:.5f} +- {cest.std_error:.5f} ({cdev:.2f} sigma off)")

print("\nDeterminism: the same seed reproduces the estimate bit for bit:",
      estimate_until(chain, chain.states, {"Error"}, "Start", cfg) == est)

model = build_crowds(FIG3)
counts = estimate_joint_first_last(model, SimConfig(seed=7, samples=200_000))
print(f"\nCrowds joint counts over {counts.hits} collaborator hits:")
for (i, l), n in sorted(counts.counts.items()):
    cell = float(joint_first_last(FIG3, i, l))
    print(f"  ({i}, {l}): {n/counts.hits:.5f} observed vs {cell:.5f} exact")

bad = sum(
    1
    for i in range(5_000)
    if path_shape_error(
        model, sample_path(model.chain, "Start", PathRng(7, i), max_steps=64).states
    )
)
print(f"\nRoute shape violations in 5000 sampled paths: {bad}")
