"""
04_weighted_inference.py

Weighted kernels pair each sample with a nonnegative weight so that
weighted averages estimate expectations under a target the sampler never
draws from directly. The contract is properness: for every test function
h, E[w * h(x)] under the sampler equals the target integral of h.

spw_check is the built-in audit for that contract. It estimates E[w * h]
by Monte Carlo and compares against a reference value within three
standard errors.
"""

import math

from jointkern import (
    DetMap, Finite, Real, UNIT_VALUE, constant_weight,
    expected_value_by_enumeration, from_primitive, bernoulli,
    joint_log_density, kleisli_compose, spw_check, uniform01,
    unnormalized_log_density, weighted,
)

# Proposal: x ~ Uniform(0,1). Weight: w(x) = 2x. The weighted pair
# targets the density 2x on [0,1], so E[h(x)] under the target is
# E[2x * h(x)] under the proposal.
base = from_primitive(uniform01(), "u")
wk = weighted(base, [lambda t, z: 2.0 * t["u"]])

h = DetMap(Real(1), Real(1), float, "id")
(report,) = spw_check(wk, [h], [2.0 / 3.0], n=50_000, seed=14)
print("target mean under density 2x is 2/3")
print("spw audit:", {k: round(v, 5) if isinstance(v, float) else v
                     for k, v in report.items()})

# A wrong reference fails the same audit.
(bad,) = spw_check(wk, [h], [0.5], n=50_000, seed=14)
print("audit against the wrong reference passes:", bad["pass"])

# Weight-one kernels are plain probabilistic models; enumeration gives
# the exact expectation on finite spaces.
coin = weighted(from_primitive(bernoulli(0.45), "c"))
print("\nE[x] for a 0.45 coin by enumeration:",
      expected_value_by_enumeration(coin, UNIT_VALUE,
                                    DetMap(Finite(2), Real(1), float, "x")))

# Weights compose along with the kernels. Chaining a weighted stage after
# another multiplies their weights, and the unnormalized density is the
# base density times the total weight.
stage1 = weighted(from_primitive(bernoulli(0.5), "a"),
                  [lambda t, z: 3.0 if t["a"] else 1.0])
stage2 = weighted(
    from_primitive(bernoulli(lambda z: 0.9 if z else 0.1, dom=Finite(2)),
                   "b"),
    [lambda t, z: 5.0 if t["b"] else 1.0])
both = kleisli_compose(stage1, stage2)

trace = {"a": 1, "b": 1}
print("\ntrace:", trace)
print("base log-density:",
      round(joint_log_density(both.base, UNIT_VALUE, trace), 6))
print("log(density * weight):",
      round(unnormalized_log_density(both, UNIT_VALUE, trace), 6))

# The composite weight at that trace is 3 * 5 = 15. The second stage's
# factor reads that stage's input, which is the first stage's output.
print("total weight:", math.exp(both.log_weight(trace, UNIT_VALUE)))

# constant_weight(1.0) attaches no factors at all.
assert constant_weight(both.base, 1.0).weight_factors == ()

# Properness survives composition: audit the two-stage kernel against its
# exact weighted expectation, computed by enumeration.
h2 = DetMap(Finite(2), Real(1), float, "out")
ref = expected_value_by_enumeration(both, UNIT_VALUE, h2)
(rep,) = spw_check(both, [h2], [ref], n=50_000, seed=15)
print("\ntwo-stage audit against enumerated reference:",
      "pass" if rep["pass"] else "fail",
      f"(estimate {rep['estimate']:.4f}, reference {ref:.4f})")
