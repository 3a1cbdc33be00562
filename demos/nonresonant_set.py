"""Probe the non-resonant set: a pass, a failure, and the measure of each.

The divisor test certifies that the corrected frequencies of a state stay
away from integer relations. At small amplitude almost every state passes.
This demo shows a certificate in full, then hunts at order-one amplitude
for a state that fails and prints the witnessing index vector, and closes
with a Monte Carlo estimate of the non-resonant fraction.
"""

import math
import warnings

import numpy as np

from stringnf.core import WeightSpec
from stringnf.divisors import NonResonanceParams, is_nonresonant
from stringnf.measure import MeasureSpec, estimate_measure, sample_actions


def describe(report):
    if report.ok:
        print(f"  non-resonant, margin {report.margin:.3e}")
    else:
        print(f"  resonant: {report.reason or 'divisor under threshold'}")
    if report.witness is not None:
        print(
            f"  tightest divisor at order {report.witness_order}, "
            f"index vector {report.witness}"
        )


def main():
    weight = WeightSpec("sobolev", s=3.0)

    print("small amplitude, 8 modes, gamma = 0.1")
    params = NonResonanceParams(2, 8, 0.1, weight)
    batch = sample_actions(MeasureSpec(weight, 8, 1, seed=11))
    describe(is_nonresonant(batch.state(0, eps=1e-3), params))

    # crank the amplitude until the corrected frequencies collide
    print("\norder-one amplitude, 2 modes, gamma = 0.9")
    loose = NonResonanceParams(2, 2, 0.9, WeightSpec("sobolev", s=0.0))
    big = MeasureSpec(WeightSpec("sobolev", s=0.0), 2, 400, seed=11, ball_radius=8.0)
    hits = sample_actions(big)
    # score every draw as arrays, then report the first failure in full
    failures = np.flatnonzero(~hits.nonresonant(1.0, loose))
    if len(failures):
        print(f"  draw {failures[0]}:")
        describe(is_nonresonant(hits.state(failures[0]), loose))
    else:
        print("  no failure in 400 draws")

    print("\nnon-resonant fraction at the certified amplitude scale")
    spec = MeasureSpec(weight, 8, 2000, seed=17)
    eps = math.sqrt(0.999 * 2.0 * 0.05 / (3.0 * 8.0**10))
    for gamma in (0.05, 0.2):
        params = NonResonanceParams(2, 8, gamma, weight)
        est = estimate_measure(params, spec, eps)
        print(
            f"  gamma = {gamma:4.2f}  fraction = {est.fraction:.4f}  "
            f"95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}]"
        )

    # past the certified scale the estimator still answers, but it warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_measure(NonResonanceParams(2, 8, 0.05, weight), spec, eps=1e-3)
    if caught:
        print(f"\nat eps = 1e-3 the estimator warns: {caught[0].message}")


if __name__ == "__main__":
    main()
