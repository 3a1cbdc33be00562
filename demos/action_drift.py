"""Measure how slowly the mode actions leak at small amplitude.

Samples one non-resonant state, scales it to a few amplitudes eps, and runs
each copy to its natural horizon T = 1/eps^2. The sup-weighted action drift
should shrink much faster than the amplitude itself; the log-log slope
printed at the end is the observed power.

A larger version of the same experiment, with files and a confidence check,
runs as `stringnf drift-sweep`.
"""

import math

import numpy as np

from stringnf.core import WeightSpec
from stringnf.divisors import NonResonanceParams
from stringnf.measure import MeasureSpec, sample_actions
from stringnf.simulator import SimConfig, simulate, trajectory_summary
from stringnf.transforms import ZState, z_to_uv

M = 8
EPS = [0.4, 0.2, 0.1]


def main():
    weight = WeightSpec("sobolev", s=3.0)
    params = NonResonanceParams(2, M, 0.1, weight)
    batch = sample_actions(MeasureSpec(weight, M, 32, seed=7))
    z = batch.state(np.flatnonzero(batch.nonresonant(1.0, params))[0])
    print(f"base state on {M} modes, non-resonant at gamma=0.1")

    drifts = []
    for eps in EPS:
        state = z_to_uv(ZState(z.scale(eps)))
        horizon = 1.0 / eps**2
        traj = simulate(state, SimConfig(dt=2e-3, T=horizon, M=M, record_stride=50, weight=weight))
        s = trajectory_summary(traj)
        drifts.append(s["sup_action_drift_max"])
        print(
            f"  eps = {eps:4.2f}  T = {horizon:6.1f}  sup action drift = "
            f"{s['sup_action_drift_max']:.3e}  energy drift = {s['energy_rel_drift_max']:.1e}"
        )

    logs = [(math.log(e), math.log(d)) for e, d in zip(EPS, drifts)]
    xbar = sum(x for x, _ in logs) / len(logs)
    ybar = sum(y for _, y in logs) / len(logs)
    slope = sum((x - xbar) * (y - ybar) for x, y in logs) / sum((x - xbar) ** 2 for x, _ in logs)
    print(f"\nobserved drift scaling: eps^{slope:.2f}")


if __name__ == "__main__":
    main()
