"""
Jump asymptotics on the unit circle
===================================

The Christoffel function lambda_n(mu, z) is the smallest L2(mu) mass a
degree-n polynomial with P(z) = 1 can have.  For the arc-length measure
with a piecewise-constant weight (A = 2 ahead of the jump, B = 1 after),
n lambda_n at the jump point converges to

    jump_factor(A, B) / density(z0) = 2 pi (A - B) / ln(A / B),

about 9.06472 for A = 2, B = 1.  This script sweeps n, extrapolates the
limit, and compares with the closed form.
"""

import math

from xlab import (circle_jump_measure, extrapolate, geometric_schedule,
                  predicted_limit, run_sweep)

measure = circle_jump_measure(A=2.0, B=1.0)
print("measure:", measure)
print("jump point z0 =", measure.z0)

predicted = predicted_limit(measure)
print(f"predicted limit  {predicted:.6f}  (2 pi / ln 2 = "
      f"{2 * math.pi / math.log(2):.6f})")

# one route pass at n = 512 serves every row of the schedule
schedule = geometric_schedule(32, 512, 1.25)
result = run_sweep(measure, schedule=schedule)
print(f"\n{'n':>5s} {'n lambda_n':>12s} {'rel error':>11s}")
for row in result.rows:
    print(f"{row.n:5d} {row.n_lambda_n:12.6f} {row.relative_error:+11.2e}")

limit = extrapolate(result)
print(f"\nextrapolated     {limit:.6f}   "
      f"(off by {abs(limit - predicted) / predicted:.2e})")
print("fit:", result.fit_model.description)

# the convergence is visible but slow; the 1/n fit removes most of it
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ns = [r.n for r in result.rows]
    ys = [r.n_lambda_n for r in result.rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogx(ns, ys, "o-", label="n lambda_n")
    ax.axhline(predicted, color="k", lw=0.8, label="predicted limit")
    ax.set_xlabel("n")
    ax.set_ylabel("n lambda_n")
    ax.legend()
    fig.tight_layout()
    fig.savefig("circle_jump_asymptotics.png", dpi=120)
    print("\nwrote circle_jump_asymptotics.png")
except ImportError:
    pass
