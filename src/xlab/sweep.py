"""Sweeps of n * lambda_n against the predicted jump-asymptotics limit.

A sweep reads every n of a degree schedule off one kernel prefix at its
largest degree, by the route ``christoffel.support_prefix`` takes for the
support kind, then extrapolates n * lambda_n with a least-squares
1/n + 1/n^2 model (the limit itself carries no proven rate, so the model is
an engineering choice recorded in the fit).
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .christoffel import route_kernel, support_prefix
from .equilibrium import equilibrium_density
from .errors import DomainError, InputError, NumericError, as_index
from .measures import jump_limits
from .quadrature import build_rule

JUMP_FACTOR_TIE_RTOL = 1e-12  # relative |A-B| below which the limit value is used
FIT_WINDOW = 6                # largest successful rows the extrapolation fits


def jump_factor(A, B):
    """(A - B) / (ln A - ln B), continued by its limit A on the diagonal."""
    A, B = float(A), float(B)
    if not (A > 0 and B > 0):
        raise DomainError("jump values must be positive")
    if abs(A - B) < JUMP_FACTOR_TIE_RTOL * max(A, B):
        return A
    return (A - B) / (math.log(A) - math.log(B))


def predicted_limit(measure, z=None):
    """Predicted limit of n * lambda_n at z = ``measure.point(z)``.

    The value is jump_factor(left, right) / density(z) where left/right
    are the one-sided density limits of the measure at z and density is
    the equilibrium density of the support, |G'(z)|/(2 pi) from its
    Green's potential G.
    """
    z = measure.point(z)
    factor = jump_factor(*jump_limits(measure, z))
    return factor / equilibrium_density(measure.support)(z)


def geometric_schedule(n_min=8, n_max=512, ratio=1.25):
    """Strictly increasing degrees from n_min to exactly n_max."""
    n_min, n_max = as_index(n_min, "n_min"), as_index(n_max, "n_max")
    if not (1 <= n_min <= n_max):
        raise InputError("schedule needs 1 <= n_min <= n_max")
    if not 1.0 < ratio < math.inf:
        raise InputError("schedule ratio must be finite and exceed 1")
    ns = [n_min]
    while ns[-1] < n_max:  # a step past n_max stops at it, not at inf
        step = int(round(min(ns[-1] * ratio, n_max)))
        ns.append(min(max(ns[-1] + 1, step), n_max))
    return ns


@dataclass
class SweepRow:
    n: int
    lambda_n: float
    n_lambda_n: float
    predicted_limit: float
    relative_error: float
    ok: bool = True
    note: str = ""


@dataclass
class FitModel:
    """Least-squares model n*lambda_n = L + c1/n + c2/n^2 over a window."""

    coefficients: tuple
    residual: float
    spread: float
    window: tuple
    flagged: bool = False

    @property
    def description(self):
        L, c1, c2 = self.coefficients
        text = (f"n*lambda_n = {L!r} + {c1!r}/n + {c2!r}/n^2 over n in "
                f"{list(self.window)}; rms residual {self.residual:.3e}, "
                f"window spread {self.spread:.3e}")
        if self.flagged:
            text += "; ill-conditioned, raw last value reported"
        return text


@dataclass
class SweepResult:
    measure: object
    z: complex
    rows: list = field(default_factory=list)
    extrapolated_limit: float = None
    fit_model: FitModel = None
    # rule_s, kernel_prefix_s (recurrence or Gram factor and the prefix
    # sums), route ("recurrence" or "gram"), node_count, achieved_degree and
    # residual_max
    stages: dict = field(default_factory=dict)

    @property
    def ok_rows(self):
        return [r for r in self.rows if r.ok]


def run_sweep(measure, z=None, schedule=None):
    """Evaluate lambda_n over a degree schedule from one pass to max(schedule).

    ``support_prefix`` gives the kernel prefix sums K_n(z) up to
    max(schedule), by the Stieltjes recurrence on an interval, the block
    Levinson recursion on a circle or a lemniscate and one Cholesky factor on
    an ellipse, and they give lambda_n for all smaller n.  A row that
    ``route_kernel`` refuses (beyond a breakdown, an overflowed kernel, or
    every row under an uncertified route) fails with the refusal as its note.
    ``result.stages`` records the time of each setup stage, the route, and
    the size and quality of the orthonormal polynomials.  Where no jump law
    applies (z off the support) the predicted limit is nan.
    """
    schedule = [as_index(n, "a schedule degree")
                for n in (() if schedule is None else schedule)]
    if not schedule:
        raise InputError("schedule must be a non-empty increasing list")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly increasing")
    if schedule[0] < 1:
        raise InputError(f"schedule degrees must be at least 1, got {schedule[0]}")
    z = measure.point(z)

    try:
        predicted = predicted_limit(measure, z=z)
    except DomainError:
        predicted = float("nan")

    n_max = schedule[-1]
    t0 = time.perf_counter()
    rule = build_rule(measure, n_max)
    t1 = time.perf_counter()
    prefix, residual, route = support_prefix(rule, measure.support, n_max, z)
    t2 = time.perf_counter()

    stages = {"rule_s": t1 - t0, "kernel_prefix_s": t2 - t1, "route": route,
              "node_count": rule.node_count, "achieved_degree": prefix.size - 1,
              "residual_max": residual}
    result = SweepResult(measure=measure, z=z, stages=stages)
    for n in schedule:
        try:
            lam, note = 1.0 / route_kernel(prefix, residual, route, n), ""
        except NumericError as exc:
            lam, note = float("nan"), str(exc)
        result.rows.append(SweepRow(
            n=n, lambda_n=lam, n_lambda_n=n * lam, predicted_limit=predicted,
            relative_error=(n * lam - predicted) / predicted, ok=not note,
            note=note))
    return result


def extrapolate(result):
    """Extrapolated limit of n * lambda_n from the largest successful rows.

    Fits L + c1/n + c2/n^2 by least squares over the largest FIT_WINDOW
    rows and returns L, recording coefficients and residual on
    ``result.fit_model``.  A fit whose rms residual exceeds 10% of the
    window spread is ill-conditioned: a warning is issued and the raw last
    value is returned with the model flagged.
    """
    rows = result.ok_rows
    if len(rows) < 4:
        raise DomainError("extrapolation needs at least 4 successful rows")
    tail = rows[-FIT_WINDOW:]
    ns = np.array([r.n for r in tail], dtype=float)
    ys = np.array([r.n_lambda_n for r in tail], dtype=float)
    design = np.column_stack([np.ones_like(ns), 1.0 / ns, 1.0 / ns ** 2])
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fit = design @ coeffs
    residual = float(np.sqrt(np.mean((fit - ys) ** 2)))
    spread = float(ys.max() - ys.min())
    model = FitModel(coefficients=tuple(float(c) for c in coeffs),
                     residual=residual, spread=spread,
                     window=tuple(int(n) for n in ns))
    if spread > 0 and residual > 0.1 * spread:
        model.flagged = True
        warnings.warn("extrapolation fit is ill-conditioned; reporting the "
                      "raw value at the largest degree", RuntimeWarning)
        value = float(ys[-1])
    else:
        value = float(coeffs[0])
    result.fit_model = model
    result.extrapolated_limit = value
    return value


SWEEP_CSV_HEADER = "n,lambda_n,n_lambda_n,predicted_limit,relative_error"


def format_sweep_csv(result):
    """Deterministic CSV text: repr of each float, one line per row."""
    lines = [SWEEP_CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([str(r.n), repr(float(r.lambda_n)),
                               repr(float(r.n_lambda_n)),
                               repr(float(r.predicted_limit)),
                               repr(float(r.relative_error))]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(result, path):
    with open(path, "w") as fh:
        fh.write(format_sweep_csv(result))
