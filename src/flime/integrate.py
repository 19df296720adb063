"""Adaptive Dormand-Prince 5(4) integration for complex-valued linear ODEs.

One integrator backs every propagation in the package (monodromy matrices,
rate-matrix evolution and the direct reference solver) so that timing
comparisons between formulations measure the formulation, not the stepper.

The stepper lands on every requested output time exactly by clamping the
step size, rather than evaluating an interpolation polynomial, so solution
values at output points carry no interpolation error.

A ``(B, m)`` state is a block of B independent problems stepped together:
the error norm is the largest row RMS, so every row keeps the per-step
error control it would have on its own.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["OdeTol", "IntegratorStats", "IntegrationError", "integrate_adaptive"]


@dataclass(frozen=True)
class OdeTol:
    """Error control settings for the adaptive integrator.

    ``max_step`` is expressed as a fraction of the driving period and is
    converted to an absolute step bound by the caller.
    """

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float | None = None

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError("max_step must be positive when given")


@dataclass
class IntegratorStats:
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0


class IntegrationError(RuntimeError):
    """Raised on step-size underflow; carries the last time reached."""

    def __init__(self, message, t_reached):
        super().__init__(f"{message} (time reached: {t_reached!r})")
        self.t_reached = t_reached


# Dormand-Prince 5(4) tableau.  Seven stages, first-same-as-last.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between the 5th and embedded 4th order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Complex copies of the rows, so a stage sum's product casts nothing; it is
# then scaled by h and added to the state in place, with the same rounding
# as y + h * (row @ k) and no further temporaries.
_A_C = [row.astype(complex) for row in _A]
_B5_C = _B5.astype(complex)
_E_C = _E.astype(complex)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _rms(x):
    """RMS of a vector; for a (B, m) block, the largest row RMS."""
    mean_sq = np.mean(np.abs(x) ** 2, axis=-1)
    return np.sqrt(mean_sq if x.ndim == 1 else mean_sq.max())


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore"):
        return float(_rms(err / scale))


def _stage_sum(row, stages, h, y):
    """``y + h * (row @ stages)``, with one temporary."""
    out = (row @ stages).reshape(y.shape)
    out *= h
    out += y
    return out


def _initial_step(rhs, t0, y0, f0, rtol, atol, max_step):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def _repeat_memo(fn):
    """Wrap ``t -> fn(t)`` so that a call at the previous call's t returns
    the previous value instead of evaluating ``fn`` again.

    The last two Dormand-Prince stages both sit at t + h, so a right-hand
    side that builds an operator of t builds it once per step instead of
    twice.  The value serves that one repeat call and is then dropped, and
    a new evaluation drops the old value first, so at most one value is
    held, and none between steps.
    """
    last_t = last = None

    def memo(t):
        nonlocal last_t, last
        if t == last_t:
            value, last_t, last = last, None, None
            return value
        last = None
        last, last_t = fn(t), t
        return last

    return memo


def integrate_adaptive(rhs, t0, y0, t_out, rtol=1e-8, atol=1e-10,
                       max_step=np.inf):
    """Integrate dy/dt = rhs(t, y) from ``t0``, sampling at ``t_out``.

    Parameters
    ----------
    rhs : callable(t, y) -> ndarray
        Right-hand side; may return complex values.  ``y`` has the shape of
        ``y0``.
    y0 : ndarray, shape (m,) or (B, m)
        Initial state, or a block of B states whose step error is the
        largest row RMS.
    t_out : array_like
        Strictly increasing output times, all >= ``t0``.  The stepper hits
        each one exactly.

    Returns
    -------
    (ndarray of shape (len(t_out), *y0.shape), IntegratorStats)
    """
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    if t_out.size == 0:
        raise ValueError("no output times requested")
    if np.any(np.diff(t_out) <= 0.0):
        raise ValueError("output times must be strictly increasing")
    if t_out[0] < t0:
        raise ValueError(f"first output time {t_out[0]} precedes start time {t0}")

    y = np.asarray(y0, dtype=complex).copy()
    if y.ndim not in (1, 2):
        raise ValueError(f"y0 must be 1-D or a 2-D block, got shape {y.shape}")
    t = float(t0)
    stats = IntegratorStats()
    out = np.empty((t_out.size, *y.shape), dtype=complex)

    i_out = 0
    if t_out[0] == t0:
        out[0] = y
        i_out = 1
        if i_out == t_out.size:
            return out, stats

    f = rhs(t, y)
    stats.rhs_evals += 1
    h = _initial_step(rhs, t, y, f, rtol, atol, max_step)
    stats.rhs_evals += 1

    K = np.empty((7, *y.shape), dtype=complex)
    flat_k = K.reshape(7, y.size)  # a view, so stage sums are one product
    while i_out < t_out.size:
        t_target = t_out[i_out]
        h_min = 16 * np.finfo(float).eps * max(abs(t), 1.0)
        hit_target = False
        # snap onto the target when the step reaches or lands within one
        # minimum step of it, so no sub-epsilon sliver remains
        if t + h + h_min >= t_target:
            h = t_target - t
            hit_target = True
        if h <= h_min and not hit_target:
            raise IntegrationError("step size underflow", t)

        K[0] = f
        for s in range(1, 7):
            K[s] = rhs(t + _C[s] * h, _stage_sum(_A_C[s], flat_k[:s], h, y))
        stats.rhs_evals += 6
        y_new = _stage_sum(_B5_C, flat_k, h, y)
        err = (_E_C @ flat_k).reshape(y.shape)
        err *= h
        norm = _error_norm(err, y, y_new, rtol, atol)

        if norm <= 1.0:
            t = t_target if hit_target else t + h
            y = y_new
            f = K[6].copy()  # first-same-as-last
            stats.steps_accepted += 1
            if hit_target:
                out[i_out] = y
                i_out += 1
            factor = _MAX_FACTOR if norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
            h = min(h * factor, max_step)
        else:
            stats.steps_rejected += 1
            if np.isfinite(norm):
                h *= max(_MIN_FACTOR, min(1.0, _SAFETY * norm ** -0.2))
            else:
                h *= _MIN_FACTOR

    return out, stats
