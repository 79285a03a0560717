"""Result records returned by the numerical kernels."""

from __future__ import annotations

from collections import namedtuple

# Diagnostic flags attached to EvalResult.flags
NEAR_POLE = "NEAR_POLE"
# no route sets SLOW_CONVERGENCE; the name stays for the code that reads it
SLOW_CONVERGENCE = "SLOW_CONVERGENCE"
ASYMPTOTIC_REGIME = "ASYMPTOTIC_REGIME"
RECURRENCE_UNSTABLE = "RECURRENCE_UNSTABLE"
CANDIDATE = "CANDIDATE"
NONCONVERGENT = "NONCONVERGENT"


class EvalResult(namedtuple("EvalResult",
                            "value abs_err_est terms_used flags")):
    """Value of a special-function evaluation plus error bookkeeping.

    An immutable record: a tuple, so equal records hash equal.

    Attributes
    ----------
    value : complex
        The computed value.
    abs_err_est : float
        Estimated absolute error (last-neglected-term heuristic plus
        accumulated-roundoff estimate; an estimate, not a bound).
    terms_used : int
        Number of series terms / quadrature panels consumed.
    flags : frozenset of str
        Diagnostic flags (NEAR_POLE, RECURRENCE_UNSTABLE, ...).
    """

    __slots__ = ()

    def __new__(cls, value, abs_err_est=0.0, terms_used=0,
                flags=frozenset()):
        if abs_err_est < 0:
            raise ValueError("abs_err_est must be nonnegative")
        return tuple.__new__(cls, (value, abs_err_est, terms_used, flags))

    @property
    def re(self) -> float:
        return complex(self[0]).real

    @property
    def im(self) -> float:
        return complex(self[0]).imag

    # scaled, scaled_rounded and with_flags skip __new__'s check: an
    # estimate that is >= 0 stays so under |c|, a share >= 0 and flags
    def scaled(self, c) -> "EvalResult":
        """The result times the prefactor c; the estimate scales by |c|."""
        return tuple.__new__(EvalResult, (c * self[0], abs(c) * self[1],
                                          self[2], self[3]))

    def scaled_rounded(self, c, share: float) -> "EvalResult":
        """``scaled`` for a prefactor c whose own relative rounding is
        share: the estimate also adds share times the new value's size."""
        v = c * self[0]
        return tuple.__new__(EvalResult, (v, abs(c) * self[1]
                                          + share * abs(v), self[2], self[3]))

    def with_flags(self, *extra: str) -> "EvalResult":
        return tuple.__new__(EvalResult, (self[0], self[1], self[2],
                                          self[3] | frozenset(extra)))


def merge_flags(*results: EvalResult) -> frozenset:
    out: frozenset = frozenset()
    for r in results:
        out = out | r.flags
    return out
