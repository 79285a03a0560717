"""Result records returned by the numerical kernels."""

from __future__ import annotations

from dataclasses import dataclass, field

# Diagnostic flags attached to EvalResult.flags
NEAR_POLE = "NEAR_POLE"
SLOW_CONVERGENCE = "SLOW_CONVERGENCE"
ASYMPTOTIC_REGIME = "ASYMPTOTIC_REGIME"
RECURRENCE_UNSTABLE = "RECURRENCE_UNSTABLE"
CANDIDATE = "CANDIDATE"
NONCONVERGENT = "NONCONVERGENT"


@dataclass(frozen=True)
class EvalResult:
    """Value of a special-function evaluation plus error bookkeeping.

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
        Diagnostic flags (NEAR_POLE, SLOW_CONVERGENCE, ...).
    """

    value: complex
    abs_err_est: float = 0.0
    terms_used: int = 0
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.abs_err_est < 0:
            raise ValueError("abs_err_est must be nonnegative")

    @property
    def re(self) -> float:
        return complex(self.value).real

    @property
    def im(self) -> float:
        return complex(self.value).imag

    def scaled(self, c) -> "EvalResult":
        """The result times the prefactor c; the estimate scales by |c|."""
        return EvalResult(c * self.value, abs(c) * self.abs_err_est,
                          self.terms_used, self.flags)

    def with_flags(self, *extra: str) -> "EvalResult":
        return EvalResult(self.value, self.abs_err_est, self.terms_used,
                          self.flags | frozenset(extra))


def merge_flags(*results: EvalResult) -> frozenset:
    out: frozenset = frozenset()
    for r in results:
        out = out | r.flags
    return out
