"""Curve-level invariants: genus, plurigenera, Riemann-Roch, and a
finite-sample Kodaira-dimension estimator for plurigenus growth data.

The estimator is an explicit heuristic for an asymptotic quantity: all
plurigenera zero gives -infinity; an eventually constant positive
sequence gives 0; otherwise the log-log slope through the two largest
samples is rounded, clamped below by 1 and above by the maximal
dimension when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    CoefficientOutOfRangeError,
    InsufficientSamplesError,
    InvalidInputError,
    NegativeCoefficientError,
)


@dataclass(frozen=True)
class KappaEstimate:
    """Kodaira dimension estimate; value None encodes -infinity."""

    value: int | None
    note: str = ""

    @property
    def is_minus_infinity(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "-inf" if self.value is None else str(self.value)


class PairClass(Enum):
    CANONICAL_OR_TERMINAL = "CanonicalOrTerminal"
    KLT = "Klt"
    LC = "Lc"
    NOT_LC = "NotLc"


def plane_curve_genus(d: int) -> int:
    """Genus (d-1)(d-2)/2 of a smooth plane curve of degree d."""
    if linalg.as_int(d, "d") < 1:
        raise InvalidInputError("degree must be positive", "d_out_of_range", "d")
    return (d - 1) * (d - 2) // 2


def curve_kappa(g: int) -> KappaEstimate:
    """Kodaira dimension of a smooth projective curve of genus g."""
    if linalg.as_int(g, "g") < 0:
        raise InvalidInputError("genus must be nonnegative", "genus_negative", "g")
    if g == 0:
        return KappaEstimate(None, "deg K = -2 < 0: rational curve")
    if g == 1:
        return KappaEstimate(0, "deg K = 0: elliptic curve")
    return KappaEstimate(1, "deg K > 0: general type")


def curve_plurigenus(g: int, m: int) -> int:
    """h^0 of the m-th canonical power on a genus-g curve."""
    if linalg.as_int(g, "g") < 0:
        raise InvalidInputError("genus must be nonnegative", "genus_negative", "g")
    if linalg.as_int(m, "m") < 1:
        raise InvalidInputError("m must be positive", "m_out_of_range", "m")
    if g == 0:
        return 0
    if g == 1:
        return 1
    if m == 1:
        return g
    return (2 * m - 1) * (g - 1)


def riemann_roch_curve(deg: int, g: int) -> int:
    """Euler characteristic 1 + deg D - g on a genus-g curve; a negative g
    is an input error on the field ``genus``."""
    if linalg.as_int(g, "genus") < 0:
        raise InvalidInputError("genus must be nonnegative", "genus_negative", "genus")
    return 1 + linalg.as_int(deg, "deg") - g


def _validate_samples(samples) -> list[tuple[int, int]]:
    """The samples sorted by m; faults name ``samples`` or ``samples[k]``."""
    samples = linalg.as_rows(samples, "samples")
    if not samples:
        raise InvalidInputError("expected a nonempty list of [m, P] pairs", "samples_empty", "samples")
    seen = set()
    for k, pair in enumerate(samples):
        field = f"samples[{k}]"
        if len(pair) != 2:
            raise InvalidInputError("expected [m, P]", "sample_malformed", field)
        m, p = pair
        if m < 1:
            raise InvalidInputError("m must be positive", "sample_bad_m", field)
        if p < 0:
            raise InvalidInputError("P must be nonnegative", "sample_bad_p", field)
        if m in seen:
            raise InvalidInputError(f"duplicate m = {m}", "sample_duplicate_m", field)
        seen.add(m)
    return sorted(samples)


def _log_ratio(x: int, y: int) -> Decimal:
    """log(x / y) at the current precision of p digits, within 3p units in
    its last digit.  Near x = y it sums 2 atanh((x - y) / (x + y)), as
    log(x) - log(y) would lose digits there."""
    if x < y:
        return -_log_ratio(y, x)
    if x >= 2 * y:
        return (Decimal(x) / y).ln()
    t = Decimal(x - y) / (x + y)
    term, total, j = t, Decimal(0), 1
    while total + term / j != total:
        total += term / j
        term *= t * t
        j += 2
    return 2 * total


def _rounded_slope(m1: int, p1: int, m2: int, p2: int) -> int:
    """max(1, round(log(p2/p1) / log(m2/m1))), half to even, decided exactly.

    The logarithms get more digits until the slope s is clear of k + 1/2,
    k = floor(s).  Inside the error bound, with a, b = m1, m2 over their gcd,
    s > k + 1/2 iff p2^2 a^(2k+1) > p1^2 b^(2k+1).  A tie needs b^(2k+1) to
    divide p2^2, so that test runs only while b^(2k+1) is no longer than p2^2.
    """
    g = gcd(m1, m2)
    a, b = m1 // g, m2 // g
    digits = 30
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            s = _log_ratio(p2, p1) / _log_ratio(b, a)
            es = abs(s) * 10 * digits * Decimal(10) ** (1 - digits)
            k = max(1, int(s))
            gap = s - k - Decimal("0.5")
            if abs(gap) > es:
                return k + (gap > 0)
            if es < Decimal("0.25") and (2 * k + 1) * (b.bit_length() - 1) <= 2 * p2.bit_length():
                lhs, rhs = p2 * p2 * a ** (2 * k + 1), p1 * p1 * b ** (2 * k + 1)
                return k + (lhs > rhs or (lhs == rhs and k % 2 == 1))
            # carry 30 digits past the point next time
            digits = 2 * max(digits, s.adjusted() // 2 + 15)


def estimate_kappa(samples, max_dim: int | None = None) -> KappaEstimate:
    """Estimate the growth exponent of a finite plurigenus sequence.

    The slope is rounded exactly, half to even: 3/2 and 5/2 both give 2.
    A negative max_dim is an input error on the field ``max_dim``.
    """
    pts = _validate_samples(samples)
    if max_dim is not None and linalg.as_int(max_dim, "max_dim") < 0:
        raise InvalidInputError("max_dim must be nonnegative", "max_dim_bad", "max_dim")
    if all(p == 0 for _, p in pts):
        return KappaEstimate(None, "all sampled plurigenera vanish")
    positive = [(m, p) for m, p in pts if p > 0]
    if len(positive) < 2:
        raise InsufficientSamplesError(
            "growth estimation needs at least two positive samples"
        )
    # boundedness window: at least the top half of the samples, never fewer
    # than two of them
    top = pts[min(len(pts) // 2, len(pts) - 2):]
    top_values = [p for _, p in top]
    if max(top_values) == min(top_values) and top_values[0] > 0:
        return KappaEstimate(
            0,
            f"plurigenus constant at {top_values[0]} from m = {top[0][0]} on",
        )
    (m1, p1), (m2, p2) = positive[-2], positive[-1]
    value = _rounded_slope(m1, p1, m2, p2)
    note = f"rounded log({p2}/{p1}) / log({m2}/{m1}) over window m = {m1}..{m2}"
    if max_dim is not None:
        value = min(value, max_dim)
    else:
        note += "; unclamped (no maximal dimension supplied)"
    return KappaEstimate(value, note)


def _validate_coeffs(coeffs) -> list[Fraction]:
    if not isinstance(coeffs, (list, tuple)):
        raise InvalidInputError("expected a list of coefficients", "wrong_type", "coeffs")
    return [linalg.as_fraction(c, f"coeffs[{k}]") for k, c in enumerate(coeffs)]


def classify_pair_on_curve(coeffs) -> PairClass:
    """Classify a pair on a smooth curve from its boundary coefficients."""
    cs = _validate_coeffs(coeffs)
    if any(c < 0 for c in cs):
        raise NegativeCoefficientError("boundary coefficients must be nonnegative")
    if all(c == 0 for c in cs):
        return PairClass.CANONICAL_OR_TERMINAL
    if all(c < 1 for c in cs):
        return PairClass.KLT
    if all(c <= 1 for c in cs):
        return PairClass.LC
    return PairClass.NOT_LC


def fano_pair_on_p1_check(coeffs) -> bool:
    """Anti-ampleness of K + B on the line: true iff the coefficients sum below 2."""
    cs = _validate_coeffs(coeffs)
    if any(not 0 <= c <= 1 for c in cs):
        raise CoefficientOutOfRangeError("coefficients must lie in [0, 1]")
    return sum(cs) < 2
