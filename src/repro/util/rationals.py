"""Exact-rational helpers shared across the library.

The paper's quantities live in two numeric worlds:

* **Combinatorial data** — loop bounds ``L_i``, cache size ``M`` — are
  exact positive integers.
* **Log-space data** — ``beta_i = log_M L_i`` and the LP variables
  ``lambda_i = log_M b_i`` — are generally irrational reals.

All linear programs in this library are solved in exact rational
arithmetic, so log-space inputs must be rational.  We provide two ways
to obtain a rational ``beta``:

1. :func:`exact_log` — when ``L`` is an exact power ``M**(p/q)``,
   returns the exact ``Fraction(p, q)``.  ``L`` and ``M`` are then
   powers of one integer, which Euclid's algorithm on the exponents
   finds with integer divisions; one divisibility test rejects most
   other values.  All golden tests use such configurations (powers of
   a common base), so the paper's closed forms reproduce with zero
   error.
2. :func:`approx_log` — otherwise, a ``Fraction`` approximation of the
   real logarithm with at least ``digits`` correct decimal digits.

Because the value function of the tiling LP is piecewise linear with a
bounded Lipschitz constant in ``beta`` (coefficients are small
rationals), an approximation error ``eps`` in ``beta`` perturbs the LP
value by ``O(d * eps)``; callers that need exactness should arrange
power-of-base inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "F",
    "exact_log",
    "approx_log",
    "log_ratio",
    "beta_vector",
    "pow_fraction",
    "integer_nth_root",
    "is_power",
    "frac_to_float",
    "format_fraction",
    "format_affine",
]

#: Short alias used pervasively in the numeric core.
F = Fraction


def integer_nth_root(value: int, n: int) -> int:
    """Return ``floor(value ** (1/n))`` computed exactly with integers.

    Uses Newton iteration on integers; exact for arbitrarily large
    ``value`` (no float rounding).
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    if n <= 0:
        raise ValueError("n must be positive")
    if value in (0, 1) or n == 1:
        return value
    # Seed at or above the root with integers only (a float seed
    # overflows past ~2**1024): the root of the value's top bits,
    # shifted back, or a power of two when the value is small.
    shift = value.bit_length() // (2 * n)
    if shift:
        guess = (integer_nth_root(value >> (n * shift), n) + 1) << shift
    else:
        guess = 1 << -(-value.bit_length() // n)
    while guess**n > value:
        # Newton step for f(x) = x^n - value.
        guess = ((n - 1) * guess + value // guess ** (n - 1)) // n
    while (guess + 1) ** n <= value:
        guess += 1
    return guess


def is_power(value: int, base: int) -> int | None:
    """If ``value == base**k`` for an integer ``k >= 0``, return ``k``.

    Returns ``None`` when ``value`` is not an exact power of ``base``.
    """
    if value <= 0 or base <= 1:
        return None
    k = 0
    v = value
    while v % base == 0:
        v //= base
        k += 1
    return k if v == 1 else None


def exact_log(value: int, base: int, max_den: int = 64) -> Fraction | None:
    """Exact ``log_base(value)`` as a ``Fraction``, if one exists.

    ``log_base(value)`` is rational exactly when ``value`` and ``base``
    are powers of one integer ``r``.  Euclid's algorithm on the unknown
    exponents decides it with integer divisions: of two powers of ``r``
    the larger is divisible by the smaller, so divide it out as often
    as it goes, track each side as ``value**s * base**t``, and repeat
    until a side reaches 1 (rational: ``value**s * base**t == 1``) or
    the smaller side does not divide the larger (irrational).  Most
    values fail the first divisibility test.  Returns the log when its
    reduced denominator is at most ``max_den``, else ``None``.
    """
    if value <= 0 or base <= 1:
        raise ValueError("need value > 0 and base > 1")
    if value == 1:
        return F(0)
    # x == value**sx * base**tx and y == value**sy * base**ty, with
    # x >= y > 1 at the top of each round.
    x, sx, tx = value, 1, 0
    y, sy, ty = base, 0, 1
    while True:
        if x < y:
            x, sx, tx, y, sy, ty = y, sy, ty, x, sx, tx
        n = 0
        while x % y == 0:
            x //= y
            n += 1
        if n == 0:
            return None
        sx, tx = sx - n * sy, tx - n * ty
        if x == 1:
            log = F(-tx, sx)
            return log if log.denominator <= max_den else None


def approx_log(value: int, base: int, digits: int = 15) -> Fraction:
    """Rational approximation of ``log_base(value)``.

    Correct to roughly ``digits`` decimal digits (bounded by float64
    precision of the underlying logarithms).  Equal to
    ``Fraction(ratio).limit_denominator(10**digits)``; the continued
    fraction runs on plain integers instead of ``Fraction`` objects.
    """
    if value <= 0 or base <= 1:
        raise ValueError("need value > 0 and base > 1")
    ratio = math.log(value) / math.log(base)
    return F(*_limit_denominator(*ratio.as_integer_ratio(), 10**digits))


def _limit_denominator(n: int, d: int, max_den: int) -> tuple[int, int]:
    """``Fraction(n, d).limit_denominator(max_den)`` as ``(p, q)``.

    The same best-approximation walk over convergents and the last
    semiconvergent, with the closer candidate chosen by an integer
    comparison (ties go to the convergent, as in :mod:`fractions`).
    ``d`` must be positive and ``gcd(n, d) == 1``, as
    :meth:`float.as_integer_ratio` guarantees.
    """
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_den - q0) // q1
    # p1/q1 is den/(q1*d) from n/d; the two candidates are
    # 1/(q1*(q0 + k*q1)) apart and n/d lies between them.
    if 2 * den * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def log_ratio(value: int, base: int, digits: int = 15) -> Fraction:
    """``log_base(value)`` as a Fraction: exact when possible, else approximate."""
    exact = exact_log(value, base)
    if exact is not None:
        return exact
    return approx_log(value, base, digits=digits)


def beta_vector(bounds: Sequence[int], cache_words: int, digits: int = 15) -> list[Fraction]:
    """The vector ``beta_i = log_M L_i`` for loop bounds ``L`` and cache ``M``."""
    return [log_ratio(L, cache_words, digits=digits) for L in bounds]


@lru_cache(maxsize=1 << 16)
def pow_fraction(base: int, exponent: Fraction) -> float:
    """``base ** exponent`` for a rational exponent, as a float.

    Exact integer powers are computed with integer arithmetic first so
    that e.g. ``pow_fraction(2**20, F(3, 2))`` has no error beyond the
    final float conversion.  Exponents whose numerator/denominator are
    large (typically :func:`approx_log` outputs for non-power inputs)
    skip the exact path — materialising ``base**numerator`` there would
    be astronomically expensive for no precision gain.  Pure in both
    arguments, so results are memoised (plan-cache sweeps hit the same
    ``(M, k_hat)`` pairs constantly).
    """
    exponent = F(exponent)
    if exponent.denominator == 1 and abs(exponent.numerator) <= 4096:
        if exponent.numerator >= 0:
            return float(base ** exponent.numerator)
        return 1.0 / float(base ** (-exponent.numerator))
    if exponent.denominator <= 64 and 0 <= exponent.numerator <= 4096:
        power = base**exponent.numerator
        root = integer_nth_root(power, exponent.denominator)
        if root**exponent.denominator == power:
            return float(root)
    return float(base) ** float(exponent)


def frac_to_float(values: Iterable[Fraction]) -> list[float]:
    """Convert an iterable of Fractions to floats (convenience for numpy)."""
    return [float(v) for v in values]


def format_fraction(value: Fraction) -> str:
    """Human-readable rendering: integers plain, else ``p/q``."""
    value = F(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_affine(constant: Fraction, coeffs: Sequence[Fraction], names: Sequence[str]) -> str:
    """Render ``constant + sum_i coeffs[i] * names[i]`` compactly.

    Used to pretty-print pieces of the multiparametric value function,
    e.g. ``1 + b3`` or ``3/2``.
    """
    parts: list[str] = []
    if constant != 0:
        parts.append(format_fraction(constant))
    for coeff, name in zip(coeffs, names):
        if coeff == 0:
            continue
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{format_fraction(coeff)}*{name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"
