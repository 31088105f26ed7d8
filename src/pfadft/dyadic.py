"""The kernel multiplier set and canonical signed-digit (CSD) encoding.

Everything here is exact: a CSD code with at most 7 fractional digits is an
integer m over 128 in non-adjacent form, the codes are searched by m, and a
code evaluates to a Fraction. Binary64 is only used on analysis paths, never
to define a kernel entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

# Multiplier set for kernel-grade entries: {-1, -1/2, 0, 1/2, 1}.
MULTIPLIER_SET = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
MULTIPLIER_MAX = Fraction(1)


@dataclass(frozen=True)
class CsdCode:
    """Canonical signed-digit code: one integer digit, up to 7 fractional.

    digits[i] is the coefficient of 2**-i. Canonical form forbids adjacent
    nonzero digits; codes used for scale constants carry at most three
    nonzero digits so a multiplication costs at most two additions.
    """

    digits: tuple

    def __post_init__(self):
        if len(self.digits) < 1 or len(self.digits) > 8:
            raise ValueError("CSD code must have 1 integer + at most 7 fractional digits")
        if any(d not in (-1, 0, 1) for d in self.digits):
            raise ValueError("CSD digits must be -1, 0, or 1")
        for a, b in zip(self.digits, self.digits[1:]):
            if a != 0 and b != 0:
                raise ValueError("CSD code has adjacent nonzero digits")

    @property
    def nonzero_count(self) -> int:
        return sum(1 for d in self.digits if d != 0)

    def __float__(self) -> float:
        return float(csd_eval(self))

    def __str__(self) -> str:
        marks = {1: "1", 0: "0", -1: "̅1"}  # overline-1 rendered as combining mark
        head = marks[self.digits[0]]
        tail = "".join(marks[d] for d in self.digits[1:])
        return f"{head}.{tail}"


def csd_eval(code: CsdCode) -> Fraction:
    """Exact rational value of a CSD code: its digits read as one integer
    (Horner's rule) over 2 to the number of fractional digits."""
    m = 0
    for d in code.digits:
        m = 2 * m + d
    return Fraction(m, 2 ** (len(code.digits) - 1))


def _all_codes(max_nonzero: int, frac_bits: int):
    """Every code of the budget as (128 * value, digit count, code), sorted.

    128 * value is an integer since codes carry at most 7 fractional digits,
    and no two codes share it: the non-adjacent form of an integer is unique.
    """
    codes = []
    for digits in product((-1, 0, 1), repeat=1 + frac_bits):
        if sum(1 for d in digits if d != 0) > max_nonzero:
            continue
        if any(a != 0 and b != 0 for a, b in zip(digits, digits[1:])):
            continue
        code = CsdCode(digits)
        codes.append((sum(d << (7 - i) for i, d in enumerate(digits)), code.nonzero_count, code))
    codes.sort(key=lambda c: c[0])
    return tuple(codes)


def csd_encode(v: float) -> CsdCode:
    """Best CSD approximation of v with at most three nonzero digits and
    seven fractional digits, the budget of the scale constants.

    Minimizes |v - value(code)| over the first m at or above 128 v and the
    first below it whose non-adjacent form (the code of m / 128) has at most
    8 digits and 3 nonzeros (none lies above 1.3125, and 0 is one); ties
    break toward fewer nonzero digits and then the smaller absolute value.
    """
    if not (0.0 < v < 2.0):
        raise ValueError(f"csd_encode expects 0 < v < 2, got {v!r}")
    target = Fraction(v) * 128

    def nearest(ms):
        # NAF digit i sits where bits i + 1 of 3m and m differ (Reitwiesner)
        for m in ms:
            digits = tuple((3 * m >> i & 1) - (m >> i & 1) for i in range(8, 0, -1))
            if 3 * m ^ m < 512 and sum(map(abs, digits)) <= 3:
                return m, digits

    k = math.ceil(target)
    near = [c for c in (nearest(range(k, 256)), nearest(range(k - 1, -1, -1))) if c]
    return CsdCode(min(near, key=lambda c: (abs(c[0] - target), sum(map(abs, c[1])), c[0]))[1])
