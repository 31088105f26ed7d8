"""The kernel multiplier set and canonical signed-digit (CSD) encoding.

Everything here is exact: a CSD code with at most 7 fractional digits is an
integer m over 128, the codes are searched by m, and a code evaluates to a
Fraction. Binary64 is only used on analysis paths, never to define a kernel
entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    """Exact rational value of a CSD code."""
    return sum((Fraction(d, 2 ** i) for i, d in enumerate(code.digits)), Fraction(0))


@lru_cache(maxsize=None)
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


def csd_encode(v: float, max_nonzero: int = 3, frac_bits: int = 7) -> CsdCode:
    """Best CSD approximation of v with the given digit budget.

    Minimizes |v - value(code)|; ties break toward fewer nonzero digits and
    then toward the smaller absolute value.
    """
    if not (0.0 < v < 2.0):
        raise ValueError(f"csd_encode expects 0 < v < 2, got {v!r}")
    if max_nonzero < 1:
        raise ValueError("max_nonzero must be at least 1")
    if frac_bits > 7:
        raise ValueError("frac_bits is limited to 7")
    codes = _all_codes(max_nonzero, frac_bits)
    target = Fraction(v) * 128
    # the best code is the nearest one below or the nearest one at or above
    i = bisect_left(codes, target, key=lambda c: c[0])
    near = codes[max(i - 1, 0): i + 1]
    return min(near, key=lambda c: (abs(c[0] - target), c[1], abs(c[0])))[2]
