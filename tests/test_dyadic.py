import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfadft.design import quantize_half
from pfadft.dyadic import CsdCode, csd_encode, csd_eval


class TestRoundToHalf:
    """The entrywise round-to-half quantizer, ``design.quantize_half``."""

    @pytest.mark.parametrize("x,expected", [
        (1.125, 1.0),        # round(2.25) = 2
        (-0.974, -1.0),      # round(-1.948) = -2
        (0.25, 0.5),         # tie 0.5 rounds away from zero
        (-0.25, -0.5),
        (0.0, 0.0),
        (0.74, 0.5),
        (0.75, 1.0),
    ])
    def test_examples(self, x, expected):
        assert quantize_half(np.array([x]))[0] == expected
        assert quantize_half(x) == expected

    @given(st.floats(-1e6, 1e6))
    def test_odd(self, x):
        assert quantize_half(-x) == -quantize_half(x)

    @given(st.floats(-1e6, 1e6))
    def test_error_bounded_by_quarter(self, x):
        assert abs(quantize_half(x) - x) <= 0.25 + 1e-9

    @given(st.floats(-1e3, 1e3))
    def test_result_is_half_integer(self, x):
        y = float(quantize_half(x))
        assert y == math.floor(2 * y) / 2 or y == math.ceil(2 * y) / 2
        assert float(2 * y).is_integer()


# CSD constants applied to the composed output scales: value and |error|
# (rounded to 5 places) for the square roots of the eight case radicands.
SCALE_CSD_TABLE = [
    (Fraction(66, 91), Fraction(55, 64), 0.00774, (1, 0, 0, -1, 0, 0, -1, 0)),
    (Fraction(11, 13), Fraction(59, 64), 0.00201, (1, 0, 0, 0, -1, 0, -1, 0)),
    (Fraction(6, 7), Fraction(119, 128), 0.00387, (1, 0, 0, 0, -1, 0, 0, -1)),
    (Fraction(341, 494), Fraction(27, 32), 0.01292, (1, 0, 0, -1, 0, -1, 0, 0)),
    (Fraction(93, 133), Fraction(27, 32), 0.00754, (1, 0, 0, -1, 0, -1, 0, 0)),
    (Fraction(31, 38), Fraction(29, 32), 0.00304, (1, 0, 0, -1, 0, 1, 0, 0)),
    (Fraction(1023, 1729), Fraction(49, 64), 0.00358, (1, 0, -1, 0, 0, 0, 1, 0)),
]


class TestCsd:
    @pytest.mark.parametrize("radicand,frac,err,digits", SCALE_CSD_TABLE)
    def test_scale_constants(self, radicand, frac, err, digits):
        code = csd_encode(math.sqrt(float(radicand)))
        assert csd_eval(code) == frac
        assert code.digits == digits
        assert round(abs(math.sqrt(float(radicand)) - float(frac)), 5) == err

    def test_exact_one(self):
        code = csd_encode(1.0)
        assert csd_eval(code) == 1 and code.nonzero_count == 1

    def test_eval_examples(self):
        assert csd_eval(CsdCode((1, 0, 0, -1, 0, 0, -1, 0))) == Fraction(55, 64)
        assert csd_eval(CsdCode((1, 0, -1, 0, 0, 0, 1, 0))) == Fraction(49, 64)
        assert csd_eval(CsdCode((1, 0, 0, 0, 0, 0, 0, 0))) == 1

    def test_adjacent_nonzeros_rejected(self):
        with pytest.raises(ValueError):
            CsdCode((1, 1, 0))
        with pytest.raises(ValueError):
            CsdCode((0, 1, -1, 0))

    def test_domain_checks(self):
        for bad in (0.0, -0.5, 2.0, 2.5):
            with pytest.raises(ValueError):
                csd_encode(bad)
        with pytest.raises(ValueError):
            csd_encode(0.9, max_nonzero=0)
        with pytest.raises(ValueError):
            csd_encode(0.9, frac_bits=8)

    @given(st.floats(0.01, 1.3))
    def test_encode_properties(self, v):
        # values above ~1.31 are not reachable with one integer digit and a
        # 3-nonzero budget; the scale constants all sit well inside (0.7, 1)
        code = csd_encode(v)
        assert code.nonzero_count <= 3
        assert all(a == 0 or b == 0 for a, b in zip(code.digits, code.digits[1:]))
        assert abs(float(csd_eval(code)) - v) < 1 / 32

    @given(st.floats(0.3, 1.7))
    def test_encode_is_optimal_among_valid_codes(self, v):
        code = csd_encode(v)
        err = abs(float(csd_eval(code)) - v)
        # brute check against every 2-nonzero code (cheap sample of the space)
        for i in range(8):
            for j in range(i + 2, 8):
                for si in (-1, 1):
                    for sj in (-1, 1):
                        digits = [0] * 8
                        digits[i], digits[j] = si, sj
                        val = float(csd_eval(CsdCode(tuple(digits))))
                        assert err <= abs(val - v) + 1e-15

    @pytest.mark.parametrize("max_nonzero,frac_bits", [(3, 7), (2, 7), (1, 4), (4, 5)])
    def test_encode_matches_exhaustive_scan(self, max_nonzero, frac_bits):
        # the scan over every valid code with exact Fraction keys is the
        # definition of the tie rule: distance, then digit count, then |value|
        codes = [CsdCode(d) for d in itertools.product((-1, 0, 1), repeat=1 + frac_bits)
                 if sum(map(abs, d)) <= max_nonzero
                 and all(a == 0 or b == 0 for a, b in zip(d, d[1:]))]
        rng = random.Random(max_nonzero * 10 + frac_bits)
        values = ([rng.uniform(1e-6, 1.999999) for _ in range(12)]
                  + [math.sqrt(a / b) for b in (7, 9, 13) for a in range(1, b + 1, 2)]
                  + [k / 256 for k in (1, 3, 183, 255, 257, 471)])  # midpoints of 1/128 steps
        for v in values:
            target = Fraction(v)
            want = min(codes, key=lambda c: (abs(csd_eval(c) - target), c.nonzero_count,
                                             abs(csd_eval(c))))
            assert csd_encode(v, max_nonzero, frac_bits) == want, v
