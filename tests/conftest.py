import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def random_complex(rng, n, count=1):
    z = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    return z[:, 0] if count == 1 else z


def zero_sign_blocks(rng, n, width):
    """Real, imaginary, impulse and random +-0 blocks with exact zero signs."""
    def parts(re, im):
        return np.stack(np.broadcast_arrays(re, im), axis=-1).view(np.complex128)[..., 0]
    re, im = rng.standard_normal((2, n, width))
    impulse = np.zeros((n, width))
    impulse[np.arange(width) % n, np.arange(width)] = -1.0
    return {"real": parts(re, 0.0), "imag": parts(-0.0, im), "impulse": parts(impulse, 0.0),
            "zeros": parts(*np.copysign(0.0, rng.standard_normal((2, n, width))))}


# Leaf lengths for random plans; approximate kernels exist only for 3, 11, 31.
TREE_LENGTHS = (2, 3, 4, 5, 7, 11, 31)


@st.composite
def coprime_plans(draw, max_n=1023):
    """JSON plans over random coprime factor trees, leaf kinds and scales."""
    factors = []
    for f in draw(st.permutations(TREE_LENGTHS))[: draw(st.integers(1, 4))]:
        if math.gcd(f, math.prod(factors)) == 1 and math.prod(factors) * f <= max_n:
            factors.append(f)

    def shape(fs):
        if len(fs) == 1:
            return fs[0]
        k = draw(st.integers(1, len(fs) - 1))
        return [shape(fs[:k]), shape(fs[k:])]

    kinds = {str(f): draw(st.sampled_from(
        ("approx", "exact", "definition") if f in (3, 11, 31) else ("exact", "definition")))
        for f in factors}
    scale = draw(st.sampled_from(("none", "exact", "csd")))
    return json.dumps({"n": math.prod(factors), "tree": shape(factors),
                       "kernels": kinds, "scale": scale})
