import random
from pathlib import Path

import pytest

from mpcodes import LinearCode, MatGF, parse_element
from mpcodes.mpcode import _dc_witnesses

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def mat(spec, rows):
    """Build a MatGF from rows given as token strings like 'a^2 1 0'."""
    return MatGF(spec, [[parse_element(t, spec) for t in row.split()] for row in rows])


def code(spec, rows):
    return LinearCode.from_generator(mat(spec, rows))


def random_matrix(spec, rows, cols, rng):
    return MatGF(spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)])


def random_code(spec, n, k, rng):
    """A random code of length n and dimension *at most* k."""
    if k == 0:
        return LinearCode.zero(spec, n)
    return LinearCode.from_generator(random_matrix(spec, k, n, rng))


def code_sum(*codes):
    """The span of the codes' generators."""
    return LinearCode.from_generator(MatGF.vstack([c.gen for c in codes]))


def random_completion(a, rng, tries=200):
    """A random invertible square matrix whose first rows equal ``a``."""
    n = a.cols
    m = a.rows
    for _ in range(tries):
        extra = [[rng.randrange(a.spec.q) for _ in range(n)] for _ in range(n - m)]
        cand = MatGF(a.spec, list(a.data) + extra)
        if cand.rank() == n:
            return cand
    raise AssertionError("could not complete matrix randomly")


def completion_holds(mp, ell, b):
    """Whether every dual-containment condition read off the zeta of the
    completion b of mp's defining matrix holds: zeta = (sigma^l(B) B^T)^-1."""
    zeta = (b.frobenius_map(ell) @ b.T).inverse()
    return all(w.ok for w in _dc_witnesses(zeta, mp, ell))


@pytest.fixture
def rng():
    return random.Random(20240817)
