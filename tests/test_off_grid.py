"""Every ``verify`` check on seeded random rational pairs off the built-in
grid, one pair at a time, the way ``verify --identity NAME --alpha A
--beta B`` runs it."""

import random
from fractions import Fraction

import pytest

from gstirling import suite

NMAX = 6


def _draw(rng, top, sign=0):
    """A nonzero rational p/q with |p| <= top and q <= 7; sign -1 or 1 fixes
    its sign, 0 leaves it drawn."""
    value = Fraction(rng.choice([p for p in range(-top, top + 1) if p]), rng.randint(1, 7))
    return abs(value) * sign if sign else value


def _cases():
    rng = random.Random(20261020)
    cases = []
    while len(cases) < 4:
        alpha, beta, alpha2, beta2 = (_draw(rng, 9) for _ in range(4))
        if (alpha, beta) not in suite.GRID:
            cases.append((alpha, beta, alpha2, beta2))
    return cases


CASES = _cases()


def _options(check, alpha, beta, alpha2, beta2):
    if check.name == "log-concave":
        # the claim is made only for alpha <= 0 and beta < 0
        alpha, beta = -abs(alpha), -abs(beta)
    options = {"alpha": alpha, "beta": beta}
    if "alpha2" in check.flags:
        options.update(alpha2=alpha2, beta2=beta2)
    return options


@pytest.mark.parametrize("check", suite.CHECKS, ids=lambda check: check.name)
def test_every_check_passes_off_the_grid(check):
    # specializations takes no pair: its families are fixed
    runs = [_options(check, *case) for case in CASES] if check.flags else [{}]
    lines = []
    for options in runs:
        results, _ = suite.single_results(check.name, nmax=NMAX, **options)
        assert results
        lines += [result.line for result in results]
    assert not [line for line in lines if not line.startswith("PASS")]
