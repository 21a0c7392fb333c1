"""Seeded command lists for the benchmark workloads.

Each workload is a list of ``gstirling`` argument vectors.  The seed picks
the parameter values; the sizes, formats and denominators sit in fixed
slots, so every seed asks for about the same amount of work and the
run-to-run spread measures the machine rather than the draw.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("grid", "roots", "tables")

COARSE_WIDTH = Fraction(1, 64)
FINE_WIDTH = Fraction(1, 2**20)

# roots: the parameter box alpha in [-2, 2), beta in [-2, 0) is cut into
# 4 x 4 cells and one pair is drawn per cell.  Region A covers all of it
# except part of alpha > 1, so most draws are real-rooted members.
ALPHA_CELLS = tuple((Fraction(lo), Fraction(lo + 1)) for lo in range(-2, 2))
BETA_CELLS = tuple((Fraction(lo, 2), Fraction(lo + 1, 2)) for lo in range(-4, 0))


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus the facts the oracle needs to check it."""

    kind: str
    args: tuple[str, ...]
    info: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Sizes:
    roots_nmax: int
    roots_cells: int  # how many of the 16 cells to use
    table_slots: tuple[tuple[int, str], ...]
    poly_degrees: tuple[int, ...]
    eval_slots: int
    eval_range: tuple[int, int]


FULL = Sizes(
    roots_nmax=9,
    roots_cells=16,
    table_slots=((150, "csv"), (200, "json"), (250, "csv"), (300, "json")),
    # polys of similar cost, so the tail invocation time falls among them
    # rather than in a gap between unlike commands
    poly_degrees=(150, 160, 170, 180),
    # the top of this range is past n ~ 170, where eval overflows a float
    # (a known defect); those invocations stay in and count as failures
    eval_slots=10,
    eval_range=(20, 199),
)

# a few seconds of work, for the benchmark's own tests
SMOKE = Sizes(
    roots_nmax=4,
    roots_cells=2,
    table_slots=((12, "csv"), (10, "json")),
    poly_degrees=(9,),
    eval_slots=2,
    eval_range=(5, 14),
)


# Numerators are drawn coprime to the slot's denominator, so a draw never
# reduces to a smaller denominator: denominators set the coefficient sizes
# and so most of the cost and memory.

def _in_cell(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A rational p/den in lowest terms drawn uniformly from [lo, hi)."""
    numerators = range(math.ceil(lo * den), math.ceil(hi * den))
    return Fraction(rng.choice([p for p in numerators if math.gcd(p, den) == 1]), den)




def in_region_a(alpha: Fraction, beta: Fraction) -> bool:
    """Region A: beta < 0, alpha <= 2 and (beta - 1)**2 + 4*alpha*beta >= 0."""
    return beta < 0 and alpha <= 2 and (beta - 1) ** 2 + 4 * alpha * beta >= 0


def grid(seed: int, sizes: Sizes = FULL) -> list[Command]:
    # the grid is fixed inside the program, so the seed has nothing to pick;
    # its output is checked against the digest recorded at the seed commit
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    return [Command("verify", ("verify", "--all"), expected)]


def roots(seed: int, sizes: Sizes = FULL) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    cells = [(i, j) for i in range(len(ALPHA_CELLS)) for j in range(len(BETA_CELLS))]
    for i, j in cells[: sizes.roots_cells]:
        # denominators are fixed per cell; only numerators are drawn
        alpha = _in_cell(rng, *ALPHA_CELLS[i], 2 + (i + j) % 3)
        beta = _in_cell(rng, *BETA_CELLS[j], 3 + (i + 2 * j + 1) % 3)
        # six coarse cells and ten fine ones, so neither the median nor the
        # tail invocation time falls in the gap between the two widths
        width = COARSE_WIDTH if (i + j) % 3 == 0 else FINE_WIDTH
        args = (
            "zeros", "--alpha", str(alpha), "--beta", str(beta),
            "--nmax", str(sizes.roots_nmax), "--max-width", str(width),
        )
        info = {"alpha": alpha, "beta": beta, "nmax": sizes.roots_nmax, "width": width}
        commands.append(Command("zeros", args, info))
    rng.shuffle(commands)
    return commands


def tables(seed: int, sizes: Sizes = FULL) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    slot = 0

    def pair() -> tuple[Fraction, Fraction]:
        # alpha in [-2, 2) and |beta| in [1, 8/5); the denominators (up to
        # 9) and the sign of beta are fixed per slot, as they set entry sizes
        nonlocal slot
        slot += 1
        alpha = _in_cell(rng, Fraction(-2), Fraction(2), 2 + (3 * slot) % 8)
        beta = _in_cell(rng, Fraction(1), Fraction(8, 5), 2 + (5 * slot + 3) % 8)
        return alpha, beta if slot % 2 else -beta

    for nmax, fmt in sizes.table_slots:
        alpha, beta = pair()
        args = ("table", "--alpha", str(alpha), "--beta", str(beta), "--nmax", str(nmax), "--format", fmt)
        commands.append(Command("table", args, {"alpha": alpha, "beta": beta, "nmax": nmax, "format": fmt}))
    for n in sizes.poly_degrees:
        alpha, beta = pair()
        args = ("poly", "--alpha", str(alpha), "--beta", str(beta), "--n", str(n), "--format", "json")
        commands.append(Command("poly", args, {"alpha": alpha, "beta": beta, "n": n}))
    lo, hi = sizes.eval_range
    step = (hi - lo + 1) / sizes.eval_slots
    for s in range(sizes.eval_slots):
        alpha, beta = pair()
        n = rng.randint(lo + math.ceil(s * step), lo + math.ceil((s + 1) * step) - 1)
        den = 1 + s % 4
        x = Fraction(rng.randint(-2 * den, 4 * den), den)
        args = ("eval", "--alpha", str(alpha), "--beta", str(beta), "--n", str(n), "--x", str(x))
        commands.append(Command("eval", args, {"alpha": alpha, "beta": beta, "n": n, "x": x}))
    rng.shuffle(commands)
    return commands


def build(workload: str, seed: int, sizes: Sizes = FULL) -> list[Command]:
    return {"grid": grid, "roots": roots, "tables": tables}[workload](seed, sizes)
