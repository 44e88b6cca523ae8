"""Seeded random instances whose payoffs meet a target time modulus.

Payoffs combine three ingredients: a deterministic base with per-slot slopes,
and a martingale carrying the outcome information, scaled so that each
refinement step moves the payoff by at most half the slope budget times the
step length.  The result is adapted by construction and Lipschitz in the
total time displacement with constant at most the requested slope, so the
continuity assumption holds with eta(delta) = slope * delta before slack.
Each field is built as integer rows on one denominator: every term is
tabulated once as numerators on a common denominator D, an entry is a sum of
table entries clamped to [0, D] on integers, and the rows are divided by
their gcd with D, so ``den`` is the lcm of the values' reduced denominators.
No payoff entry is ever a ``Fraction``.

The grid is uniform with a step small enough that a window width exists for
the default tolerance; the last point is the never-stop stand-in.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .payoff import PayoffField
from .space import FilteredSpace, TimeGrid, _numerators, cond_exp, rat


@dataclass(frozen=True)
class Instance:
    space: FilteredSpace
    fields: tuple[PayoffField, ...]
    epsilon: Fraction
    seed: int


def random_partitions(rng: random.Random, n_outcomes: int, n_times: int):
    parts = [[tuple(range(n_outcomes))]]
    for _ in range(n_times - 2):
        prev = parts[-1]
        nxt = []
        for block in prev:
            if len(block) > 1 and rng.random() < 0.7:
                cut = rng.randint(1, len(block) - 1)
                nxt.append(tuple(block[:cut]))
                nxt.append(tuple(block[cut:]))
            else:
                nxt.append(block)
        parts.append(nxt)
    parts.append([(w,) for w in range(n_outcomes)])
    return tuple(tuple(p) for p in parts)


def random_space(rng: random.Random, n_outcomes: int, n_times: int, step) -> FilteredSpace:
    step = rat(step)
    raw = [rng.randint(1, 9) for _ in range(n_outcomes)]
    total = sum(raw)
    weights = tuple(Fraction(r, total) for r in raw)
    points = tuple(k * step for k in range(n_times))
    return FilteredSpace(
        grid=TimeGrid(points),
        weights=weights,
        partitions=random_partitions(rng, n_outcomes, n_times),
    )


def random_payoff(
    space: FilteredSpace, rng: random.Random, slope: Fraction, arity: int = 3
) -> PayoffField:
    n = space.n_outcomes
    K = space.grid.terminal_index
    info = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(n))
    mart = [cond_exp(space, info, k) for k in range(K + 1)]
    jump = max(
        (abs(mart[k + 1][w] - mart[k][w]) for k in range(K) for w in range(n)),
        default=Fraction(0),
    )
    half = slope * Fraction(9, 20)  # strictly inside the per-part budget
    gamma = min(Fraction(1), half * space.grid.min_step / jump) if jump else Fraction(1)
    slopes = [Fraction(rng.randint(-100, 100), 100) * half for _ in range(arity)]
    base = Fraction(rng.randint(35, 65), 100)
    # base + sum_i slopes[i] * t_i + gamma * (mart at max ks - mart[0][0]),
    # each term a table of numerators on one common denominator D
    terms = [[base], *([s * t for t in space.grid.points] for s in slopes)]
    moves = [[gamma * (m - mart[0][0]) for m in layer] for layer in mart]
    D = math.lcm(*(v.denominator for t in (*terms, *moves) for v in t))
    M = [_numerators(t, D) for t in moves]
    tuples = itertools.product(range(K + 1), repeat=arity)
    sums = map(sum, itertools.product(*(_numerators(t, D) for t in terms)))
    rows = {ks: tuple(min(max(v + m, 0), D) for m in M[max(ks)]) for ks, v in zip(tuples, sums)}
    # den is the lcm of the values' reduced denominators, as PayoffField(values) picks
    g = math.gcd(D, *itertools.chain.from_iterable(rows.values()))
    if g > 1:
        for ks, row in rows.items():
            rows[ks] = tuple(v // g for v in row)
    return PayoffField.from_rows(space, arity, rows, D // g)


def generate_instance(
    seed: int,
    n_outcomes: int = 2,
    n_times: int = 4,
    slope="1",
    epsilon="1/20",
    n_players: int = 3,
) -> Instance:
    """Deterministic instance for a seed; payoffs lie in [0,1].

    The uniform step is sized so that slope * step stays well under epsilon,
    which keeps a valid window width available and the construction's
    orderings inside their tolerance budgets.
    """
    slope, epsilon = rat(slope), rat(epsilon)
    if slope <= 0:
        raise ValueError("slope must be positive")
    rng = random.Random(seed)
    step = epsilon / (slope * 2 * (n_times + 2))
    space = random_space(rng, n_outcomes, n_times, step)
    fields = tuple(
        random_payoff(space, rng, slope, arity=n_players) for _ in range(n_players)
    )
    return Instance(space=space, fields=fields, epsilon=epsilon, seed=seed)
