"""Payoff fields over time tuples, adaptedness checks, continuity moduli.

A payoff field assigns a random value to every tuple of grid times, one time
slot per player.  The game settles at the latest stop, so the slice at a time
tuple must be measurable at the maximum of its entries.  The continuity
modulus table bounds payoff changes by the total numeric time displacement,
with the terminal point's coordinate acting as the surrogate for infinity;
callers that intend genuine never-stop behavior should keep the field constant
between the last interior time and the terminal time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import NoValidH
from .space import RV, FilteredSpace, TimeGrid, rat

# added to the empirical maximum so the modulus bound is strict, as required
MODULUS_SLACK = Fraction(1, 10**9)


@dataclass(frozen=True)
class PayoffField:
    """Dense payoff tensor values[(k_1,..,k_N)] -> RV over a filtered space."""

    space: FilteredSpace
    arity: int
    values: dict[tuple[int, ...], RV]

    def at(self, ks: tuple[int, ...]) -> RV:
        return self.values[ks]

    def value_at(self, ks: tuple[int, ...], omega: int) -> Fraction:
        return self.values[ks][omega]

    def pin(self, slot: int, k: int) -> "PayoffField":
        """Freeze one time slot at index k, producing an arity-1 lower field.

        The result is adapted only on tuples whose maximum is >= k; callers
        must stay in that region (solvers conditioned at or after k do).
        """
        if not 0 <= slot < self.arity:
            raise ValueError(f"slot {slot} out of range for arity {self.arity}")
        vals: dict[tuple[int, ...], RV] = {}
        for ks, layer in self.values.items():
            if ks[slot] == k:
                vals[ks[:slot] + ks[slot + 1 :]] = layer
        return PayoffField(self.space, self.arity - 1, vals)

    def as_layers(self) -> list[RV]:
        """Arity-1 field as a per-time list (a raw process, maybe partial)."""
        if self.arity != 1:
            raise ValueError("only an arity-1 field is a process")
        return [self.values[(k,)] for k in range(len(self.space.grid))]

    def negated(self) -> "PayoffField":
        return PayoffField(
            self.space,
            self.arity,
            {ks: tuple(-v for v in layer) for ks, layer in self.values.items()},
        )

    def affine(self, a, b) -> "PayoffField":
        a, b = rat(a), rat(b)
        return PayoffField(
            self.space,
            self.arity,
            {ks: tuple(a * v + b for v in layer) for ks, layer in self.values.items()},
        )


def payoff_from_function(
    space: FilteredSpace, arity: int, fn: Callable[[tuple[int, ...], int], object]
) -> PayoffField:
    """Materialize fn(time-index tuple, omega) into a dense field."""
    K = space.grid.terminal_index
    vals: dict[tuple[int, ...], RV] = {}
    for ks in itertools.product(range(K + 1), repeat=arity):
        vals[ks] = tuple(rat(fn(ks, w)) for w in range(space.n_outcomes))
    return PayoffField(space, arity, vals)


def check_adapted(field: PayoffField) -> list[tuple[int, ...]]:
    """Time tuples whose outcome slice is not constant on max-time blocks."""
    space = field.space
    bad: list[tuple[int, ...]] = []
    for ks, layer in sorted(field.values.items()):
        k_max = max(ks)
        for block in space.partitions[k_max]:
            if len({layer[w] for w in block}) > 1:
                bad.append(ks)
                break
    return bad


@dataclass(frozen=True)
class Modulus:
    """Nondecreasing staircase delta -> eta(delta) with eta(0) = 0.

    ``table`` holds the jump points in increasing delta order; lookups between
    jump points return the value at the largest tabulated delta below.
    """

    table: tuple[tuple[Fraction, Fraction], ...]

    def eval(self, delta) -> Fraction:
        delta = rat(delta)
        if delta < 0:
            raise ValueError("displacement must be nonnegative")
        eta = Fraction(0)
        for d, v in self.table:
            if d <= delta:
                eta = v
            else:
                break
        return eta


def _pair_changes(field: PayoffField):
    """(total time displacement, max payoff change) for each distinct tuple pair."""
    grid = field.space.grid
    tuples = sorted(field.values)
    for i, ks in enumerate(tuples):
        for ks2 in tuples[i + 1 :]:
            delta = sum(
                (abs(grid.points[a] - grid.points[b]) for a, b in zip(ks, ks2)),
                Fraction(0),
            )
            diff = max(abs(x - y) for x, y in zip(field.values[ks], field.values[ks2]))
            yield delta, diff


def estimate_modulus(field: PayoffField) -> Modulus:
    """Empirical modulus: max payoff change at each total time displacement.

    The strict-inequality slack is one representable unit added to every
    positive-displacement entry, so the bound certifies the field with strict
    inequalities at displacement > 0 (equal tuples are trivially unchanged).
    """
    worst: dict[Fraction, Fraction] = {}
    for delta, diff in _pair_changes(field):
        if diff > worst.get(delta, Fraction(-1)):
            worst[delta] = diff
    table: list[tuple[Fraction, Fraction]] = []
    running = Fraction(0)
    for delta in sorted(worst):
        if delta == 0:
            continue
        running = max(running, worst[delta] + MODULUS_SLACK)
        table.append((delta, running))
    return Modulus(tuple(table))


def modulus_max(mods: Sequence[Modulus]) -> Modulus:
    """Pointwise maximum of several moduli (one uniform bound for all players)."""
    deltas = sorted({d for m in mods for d, _ in m.table})
    table = tuple((d, max(m.eval(d) for m in mods)) for d in deltas)
    return Modulus(table)


def certifies_field(mod: Modulus, field: PayoffField) -> bool:
    """Strict modulus bound over all distinct tuple pairs of the field."""
    return all(diff < mod.eval(delta) for delta, diff in _pair_changes(field))


def select_h(mod: Modulus, eps, grid: TimeGrid) -> Fraction:
    """Largest positive multiple of the minimal grid step with eta(h) < eps."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    step = grid.min_step
    best = None
    m = 1
    while m * step <= grid.span:
        h = m * step
        if mod.eval(h) < eps:
            best = h
        m += 1
    if best is None:
        raise NoValidH(
            f"even the minimal step {step} has eta={mod.eval(step)} >= {eps}"
        )
    return best
