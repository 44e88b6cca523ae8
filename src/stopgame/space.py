"""Finite filtered probability spaces, stopping times, conditional expectation.

The model is a finite outcome set with positive rational weights and, for each
point of a finite time grid, a partition of the outcomes (the information
available at that time).  Partitions refine as time advances and the last grid
point, which stands in for "never stop", separates every outcome.  Values are
exact :class:`fractions.Fraction` (conditional expectations sum integer
numerators per block); floats are rejected so tests can assert with ``==``.

Times are handled in two forms: a *value* is the rational coordinate of a grid
point, an *index* is its position in the grid.  Stopping times store indices.
Every stopping rule of the construction is read by ``first_hit``: per outcome,
the first index from a start at which a condition holds.  Every start is read
by ``stopped_atoms``, which also owns the stopping-time test.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

RV = tuple[Fraction, ...]  # one value per outcome
Atom = tuple[int, tuple[int, ...]]  # a start atom: (time index, outcome block)


def rat(x) -> Fraction:
    """Exact rational coercion; floats are rejected, decimal strings accepted."""
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected int/Fraction/str, got {type(x).__name__}")


def rv(values: Iterable) -> RV:
    return tuple(rat(v) for v in values)


def _numerators(values, den: int) -> tuple[int, ...]:
    """Integer numerators of rational ``values`` on the common denominator ``den``."""
    return tuple(v.numerator * (den // v.denominator) for v in values)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing rational time points; the last one stands for infinity."""

    points: tuple[Fraction, ...]

    def __post_init__(self):
        pts = tuple(rat(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("grid needs at least 2 points")
        if any(p < 0 for p in pts):
            raise ValueError("grid points must be nonnegative")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def terminal_index(self) -> int:
        return len(self.points) - 1

    @property
    def terminal(self) -> Fraction:
        return self.points[-1]

    @property
    def min_step(self) -> Fraction:
        return min(b - a for a, b in zip(self.points, self.points[1:]))

    @property
    def span(self) -> Fraction:
        return self.points[-1] - self.points[0]

    def index(self, t) -> int:
        t = rat(t)
        try:
            return self.points.index(t)
        except ValueError:
            raise ValueError(f"{t} is not a grid point") from None

    def index_at_or_after(self, t) -> int:
        """Smallest index whose point is >= t; terminal if t exceeds the grid."""
        return min(bisect_left(self.points, rat(t)), self.terminal_index)


def phi_h(t, h) -> Fraction:
    """Next strictly-later multiple of h: (floor(t/h) + 1) * h."""
    t, h = rat(t), rat(h)
    if h <= 0:
        raise ValueError("h must be positive")
    return (math.floor(t / h) + 1) * h


def make_grid(points: Iterable) -> TimeGrid:
    return TimeGrid(tuple(rat(p) for p in points))


@dataclass(frozen=True)
class FilteredSpace:
    """Outcome weights plus one partition of the outcomes per grid time.

    Construction only checks shapes; use :func:`validate_space` for the model
    invariants (normalization, refinement, terminal separation) so that broken
    inputs can be diagnosed instead of rejected blindly.
    """

    grid: TimeGrid
    weights: tuple[Fraction, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(rat(w) for w in self.weights))
        object.__setattr__(
            self,
            "partitions",
            tuple(
                tuple(tuple(sorted(block)) for block in part)
                for part in self.partitions
            ),
        )
        if len(self.partitions) != len(self.grid):
            raise ValueError("need one partition per grid time")
        n = len(self.weights)
        for part in self.partitions:
            seen = sorted(w for block in part for w in block)
            if seen != list(range(n)):
                raise ValueError("each partition must cover the outcomes exactly once")

    @property
    def n_outcomes(self) -> int:
        return len(self.weights)

    @cached_property
    def block_id(self) -> tuple[tuple[int, ...], ...]:
        """block_id[k][omega] -> position of omega's block in partitions[k]."""
        return tuple(fill_blocks(self, part, range(len(part))) for part in self.partitions)

    @cached_property
    def wnum(self) -> tuple[int, ...]:
        """Outcome weights as integer numerators on their common denominator."""
        return _numerators(self.weights, math.lcm(*(w.denominator for w in self.weights)))

    @cached_property
    def children(self) -> tuple[dict[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
        """children[k][B] -> the blocks of partitions[k+1] whose first outcome
        lies in block B of partitions[k], in partition order (k < terminal)."""
        return tuple(
            {block: tuple(c for c in finer if c[0] in block) for block in part}
            for part, finer in zip(self.partitions, self.partitions[1:])
        )

    @cached_property
    def block_wnum(self) -> tuple[tuple[int, ...], ...]:
        """block_wnum[k][b] -> sum of ``wnum`` over block b of partitions[k]."""
        return tuple(
            tuple(sum(self.wnum[w] for w in block) for block in part)
            for part in self.partitions
        )

    def windows(self, h: Fraction) -> tuple[tuple[Fraction, ...], dict]:
        """The window schedule at width h, worked out once per space and h:
        per interior grid index k its target phi_h(t_k), and per distinct
        target g in increasing order g -> (anchor, window), the first index at
        or after g and the indices of the grid times in [g-h, g]."""
        tables = self.__dict__.setdefault("_windows", {})  # dies with the space
        if h not in tables:
            points = self.grid.points
            targets = tuple(phi_h(t, h) for t in points[:-1])
            spans = {g: (bisect_left(points, g - h), bisect_right(points, g)) for g in targets}
            tables[h] = targets, {
                g: (self.grid.index_at_or_after(g), tuple(range(*spans[g]))) for g in sorted(spans)
            }
        return tables[h]


def validate_space(space: FilteredSpace) -> list[str]:
    """Model invariant diagnostics; empty list means the space is valid."""
    problems: list[str] = []
    if any(w <= 0 for w in space.weights):
        problems.append("weights must all be positive")
    if sum(space.weights) != 1:
        problems.append(f"weights sum to {sum(space.weights)}, expected 1")
    for k in range(len(space.grid) - 1):
        coarse = space.block_id[k]
        fine = space.block_id[k + 1]
        for block in space.partitions[k + 1]:
            if len({coarse[w] for w in block}) > 1:
                problems.append(
                    f"partition at index {k + 1} does not refine index {k} "
                    f"(block {block} straddles earlier blocks)"
                )
                break
    last = space.partitions[-1]
    if any(len(block) != 1 for block in last):
        problems.append("terminal partition must separate all outcomes")
    return problems


def expectation(space: FilteredSpace, x: Sequence[Fraction]) -> Fraction:
    return sum((w * v for w, v in zip(space.weights, x)), Fraction(0))


def fill_blocks(space: FilteredSpace, blocks: Iterable, values: Iterable) -> tuple:
    """Per outcome, the value paired with its block (an RV when the values
    are ``Fraction``); the blocks must cover the outcomes."""
    out: list = [None] * space.n_outcomes
    for block, v in zip(blocks, values):
        for w in block:
            out[w] = v
    return tuple(out)


def _block_means(space: FilteredSpace, x: Sequence[Fraction], blocks, block_wnums) -> RV:
    """Per outcome, the weighted average of ``x`` over its block in ``blocks``:
    ``Fraction(S, d * W_B)`` for a block B, with d the lcm of the denominators
    of x on B, S the integer sum of ``wnum[w] * x[w] * d`` over B and W_B (the
    entry of ``block_wnums``) the sum of ``wnum`` over B."""
    wnum = space.wnum
    means = []
    for block, w_b in zip(blocks, block_wnums):
        d = math.lcm(*[x[w].denominator for w in block])
        s = 0
        for w in block:
            s += wnum[w] * x[w].numerator * (d // x[w].denominator)
        means.append(Fraction(s, d * w_b))
    return fill_blocks(space, blocks, means)


def cond_exp(space: FilteredSpace, x: Sequence[Fraction], k: int) -> RV:
    """Conditional expectation given the time-k partition, as a new RV."""
    return _block_means(space, x, space.partitions[k], space.block_wnum[k])


@dataclass(frozen=True)
class StoppingTime:
    """Random grid time, stored as one grid index per outcome."""

    idx: tuple[int, ...]

    def __post_init__(self):
        # operator.index takes ints only: a float, Fraction or str raises TypeError
        object.__setattr__(self, "idx", tuple(map(operator.index, self.idx)))

    def values(self, grid: TimeGrid) -> RV:
        return tuple(grid.points[i] for i in self.idx)


def constant_time(space: FilteredSpace, k: int) -> StoppingTime:
    return StoppingTime((k,) * space.n_outcomes)


def _start_indices(space: FilteredSpace, from_) -> tuple[int, ...]:
    """Per-outcome start index of a stopping time or a constant grid index."""
    if isinstance(from_, StoppingTime):
        return from_.idx
    return (int(from_),) * space.n_outcomes


def first_hit(space: FilteredSpace, start, hit) -> StoppingTime:
    """Per outcome w, the first index k from the start (a stopping time or a
    constant grid index) with ``hit(k, w)``, or the terminal index when no
    earlier k has it."""
    K = space.grid.terminal_index
    out = []
    for w, k in enumerate(_start_indices(space, start)):
        while k < K and not hit(k, w):
            k += 1
        out.append(k)
    return StoppingTime(tuple(out))


def _atoms(space: FilteredSpace, idx: Sequence[int]) -> list | None:
    """The atoms (k, B, W_B) of ``idx``, or None if it is no stopping time.
    Only the times ``idx`` takes are read: at each, every block holds all or
    none of the outcomes stopping there.  On refining partitions that is the
    same as {tau <= t_k} being a union of time-k blocks at every k."""
    K = space.grid.terminal_index
    if len(idx) != space.n_outcomes or any(not 0 <= k <= K for k in idx):
        return None
    atoms = []
    for k in sorted(set(idx)):
        for block, w_b in zip(space.partitions[k], space.block_wnum[k]):
            stops = [idx[w] == k for w in block]
            if all(stops):
                atoms.append((k, block, w_b))
            elif any(stops):
                return None
    return atoms


def is_stopping_time(space: FilteredSpace, idx: Sequence[int]) -> bool:
    """True iff ``idx`` holds one grid index per outcome and {tau <= t_k} is a
    union of time-k blocks for every k (the check :func:`stopped_atoms` makes,
    so the partitions must refine); answers are kept with the space."""
    known = space.__dict__.setdefault("_stopping", {})  # dies with the space
    if (idx := tuple(idx)) not in known:
        known[idx] = _atoms(space, idx) is not None
    return known[idx]


def stopped_atoms(space: FilteredSpace, start) -> list[tuple[int, tuple[int, ...], int]]:
    """The one reader of a start's atoms: for a stopping time or a constant
    grid index, the atoms (k, time-k block B, ``space.block_wnum[k][b]``) of
    its stopped sigma-algebra in time-then-block order.  The partitions must
    refine; a start of the wrong length, off the grid, or stopping on part of
    a block raises ``ValueError("conditioning requires a valid stopping
    time")``."""
    atoms = _atoms(space, _start_indices(space, start))
    if atoms is None:
        raise ValueError("conditioning requires a valid stopping time")
    return atoms


def cond_exp_at(space: FilteredSpace, x: Sequence[Fraction], theta) -> RV:
    """Conditional expectation given the information at a stopping time (or
    a constant grid index)."""
    _, blocks, w_bs = zip(*stopped_atoms(space, theta))
    return _block_means(space, x, blocks, w_bs)
