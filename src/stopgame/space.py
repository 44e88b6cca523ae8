"""Finite filtered probability spaces, stopping times, conditional expectation.

The model is a finite outcome set with positive rational weights and, for each
point of a finite time grid, a partition of the outcomes (the information
available at that time).  Partitions refine as time advances and the last grid
point, which stands in for "never stop", separates every outcome.  All
arithmetic is exact over :class:`fractions.Fraction`; floats are rejected at
the boundary so that oracle-equality tests can assert with ``==``.

Times are handled in two forms: a *value* is the rational coordinate of a grid
point, an *index* is its position in the grid.  Stopping times store indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

RV = tuple[Fraction, ...]  # one value per outcome


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
    def max_step(self) -> Fraction:
        return max(b - a for a, b in zip(self.points, self.points[1:]))

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
        t = rat(t)
        for k, p in enumerate(self.points):
            if p >= t:
                return k
        return self.terminal_index


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
        out = []
        for part in self.partitions:
            ids = [0] * self.n_outcomes
            for b, block in enumerate(part):
                for w in block:
                    ids[w] = b
            out.append(tuple(ids))
        return tuple(out)

    @cached_property
    def block_weight(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(sum(self.weights[w] for w in block) for block in part)
            for part in self.partitions
        )

    def blocks_at(self, k: int) -> tuple[tuple[int, ...], ...]:
        return self.partitions[k]

    def block_members(self, k: int, omega: int) -> tuple[int, ...]:
        return self.partitions[k][self.block_id[k][omega]]

    def block_average(self, x: Sequence[Fraction], k: int, b: int) -> Fraction:
        block = self.partitions[k][b]
        total = self.block_weight[k][b]
        return sum((self.weights[w] * x[w] for w in block), Fraction(0)) / total


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


def cond_exp(space: FilteredSpace, x: Sequence[Fraction], k: int) -> RV:
    """Conditional expectation given the time-k partition, as a new RV."""
    averages = [space.block_average(x, k, b) for b in range(len(space.partitions[k]))]
    ids = space.block_id[k]
    return tuple(averages[ids[w]] for w in range(space.n_outcomes))


@dataclass(frozen=True)
class StoppingTime:
    """Random grid time, stored as one grid index per outcome."""

    idx: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "idx", tuple(int(i) for i in self.idx))

    def values(self, grid: TimeGrid) -> RV:
        return tuple(grid.points[i] for i in self.idx)

    def min_index(self) -> int:
        return min(self.idx)


def constant_time(space: FilteredSpace, k: int) -> StoppingTime:
    return StoppingTime((k,) * space.n_outcomes)


def _start_indices(space: FilteredSpace, from_) -> tuple[int, ...]:
    """Per-outcome start index of a stopping time or a constant grid index."""
    if isinstance(from_, StoppingTime):
        return from_.idx
    return (int(from_),) * space.n_outcomes


def is_stopping_time(space: FilteredSpace, idx: Sequence[int]) -> bool:
    """True iff {tau <= t_k} is a union of time-k blocks for every k."""
    n = space.n_outcomes
    if len(idx) != n:
        return False
    K = space.grid.terminal_index
    if any(not 0 <= i <= K for i in idx):
        return False
    for k in range(K + 1):
        for block in space.partitions[k]:
            hits = {idx[w] <= k for w in block}
            if len(hits) > 1:
                return False
    return True


def stopping_time(space: FilteredSpace, idx: Sequence[int]) -> StoppingTime:
    st = StoppingTime(tuple(idx))
    if not is_stopping_time(space, st.idx):
        raise ValueError(f"not a stopping time: {idx}")
    return st


def stopped_atoms(space: FilteredSpace, theta: StoppingTime) -> list[tuple[int, tuple[int, ...]]]:
    """Atoms of the stopped sigma-algebra, as (time index, outcome block) pairs.

    Each atom is the intersection of {theta = t_k} with a time-k block; for a
    valid stopping time this recovers whole time-k blocks.
    """
    atoms: list[tuple[int, tuple[int, ...]]] = []
    for k in range(len(space.grid)):
        for block in space.partitions[k]:
            members = tuple(w for w in block if theta.idx[w] == k)
            if members:
                atoms.append((k, members))
    return atoms


def cond_exp_at(space: FilteredSpace, x: Sequence[Fraction], theta: StoppingTime) -> RV:
    """Conditional expectation given the information at a stopping time."""
    if not is_stopping_time(space, theta.idx):
        raise ValueError("conditioning requires a valid stopping time")
    out = [Fraction(0)] * space.n_outcomes
    for _, members in stopped_atoms(space, theta):
        total = sum(space.weights[w] for w in members)
        avg = sum((space.weights[w] * x[w] for w in members), Fraction(0)) / total
        for w in members:
            out[w] = avg
    return tuple(out)


def in_T_after(space: FilteredSpace, tau: StoppingTime, rho: StoppingTime, strict: bool = False) -> bool:
    """Membership of tau in the stopping times (strictly) after rho.

    The comparison is only required on outcomes where rho is interior; at the
    terminal point (the stand-in for infinity) there is nothing left to order.
    """
    K = space.grid.terminal_index
    for w in range(space.n_outcomes):
        if rho.idx[w] >= K:
            continue
        if strict:
            if tau.idx[w] <= rho.idx[w]:
                return False
        elif tau.idx[w] < rho.idx[w]:
            return False
    return True


@dataclass(frozen=True)
class AdaptedProcess:
    """Process values[k][omega], constant on the time-k blocks for each k."""

    values: tuple[RV, ...]

    def at(self, k: int) -> RV:
        return self.values[k]

    def at_stop(self, st: StoppingTime) -> RV:
        """Pathwise evaluation values[st(omega)][omega]."""
        return tuple(self.values[st.idx[w]][w] for w in range(len(st.idx)))


def make_adapted(space: FilteredSpace, values: Sequence[Sequence]) -> AdaptedProcess:
    vals = tuple(rv(layer) for layer in values)
    if len(vals) != len(space.grid):
        raise ValueError("need one layer per grid time")
    for k, layer in enumerate(vals):
        if len(layer) != space.n_outcomes:
            raise ValueError("layer length must match the outcome count")
        for block in space.partitions[k]:
            if len({layer[w] for w in block}) > 1:
                raise ValueError(f"layer {k} is not constant on block {block}")
    return AdaptedProcess(vals)


def is_adapted_layer(space: FilteredSpace, x: Sequence[Fraction], k: int) -> bool:
    return all(len({x[w] for w in block}) == 1 for block in space.partitions[k])
