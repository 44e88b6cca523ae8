"""Reactive stopping strategies and their resolution into actual stop times.

A strategy is an initial stopping time plus reaction maps: after observing
another player stop, the owner switches to a new stopping time that must be
strictly later than the observed stop.  This module owns that reaction rule.
``committed_time`` reads the stopping time a strategy is committed to after
the stops it has observed (``committed_index``: at one outcome).  The one
resolver built on it runs the profile forward in time: at each round the
earliest committed players stop, survivors recommit, and the loop repeats (at
most N-1 rounds).  ``resolve2`` and ``resolve3`` are that resolver, and the
best-response oracle in ``verify`` reads commitments through it too.

Reaction tables are stored densely per observation grid index.  Observations
at the terminal point never require a real reaction (nothing is later), so
``dense_strategy3``, the one builder of three-player tables, fixes those
entries at the terminal index and asks the reaction rules for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .space import (
    FilteredSpace,
    StoppingTime,
    constant_time,
    is_stopping_time,
    rat,
)


@dataclass(frozen=True)
class StrategyOrder2:
    """Initial stop plus one reaction table react[observed index]."""

    initial: StoppingTime
    react: tuple[StoppingTime, ...]


@dataclass(frozen=True)
class StrategyOrder3:
    """Three-player strategy for a fixed seat.

    react_one[q][s] is the reaction after seat q alone stopped at index s;
    react_two[(s_lo, s_hi)] reacts after both other seats stopped, keyed by
    the stop indices of the lower- and higher-numbered other seat.
    """

    seat: int
    initial: StoppingTime
    react_one: dict[int, tuple[StoppingTime, ...]]
    react_two: dict[tuple[int, int], StoppingTime]

    def others(self) -> tuple[int, int]:
        lo, hi = sorted(q for q in (0, 1, 2) if q != self.seat)
        return lo, hi


def validate_strategy(space: FilteredSpace, strat) -> list[str]:
    """Diagnostics for the strictly-later and measurability requirements.

    Each distinct index tuple is checked for measurability once per call;
    the strictly-later check depends on the observation, so it runs per entry.
    """
    K = space.grid.terminal_index
    problems: list[str] = []
    measurable: dict[tuple[int, ...], bool] = {}

    def stopping(idx: tuple[int, ...]) -> bool:
        if idx not in measurable:
            measurable[idx] = is_stopping_time(space, idx)
        return measurable[idx]

    def check_reaction(s_max: int, st: StoppingTime, tag: str, *args):
        """The entry's tag ``tag.format(*args)`` is formatted only on a problem."""
        if not stopping(st.idx):
            problems.append(f"{tag.format(*args)}: reaction is not a stopping time")
        if s_max < K and min(st.idx, default=K) <= s_max:
            problems.append(f"{tag.format(*args)}: reaction not strictly after the observation")

    if not stopping(strat.initial.idx):
        problems.append("initial is not a stopping time")
    if isinstance(strat, StrategyOrder2):
        if len(strat.react) != K + 1:
            problems.append("reaction table must cover every observation time")
        for s, st in enumerate(strat.react):
            check_reaction(s, st, "react[{}]", s)
    elif isinstance(strat, StrategyOrder3):
        lo, hi = strat.others()
        if set(strat.react_one) != {lo, hi}:
            problems.append("need one solo reaction table per other seat")
        for q, table in strat.react_one.items():
            if len(table) != K + 1:
                problems.append(f"react_one[{q}] must cover every observation time")
            for s, st in enumerate(table):
                check_reaction(s, st, "react_one[{}][{}]", q, s)
        for (s1, s2), st in strat.react_two.items():
            check_reaction(max(s1, s2), st, "react_two[{}]", (s1, s2))
        want = {(a, b) for a in range(K + 1) for b in range(K + 1)}
        if set(strat.react_two) != want:
            problems.append("react_two must cover every observation pair")
    else:
        problems.append(f"unknown strategy type {type(strat).__name__}")
    return problems


def committed_time(strat, stops: dict[int, int]) -> StoppingTime:
    """Stopping time ``strat`` is committed to once the other seats have
    stopped at ``stops`` (seat -> index): its initial stop while nobody has,
    otherwise the reaction entry for what it observed."""
    if not stops:
        return strat.initial
    if isinstance(strat, StrategyOrder2):
        (s,) = stops.values()
        return strat.react[s]
    if len(stops) == 1:
        ((q, s),) = stops.items()
        return strat.react_one[q][s]
    lo, hi = strat.others()
    return strat.react_two[(stops[lo], stops[hi])]


def committed_index(strat, stops: dict[int, int], w: int) -> int:
    """``committed_time`` at outcome w."""
    return committed_time(strat, stops).idx[w]


def _resolve(space: FilteredSpace, strats) -> tuple[StoppingTime, ...]:
    """Actual stop times via chronological rounds, outcome by outcome: the
    earliest committed seats stop and every later seat recommits to
    ``committed_index`` of the stops seen so far; a seat left alone stops
    at its commitment."""
    result = [list(s.initial.idx) for s in strats]  # commitments, then stops
    for w in range(space.n_outcomes):
        stops: dict[int, int] = {}
        alive = range(len(strats))
        while len(alive) > 1:
            m = min([result[p][w] for p in alive])
            later = []
            for p in alive:
                if result[p][w] == m:
                    stops[p] = m
                else:
                    later.append(p)
            for p in later:
                result[p][w] = committed_index(strats[p], stops, w)
            alive = later
    return tuple(StoppingTime(tuple(r)) for r in result)


def resolve2(
    space: FilteredSpace, a: StrategyOrder2, b: StrategyOrder2
) -> tuple[StoppingTime, StoppingTime]:
    """Actual stop times of a two-player profile, outcome by outcome."""
    return _resolve(space, (a, b))  # type: ignore[return-value]


def resolve3(
    space: FilteredSpace,
    s0: StrategyOrder3,
    s1: StrategyOrder3,
    s2: StrategyOrder3,
) -> tuple[StoppingTime, StoppingTime, StoppingTime]:
    """Actual stop times of a three-player profile via chronological rounds."""
    if (s0.seat, s1.seat, s2.seat) != (0, 1, 2):
        raise ValueError("strategies must carry seats 0, 1, 2 in order")
    return _resolve(space, (s0, s1, s2))  # type: ignore[return-value]


def lift_obstinate2(space: FilteredSpace, tau: StoppingTime) -> StrategyOrder2:
    """Commit to tau and ignore the opponent: react with tau while it is still
    ahead of the observation, otherwise never stop."""
    K = space.grid.terminal_index
    react = tuple(
        StoppingTime(tuple(i if s < i else K for i in tau.idx)) for s in range(K + 1)
    )
    return StrategyOrder2(initial=tau, react=react)


def dense_strategy3(
    space: FilteredSpace,
    seat: int,
    initial: StoppingTime,
    one: Callable[[int, int], StoppingTime],
    two: Callable[[int, int], StoppingTime],
) -> StrategyOrder3:
    """Dense strategy for ``seat`` from its reaction rules.

    ``one(q, s)`` answers seat q stopping alone at index s; ``two(a, b)``
    answers both other seats stopping, a being the lower seat's index.  An
    observation at the terminal index is answered with the terminal time,
    since nothing is strictly later, and neither rule is called there.
    """
    K = space.grid.terminal_index
    terminal = constant_time(space, K)
    others = sorted(q for q in (0, 1, 2) if q != seat)
    return StrategyOrder3(
        seat=seat,
        initial=initial,
        react_one={q: tuple(one(q, s) for s in range(K)) + (terminal,) for q in others},
        react_two={
            (a, b): terminal if max(a, b) == K else two(a, b)
            for a in range(K + 1)
            for b in range(K + 1)
        },
    )


def lift_constant3(space: FilteredSpace, seat: int, k: int) -> StrategyOrder3:
    """Stop at grid index k unless anyone stops first; then never stop."""
    never = constant_time(space, space.grid.terminal_index)
    return dense_strategy3(
        space, seat, constant_time(space, k), lambda q, s: never, lambda a, b: never
    )


def patch_pair(
    space: FilteredSpace,
    pair: tuple[StrategyOrder2, StrategyOrder2],
    anchor: int,
) -> tuple[StrategyOrder2, StrategyOrder2]:
    """Redirect reactions to early observations toward the anchor-time behavior.

    For observations before the anchor the patched player responds as if the
    stop had happened at the anchor, except that a player who would herself
    stop at the anchor simply keeps that commitment.  Observations at or after
    the anchor are untouched, so resolutions against opponents living from the
    anchor are identical to the unpatched pair's.
    """
    K = space.grid.terminal_index

    def patch(s: StrategyOrder2) -> StrategyOrder2:
        redirected = StoppingTime(
            tuple(
                anchor if s.initial.idx[w] == anchor else s.react[anchor].idx[w]
                for w in range(space.n_outcomes)
            )
        )
        react = tuple(
            redirected if obs < anchor else s.react[obs] for obs in range(K + 1)
        )
        return StrategyOrder2(initial=s.initial, react=react)

    return patch(pair[0]), patch(pair[1])
