"""Reactive stopping strategies and their resolution into actual stop times.

A strategy is an initial stopping time plus reaction maps: after observing
another player stop, the owner switches to a new stopping time that must be
strictly later than the observed stop.  Resolution runs the profile forward
in time: at each round the earliest committed players stop, survivors switch
to the matching reaction, and the loop repeats (at most N-1 rounds).

Reaction tables are stored densely per observation grid index.  Observations
at the terminal point never require a real reaction (nothing is later), so
those entries are fixed at the terminal index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Diagnostics for the strictly-later and measurability requirements."""
    K = space.grid.terminal_index
    problems: list[str] = []

    def check_reaction(tag: str, s_max: int, st: StoppingTime):
        if not is_stopping_time(space, st.idx):
            problems.append(f"{tag}: reaction is not a stopping time")
        if s_max < K and any(i <= s_max for i in st.idx):
            problems.append(f"{tag}: reaction not strictly after the observation")

    if not is_stopping_time(space, strat.initial.idx):
        problems.append("initial is not a stopping time")
    if isinstance(strat, StrategyOrder2):
        if len(strat.react) != K + 1:
            problems.append("reaction table must cover every observation time")
        for s, st in enumerate(strat.react):
            check_reaction(f"react[{s}]", s, st)
    elif isinstance(strat, StrategyOrder3):
        lo, hi = strat.others()
        if set(strat.react_one) != {lo, hi}:
            problems.append("need one solo reaction table per other seat")
        for q, table in strat.react_one.items():
            if len(table) != K + 1:
                problems.append(f"react_one[{q}] must cover every observation time")
            for s, st in enumerate(table):
                check_reaction(f"react_one[{q}][{s}]", s, st)
        for (s1, s2), st in strat.react_two.items():
            check_reaction(f"react_two[{(s1, s2)}]", max(s1, s2), st)
        want = {(a, b) for a in range(K + 1) for b in range(K + 1)}
        if set(strat.react_two) != want:
            problems.append("react_two must cover every observation pair")
    else:
        problems.append(f"unknown strategy type {type(strat).__name__}")
    return problems


def resolve2(
    space: FilteredSpace, a: StrategyOrder2, b: StrategyOrder2
) -> tuple[StoppingTime, StoppingTime]:
    """Actual stop times of a two-player profile, outcome by outcome."""
    n = space.n_outcomes
    out_a, out_b = [0] * n, [0] * n
    for w in range(n):
        ia, ib = a.initial.idx[w], b.initial.idx[w]
        if ia == ib:
            out_a[w], out_b[w] = ia, ib
        elif ia < ib:
            out_a[w] = ia
            out_b[w] = b.react[ia].idx[w]
        else:
            out_b[w] = ib
            out_a[w] = a.react[ib].idx[w]
    return StoppingTime(tuple(out_a)), StoppingTime(tuple(out_b))


def _react3(strat: StrategyOrder3, stopped: dict[int, int], w: int) -> int:
    """Committed index after the observed stops ``stopped`` (other seat -> index)."""
    if len(stopped) == 1:
        (q, s), = stopped.items()
        return strat.react_one[q][s].idx[w]
    lo, hi = strat.others()
    return strat.react_two[(stopped[lo], stopped[hi])].idx[w]


def resolve3(
    space: FilteredSpace,
    s0: StrategyOrder3,
    s1: StrategyOrder3,
    s2: StrategyOrder3,
) -> tuple[StoppingTime, StoppingTime, StoppingTime]:
    """Actual stop times of a three-player profile via chronological rounds."""
    strats = (s0, s1, s2)
    if tuple(s.seat for s in strats) != (0, 1, 2):
        raise ValueError("strategies must carry seats 0, 1, 2 in order")
    n = space.n_outcomes
    result = [[0] * n for _ in range(3)]
    for w in range(n):
        committed = {p: strats[p].initial.idx[w] for p in range(3)}
        stopped: dict[int, int] = {}
        while committed:
            m = min(committed.values())
            now = [p for p, c in committed.items() if c == m]
            for p in now:
                stopped[p] = m
                result[p][w] = m
                del committed[p]
            for p in committed:
                observed = {q: s for q, s in stopped.items() if q != p}
                committed[p] = _react3(strats[p], observed, w)
    return tuple(StoppingTime(tuple(r)) for r in result)  # type: ignore[return-value]


def lift_obstinate2(space: FilteredSpace, tau: StoppingTime) -> StrategyOrder2:
    """Commit to tau and ignore the opponent: react with tau while it is still
    ahead of the observation, otherwise never stop."""
    K = space.grid.terminal_index
    react = tuple(
        StoppingTime(tuple(i if s < i else K for i in tau.idx)) for s in range(K + 1)
    )
    return StrategyOrder2(initial=tau, react=react)


def lift_constant3(space: FilteredSpace, seat: int, k: int) -> StrategyOrder3:
    """Stop at grid index k unless anyone stops first; then never stop."""
    K = space.grid.terminal_index
    never = constant_time(space, K)
    table = (never,) * (K + 1)
    lo, hi = sorted(q for q in (0, 1, 2) if q != seat)
    return StrategyOrder3(
        seat=seat,
        initial=constant_time(space, k),
        react_one={lo: table, hi: table},
        react_two={(a, b): never for a in range(K + 1) for b in range(K + 1)},
    )


def phi_h(t, h) -> Fraction:
    """Next strictly-later multiple of h: (floor(t/h) + 1) * h."""
    t, h = rat(t), rat(h)
    if h <= 0:
        raise ValueError("h must be positive")
    return (math.floor(t / h) + 1) * h


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
