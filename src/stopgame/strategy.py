"""Reactive stopping strategies and their resolution into actual stop times.

A strategy is an initial stopping time plus reaction maps: after observing
another player stop, the owner switches to a new stopping time that must be
strictly later than the observed stop.  This module owns that reaction rule.
``committed_time`` reads the stopping time a strategy is committed to after
the stops it has observed.  One playout, ``play_forward``, runs seats forward
from a floor index: at each round the earliest committed seats stop,
survivors recommit, and the loop repeats (at most N-1 rounds).  The resolver
(``resolve2``, ``resolve3``) is that playout from index 0, and the
best-response oracle in ``verify`` plays its forced tails out with it.

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

    Measurability is ``is_stopping_time``'s, kept per space and index tuple;
    the strictly-later check depends on the observation, so it runs per entry.
    """
    K = space.grid.terminal_index
    problems: list[str] = []

    def check_reaction(s_max: int, st: StoppingTime, tag: str, *args):
        """The entry's tag ``tag.format(*args)`` is formatted only on a problem."""
        if not is_stopping_time(space, st.idx):
            problems.append(f"{tag.format(*args)}: reaction is not a stopping time")
        if s_max < K and min(st.idx, default=K) <= s_max:
            problems.append(f"{tag.format(*args)}: reaction not strictly after the observation")

    if not is_stopping_time(space, strat.initial.idx):
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


def play_forward(commits, status: tuple, floor: int, outcomes, K: int) -> list | None:
    """Per outcome w, the stop indices once the live seats of ``status`` (-1
    while live) play on in chronological rounds from index ``floor``: the
    seats whose ``idx[w]`` is least at or after the floor stop there together,
    and the next round starts one index later.  ``commits(status)`` lists each
    live seat's (seat, idx), or is None to give up (then so is the result).
    A commitment before the floor never fires; a seat live at the end reads K."""
    ends = []
    for w in outcomes:
        now, j = status, floor
        while j < K and -1 in now:
            live = commits(now)
            if live is None:
                return None
            m, first = K, []
            for q, idx in live:
                if j <= idx[w] < m:
                    m, first = idx[w], [q]
                elif idx[w] == m:
                    first.append(q)
            if m == K:
                break
            now, j = tuple(m if q in first else s for q, s in enumerate(now)), m + 1
        ends.append(tuple(K if s < 0 else s for s in now) if -1 in now else now)
    return ends


def _resolve(space: FilteredSpace, strats) -> tuple[StoppingTime, ...]:
    """Actual stop times, outcome by outcome: ``play_forward`` from index 0,
    each status's commitments read once.  On strategies whose reactions are
    strictly after their observation no commitment lies before its floor."""
    plans: dict[tuple, list] = {}

    def commits(status: tuple) -> list:
        if status not in plans:
            stops = {q: s for q, s in enumerate(status) if s >= 0}
            plans[status] = [(q, committed_time(strats[q], stops).idx)
                             for q, s in enumerate(status) if s < 0]
        return plans[status]

    ends = play_forward(commits, (-1,) * len(strats), 0, range(space.n_outcomes),
                        space.grid.terminal_index)
    return tuple(StoppingTime(times) for times in zip(*ends))


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
