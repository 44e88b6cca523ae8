"""Ground-truth machinery: enumeration and exact best-response values.

The best-response engine fixes some seats' strategies and lets the remaining
seats act with full observation of the filtration and of every stop seen so
far.  Because the fixed opponents reduce the problem to a single controller on
an augmented state (time, information block, who stopped when), the dynamic
program computes the exact supremum (or infimum) over the controlled seats'
reactive strategies.  It is the certification oracle for every solver in the
package: a claimed equilibrium is only ever reported together with the gap
this module measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .config import current_guards
from .errors import GuardExceeded
from .payoff import PayoffField
from .space import (
    RV, FilteredSpace, StoppingTime, _start_indices, cond_exp_at, constant_time, rat
)
from .strategy import StrategyOrder2, resolve2, resolve3

Atom = tuple[int, tuple[int, ...]]  # (time index, outcome block)


def count_stopping_times(space: FilteredSpace, from_=0) -> int:
    """Number of stopping times >= the start, via the block-tree product."""
    start = _start_indices(space, from_)
    K = space.grid.terminal_index

    def ways(k: int, block: tuple[int, ...]) -> int:
        eligible = start[block[0]] <= k
        if k == K:
            return 1
        cont = 1
        for child in space.partitions[k + 1]:
            if child[0] in block:
                cont *= ways(k + 1, child)
        return (1 if eligible else 0) + cont

    total = 1
    for block in space.partitions[0]:
        total *= ways(0, block)
    return total


def enumerate_stopping_times(
    space: FilteredSpace, from_=0, cap: int | None = None
) -> Iterator[StoppingTime]:
    """Yield every stopping time >= the start exactly once."""
    if cap is None:
        cap = current_guards().enumeration_cap
    total = count_stopping_times(space, from_)
    if total > cap:
        raise GuardExceeded(f"{total} stopping times exceeds cap {cap}")
    start = _start_indices(space, from_)
    K = space.grid.terminal_index
    n = space.n_outcomes

    def gen(k: int, status: tuple) -> Iterator[tuple]:
        if k == K:
            yield tuple(K if s is None else s for s in status)
            return
        eligible = [
            block
            for block in space.partitions[k]
            if status[block[0]] is None and start[block[0]] <= k
        ]
        for stops in itertools.product((False, True), repeat=len(eligible)):
            nxt = list(status)
            for block, stop in zip(eligible, stops):
                if stop:
                    for w in block:
                        nxt[w] = k
            yield from gen(k + 1, tuple(nxt))

    for idx in gen(0, (None,) * n):
        yield StoppingTime(idx)


def count_strategies2(space: FilteredSpace, from_=0) -> int:
    K = space.grid.terminal_index
    total = count_stopping_times(space, from_)
    for s in range(K):
        total *= count_stopping_times(space, constant_time(space, min(s + 1, K)))
    return total


def enumerate_strategies2(
    space: FilteredSpace, from_=0, cap: int | None = None
) -> Iterator[StrategyOrder2]:
    """All order-2 strategies from the start, reactions strictly later."""
    if cap is None:
        cap = current_guards().enumeration_cap
    total = count_strategies2(space, from_)
    if total > cap:
        raise GuardExceeded(f"{total} strategies exceeds cap {cap}")
    K = space.grid.terminal_index
    react_choices = [
        list(enumerate_stopping_times(space, constant_time(space, s + 1), cap))
        for s in range(K)
    ]
    terminal_react = constant_time(space, K)
    for initial in enumerate_stopping_times(space, from_, cap):
        for reacts in itertools.product(*react_choices):
            yield StrategyOrder2(initial=initial, react=tuple(reacts) + (terminal_react,))


def _committed_index(strat, seat: int, status: tuple, w: int) -> int:
    """Current committed stop index of a fixed strategy given observed stops."""
    observed = {
        q: s for q, s in enumerate(status) if q != seat and s >= 0
    }
    if isinstance(strat, StrategyOrder2):
        if not observed:
            return strat.initial.idx[w]
        (s,) = observed.values()
        return strat.react[s].idx[w]
    if not observed:
        return strat.initial.idx[w]
    if len(observed) == 1:
        ((q, s),) = observed.items()
        return strat.react_one[q][s].idx[w]
    lo, hi = strat.others()
    return strat.react_two[(observed[lo], observed[hi])].idx[w]


@dataclass(frozen=True)
class BestResponseResult:
    """Exact optimal value over the controlled seats' reactive strategies."""

    values: dict[Atom, Fraction]
    value_rv: RV
    objective: str


def exact_best_response(
    space: FilteredSpace,
    field: PayoffField,
    strategies: Sequence,
    controlled: tuple[int, ...],
    objective: str,
    start,
) -> BestResponseResult:
    """Optimal value for the controlled seats against fixed opponents.

    ``strategies[q]`` must be supplied for every fixed seat q; controlled
    entries are ignored.  The value is conditioned on the atoms of the start
    stopping time.  ``objective`` applies to the field as the controlled
    seats' common payoff ('max' for a deviating player, 'min' for a punishing
    coalition).
    """
    if objective not in ("max", "min"):
        raise ValueError("objective must be 'max' or 'min'")
    opt = max if objective == "max" else min
    n_seats = field.arity
    K = space.grid.terminal_index
    cap = current_guards().dp_state_cap
    memo: dict[tuple, Fraction] = {}

    def block_avg_payoff(block: tuple[int, ...], times: tuple[int, ...]) -> Fraction:
        total = sum(space.weights[w] for w in block)
        acc = Fraction(0)
        for w in block:
            acc += space.weights[w] * field.value_at(times, w)
        return acc / total

    def solve(k: int, block: tuple[int, ...], status: tuple) -> Fraction:
        key = (k, block, status)
        if key in memo:
            return memo[key]
        if len(memo) > cap:
            raise GuardExceeded(f"best-response DP exceeded {cap} states")
        w0 = block[0]
        if k == K:
            times = tuple(K if s < 0 else s for s in status)
            val = block_avg_payoff(block, times)
            memo[key] = val
            return val
        fixed_now = [
            q
            for q in range(n_seats)
            if q not in controlled
            and status[q] < 0
            and _committed_index(strategies[q], q, status, w0) == k
        ]
        free = [q for q in controlled if status[q] < 0]
        best: Fraction | None = None
        for r in range(len(free) + 1):
            for stop_set in itertools.combinations(free, r):
                nxt = list(status)
                for q in fixed_now:
                    nxt[q] = k
                for q in stop_set:
                    nxt[q] = k
                nxt_t = tuple(nxt)
                if all(s >= 0 for s in nxt_t):
                    val = block_avg_payoff(block, nxt_t)
                else:
                    total = sum(space.weights[w] for w in block)
                    val = Fraction(0)
                    for child in space.partitions[k + 1]:
                        if child[0] in block:
                            p = sum(space.weights[w] for w in child)
                            val += p * solve(k + 1, child, nxt_t)
                    val /= total
                best = val if best is None else opt(best, val)
        memo[key] = best
        return best

    start_idx = _start_indices(space, start)
    values: dict[Atom, Fraction] = {}
    out = [Fraction(0)] * space.n_outcomes
    all_alive = (-1,) * n_seats
    for k in range(K + 1):
        for block in space.partitions[k]:
            members = tuple(w for w in block if start_idx[w] == k)
            if not members:
                continue
            if members != block:
                raise ValueError("start must be a valid stopping time")
            v = solve(k, block, all_alive)
            values[(k, block)] = v
            for w in block:
                out[w] = v
    return BestResponseResult(values=values, value_rv=tuple(out), objective=objective)


def resolve_profile(space: FilteredSpace, strategies: Sequence):
    if len(strategies) == 2:
        return resolve2(space, strategies[0], strategies[1])
    return resolve3(space, *strategies)


def on_path_value(
    space: FilteredSpace, field: PayoffField, strategies: Sequence, start
) -> tuple[dict[Atom, Fraction], RV]:
    """Expected payoff of the conforming profile, conditioned at the start."""
    times = resolve_profile(space, strategies)
    pay = tuple(
        field.value_at(tuple(t.idx[w] for t in times), w)
        for w in range(space.n_outcomes)
    )
    theta = start if isinstance(start, StoppingTime) else constant_time(space, int(start))
    rv_out = cond_exp_at(space, pay, theta)
    values: dict[Atom, Fraction] = {}
    start_idx = theta.idx
    for k in range(len(space.grid)):
        for block in space.partitions[k]:
            members = tuple(w for w in block if start_idx[w] == k)
            if members:
                values[(k, members)] = rv_out[members[0]]
    return values, rv_out


@dataclass(frozen=True)
class NashCertificate:
    eps: Fraction
    bound: Fraction  # 13 eps for three players, eps for two
    per_player_gaps: tuple  # per seat: atom -> gap
    on_path: tuple  # per seat: atom -> conforming value
    best_response: tuple  # per seat: atom -> deviation value
    worst_gap: Fraction
    passes: bool


def certify_nash(
    space: FilteredSpace, fields: Sequence[PayoffField], profile: Sequence, theta, eps
) -> NashCertificate:
    """Exact per-atom deviation gaps for every player against the Nash bound.

    Seat s maximizes ``fields[s]`` against the others' fixed strategies.  The
    bound is 13*eps for three players and eps for two.
    """
    best = tuple(
        exact_best_response(
            space, field, profile, controlled=(seat,), objective="max", start=theta
        ).values
        for seat, field in enumerate(fields)
    )
    paths = tuple(on_path_value(space, field, profile, theta)[0] for field in fields)
    return _nash_certificate(eps, best, paths)


def _nash_certificate(eps, best_response, on_path) -> NashCertificate:
    """Certificate from per-seat best-response and conforming values by atom."""
    eps = rat(eps)
    bound = (13 if len(best_response) == 3 else 1) * eps
    gaps = tuple(
        {atom: br[atom] - path[atom] for atom in br}
        for br, path in zip(best_response, on_path)
    )
    worst = max([Fraction(0), *(g for per_seat in gaps for g in per_seat.values())])
    return NashCertificate(
        eps=eps,
        bound=bound,
        per_player_gaps=gaps,
        on_path=tuple(on_path),
        best_response=tuple(best_response),
        worst_gap=worst,
        passes=worst <= bound,
    )


def nash_gap(
    space: FilteredSpace,
    fields: Sequence[PayoffField],
    profile: Sequence,
    theta,
) -> list[dict[Atom, Fraction]]:
    """Per-player, per-start-atom best-response gaps.

    Gaps are nonnegative by construction (conforming is one feasible
    deviation), so a negative value indicates a bug and raises.
    """
    gaps = certify_nash(space, fields, profile, theta, eps=1).per_player_gaps  # bound unused
    for seat, per_seat in enumerate(gaps):
        if any(g < 0 for g in per_seat.values()):
            raise AssertionError(
                f"negative best-response gap for seat {seat}: {per_seat}"
            )
    return list(gaps)


def max_gap(gaps: list[dict[Atom, Fraction]]) -> Fraction:
    worst = Fraction(0)
    for per_player in gaps:
        for v in per_player.values():
            worst = max(worst, v)
    return worst
