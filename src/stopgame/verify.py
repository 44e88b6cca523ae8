"""Ground-truth machinery: enumeration and exact best-response values.

The best-response engine fixes some seats' strategies and lets the remaining
seats act with full observation of the filtration and of every stop seen so
far.  Because the fixed opponents reduce the problem to a single controller on
an augmented state (time, information block, who stopped when), the dynamic
program computes the exact supremum (or infimum) over the controlled seats'
reactive strategies.  It is the certification oracle for every solver in the
package: a claimed equilibrium is only ever reported together with the gap
this module measures.

The program runs on integers: each node's value is scaled by the payoff
field's common denominator times the integer weight of the node's block, so a
continuation is a plain sum of its children and no node divides.  The payoff
numerators are the field's own ``PayoffField.rows`` table, which the modulus
walk and the solvers' node sweep (``classic.node_sweep``, on the same
scaling) read too; a parsed field is born as that table, so a verify builds
no payoff ``Fraction``.  Each live fixed seat's commitment (``committed_time``)
and the controlled seats' stop sets are read once per status (who stopped
when) and call; a block's children come from ``FilteredSpace.children``.  Once
no controlled seat is free, the fixed seats are played out, not memoized
(``strategy.play_forward``): ``dp_state_cap`` counts states with a free one.

Gaps are measured on that scale, in one place (``_measure_gaps``): the best
response, the conforming value and their difference are integers on ``den *
W_B``, and the worst gap is a maximum by cross-multiplication (``_BY_RATIO``)
made a ``Fraction`` once.  Only ``certify_nash``, the certificate a report
prints or a caller reads, converts each per-atom entry, once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Sequence

from .config import current_guards
from .errors import GuardExceeded
from .payoff import PayoffField
from .space import (
    RV,
    Atom,
    FilteredSpace,
    StoppingTime,
    _start_indices,
    constant_time,
    fill_blocks,
    is_stopping_time,
    rat,
    stopped_atoms,
)
from .strategy import StrategyOrder2, committed_time, play_forward, resolve2, resolve3


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


@dataclass(frozen=True)
class BestResponseResult:
    """Exact optimal value over the controlled seats' reactive strategies;
    ``scaled[atom]`` is ``values[atom]`` times ``den * W_B``, the integer the
    DP computed it from."""

    values: dict[Atom, Fraction]
    value_rv: RV
    objective: str
    scaled: dict[Atom, int]


def exact_best_response(
    space: FilteredSpace,
    field: PayoffField,
    strategies: Sequence,
    controlled: tuple[int, ...],
    objective: str,
    start,
    atoms=None,
) -> BestResponseResult:
    """Optimal value for the controlled seats against fixed opponents.

    ``strategies[q]`` must be supplied for every fixed seat q; controlled
    entries are ignored.  The value is conditioned on the atoms of the start
    as ``space.stopped_atoms`` reads them (the partitions must refine), and
    an invalid start raises its one ``ValueError("conditioning requires a
    valid stopping time")`` before the DP runs.  ``objective`` applies to the
    field as the controlled seats' common payoff ('max' for a deviating
    player, 'min' for a punishing coalition).

    The DP runs on integers.  A node (k, B) holds its value scaled by
    ``field.den * W_B``, where ``W_B`` (``space.block_wnum``) sums the integer
    weight numerators ``space.wnum`` over B.  A stop value is then the sum of
    ``wnum[w] * N_w`` over B, with ``N_w`` the payoff numerator on
    ``field.den``; a continuation is the plain sum of the children's scaled
    values; and ``max``/``min`` pick the same option as on the unscaled
    values, since all options at a node share the positive factor.  The
    numerators come from ``field.rows``, a parsed field's stored form, and
    each start atom's value is converted to ``Fraction`` once; ``scaled``
    keeps the integer.  ``atoms`` is ``stopped_atoms(space, start)`` when
    the caller has read it.
    """
    if objective not in ("max", "min"):
        raise ValueError("objective must be 'max' or 'min'")
    atoms, scaled = _best_response(space, field, strategies, controlled, objective, start,
                                   atoms=atoms or stopped_atoms(space, start))
    den = field.den
    values = {(k, block): Fraction(scaled[(k, block)], den * w_b) for k, block, w_b in atoms}
    return BestResponseResult(
        values=values,
        value_rv=fill_blocks(space, (block for _, block in values), values.values()),
        objective=objective,
        scaled=scaled,
    )


def _best_response(space, field, strategies, controlled, objective, start, *, atoms) -> tuple:
    """:func:`exact_best_response`'s integer DP: the start atoms (k, B, W_B),
    ``stopped_atoms(space, start)``, and, by atom (k, B), the optimal value
    scaled by ``field.den * W_B``.

    A stop choice at (k, B) that leaves no controlled seat free is played out,
    not memoized: each outcome w of B adds ``wnum[w] * rows[stops][w]`` at the
    stops ``strategy.play_forward`` reaches from k + 1.  That reads a
    commitment at w, the DP at the block's first outcome: the same on a
    stopping time, so a status with a commitment that is not one is recursed
    into.  With one controlled seat, the DP is thus an optimal-stopping sweep
    of the stop-now tail values."""
    opt = max if objective == "max" else min
    n_seats = field.arity
    K = space.grid.terminal_index
    cap = current_guards().dp_state_cap
    wnum = space.wnum
    rows = field.rows
    fixed = [q for q in range(n_seats) if q not in controlled]
    memo: dict[tuple, int] = {}
    plans: dict[tuple, tuple] = {}

    def stop_value(block: tuple[int, ...], times: tuple[int, ...]) -> int:
        row = rows[times]
        return sum(wnum[w] * row[w] for w in block)

    def plan(status: tuple) -> tuple:
        """Live fixed seats' commitments, stop sets, and for a playout the
        commitments again if all are stopping times (else None)."""
        stops = {q: s for q, s in enumerate(status) if s >= 0}
        commits = [(q, committed_time(strategies[q], stops).idx) for q in fixed if status[q] < 0]
        free = [q for q in controlled if status[q] < 0]
        stop_sets = [c for r in range(len(free) + 1) for c in itertools.combinations(free, r)]
        tail = commits if all(is_stopping_time(space, idx) for _, idx in commits) else None
        plans[status] = entry = commits, stop_sets, tail
        return entry

    def playable(status: tuple) -> list | None:
        return (plans.get(status) or plan(status))[2]

    def solve(k: int, block: tuple[int, ...], status: tuple) -> int:
        key = (k, block, status)
        if key in memo:
            return memo[key]
        if len(memo) > cap:
            raise GuardExceeded(f"best-response DP exceeded {cap} states")
        if k == K:
            val = stop_value(block, tuple(K if s < 0 else s for s in status))
            memo[key] = val
            return val
        commits, stop_sets, _ = plans.get(status) or plan(status)
        now = list(status)
        for q, idx in commits:
            if idx[block[0]] == k:  # fires at the block's first outcome
                now[q] = k
        kids = space.children[k][block]
        forced = stop_sets[-1]  # every free controlled seat stops
        best: int | None = None
        for stop_set in stop_sets:
            nxt = now.copy()
            for q in stop_set:
                nxt[q] = k
            nxt_t = tuple(nxt)
            if -1 not in nxt_t:  # every seat has stopped
                val = stop_value(block, nxt_t)
            elif stop_set is forced and (ends := play_forward(playable, nxt_t, k + 1, block, K)):
                val = sum(wnum[w] * rows[times][w] for w, times in zip(block, ends))
            else:
                val = 0
                for child in kids:
                    val += solve(k + 1, child, nxt_t)
            best = val if best is None else opt(best, val)
        memo[key] = best
        return best

    all_alive = (-1,) * n_seats
    scaled = {(k, block): solve(k, block, all_alive) for k, block, _ in atoms}
    del solve  # frees the memo now: solve holds itself through its closure
    return atoms, scaled


def resolve_profile(space: FilteredSpace, strategies: Sequence):
    if len(strategies) == 2:
        return resolve2(space, strategies[0], strategies[1])
    return resolve3(space, *strategies)


def _conforming(
    space: FilteredSpace, fields: Sequence[PayoffField], strategies: Sequence, atoms: list, stops
) -> tuple[dict[Atom, int], list[dict[Atom, int]]]:
    """The conforming profile's payoff at each start atom (``atoms``, as
    ``stopped_atoms`` reads them) on the oracle's scale: ``W_B`` by atom (k,
    B), and per field, by atom, its ``PayoffField.stop_sums`` at the
    profile's stops, which is ``field.den * W_B`` times the conditional
    expectation at the start.  The profile is resolved once, if not given."""
    atoms = {(k, block): w_b for k, block, w_b in atoms}
    stops = stops or resolve_profile(space, strategies)
    blocks = [block for _, block in atoms]
    return atoms, [dict(zip(atoms, field.stop_sums(stops, blocks))) for field in fields]


def on_path_value(
    space: FilteredSpace, fields: Sequence[PayoffField], strategies: Sequence, start
) -> list[tuple[dict[Atom, Fraction], RV]]:
    """Per field, the expected payoff of the conforming profile conditioned at
    the start, by start atom and as an RV.  The profile is resolved once."""
    atoms, sums = _conforming(space, fields, strategies, stopped_atoms(space, start), None)
    out = []
    for field, path in zip(fields, sums):
        values = {atom: Fraction(n, field.den * atoms[atom]) for atom, n in path.items()}
        out.append((values, fill_blocks(space, (block for _, block in values), values.values())))
    return out


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
    bound is 13*eps for three players and eps for two.  The worst gap is
    :func:`_measure_gaps`'s and the best responses :func:`exact_best_response`'s;
    this adds the other per-atom ``Fraction`` maps, each entry its integer on
    ``fields[s].den * W_B`` converted once.
    """
    atoms = stopped_atoms(space, theta)
    brs = [exact_best_response(space, field, profile, (seat,), "max", theta, atoms=atoms)
           for seat, field in enumerate(fields)]
    best = [br.scaled for br in brs]
    w_bs, paths, worst = _measure_gaps(space, fields, profile, theta, best, atoms=atoms)
    on_path, gaps = [], []
    for field, scaled, path in zip(fields, best, paths):
        scale = {atom: field.den * w_b for atom, w_b in w_bs.items()}
        on_path.append({atom: Fraction(n, scale[atom]) for atom, n in path.items()})
        gaps.append({atom: Fraction(n - path[atom], scale[atom]) for atom, n in scaled.items()})
    eps = rat(eps)
    bound = (13 if len(fields) == 3 else 1) * eps
    return NashCertificate(
        eps=eps,
        bound=bound,
        per_player_gaps=tuple(gaps),
        on_path=tuple(on_path),
        best_response=tuple(br.values for br in brs),
        worst_gap=worst,
        passes=worst <= bound,
    )


# orders (n, q) pairs, q > 0, as the ratios n / q by cross-multiplication
_BY_RATIO = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _measure_gaps(space, fields, profile, theta, best, atoms=None, stops=None) -> tuple:
    """The one place Nash gaps are measured: per seat and start atom, the
    best-response numerator ``best[s][atom]`` minus the conforming one, both
    on ``fields[s].den * W_B``.  Returns ``_conforming``'s atoms and
    numerators, and the worst gap: the maximum taken by cross-multiplication,
    floored at 0 and converted once.  ``atoms`` is ``stopped_atoms(space,
    theta)`` and ``stops`` the profile's resolution when the caller has them."""
    atoms, paths = _conforming(space, fields, profile, atoms or stopped_atoms(space, theta), stops)
    gaps = [(n - path[a], f.den * atoms[a]) for f, br, path in zip(fields, best, paths)
            for a, n in br.items()]
    return atoms, paths, Fraction(*max([(0, 1), *gaps], key=_BY_RATIO))


def worst_gap(space, fields, profile, theta, best=None, stops=None) -> Fraction:
    """:func:`certify_nash`'s ``worst_gap`` without the per-atom maps; ``best``
    gives each seat's best-response numerators (``BestResponseResult.scaled``)
    and ``stops`` the profile's resolution when known; atoms are read once."""
    atoms = stopped_atoms(space, theta)
    if best is None:
        best = [_best_response(space, f, profile, (s,), "max", theta, atoms=atoms)[1]
                for s, f in enumerate(fields)]
    return _measure_gaps(space, fields, profile, theta, best, atoms=atoms, stops=stops)[2]


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

