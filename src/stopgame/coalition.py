"""One leader versus a two-player coalition: value, hitting times, saddle.

The leader maximizes a single payoff; the other two players jointly minimize
it.  The reduction runs through two adapted processes: the leader's value of
stopping immediately (the coalition then cooperatively minimizes), and the
best value the leader can defend once a coalition member stops first (a
zero-sum reaction game).  Their stopping duel produces a value process and
epsilon-hitting times; window-indexed families then turn the hitting times
into full reactive strategies for all three seats.  Every process is an
integer sweep of the payoff's rows (``classic.solo_stop`` for a double pin).
Each family is built, and certified, on its first read (``LazyFamilies``).

The ordering facts this construction rests on are grid theorems, so any
violation aborts as an implementation bug rather than a tolerance issue:
stopping immediately is one of the coalition's options (lower <= pinned
values <= reaction values), and the leader can always defend the double-pin
optimum against a simultaneous coalition stop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .classic import dynkin_hitting_pair, dynkin_value, solo_stop
from .errors import TheoremViolation
from .nash2 import AfterStopTable, build_coop_family, build_pair_family, build_single_family
from .payoff import PayoffField
from .space import Atom, FilteredSpace, StoppingTime, rat
from .strategy import StrategyOrder3, dense_strategy3
from .verify import exact_best_response, on_path_value
from .zerosum import ReactionGameSpec, reaction_game_value


class LazyFamilies(Mapping):
    """Family by key, built and window-certified on its first read (a failed
    build raises again on each read); iterating, ``len`` and ``==`` read all."""

    def __init__(self, builders: dict):
        self._builders, self._built = builders, {}

    def __getitem__(self, key):
        if key not in self._built:
            self._built[key] = self._builders[key]()
        return self._built[key]

    def __iter__(self):
        return iter({key: self[key] for key in self._builders})

    def __len__(self):
        return sum(1 for _ in self)


@dataclass(frozen=True)
class CoalitionComponents:
    space: FilteredSpace
    payoff: PayoffField
    leader: int
    coalition: tuple[int, int]
    eps: Fraction
    h: Fraction
    mu: StoppingTime
    leader_stop_value: tuple  # value of the leader stopping now, coalition minimizing
    after_stop_value: dict  # seat -> value once that coalition member stopped
    coalition_floor: tuple  # min over the two after-stop values
    pinned_solo: dict  # free slot -> optimum with both other slots pinned
    value: tuple  # duel value between leader_stop_value and coalition_floor
    leader_hit: StoppingTime
    coalition_hit: StoppingTime
    designate: tuple  # True where the first coalition seat is the designated stopper
    families: LazyFamilies  # "coop", ("pair", member), ("single", seat)
    node_reports: tuple


def build_components(
    space: FilteredSpace,
    payoff: PayoffField,
    max_player: int,
    mu: StoppingTime,
    eps,
    h,
    stop_now: tuple,
    table: AfterStopTable | None = None,
) -> CoalitionComponents:
    """All processes, hitting times and (lazily built) families of the coalition game.

    ``stop_now`` is ``nash2.stop_now_solutions(space, payoff, max_player)``;
    ``table`` is the solve's after-stop table (a fresh one when None).
    """
    table = table or AfterStopTable()
    if payoff.arity != 3:
        raise ValueError("coalition games need a three-slot payoff")
    eps, h = rat(eps), rat(h)
    L = max_player
    cj, ck = sorted(s for s in range(3) if s != L)
    K = space.grid.terminal_index

    leader_stop = [res.value for res in stop_now]

    after_stop: dict[int, list] = {}
    node_reports = []
    for member, opponent in ((cj, ck), (ck, cj)):
        spec = ReactionGameSpec(
            payoff=payoff, frozen_slot=member, max_slot=L, min_slot=opponent
        )
        vals = []
        for k in range(K + 1):
            res = reaction_game_value(spec, k, table)
            vals.append(res.value_at)
            node_reports.extend(res.report)
        after_stop[member] = vals

    floor = [
        tuple(min(a, b) for a, b in zip(after_stop[cj][k], after_stop[ck][k]))
        for k in range(K + 1)
    ]

    solo = {}
    for free in (L, cj, ck):
        direction = "sup" if free == L else "inf"
        solo[free] = tuple(solo_stop(space, payoff, free, k, direction) for k in range(K + 1))
    pinned = {free: [sol.value for sol in sols] for free, sols in solo.items()}

    _check_orderings(space, leader_stop, after_stop, pinned, cj, ck, L)

    value = dynkin_value(space, leader_stop, floor, mu)
    leader_hit, coalition_hit = dynkin_hitting_pair(
        space, value, leader_stop, floor, eps, mu
    )
    designate = tuple(
        value[coalition_hit.idx[w]][w] >= after_stop[cj][coalition_hit.idx[w]][w] - eps
        for w in range(space.n_outcomes)
    )

    def pair_family(member, opponent):
        # in seat order: the leader maximizes the payoff, the surviving member minimizes it
        fields = tuple(payoff if q == L else table.negated(payoff) for q in sorted((L, opponent)))
        return build_pair_family(space, fields, member, h, eps, table)

    families = LazyFamilies({
        "coop": partial(build_coop_family, space, payoff, L, stop_now, h, eps),
        ("pair", cj): partial(pair_family, cj, ck),
        ("pair", ck): partial(pair_family, ck, cj),
        **{("single", q): partial(build_single_family, space, payoff, q, solo[q], h, eps)
           for q in solo},
    })
    return CoalitionComponents(
        space=space,
        payoff=payoff,
        leader=L,
        coalition=(cj, ck),
        eps=eps,
        h=h,
        mu=mu,
        leader_stop_value=tuple(leader_stop),
        after_stop_value={k: tuple(v) for k, v in after_stop.items()},
        coalition_floor=tuple(floor),
        pinned_solo={k: tuple(v) for k, v in pinned.items()},
        value=value,
        leader_hit=leader_hit,
        coalition_hit=coalition_hit,
        designate=designate,
        families=families,
        node_reports=tuple(node_reports),
    )


def _check_orderings(space, leader_stop, after_stop, pinned, cj, ck, L):
    """Grid theorems; a failure is a bug, never a tolerance issue."""
    K = space.grid.terminal_index
    for k in range(K + 1):
        for w in range(space.n_outcomes):
            x = leader_stop[k][w]
            for member, partner in ((cj, ck), (ck, cj)):
                z, y = pinned[partner][k][w], after_stop[member][k][w]
                if not (x <= z <= y):
                    raise TheoremViolation(
                        f"stop-now sandwich failed at k={k}, w={w}: {x} <= {z} <= {y}"
                    )
            if not (pinned[L][k][w] >= max(after_stop[cj][k][w], after_stop[ck][k][w])):
                raise TheoremViolation(
                    f"leader double-pin optimum below reaction value at k={k}, w={w}"
                )


def assemble_saddle(
    comp: CoalitionComponents,
) -> tuple[StrategyOrder3, StrategyOrder3, StrategyOrder3]:
    """Strategy triple (leader, member_lo, member_hi) realizing the saddle.

    The leader stops at her hitting time and answers coalition stops through
    the zero-sum pair families (single-optimizer family when both members
    stop together).  The designated coalition member stops at the coalition
    hitting time, the other never initiates; both answer the leader's stop
    with the cooperative minimizing family and each other's stops with the
    matching pair family (punishing single when leader and partner tie).
    """
    space = comp.space
    K = space.grid.terminal_index
    L = comp.leader
    cj, ck = comp.coalition
    n = space.n_outcomes

    def play(key, k, seat):
        # what seat plays in the family's entry for an observation at index k
        return comp.families[key].by_index[k].payload[seat]

    def leader_react_one(member, t_idx) -> StoppingTime:
        return play(("pair", member), t_idx, L).initial

    def leader_react_two(t_cj, t_ck) -> StoppingTime:
        if t_cj < t_ck:
            return play(("pair", cj), t_cj, L).react[t_ck]
        if t_cj > t_ck:
            return play(("pair", ck), t_ck, L).react[t_cj]
        return play(("single", L), t_cj, L)

    leader = dense_strategy3(space, L, comp.leader_hit, leader_react_one, leader_react_two)

    def member_strategy(me: int, partner: int, designated_on: bool) -> StrategyOrder3:
        def react_one(q, t_idx) -> StoppingTime:
            if q == L:
                return play("coop", t_idx, me).initial
            return play(("pair", partner), t_idx, me).initial

        def react_two(a: int, b: int) -> StoppingTime:
            # a is the lower other seat's time
            t_leader, t_partner = (a, b) if L < partner else (b, a)
            if t_leader < t_partner:
                return play("coop", t_leader, me).react[t_partner]
            if t_leader > t_partner:
                return play(("pair", partner), t_partner, me).react[t_leader]
            return play(("single", me), t_leader, me)

        initial = StoppingTime(
            tuple(
                comp.coalition_hit.idx[w]
                if comp.designate[w] == designated_on
                else K
                for w in range(n)
            )
        )
        return dense_strategy3(space, me, initial, react_one, react_two)

    member_lo = member_strategy(cj, ck, designated_on=True)
    member_hi = member_strategy(ck, cj, designated_on=False)
    return leader, member_lo, member_hi


@dataclass(frozen=True)
class CoalitionCertificate:
    eps: Fraction
    value_at_start: dict[Atom, Fraction]
    on_path: dict[Atom, Fraction]
    leader_best: dict[Atom, Fraction]
    coalition_best: dict[Atom, Fraction]
    on_path_bound: Fraction  # 8 eps
    leader_bound: Fraction  # 9 eps
    coalition_bound: Fraction  # 5 eps
    total_bound: Fraction  # 17 eps
    passes: bool


def certify_saddle(
    comp: CoalitionComponents,
    triple: tuple[StrategyOrder3, StrategyOrder3, StrategyOrder3],
) -> CoalitionCertificate:
    """Exact deviation bounds around the duel value at the start.

    Leader deviations may gain at most 9 eps over the value, joint coalition
    deviations lose at most 5 eps below it, the conforming path stays within
    8 eps, and the overall saddle gap stays within 17 eps.
    """
    space = comp.space
    L = comp.leader
    profile = [None, None, None]
    leader_strat, m_lo, m_hi = triple
    profile[L] = leader_strat
    profile[comp.coalition[0]] = m_lo
    profile[comp.coalition[1]] = m_hi
    eps = comp.eps
    br_leader = exact_best_response(
        space, comp.payoff, profile, controlled=(L,), objective="max", start=comp.mu
    )
    br_coalition = exact_best_response(
        space, comp.payoff, profile, controlled=comp.coalition, objective="min", start=comp.mu
    )
    [(on_path, _)] = on_path_value(space, [comp.payoff], profile, comp.mu)
    value_at = {
        atom: comp.value[atom[0]][atom[1][0]] for atom in on_path
    }
    ok = True
    for atom in on_path:
        v = value_at[atom]
        if abs(on_path[atom] - v) > 8 * eps:
            ok = False
        if br_leader.values[atom] > v + 9 * eps:
            ok = False
        if br_coalition.values[atom] < v - 5 * eps:
            ok = False
        if br_leader.values[atom] - on_path[atom] > 17 * eps:
            ok = False
        if on_path[atom] - br_coalition.values[atom] > 17 * eps:
            ok = False
    return CoalitionCertificate(
        eps=eps,
        value_at_start=value_at,
        on_path=on_path,
        leader_best=br_leader.values,
        coalition_best=br_coalition.values,
        on_path_bound=8 * eps,
        leader_bound=9 * eps,
        coalition_bound=5 * eps,
        total_bound=17 * eps,
        passes=ok,
    )
