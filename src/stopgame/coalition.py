"""One leader versus a two-player coalition: value, hitting times, saddle.

The leader maximizes a single payoff; the other two players jointly minimize
it.  The reduction runs through two adapted processes: the leader's value of
stopping immediately (the coalition then cooperatively minimizes), and the
best value the leader can defend once a coalition member stops first (a
zero-sum reaction game).  Their stopping duel produces a value process and
epsilon-hitting times; window-indexed families then turn the hitting times
into full reactive strategies for all three seats.

The ordering facts this construction rests on are grid theorems, so any
violation aborts as an implementation bug rather than a tolerance issue:
stopping immediately is one of the coalition's options (lower <= pinned
values <= reaction values), and the leader can always defend the double-pin
optimum against a simultaneous coalition stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import (
    dynkin_hitting_pair,
    dynkin_value,
    joint_inf_value,
    snell,
)
from .errors import TheoremViolation
from .nash2 import (
    _double_pin,
    _pair_component,
    build_coop_family,
    build_pair_family,
    build_single_family,
    family_lookup,
)
from .payoff import PayoffField
from .space import FilteredSpace, StoppingTime, constant_time, rat
from .strategy import StrategyOrder3
from .verify import exact_best_response, on_path_value

Atom = tuple[int, tuple[int, ...]]


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
    coalition_floor: tuple  # min över the two after-stop values
    pinned_solo: dict  # free slot -> optimum with both other slots pinned
    value: tuple  # duel value between leader_stop_value and coalition_floor
    leader_hit: StoppingTime
    coalition_hit: StoppingTime
    designate: tuple  # True where the first coalition seat is the designated stopper
    families: dict
    node_reports: tuple


def build_components(
    space: FilteredSpace,
    payoff: PayoffField,
    max_player: int,
    mu: StoppingTime,
    eps,
    h,
) -> CoalitionComponents:
    """All processes, hitting times and families of the coalition game."""
    from .zerosum import ReactionGameSpec, reaction_game_value

    eps, h = rat(eps), rat(h)
    if payoff.arity != 3:
        raise ValueError("coalition games need a three-slot payoff")
    L = max_player
    cj, ck = sorted(s for s in range(3) if s != L)
    K = space.grid.terminal_index

    leader_stop = []
    for k in range(K + 1):
        layers, _ = joint_inf_value(space, payoff.pin(L, k), k)
        leader_stop.append(layers[k])

    after_stop: dict[int, list] = {}
    node_reports = []
    for member, opponent in ((cj, ck), (ck, cj)):
        spec = ReactionGameSpec(
            payoff=payoff, frozen_slot=member, max_slot=L, min_slot=opponent
        )
        vals = []
        for k in range(K + 1):
            res = reaction_game_value(spec, k)
            vals.append(res.value_at)
            node_reports.extend(res.report)
        after_stop[member] = vals

    floor = [
        tuple(min(a, b) for a, b in zip(after_stop[cj][k], after_stop[ck][k]))
        for k in range(K + 1)
    ]

    pinned: dict[int, list] = {}
    for free in (L, cj, ck):
        direction = "sup" if free == L else "inf"
        vals = []
        for k in range(K + 1):
            res = snell(space, _double_pin(payoff, free, k).as_layers(), direction, k)
            vals.append(res.value[k])
        pinned[free] = vals

    _check_orderings(space, leader_stop, after_stop, pinned, cj, ck, L)

    value = dynkin_value(space, leader_stop, floor, mu)
    leader_hit, coalition_hit = dynkin_hitting_pair(
        space, value, leader_stop, floor, eps, mu
    )
    designate = tuple(
        value[coalition_hit.idx[w]][w] >= after_stop[cj][coalition_hit.idx[w]][w] - eps
        for w in range(space.n_outcomes)
    )

    def zero_sum_fields(opponent):
        # leader maximizes the payoff, the surviving member minimizes it
        lo, hi = sorted((L, opponent))
        own = {L: payoff, opponent: payoff.negated()}
        return (own[lo], own[hi])

    families = {
        "coop": build_coop_family(space, payoff, L, h, eps),
        ("pair", cj): build_pair_family(space, zero_sum_fields(ck), cj, h, eps),
        ("pair", ck): build_pair_family(space, zero_sum_fields(cj), ck, h, eps),
        ("single", L): build_single_family(space, payoff, L, "sup", h, eps),
        ("single", cj): build_single_family(space, payoff, cj, "inf", h, eps),
        ("single", ck): build_single_family(space, payoff, ck, "inf", h, eps),
    }
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
            z_free_ck = pinned[ck][k][w]
            z_free_cj = pinned[cj][k][w]
            y_cj = after_stop[cj][k][w]
            y_ck = after_stop[ck][k][w]
            z_leader = pinned[L][k][w]
            if not (x <= z_free_ck <= y_cj):
                raise TheoremViolation(
                    f"stop-now sandwich failed at k={k}, w={w}: "
                    f"{x} <= {z_free_ck} <= {y_cj}"
                )
            if not (x <= z_free_cj <= y_ck):
                raise TheoremViolation(
                    f"stop-now sandwich failed at k={k}, w={w}: "
                    f"{x} <= {z_free_cj} <= {y_ck}"
                )
            if not (z_leader >= max(y_cj, y_ck)):
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
    grid = space.grid
    n = space.n_outcomes
    terminal = constant_time(space, K)

    def fam(key):
        return comp.families[key]

    def leader_react_one(member, t_idx) -> StoppingTime:
        if t_idx == K:
            return terminal
        entry = family_lookup(fam(("pair", member)), grid.points[t_idx])
        other = ck if member == cj else cj
        return _pair_component(entry, (L, other), L).initial

    def leader_react_two(t_cj, t_ck) -> StoppingTime:
        if max(t_cj, t_ck) == K:
            return terminal
        if t_cj < t_ck:
            entry = family_lookup(fam(("pair", cj)), grid.points[t_cj])
            return _pair_component(entry, (L, ck), L).react[t_ck]
        if t_cj > t_ck:
            entry = family_lookup(fam(("pair", ck)), grid.points[t_ck])
            return _pair_component(entry, (L, cj), L).react[t_cj]
        entry = family_lookup(fam(("single", L)), grid.points[t_cj])
        return entry.payload[0]

    leader = StrategyOrder3(
        seat=L,
        initial=comp.leader_hit,
        react_one={
            cj: tuple(leader_react_one(cj, s) for s in range(K + 1)),
            ck: tuple(leader_react_one(ck, s) for s in range(K + 1)),
        },
        react_two={
            (a, b): leader_react_two(a, b) for a in range(K + 1) for b in range(K + 1)
        },
    )

    def member_strategy(me: int, partner: int, designated_on: bool) -> StrategyOrder3:
        # coop payload: (rho, tau, lifted rho, lifted tau); rho belongs to the
        # lower coalition seat
        my_coop_slot = 0 if me == cj else 1

        def react_leader(t_idx) -> StoppingTime:
            if t_idx == K:
                return terminal
            entry = family_lookup(fam("coop"), grid.points[t_idx])
            return entry.payload[my_coop_slot]

        def react_partner(t_idx) -> StoppingTime:
            if t_idx == K:
                return terminal
            entry = family_lookup(fam(("pair", partner)), grid.points[t_idx])
            return _pair_component(entry, (L, me), me).initial

        def react_both(t_leader: int, t_partner: int) -> StoppingTime:
            if max(t_leader, t_partner) == K:
                return terminal
            if t_leader < t_partner:
                entry = family_lookup(fam("coop"), grid.points[t_leader])
                lifted = entry.payload[2 + my_coop_slot]
                return lifted.react[t_partner]
            if t_leader > t_partner:
                entry = family_lookup(fam(("pair", partner)), grid.points[t_partner])
                return _pair_component(entry, (L, me), me).react[t_leader]
            entry = family_lookup(fam(("single", me)), grid.points[t_leader])
            return entry.payload[0]

        initial = StoppingTime(
            tuple(
                comp.coalition_hit.idx[w]
                if comp.designate[w] == designated_on
                else K
                for w in range(n)
            )
        )
        lo = min(L, partner)
        react_two = {}
        for a in range(K + 1):
            for b in range(K + 1):
                # key (a, b): a is seat lo's time, b is seat hi's time
                t_leader, t_partner = (a, b) if lo == L else (b, a)
                react_two[(a, b)] = react_both(t_leader, t_partner)
        return StrategyOrder3(
            seat=me,
            initial=initial,
            react_one={L: tuple(react_leader(s) for s in range(K + 1)),
                       partner: tuple(react_partner(s) for s in range(K + 1))},
            react_two=react_two,
        )

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
    on_path, _ = on_path_value(space, comp.payoff, profile, comp.mu)
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
