"""Three-player equilibrium assembly from two-player building blocks.

Per player, four adapted quantities steer the construction: the exact value
of stopping now (the other two then cooperatively minimize), the value of
stopping now when the other two answer with their own precomputed two-player
equilibrium, the values of standing by while a rival stops first, and the
stopping-duel value between the first and last of these.  Each player's exit
time is the first moment the duel value pins to her committed stop value.

The profile then dispatches on which exit time fires first: that player
stops, the others respond through the after-stop equilibrium family, and
every off-path observation is answered by coalition-saddle reactions (for
late deviations), punishment optimizers (for simultaneous deviations at the
exit time), or the after-stop families (everywhere else).  The final claim,
a 13*eps equilibrium, is never asserted: it is measured by the exact
best-response oracle per start atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import dynkin_value, joint_inf_value
from .coalition import assemble_saddle, build_components
from .errors import NoValidDelta, TheoremViolation
from .nash2 import (
    EquilibriumFamily,
    _pair_component,
    build_pair_family,
    build_single_family,
    family_lookup,
)
from .payoff import estimate_modulus, modulus_max, select_h
from .space import (
    RV,
    FilteredSpace,
    StoppingTime,
    cond_exp,
    constant_time,
    rat,
    stopped_atoms,
)
from .strategy import StrategyOrder3, resolve2, validate_strategy
from .verify import NashCertificate, certify_nash

Atom = tuple[int, tuple[int, ...]]


def build_overline_families(
    space: FilteredSpace, fields, h, eps
) -> dict[int, EquilibriumFamily]:
    """After-stop equilibrium family per stopped seat.

    Entry pairs carry the two surviving seats' own payoffs with the stopped
    seat's slot pinned to the conditioning time.
    """
    out = {}
    for s in range(3):
        free = sorted(q for q in range(3) if q != s)
        out[s] = build_pair_family(
            space, (fields[free[0]], fields[free[1]]), s, h, eps
        )
    return out


def _entry_pair_times(space, entry) -> tuple[StoppingTime, StoppingTime]:
    sa, sb = entry.payload
    return resolve2(space, sa, sb)


def _family_value(space, field, seat, k, entry, free_slots) -> RV:
    """E_k of the field with the seat slot at k and the entry pair resolved."""
    ra, rb = _entry_pair_times(space, entry)
    vals = []
    for w in range(space.n_outcomes):
        ks = [0, 0, 0]
        ks[seat] = k
        ks[free_slots[0]] = ra.idx[w]
        ks[free_slots[1]] = rb.idx[w]
        vals.append(field.value_at(tuple(ks), w))
    return cond_exp(space, tuple(vals), k)


@dataclass(frozen=True)
class PlayerProcesses:
    seat: int
    stop_exact: tuple  # stopping now against the cooperative minimum
    stop_family: tuple  # stopping now against the after-stop equilibrium pair
    rival: dict  # other seat -> value of that rival stopping now
    rival_floor: tuple  # min over rivals, plus the assembly margin eps
    value: tuple  # duel value between stop_exact and rival_floor
    exit_time: StoppingTime


def build_player_processes(
    space: FilteredSpace,
    fields,
    seat: int,
    theta: StoppingTime,
    eps,
    h,
    overline: dict[int, EquilibriumFamily],
) -> PlayerProcesses:
    eps = rat(eps)
    K = space.grid.terminal_index
    field = fields[seat]
    others = sorted(q for q in range(3) if q != seat)

    stop_exact = []
    for k in range(K + 1):
        layers, _ = joint_inf_value(space, field.pin(seat, k), k)
        stop_exact.append(layers[k])

    def family_layers(stopped_seat: int) -> list[RV]:
        free = sorted(q for q in range(3) if q != stopped_seat)
        vals = []
        for k in range(K + 1):
            if k == K:
                vals.append(field.at((K, K, K)))
                continue
            entry = family_lookup(overline[stopped_seat], space.grid.points[k])
            vals.append(_family_value(space, field, stopped_seat, k, entry, free))
        return vals

    stop_family = family_layers(seat)
    rival = {q: tuple(family_layers(q)) for q in others}
    rival_floor = [
        tuple(min(rival[others[0]][k][w], rival[others[1]][k][w]) + eps
              for w in range(space.n_outcomes))
        for k in range(K + 1)
    ]

    for k in range(K + 1):
        for w in range(space.n_outcomes):
            if stop_exact[k][w] > stop_family[k][w]:
                raise TheoremViolation(
                    f"exact stop value above family stop value at k={k}, w={w}"
                )
            if stop_exact[k][w] > rival_floor[k][w]:
                raise TheoremViolation(
                    f"stop value above rival floor at k={k}, w={w} for seat {seat}: "
                    f"{stop_exact[k][w]} > {rival_floor[k][w]}"
                )

    value = dynkin_value(space, stop_exact, rival_floor, theta)
    exit_idx = []
    for w in range(space.n_outcomes):
        k = theta.idx[w]
        while value[k][w] > stop_family[k][w] + eps:
            k += 1
        exit_idx.append(k)
    return PlayerProcesses(
        seat=seat,
        stop_exact=tuple(stop_exact),
        stop_family=tuple(stop_family),
        rival=rival,
        rival_floor=tuple(rival_floor),
        value=value,
        exit_time=StoppingTime(tuple(exit_idx)),
    )


@dataclass(frozen=True)
class DeltaMap:
    """Settle delay per start atom, as a rational duration."""

    per_atom: dict[Atom, Fraction]
    duration: RV  # per outcome


def shift_time(space: FilteredSpace, st: StoppingTime, duration: RV) -> StoppingTime:
    """First grid point at or after st + duration (terminal beyond the grid)."""
    idx = tuple(
        space.grid.index_at_or_after(space.grid.points[st.idx[w]] + duration[w])
        for w in range(space.n_outcomes)
    )
    return StoppingTime(idx)


def select_delta(
    space: FilteredSpace,
    players: dict[int, PlayerProcesses],
    theta: StoppingTime,
    eps,
) -> DeltaMap:
    """Largest per-atom multiple of the minimal step keeping all three
    committed-stop processes and duel values stable across the delay window."""
    eps = rat(eps)
    step = space.grid.min_step
    max_m = 1
    while max_m * step < space.grid.span:
        max_m += 1
    atoms = stopped_atoms(space, theta)
    per_atom: dict[Atom, Fraction] = {}

    def atom_ok(members, m) -> bool:
        dur = m * step
        total = sum(space.weights[w] for w in members)
        for pp in players.values():
            sup_acc = Fraction(0)
            v_acc = Fraction(0)
            for w in members:
                mu_k = pp.exit_time.idx[w]
                mu_val = space.grid.points[mu_k]
                end_k = space.grid.index_at_or_after(mu_val + dur)
                worst = max(
                    abs(pp.stop_family[k][w] - pp.stop_family[mu_k][w])
                    for k in range(mu_k, end_k + 1)
                )
                sup_acc += space.weights[w] * worst
                v_acc += space.weights[w] * abs(pp.value[end_k][w] - pp.value[mu_k][w])
            if not (sup_acc / total < eps and v_acc / total < eps):
                return False
        return True

    for k, members in atoms:
        chosen = None
        for m in range(max_m, 0, -1):
            if atom_ok(members, m):
                chosen = m * step
                break
        if chosen is None:
            raise NoValidDelta(
                f"no stable delay of at least one step on atom {(k, members)}"
            )
        per_atom[(k, members)] = chosen
    duration = [Fraction(0)] * space.n_outcomes
    for (k, members), dur in per_atom.items():
        for w in members:
            duration[w] = dur
    return DeltaMap(per_atom=per_atom, duration=tuple(duration))


def partition_ABC(space: FilteredSpace, mu_by_seat) -> tuple[tuple, tuple, tuple]:
    """Who exits first, ties resolved toward the lowest seat.

    A: seat 0 weakly first; B: seat 1 strictly before 0, weakly before 2;
    C: seat 2 strictly before both.  Exhaustive and pairwise disjoint.
    """
    m0, m1, m2 = (mu_by_seat[s].idx for s in range(3))
    a, b, c = [], [], []
    for w in range(space.n_outcomes):
        in_a = m0[w] <= m1[w] and m0[w] <= m2[w]
        in_b = m1[w] < m0[w] and m1[w] <= m2[w]
        in_c = m2[w] < m0[w] and m2[w] < m1[w]
        if in_a + in_b + in_c != 1:
            raise TheoremViolation("exit-time events failed to partition")
        a.append(in_a)
        b.append(in_b)
        c.append(in_c)
    return tuple(a), tuple(b), tuple(c)


@dataclass(frozen=True)
class AssemblyContext:
    space: FilteredSpace
    fields: tuple
    theta: StoppingTime
    eps: Fraction
    h: Fraction
    players: dict
    delta: DeltaMap
    events: tuple  # bool tuples per seat: who is the designated first stopper
    overline: dict
    saddles: dict  # designated seat -> (components, strategies keyed by seat)
    singles: dict  # (reactor seat, punished seat) -> single family
    shifted_exit: dict  # seat -> exit time pushed by the settle delay


def build_context(space, fields, theta, eps, h) -> AssemblyContext:
    eps, h = rat(eps), rat(h)
    overline = build_overline_families(space, fields, h, eps)
    players = {
        seat: build_player_processes(space, fields, seat, theta, eps, h, overline)
        for seat in range(3)
    }
    delta = select_delta(space, players, theta, eps)
    events = partition_ABC(space, {s: players[s].exit_time for s in range(3)})
    shifted = {
        s: shift_time(space, players[s].exit_time, delta.duration) for s in range(3)
    }
    saddles = {}
    for s in range(3):
        comp = build_components(space, fields[s], s, shifted[s], eps, h)
        trio = assemble_saddle(comp)
        by_seat = {comp.leader: trio[0], comp.coalition[0]: trio[1], comp.coalition[1]: trio[2]}
        saddles[s] = (comp, by_seat)
    singles = {}
    for me in range(3):
        for punished in range(3):
            if punished != me:
                singles[(me, punished)] = build_single_family(
                    space, fields[punished], me, "inf", h, eps
                )
    return AssemblyContext(
        space=space,
        fields=tuple(fields),
        theta=theta,
        eps=eps,
        h=h,
        players=players,
        delta=delta,
        events=events,
        overline=overline,
        saddles=saddles,
        singles=singles,
        shifted_exit=shifted,
    )


def assemble_profile(ctx: AssemblyContext) -> list[StrategyOrder3]:
    """Literal transcription of the dispatch tables into dense strategies."""
    space = ctx.space
    K = space.grid.terminal_index
    n = space.n_outcomes
    points = space.grid.points

    def event_seat(w: int) -> int:
        for s in range(3):
            if ctx.events[s][w]:
                return s
        raise AssertionError("events must partition")

    def overline_component(stopped, t_idx, want):
        entry = family_lookup(ctx.overline[stopped], points[t_idx])
        free = sorted(q for q in range(3) if q != stopped)
        return _pair_component(entry, free, want)

    profile: list[StrategyOrder3] = []
    for p in range(3):
        others = sorted(q for q in range(3) if q != p)

        initial_idx = []
        for w in range(n):
            e = event_seat(w)
            if e == p:
                initial_idx.append(ctx.players[p].exit_time.idx[w])
            else:
                initial_idx.append(ctx.saddles[e][1][p].initial.idx[w])

        def react_one_entry(q: int, s: int) -> StoppingTime:
            if s == K:
                return constant_time(space, K)
            vals = []
            for w in range(n):
                e = event_seat(w)
                if e != p and points[s] >= points[ctx.shifted_exit[e].idx[w]]:
                    vals.append(ctx.saddles[e][1][p].react_one[q][s].idx[w])
                else:
                    vals.append(overline_component(q, s, p).initial.idx[w])
            return StoppingTime(tuple(vals))

        def react_two_entry(a: int, b: int) -> StoppingTime:
            lo, hi = others
            if max(a, b) == K:
                return constant_time(space, K)
            vals = []
            for w in range(n):
                e = event_seat(w)
                first = min(a, b)
                used = None
                if e != p and points[first] >= points[ctx.shifted_exit[e].idx[w]]:
                    used = ctx.saddles[e][1][p].react_two[(a, b)].idx[w]
                elif (
                    e != p
                    and a == b
                    and a == ctx.players[e].exit_time.idx[w]
                ):
                    punished = hi if e == lo else lo
                    entry = family_lookup(ctx.singles[(p, punished)], points[a])
                    used = entry.payload[0].idx[w]
                elif a <= b:
                    used = overline_component(lo, a, p).react[b].idx[w]
                else:
                    used = overline_component(hi, b, p).react[a].idx[w]
                vals.append(used)
            return StoppingTime(tuple(vals))

        strat = StrategyOrder3(
            seat=p,
            initial=StoppingTime(tuple(initial_idx)),
            react_one={
                others[0]: tuple(react_one_entry(others[0], s) for s in range(K + 1)),
                others[1]: tuple(react_one_entry(others[1], s) for s in range(K + 1)),
            },
            react_two={
                (a, b): react_two_entry(a, b)
                for a in range(K + 1)
                for b in range(K + 1)
            },
        )
        problems = validate_strategy(space, strat)
        if problems:
            raise TheoremViolation(
                f"assembled strategy for seat {p} invalid: {problems}"
            )
        profile.append(strat)
    return profile


@dataclass(frozen=True)
class ThreePlayerSolution:
    context: AssemblyContext
    profile: list
    certificate: NashCertificate


def solve_three_player(
    space: FilteredSpace, fields, theta=None, eps="1/20", h=None
) -> ThreePlayerSolution:
    """Full pipeline: window width, families, processes, profile, certificate."""
    eps = rat(eps)
    if theta is None:
        theta = constant_time(space, 0)
    if h is None:
        mod = modulus_max([estimate_modulus(f) for f in fields])
        h = select_h(mod, eps, space.grid)
    ctx = build_context(space, fields, theta, eps, h)
    profile = assemble_profile(ctx)
    cert = certify_nash(space, fields, profile, theta, eps)
    return ThreePlayerSolution(context=ctx, profile=profile, certificate=cert)
