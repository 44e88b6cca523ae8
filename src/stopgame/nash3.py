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
exit time: the single-optimizer families of the punished seat's coalition
game), or the after-stop families (everywhere else).  The final claim, a
13*eps equilibrium, is never asserted: it is measured by the exact
best-response oracle per start atom.

Each seat's stop-now solutions, and every after-stop view and pair measurement
(``nash2.AfterStopTable``), are built once per solve and shared by their readers.
Coalition families are built on first read: a solve certifies the six of each first
stopper's saddle and, per other seat, its single family in the game it punishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classic import block_rv, dynkin_value
from .coalition import assemble_saddle, build_components
from .errors import NoValidDelta, PremiseViolation, TheoremViolation
from .nash2 import AfterStopTable, EquilibriumFamily, build_pair_family, stop_now_solutions
from .payoff import auto_h, eta_reaching
from .space import (
    RV,
    Atom,
    FilteredSpace,
    StoppingTime,
    constant_time,
    first_hit,
    rat,
    stopped_atoms,
)
from .strategy import StrategyOrder3, dense_strategy3, resolve2, validate_strategy
from .verify import NashCertificate, certify_nash


def build_overline_families(
    space: FilteredSpace, fields, h, eps, table: AfterStopTable | None = None
) -> dict[int, EquilibriumFamily]:
    """After-stop equilibrium family per stopped seat.

    Entry pairs carry the two surviving seats' own payoffs with the stopped
    seat's slot pinned to the conditioning time.
    """
    return {
        s: build_pair_family(space, tuple(fields[q] for q in range(3) if q != s), s, h, eps, table)
        for s in range(3)
    }


def resolve_overline(space: FilteredSpace, overline: dict[int, EquilibriumFamily]) -> dict:
    """Per stopped seat, the two survivors' stop times after a stop at each
    interior index k: the entry at phi_h(t_k), resolved once per entry."""
    out = {}
    for s, family in overline.items():
        one_each = {e.g: e for e in family.by_index}  # several k can share one window's entry
        pairs = {g: resolve2(space, *e.payload.values()) for g, e in one_each.items()}
        out[s] = [pairs[e.g] for e in family.by_index]
    return out


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
    after_stop: dict,
    stop_now: tuple,
) -> PlayerProcesses:
    """Takes ``resolve_overline``'s result and this seat's ``stop_now_solutions``."""
    eps = rat(eps)
    K = space.grid.terminal_index
    field = fields[seat]
    others = sorted(q for q in range(3) if q != seat)

    stop_exact = [res.value for res in stop_now]

    def family_layers(s: int) -> list[RV]:
        # E_k of the field with seat s stopped at k and the survivors at their pair
        return [
            block_rv(space, k, field.stop_sums((*pair[:s], k, *pair[s:]), blocks), field.den)
            for k, (pair, blocks) in enumerate(zip([*after_stop[s], (K, K)], space.partitions))
        ]

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
    # the last index always hits: value[K] = stop_exact[K] <= stop_family[K]
    exit_time = first_hit(space, theta, lambda k, w: value[k][w] <= stop_family[k][w] + eps)
    return PlayerProcesses(
        seat=seat,
        stop_exact=tuple(stop_exact),
        stop_family=tuple(stop_family),
        rival=rival,
        rival_floor=tuple(rival_floor),
        value=value,
        exit_time=exit_time,
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
    committed-stop processes and duel values stable across the delay window.
    A multiple m reaches the test only through each end index, the first grid
    index at or after t_mu + m * step for an exit time t_mu on the atom, which
    is at most j exactly while m <= (t_j - t_mu) // step: the largest passing
    m is ``max_m`` or one of those floors, so only these are tried."""
    eps = rat(eps)
    step, points = space.grid.min_step, space.grid.points
    max_m = max(1, math.ceil(space.grid.span / step))
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

    for k, members, _ in stopped_atoms(space, theta):
        exits = {pp.exit_time.idx[w] for pp in players.values() for w in members}
        floors = {(t - points[mu]) // step for mu in exits for t in points[mu + 1 :]}
        tried = sorted({max_m, *(m for m in floors if m < max_m)}, reverse=True)
        chosen = next((m * step for m in tried if atom_ok(members, m)), None)
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


def first_exit_seats(space: FilteredSpace, mu_by_seat) -> tuple[int, ...]:
    """Per outcome, the seat whose exit time fires first, ties resolved
    toward the lowest seat."""
    return tuple(
        min(range(3), key=lambda s: (mu_by_seat[s].idx[w], s))
        for w in range(space.n_outcomes)
    )


def partition_ABC(first_exit) -> tuple[tuple, tuple, tuple]:
    """A, B, C: per outcome, whether seat 0, 1 or 2 is the first to exit.
    Exhaustive and pairwise disjoint by construction."""
    return tuple(tuple(e == s for e in first_exit) for s in range(3))


@dataclass(frozen=True)
class AssemblyContext:
    space: FilteredSpace
    fields: tuple
    theta: StoppingTime
    eps: Fraction
    h: Fraction
    players: dict
    delta: DeltaMap
    first_exit: tuple  # per outcome, the designated first stopper
    events: tuple  # partition_ABC(first_exit): one bool tuple per seat
    overline: dict
    saddles: dict  # seat -> (components, saddle strategies by seat, None if never first)
    shifted_exit: dict  # seat -> exit time pushed by the settle delay


def build_context(space, fields, theta, eps, h) -> AssemblyContext:
    eps, h = rat(eps), rat(h)
    table = AfterStopTable()  # this solve's after-stop views and measurements
    overline = build_overline_families(space, fields, h, eps, table)
    after_stop = resolve_overline(space, overline)
    stop_now = {s: stop_now_solutions(space, fields[s], s, table) for s in range(3)}
    players = {
        seat: build_player_processes(space, fields, seat, theta, eps, after_stop, stop_now[seat])
        for seat in range(3)
    }
    delta = select_delta(space, players, theta, eps)
    first_exit = first_exit_seats(space, {s: players[s].exit_time for s in range(3)})
    shifted = {
        s: shift_time(space, players[s].exit_time, delta.duration) for s in range(3)
    }
    saddles = {}
    for s in range(3):
        comp = build_components(space, fields[s], s, shifted[s], eps, h, stop_now[s], table)
        saddles[s] = (comp, None)
        if s in first_exit:
            dict(comp.families)  # build and certify all six families, in key order
            saddles[s] = (comp, dict(zip((comp.leader, *comp.coalition), assemble_saddle(comp))))
    return AssemblyContext(
        space=space,
        fields=tuple(fields),
        theta=theta,
        eps=eps,
        h=h,
        players=players,
        delta=delta,
        first_exit=first_exit,
        events=partition_ABC(first_exit),
        overline=overline,
        saddles=saddles,
        shifted_exit=shifted,
    )


def assemble_profile(ctx: AssemblyContext) -> list[StrategyOrder3]:
    """Literal transcription of the dispatch tables into dense strategies."""
    space = ctx.space

    profile: list[StrategyOrder3] = []
    for p in range(3):
        lo, hi = sorted(q for q in range(3) if q != p)
        initial = StoppingTime(tuple(
            ctx.players[p].exit_time.idx[w] if e == p else ctx.saddles[e][1][p].initial.idx[w]
            for w, e in enumerate(ctx.first_exit)
        ))

        def react_one(q: int, s: int) -> StoppingTime:
            after_stop = ctx.overline[q].by_index[s].payload[p].initial
            vals = []
            for w, e in enumerate(ctx.first_exit):
                if e != p and s >= ctx.shifted_exit[e].idx[w]:
                    vals.append(ctx.saddles[e][1][p].react_one[q][s].idx[w])
                else:
                    vals.append(after_stop.idx[w])
            return StoppingTime(tuple(vals))

        def react_two(a: int, b: int) -> StoppingTime:
            if a <= b:
                after_stop = ctx.overline[lo].by_index[a].payload[p].react[b]
            else:
                after_stop = ctx.overline[hi].by_index[b].payload[p].react[a]
            vals = []
            for w, e in enumerate(ctx.first_exit):
                if e != p and min(a, b) >= ctx.shifted_exit[e].idx[w]:
                    vals.append(ctx.saddles[e][1][p].react_two[(a, b)].idx[w])
                elif e != p and a == b == ctx.players[e].exit_time.idx[w]:
                    punished = hi if e == lo else lo
                    single = ctx.saddles[punished][0].families[("single", p)]
                    vals.append(single.by_index[a].payload[p].idx[w])
                else:
                    vals.append(after_stop.idx[w])
            return StoppingTime(tuple(vals))

        strat = dense_strategy3(space, p, initial, react_one, react_two)
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
    """Full pipeline: window width, families, processes, profile, certificate.

    The ordering facts and the settle delay the construction relies on hold
    while eta(h) < eps, which ``auto_h``'s h keeps.  When one fails at a
    given h, eta(h) is evaluated: if h and eps break that premise, the
    failure is an input error (``PremiseViolation``); else the
    ``TheoremViolation`` or ``NoValidDelta`` propagates unchanged.  h and
    eta(h) read only the modulus entries they need (``auto_h``,
    ``eta_reaching``): none when no payoff moves by eps over the whole range
    of time tuples, else those of the tuple pairs within a small radius.  A
    passing solve at a given h computes no modulus.
    """
    eps = rat(eps)
    if theta is None:
        theta = constant_time(space, 0)
    given = h is not None
    h = h if given else auto_h(fields, eps, space.grid)
    try:
        ctx = build_context(space, fields, theta, eps, h)
        profile = assemble_profile(ctx)
    except (TheoremViolation, NoValidDelta) as exc:
        eta = eta_reaching(fields, eps, h) if given else None
        if eta is not None:
            raise PremiseViolation(
                f"eta(h) = {eta} >= epsilon = {eps} at h = {h}; "
                f"the construction needs eta(h) < epsilon"
            ) from exc
        raise
    cert = certify_nash(space, fields, profile, theta, eps)
    return ThreePlayerSolution(context=ctx, profile=profile, certificate=cert)
