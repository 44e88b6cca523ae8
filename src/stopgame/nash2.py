"""Two-player nonzero-sum solver and window-robust equilibrium families.

``solve_2p_nash`` replaces the cited black-box existence theorem for the
two-player game with a constructive candidate: a leader-follower backward
induction whose node cells price "stop now, the other reacts in her own best
interest" against joint continuation.  Candidates are never trusted; the exact
best-response oracle (``verify.certify_nash``) certifies the achieved gap,
and tiny instances fall back to exhaustive search over the enumerable
strategy class when the candidate misses the target.  Reactions are solved
only for observations from the start on; a reaction to an earlier
observation is ``patch_pair``'s redirect to the behavior at the start.

Families index such objects by multiples of a window width h chosen from the
payoff modulus.  The entry at g is built at the first grid point at or after
g and certified, by direct evaluation, at every grid time in [g-h, g]; lookup
at time t returns the entry at the next strictly-later multiple of h, which
by construction contains t in its certified window.  Certified tolerances are
11*eps for equilibrium pairs, 5*eps for cooperative minimizer pairs, and eps
for single optimizers, fixed per family kind, with the achieved gap recorded
alongside.  The three builders share one skeleton: each supplies only how to
solve at the anchor and how to measure the gap at a window time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import joint_inf_pair, snell
from .config import current_guards
from .errors import DeskScaleExceeded, NonGridResult, WindowCertificationFailed
from .payoff import PayoffField
from .space import FilteredSpace, StoppingTime, cond_exp, constant_time, rat
from .strategy import StrategyOrder2, lift_obstinate2, patch_pair, phi_h
from .verify import (
    NashCertificate,
    _nash_certificate,
    certify_nash,
    count_strategies2,
    enumerate_strategies2,
    exact_best_response,
    on_path_value,
)


@dataclass(frozen=True)
class Nash2Result:
    strategies: tuple[StrategyOrder2, StrategyOrder2]
    certificate: NashCertificate
    fallback_used: bool

    @property
    def gap(self) -> Fraction:
        return self.certificate.worst_gap


def _own_reactions(space, field, other_slot, kmin):
    """Snell-optimal reactions, maximizing the owner's own payoff, to each
    observation s in [kmin, K); earlier entries are None."""
    K = space.grid.terminal_index
    react = [None] * kmin
    for s in range(kmin, K):
        react.append(snell(space, field.pin(other_slot, s).as_layers(), "sup", s + 1))
    return react


def solve_2p_nash(
    space: FilteredSpace,
    field_a: PayoffField,
    field_b: PayoffField,
    start,
    eps,
) -> Nash2Result:
    """Certified two-player equilibrium candidate for two-slot payoffs.

    Seat 0 controls slot 0 of both fields and maximizes field_a; seat 1
    controls slot 1 and maximizes field_b.  The returned gap is the exact
    worst-case best-response improvement over the start atoms.  No play from
    the start observes a stop before its earliest index kmin, so reactions
    are solved only from kmin on; the returned pair is ``patch_pair`` at
    kmin, which redirects earlier observations to the kmin behavior.
    """
    eps = rat(eps)
    K = space.grid.terminal_index
    start_st = start if isinstance(start, StoppingTime) else constant_time(space, int(start))
    kmin = min(start_st.idx)

    react_b = _own_reactions(space, field_b, 0, kmin)  # b reacting to a's stop
    react_a = _own_reactions(space, field_a, 1, kmin)  # a reacting to b's stop

    value_a = [None] * (K + 1)
    value_b = [None] * (K + 1)
    value_a[K] = field_a.at((K, K))
    value_b[K] = field_b.at((K, K))
    stops_a = [None] * (K + 1)
    stops_b = [None] * (K + 1)
    stops_a[K] = (True,) * space.n_outcomes
    stops_b[K] = (True,) * space.n_outcomes
    for k in range(K - 1, kmin - 1, -1):
        ss_a, ss_b = field_a.at((k, k)), field_b.at((k, k))
        # seat a stops alone: b plays her reaction rule from k+1
        rb = react_b[k]
        sc_a = cond_exp(
            space,
            tuple(
                field_a.value_at((k, rb.rule.idx[w]), w)
                for w in range(space.n_outcomes)
            ),
            k,
        )
        sc_b = cond_exp(space, rb.value[k + 1], k)
        ra = react_a[k]
        cs_a = cond_exp(space, ra.value[k + 1], k)
        cs_b = cond_exp(
            space,
            tuple(
                field_b.value_at((ra.rule.idx[w], k), w)
                for w in range(space.n_outcomes)
            ),
            k,
        )
        cc_a = cond_exp(space, value_a[k + 1], k)
        cc_b = cond_exp(space, value_b[k + 1], k)
        act_a, act_b, va, vb = [], [], [], []
        for w in range(space.n_outcomes):
            cells = {
                (True, True): (ss_a[w], ss_b[w]),
                (True, False): (sc_a[w], sc_b[w]),
                (False, True): (cs_a[w], cs_b[w]),
                (False, False): (cc_a[w], cc_b[w]),
            }

            def is_nash(cell):
                xa, xb = cell
                alt_a = cells[(not xa, xb)][0]
                alt_b = cells[(xa, not xb)][1]
                return cells[cell][0] >= alt_a and cells[cell][1] >= alt_b

            chosen = None
            for cell in ((True, True), (True, False), (False, True), (False, False)):
                if is_nash(cell):
                    chosen = cell
                    break
            if chosen is None:
                # no pure node equilibrium: stop iff stopping beats waiting
                # under the follower's reaction; certification arbitrates
                chosen = (sc_a[w] >= cc_a[w], cs_b[w] >= cc_b[w])
            act_a.append(chosen[0])
            act_b.append(chosen[1])
            pay = cells[chosen]
            va.append(pay[0])
            vb.append(pay[1])
        value_a[k], value_b[k] = tuple(va), tuple(vb)
        stops_a[k], stops_b[k] = tuple(act_a), tuple(act_b)

    def read_initial(stops):
        out = []
        for w in range(space.n_outcomes):
            k = start_st.idx[w]
            while k < K and not stops[k][w]:
                k += 1
            out.append(k)
        return StoppingTime(tuple(out))

    terminal = constant_time(space, K)

    def strategy(stops, react):
        # entries before kmin are placeholders that patch_pair overwrites
        rules = tuple(terminal if r is None else r.rule for r in react)
        return StrategyOrder2(initial=read_initial(stops), react=rules + (terminal,))

    pair = patch_pair(space, (strategy(stops_a, react_a), strategy(stops_b, react_b)), kmin)
    cert = certify_nash(space, (field_a, field_b), list(pair), start_st, eps)
    if cert.passes:
        return Nash2Result(pair, cert, fallback_used=False)
    return _fallback_search(space, field_a, field_b, start_st, eps, pair, cert)


def _fallback_search(space, field_a, field_b, start_st, eps, best_pair, best):
    guards = current_guards()
    count = count_strategies2(space, start_st)
    if count * count > guards.enumeration_cap:
        raise DeskScaleExceeded(
            f"{count * count} strategy pairs exceed the enumeration cap"
        )
    strategies = list(enumerate_strategies2(space, start_st))
    br_a_vs = []
    br_b_vs = []
    for s in strategies:
        br_a_vs.append(
            exact_best_response(space, field_a, [None, s], (0,), "max", start_st).values
        )
        br_b_vs.append(
            exact_best_response(space, field_b, [s, None], (1,), "max", start_st).values
        )
    for i, sa in enumerate(strategies):
        for j, sb in enumerate(strategies):
            # a seat's best response depends only on the other seat's strategy
            paths = [
                on_path_value(space, f, [sa, sb], start_st)[0] for f in (field_a, field_b)
            ]
            cert = _nash_certificate(eps, (br_a_vs[j], br_b_vs[i]), paths)
            if cert.worst_gap < best.worst_gap:
                best_pair, best = (sa, sb), cert
    return Nash2Result(patch_pair(space, best_pair, min(start_st.idx)), best, fallback_used=True)


@dataclass(frozen=True)
class FamilyEntry:
    g: Fraction
    anchor: int
    payload: tuple
    tolerance: Fraction
    achieved: Fraction
    window: tuple[int, ...]


@dataclass(frozen=True)
class EquilibriumFamily:
    kind: str  # 'nonzero_sum_pair' | 'coop_pair' | 'single'
    h: Fraction
    entries: dict[Fraction, FamilyEntry]


def family_lookup(family: EquilibriumFamily, t) -> FamilyEntry:
    """Entry holding time t in its certified window: the one at phi_h(t)."""
    g = phi_h(t, family.h)
    entry = family.entries.get(g)
    if entry is None:
        raise NonGridResult(f"no family entry at {g} (looked up from t={t})")
    return entry


def family_multiples(space: FilteredSpace, h) -> list[Fraction]:
    """Multiples of h that phi_h maps an interior grid time to, plus each
    interior grid time that is itself a positive multiple of h.

    These are exactly the multiples up to the last lookup target whose window
    [g-h, g] holds a grid time; the others would certify nothing, and there
    are about span/h of them when h is below a grid gap.
    """
    h = rat(h)
    interior = space.grid.points[:-1]
    on_grid = {t for t in interior if t > 0 and (t / h).denominator == 1}
    return sorted({phi_h(t, h) for t in interior} | on_grid)


def _double_pin(field3: PayoffField, free_slot: int, c: int) -> PayoffField:
    others = sorted(s for s in range(3) if s != free_slot)
    return field3.pin(others[1], c).pin(others[0], c)


def stop_now_solutions(space: FilteredSpace, field3: PayoffField, seat: int) -> tuple:
    """Per index k, the other two slots' cooperative minimum from k with the
    seat's slot pinned to k; ``[k].value[k]`` is the seat's stop-now value."""
    K = space.grid.terminal_index
    return tuple(joint_inf_pair(space, field3.pin(seat, k), k) for k in range(K + 1))


def _pair_component(entry: FamilyEntry, free_slots, want: int) -> StrategyOrder2:
    """Strategy of seat ``want`` in a pair entry; the lower free slot comes first."""
    return entry.payload[0] if want == min(free_slots) else entry.payload[1]


_ENTRY_LABEL = {"nonzero_sum_pair": "pair", "coop_pair": "coop", "single": "single"}
_TOL_MULT = {"nonzero_sum_pair": 11, "coop_pair": 5, "single": 1}


def _window_family(space, kind, h, eps, solve_at, gap_at) -> EquilibriumFamily:
    """One entry per g in ``family_multiples``: ``solve_at(anchor)`` gives the
    payload at the first grid index at or after g, and ``gap_at(payload, k)``
    must stay within the kind's multiple of eps at every grid index k of the
    window [g-h, g]."""
    h, eps = rat(h), rat(eps)
    tolerance = _TOL_MULT[kind] * eps
    entries: dict[Fraction, FamilyEntry] = {}
    for g in family_multiples(space, h):
        anchor = space.grid.index_at_or_after(g)
        payload = solve_at(anchor)
        achieved = Fraction(0)
        window = tuple(k for k, p in enumerate(space.grid.points) if g - h <= p <= g)
        for k in window:
            achieved = max(achieved, gap_at(payload, k))
            if achieved > tolerance:
                raise WindowCertificationFailed(
                    f"{_ENTRY_LABEL[kind]} entry at {g} reached gap {achieved} > "
                    f"{_TOL_MULT[kind]}*eps at grid index {k}",
                    g=g,
                    at=k,
                )
        entries[g] = FamilyEntry(
            g=g,
            anchor=anchor,
            payload=payload,
            tolerance=tolerance,
            achieved=achieved,
            window=window,
        )
    return EquilibriumFamily(kind=kind, h=h, entries=entries)


def build_pair_family(
    space: FilteredSpace,
    fields3: tuple[PayoffField, PayoffField],
    frozen_slot: int,
    h,
    eps,
) -> EquilibriumFamily:
    """Equilibrium pairs for the two free slots, one entry per h-multiple.

    ``fields3[0]`` is the payoff of the owner of the lower free slot.  Entries
    are solved at their anchor (``solve_2p_nash`` patches them so that early
    observations redirect to anchor behavior), then certified at 11*eps over
    the whole window by exact best response.
    """

    def views(k):
        return tuple(f.pin(frozen_slot, k) for f in fields3)

    def solve_at(anchor):
        return solve_2p_nash(space, *views(anchor), anchor, eps).strategies

    def gap_at(pair, k):
        return certify_nash(space, views(k), list(pair), k, eps).worst_gap

    return _window_family(space, "nonzero_sum_pair", h, eps, solve_at, gap_at)


def build_coop_family(
    space: FilteredSpace,
    field3: PayoffField,
    frozen_slot: int,
    stop_now: tuple,
    h,
    eps,
) -> EquilibriumFamily:
    """Committed minimizer pairs for the cooperative two-stop problem.

    ``stop_now`` is ``stop_now_solutions(space, field3, frozen_slot)``.  The
    anchor optimum is exact; window certification compares the committed
    pair's value against the cooperative infimum at each window time, within
    5*eps.  Payloads are (rho, tau, lifted rho, lifted tau).
    """

    def solve_at(anchor):
        res = stop_now[anchor]
        return (
            res.rho,
            res.tau,
            lift_obstinate2(space, res.rho),
            lift_obstinate2(space, res.tau),
        )

    def gap_at(payload, k):
        rho, tau = payload[:2]
        view = field3.pin(frozen_slot, k)
        pay = tuple(
            view.value_at((rho.idx[w], tau.idx[w]), w) for w in range(space.n_outcomes)
        )
        attained = cond_exp(space, pay, k)
        return max(a - o for a, o in zip(attained, stop_now[k].value[k]))

    return _window_family(space, "coop_pair", h, eps, solve_at, gap_at)


def build_single_family(
    space: FilteredSpace,
    field3: PayoffField,
    free_slot: int,
    solo: tuple,
    h,
    eps,
) -> EquilibriumFamily:
    """Single optimal stops for a payoff with both other slots pinned.

    ``solo[k]`` is the Snell solution from k of the slice pinned at k.
    Window certification compares the anchored rule's value with the Snell
    optimum at each window time, within eps.
    """
    direction = solo[-1].direction

    def solve_at(anchor):
        return (solo[anchor].rule,)

    def gap_at(payload, k):
        (rule,) = payload
        layers = _double_pin(field3, free_slot, k).as_layers()
        attained = cond_exp(
            space,
            tuple(layers[rule.idx[w]][w] for w in range(space.n_outcomes)),
            k,
        )
        opt = solo[k].value[k]
        if direction == "inf":
            return max(a - o for a, o in zip(attained, opt))
        return max(o - a for a, o in zip(attained, opt))

    return _window_family(space, "single", h, eps, solve_at, gap_at)
