"""Two-player nonzero-sum solver and window-robust equilibrium families.

``solve_2p_nash`` replaces the cited black-box existence theorem for the
two-player game with a constructive candidate: a leader-follower backward
induction whose node cells price "stop now, the other reacts in her own best
interest" against joint continuation.  Candidates are never trusted; the exact
best-response oracle (``verify.certify_nash``) certifies the achieved gap,
and tiny instances fall back to exhaustive search over the enumerable
strategy class when the candidate misses the target.

Families index such objects by multiples of a window width h chosen from the
payoff modulus.  The entry at g is built at the first grid point at or after
g and certified, by direct evaluation, at every grid time in [g-h, g]; lookup
at time t returns the entry at the next strictly-later multiple of h, which
by construction contains t in its certified window.  Certified tolerances are
11*eps for equilibrium pairs, 5*eps for cooperative minimizer pairs, and eps
for single optimizers, with the achieved gap recorded alongside.  The three
builders share one skeleton: each supplies only how to solve at the anchor and
how to measure the gap at a window time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import joint_inf_pair, joint_inf_value, snell
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


def _own_reactions(space, field, other_slot):
    """Snell-optimal reaction table maximizing the owner's own payoff."""
    K = space.grid.terminal_index
    react = []
    for s in range(K):
        react.append(snell(space, field.pin(other_slot, s).as_layers(), "sup", s + 1))
    return react


def solve_2p_nash(
    space: FilteredSpace,
    field_a: PayoffField,
    field_b: PayoffField,
    start,
    eps,
    fallback: bool = True,
) -> Nash2Result:
    """Certified two-player equilibrium candidate for two-slot payoffs.

    Seat 0 controls slot 0 of both fields and maximizes field_a; seat 1
    controls slot 1 and maximizes field_b.  The returned gap is the exact
    worst-case best-response improvement over the start atoms.
    """
    eps = rat(eps)
    K = space.grid.terminal_index
    start_st = start if isinstance(start, StoppingTime) else constant_time(space, int(start))
    kmin = min(start_st.idx)

    react_b = _own_reactions(space, field_b, other_slot=0)  # b reacting to a's stop
    react_a = _own_reactions(space, field_a, other_slot=1)  # a reacting to b's stop

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
    strat_a = StrategyOrder2(
        initial=read_initial(stops_a),
        react=tuple(r.rule for r in react_a) + (terminal,),
    )
    strat_b = StrategyOrder2(
        initial=read_initial(stops_b),
        react=tuple(r.rule for r in react_b) + (terminal,),
    )
    cert = certify_nash(space, (field_a, field_b), [strat_a, strat_b], start_st, eps)
    if cert.passes or not fallback:
        return Nash2Result((strat_a, strat_b), cert, fallback_used=False)
    return _fallback_search(space, field_a, field_b, start_st, eps, (strat_a, strat_b), cert)


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
    return Nash2Result(best_pair, best, fallback_used=True)


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
    """Multiples of h needed to serve phi_h at every interior grid time."""
    h = rat(h)
    last_interior = space.grid.points[-2]
    top = phi_h(last_interior, h)
    out = []
    m = 1
    while m * h <= top:
        out.append(m * h)
        m += 1
    return out


def _double_pin(field3: PayoffField, free_slot: int, c: int) -> PayoffField:
    others = sorted(s for s in range(3) if s != free_slot)
    return field3.pin(others[1], c).pin(others[0], c)


def _pair_component(entry: FamilyEntry, free_slots, want: int) -> StrategyOrder2:
    """Strategy of seat ``want`` in a pair entry; the lower free slot comes first."""
    return entry.payload[0] if want == min(free_slots) else entry.payload[1]


_ENTRY_LABEL = {"nonzero_sum_pair": "pair", "coop_pair": "coop", "single": "single"}


def _window_family(space, kind, h, eps, tol_mult, solve_at, gap_at) -> EquilibriumFamily:
    """One entry per h-multiple g: ``solve_at(anchor)`` gives the payload at
    the first grid index at or after g, and ``gap_at(payload, k)`` must stay
    within tol_mult*eps at every grid index k of the window [g-h, g]."""
    h, eps = rat(h), rat(eps)
    entries: dict[Fraction, FamilyEntry] = {}
    for g in family_multiples(space, h):
        anchor = space.grid.index_at_or_after(g)
        payload = solve_at(anchor)
        achieved = Fraction(0)
        window = tuple(k for k, p in enumerate(space.grid.points) if g - h <= p <= g)
        for k in window:
            achieved = max(achieved, gap_at(payload, k))
            if achieved > tol_mult * eps:
                raise WindowCertificationFailed(
                    f"{_ENTRY_LABEL[kind]} entry at {g} reached gap {achieved} > "
                    f"{tol_mult}*eps at grid index {k}",
                    g=g,
                    at=k,
                )
        entries[g] = FamilyEntry(
            g=g,
            anchor=anchor,
            payload=payload,
            tolerance=tol_mult * eps,
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
    tol_mult: int = 11,
) -> EquilibriumFamily:
    """Equilibrium pairs for the two free slots, one entry per h-multiple.

    ``fields3[0]`` is the payoff of the owner of the lower free slot.  Entries
    are solved at their anchor, patched so that early observations redirect to
    anchor behavior, then certified at tol_mult*eps over the whole window by
    exact best response.
    """

    def views(k):
        return tuple(f.pin(frozen_slot, k) for f in fields3)

    def solve_at(anchor):
        res = solve_2p_nash(space, *views(anchor), anchor, eps)
        return patch_pair(space, res.strategies, anchor)

    def gap_at(pair, k):
        return certify_nash(space, views(k), list(pair), k, eps).worst_gap

    return _window_family(space, "nonzero_sum_pair", h, eps, tol_mult, solve_at, gap_at)


def build_coop_family(
    space: FilteredSpace,
    field3: PayoffField,
    frozen_slot: int,
    h,
    eps,
    tol_mult: int = 5,
) -> EquilibriumFamily:
    """Committed minimizer pairs for the cooperative two-stop problem.

    The anchor optimum is exact; window certification compares the committed
    pair's value against the cooperative infimum recomputed at each window
    time, within tol_mult*eps.  Payloads are (rho, tau, lifted rho, lifted tau).
    """

    def solve_at(anchor):
        res = joint_inf_pair(space, field3.pin(frozen_slot, anchor), anchor)
        return (
            res.rho,
            res.tau,
            lift_obstinate2(space, res.rho),
            lift_obstinate2(space, res.tau),
        )

    def gap_at(payload, k):
        rho, tau = payload[:2]
        view = field3.pin(frozen_slot, k)
        opt_layers, _ = joint_inf_value(space, view, k)
        pay = tuple(
            view.value_at((rho.idx[w], tau.idx[w]), w) for w in range(space.n_outcomes)
        )
        attained = cond_exp(space, pay, k)
        return max(a - o for a, o in zip(attained, opt_layers[k]))

    return _window_family(space, "coop_pair", h, eps, tol_mult, solve_at, gap_at)


def build_single_family(
    space: FilteredSpace,
    field3: PayoffField,
    free_slot: int,
    direction: str,
    h,
    eps,
    tol_mult: int = 1,
) -> EquilibriumFamily:
    """Single optimal stops for a payoff with both other slots pinned.

    Window certification compares the anchored rule's value with the Snell
    optimum recomputed at each window time.
    """

    def solve_at(anchor):
        layers = _double_pin(field3, free_slot, anchor).as_layers()
        return (snell(space, layers, direction, anchor).rule,)

    def gap_at(payload, k):
        (rule,) = payload
        layers = _double_pin(field3, free_slot, k).as_layers()
        attained = cond_exp(
            space,
            tuple(layers[rule.idx[w]][w] for w in range(space.n_outcomes)),
            k,
        )
        opt = snell(space, layers, direction, k).value[k]
        if direction == "inf":
            return max(a - o for a, o in zip(attained, opt))
        return max(o - a for a, o in zip(attained, opt))

    return _window_family(space, "single", h, eps, tol_mult, solve_at, gap_at)
