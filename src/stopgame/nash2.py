"""Two-player nonzero-sum solver and window-robust equilibrium families.

``solve_2p_nash`` replaces the cited black-box existence theorem for the
two-player game with a constructive candidate: ``classic.node_sweep`` over
both seats' fields, whose node cells price "stop now, the other reacts in her
own best interest" against joint continuation, playing each node's first pure
equilibrium (``_nash_cell``).  Candidates are never trusted; the exact
best-response oracle (``verify.certify_nash``) certifies the achieved gap,
and tiny instances fall back to exhaustive search over the enumerable
strategy class when the candidate misses the target.  Reactions are solved
only for observations from the start on; a reaction to an earlier
observation is ``patch_pair``'s redirect to the behavior at the start.

Families index such objects by multiples of a window width h chosen from the
payoff modulus.  The entry at g is built at the first grid point at or after
g and certified, by direct evaluation, at every grid time in [g-h, g]; lookup
at time t returns the entry at the next strictly-later multiple of h, which
by construction contains t in its certified window.  Each family also holds
that lookup for every interior grid index (``by_index``), and each entry
answers per seat: ``payload[seat]`` is what that seat plays.  Certified
tolerances are 11*eps for equilibrium pairs, 5*eps for cooperative minimizer
pairs, and eps for single optimizers, fixed per family kind, with the achieved
gap recorded alongside.  The three builders share one skeleton: each supplies
only how to solve at the anchor and how to measure the gap at a window time.
A three-player solve shares one ``AfterStopTable`` between all its builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import joint_inf_pair, node_sweep
from .config import current_guards
from .errors import DeskScaleExceeded, NonGridResult, WindowCertificationFailed
from .payoff import PayoffField
from .space import FilteredSpace, _start_indices, constant_time, first_hit, phi_h, rat
from .space import stopped_atoms
from .strategy import StrategyOrder2, lift_obstinate2, patch_pair
from .verify import (
    _BY_RATIO,
    NashCertificate,
    _best_response,
    certify_nash,
    count_strategies2,
    enumerate_strategies2,
    exact_best_response,
    resolve_profile,
    worst_gap,
)


@dataclass(frozen=True)
class Nash2Result:
    strategies: tuple[StrategyOrder2, StrategyOrder2]
    certificate: NashCertificate
    fallback_used: bool

    @property
    def gap(self) -> Fraction:
        return self.certificate.worst_gap


def _nash_cell(ss_a, sc_a, cs_a, cc_a, ss_b, sc_b, cs_b, cc_b):
    """First pure equilibrium of a 2x2 node, in the order both stop, a alone,
    b alone, both continue; each seat's cells are in that order too."""
    if ss_a >= cs_a and ss_b >= sc_b:
        return 0
    if sc_a >= cc_a and sc_b >= ss_b:
        return 1
    if cs_a >= ss_a and cs_b >= cc_b:
        return 2
    if cc_a >= sc_a and cc_b >= cs_b:
        return 3
    # no pure node equilibrium: stop iff stopping beats waiting under the
    # other's reaction; certification arbitrates.  No tie sc_a == cc_a or
    # cs_b == cc_b gets here, as each makes one of the cells an equilibrium.
    return (0 if sc_a >= cc_a else 2) + (0 if cs_b >= cc_b else 1)


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
    fields = (field_a, field_b)
    pair = _candidate(space, field_a, field_b, start)
    cert = certify_nash(space, fields, list(pair), start, eps)
    if cert.passes:
        return Nash2Result(pair, cert, fallback_used=False)
    best = _fallback_search(space, fields, start, pair, cert.worst_gap)
    if best is not pair:
        cert = certify_nash(space, fields, list(best), start, eps)
    kmin = min(_start_indices(space, start))
    return Nash2Result(patch_pair(space, best, kmin), cert, fallback_used=True)


def _candidate(space, field_a, field_b, start) -> tuple[StrategyOrder2, StrategyOrder2]:
    """:func:`solve_2p_nash`'s node-sweep pair, patched at kmin, uncertified."""
    K = space.grid.terminal_index
    kmin = min(_start_indices(space, start))
    _, nodes = node_sweep(space, (field_a, field_b), ("sup", "sup"), kmin, _nash_cell)
    terminal = constant_time(space, K)
    bid = space.block_id

    def strategy(seat):
        # the seat stops in the both-stop cell and in its own lone-stop cell
        own = (0, 1 + seat)
        initial = first_hit(space, start, lambda k, w: nodes[k][2][bid[k][w]] in own)
        # its reaction to the other seat's stop at k is the survivor's rule;
        # entries before kmin are placeholders that patch_pair overwrites
        react = [terminal] * kmin + [nodes[k][1][1 - seat] for k in range(kmin, K)]
        return StrategyOrder2(initial=initial, react=(*react, terminal))

    return patch_pair(space, (strategy(0), strategy(1)), kmin)


def _fallback_search(space, fields, start, best_pair, best_gap):
    """The enumerated pair with the least worst gap; ``best_pair`` wins ties."""
    guards = current_guards()
    count = count_strategies2(space, start)
    if count * count > guards.enumeration_cap:
        raise DeskScaleExceeded(
            f"{count * count} strategy pairs exceed the enumeration cap"
        )
    strategies = list(enumerate_strategies2(space, start))
    field_a, field_b = fields
    br_a_vs = [exact_best_response(space, field_a, [None, s], (0,), "max", start).scaled
               for s in strategies]
    br_b_vs = [exact_best_response(space, field_b, [s, None], (1,), "max", start).scaled
               for s in strategies]
    for i, sa in enumerate(strategies):
        for j, sb in enumerate(strategies):
            # a seat's best response depends only on the other seat's strategy
            gap = worst_gap(space, fields, [sa, sb], start, (br_a_vs[j], br_b_vs[i]))
            if gap < best_gap:
                best_pair, best_gap = (sa, sb), gap
    return best_pair


@dataclass(frozen=True)
class FamilyEntry:
    """One window's certified solution: ``payload`` maps each free seat, in
    increasing order, to its play (see the family builders)."""

    g: Fraction
    anchor: int
    payload: dict
    tolerance: Fraction
    achieved: Fraction
    window: tuple[int, ...]


@dataclass(frozen=True)
class EquilibriumFamily:
    """Entries by multiple g of h; ``by_index[k]`` is the entry at phi_h(t_k)."""

    kind: str  # 'nonzero_sum_pair' | 'coop_pair' | 'single'
    h: Fraction
    entries: dict[Fraction, FamilyEntry]
    by_index: tuple[FamilyEntry, ...]


def family_lookup(family: EquilibriumFamily, t) -> FamilyEntry:
    """Entry holding time t in its certified window: the one at phi_h(t)."""
    g = phi_h(t, family.h)
    entry = family.entries.get(g)
    if entry is None:
        raise NonGridResult(f"no family entry at {g} (looked up from t={t})")
    return entry


class AfterStopTable:
    """One solve's views (``pin``, ``negated``), interned pair strategies,
    best-response numerators and pair resolutions, each built once.  Keys are
    ids of objects the table holds, so no id is reused while it lives; a
    strategy is hashed by value once, when it is interned."""

    def __init__(self):
        self._held: dict = {}  # id -> every field and interned strategy met
        self._built: dict = {}  # tagged key -> what it names

    def _once(self, key, build):
        return self._built[key] if key in self._built else self._built.setdefault(key, build())

    def _id(self, obj) -> int:
        return id(self._held.setdefault(id(obj), obj))

    def pin(self, field: PayoffField, slot: int, k: int, swap: bool = False) -> PayoffField:
        """``field.pin(slot, k)``, with its two slots exchanged if ``swap``."""
        def build():
            if not swap:
                return field.pin(slot, k)
            view = self.pin(field, slot, k)
            rows = {(a, b): x for (b, a), x in view.rows.items()}
            return PayoffField.from_rows(view.space, 2, rows, view.den)
        return self._once(("pin", self._id(field), slot, k, swap), build)

    def negated(self, field: PayoffField) -> PayoffField:
        return self._once(("negated", self._id(field)), field.negated)

    def intern(self, strategy: StrategyOrder2) -> StrategyOrder2:
        """The first strategy equal to this one that the table met."""
        if self._held.get(id(strategy)) is not strategy:
            strategy = self._once(("strategy", strategy), lambda: strategy)
            self._id(strategy)
        return strategy

    def best_response(self, field, slot: int, k: int, seat: int, pair) -> dict:
        """Seat's best-response numerators from k on ``field`` pinned at (slot, k)."""
        view, other = self.pin(field, slot, k), self.intern(pair[1 - seat])
        return self._once(("best", id(view), seat, k, id(other)), lambda: _best_response(
            view.space, view, pair, (seat,), "max", k, atoms=stopped_atoms(view.space, k))[1])

    def pair_gap(self, fields, slot: int, k: int, pair) -> Fraction:
        """``verify.worst_gap`` of a pair from k on the fields pinned at (slot, k)."""
        pair = [self.intern(s) for s in pair]
        best = [self.best_response(f, slot, k, seat, pair) for seat, f in enumerate(fields)]
        views = [self.pin(f, slot, k) for f in fields]
        space = views[0].space
        stops = self._once(("stops", *map(id, pair)), lambda: resolve_profile(space, pair))
        return worst_gap(space, views, pair, k, best, stops)


def stop_now_solutions(space: FilteredSpace, field3: PayoffField, seat: int, table=None) -> tuple:
    """Per index k, the other two slots' cooperative minimum from k with the
    seat's slot pinned to k; ``[k].value`` is the seat's stop-now value."""
    pin = (table or AfterStopTable()).pin
    return tuple(joint_inf_pair(space, pin(field3, seat, k), k) for k in range(len(space.grid)))


_ENTRY_LABEL = {"nonzero_sum_pair": "pair", "coop_pair": "coop", "single": "single"}
_TOL_MULT = {"nonzero_sum_pair": 11, "coop_pair": 5, "single": 1}


def _window_family(space, kind, h, eps, solve_at, gap_at) -> EquilibriumFamily:
    """One entry per distinct g = phi_h(t) over the interior grid times t
    (``space.windows(h)``): ``solve_at(anchor)`` gives the payload (seat ->
    play) at the first grid index at or after g, with its gap at the anchor
    when the solve already measured it (else None), and ``gap_at(payload,
    k)`` must stay within the kind's multiple of eps at every grid index k of
    the window [g-h, g].  No other multiple of h is built: no lookup lands on
    one, and there are about span/h of them when h is below a grid gap."""
    h, eps = rat(h), rat(eps)
    tolerance = _TOL_MULT[kind] * eps
    targets, windows = space.windows(h)
    entries: dict[Fraction, FamilyEntry] = {}
    for g, (anchor, window) in windows.items():
        payload, anchor_gap = solve_at(anchor)
        achieved = Fraction(0)
        for k in window:
            gap = anchor_gap if k == anchor and anchor_gap is not None else gap_at(payload, k)
            achieved = max(achieved, gap)
            if achieved > tolerance:
                raise WindowCertificationFailed(
                    f"{_ENTRY_LABEL[kind]} entry at {g} reached gap {achieved} > "
                    f"{_TOL_MULT[kind]}*eps at grid index {k}",
                    g=g,
                    at=k,
                    kind=kind,
                    achieved=achieved,
                    bound=tolerance,
                )
        entries[g] = FamilyEntry(
            g=g,
            anchor=anchor,
            payload=payload,
            tolerance=tolerance,
            achieved=achieved,
            window=window,
        )
    by_index = tuple(entries[g] for g in targets)
    return EquilibriumFamily(kind=kind, h=h, entries=entries, by_index=by_index)


def build_pair_family(
    space: FilteredSpace,
    fields3: tuple[PayoffField, PayoffField],
    frozen_slot: int,
    h,
    eps,
    table: AfterStopTable | None = None,
) -> EquilibriumFamily:
    """Equilibrium pairs for the two free slots, one entry per h-multiple.

    ``fields3[0]`` is the payoff of the owner of the lower free slot.  Entries
    are solved at their anchor (``solve_2p_nash``'s candidate, patched so
    that early observations redirect to anchor behavior), then certified at
    11*eps over the whole window by exact best response.  A candidate over
    eps at its anchor goes on to the full ``solve_2p_nash``.  Payloads map
    each free seat to its strategy, interned in ``table`` (a fresh one when
    None) with the views and window measurements.
    """
    table = table or AfterStopTable()
    free = tuple(q for q in range(3) if q != frozen_slot)

    def solve_at(anchor):
        views = [table.pin(f, frozen_slot, anchor) for f in fields3]
        payload = dict(zip(free, map(table.intern, _candidate(space, *views, anchor))))
        gap = gap_at(payload, anchor)
        if gap > rat(eps):  # the full solve: its fallback search, or its error
            res = solve_2p_nash(space, *views, anchor, eps)
            payload, gap = dict(zip(free, map(table.intern, res.strategies))), res.gap
        return payload, gap

    def gap_at(payload, k):
        # no report prints a window's per-atom gaps
        return table.pair_gap(fields3, frozen_slot, k, list(payload.values()))

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
    5*eps.  Payloads map the lower free seat to rho and the higher to tau,
    each lifted by ``lift_obstinate2``.
    """
    free = tuple(q for q in range(3) if q != frozen_slot)

    def solve_at(anchor):
        res = stop_now[anchor]
        return {q: lift_obstinate2(space, st) for q, st in zip(free, (res.rho, res.tau))}, None

    def gap_at(payload, k):
        stops = [payload[q].initial if q in payload else k for q in range(3)]
        return _shortfall(space, field3, stops, k, stop_now[k].scaled, "inf")

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

    ``solo[k]`` is ``classic.solo_stop(space, field3, free_slot, k, direction)``.
    Window certification compares the anchored rule's value with the Snell
    optimum at each window time, within eps.  Payloads are {free_slot: rule}.
    """

    def solve_at(anchor):
        return {free_slot: solo[anchor].rule}, None

    def gap_at(payload, k):
        stops = [payload.get(q, k) for q in range(3)]
        return _shortfall(space, field3, stops, k, solo[k].scaled, solo[k].direction)

    return _window_family(space, "single", h, eps, solve_at, gap_at)


def _shortfall(space, field3, stops, k, opt, direction) -> Fraction:
    """How far the payoff at ``stops``, averaged at time k, falls short of the
    optimum: per block B of partitions[k], ``opt[B]`` and the payoff's
    ``stop_sums`` numerator are both on ``field3.den * W_B``."""
    sign = 1 if direction == "inf" else -1
    den, attained = field3.den, field3.stop_sums(stops, space.partitions[k])
    gaps = [(sign * (a - o), den * w_b) for a, o, w_b in zip(attained, opt, space.block_wnum[k])]
    return Fraction(*max(gaps, key=_BY_RATIO))
