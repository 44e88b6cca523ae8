"""Two-player zero-sum stopping games with reactions and one frozen time slot.

The maximizer and minimizer each control one slot of a three-slot payoff; the
remaining slot is pinned to the conditioning time.  Each backward-induction
node offers both sides {stop, continue}: a lone stopper hands the survivor an
exact Snell reaction, simultaneous stops settle immediately, and double
continuation rolls the layer forward; the sweep is ``classic.node_sweep``,
shared with the cooperative two-stop infimum.  The canonical value takes the
pure maximin of every 2x2 node; nodes where pure maximin and minimax differ are
collected in a gap report rather than hidden, and the read-off strategies are
certified by exact best response against that tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import node_sweep, snell
from .errors import CertificationFailed
from .payoff import PayoffField
from .space import RV, FilteredSpace, StoppingTime, rat
from .strategy import StrategyOrder2
from .verify import exact_best_response, on_path_value


@dataclass(frozen=True)
class ReactionGameSpec:
    """Which slot each side controls and which one is pinned to the clock."""

    payoff: PayoffField
    frozen_slot: int
    max_slot: int
    min_slot: int

    def __post_init__(self):
        if sorted((self.frozen_slot, self.max_slot, self.min_slot)) != [0, 1, 2]:
            raise ValueError("slots must be a permutation of 0,1,2")
        if self.payoff.arity != 3:
            raise ValueError("reaction games need a three-slot payoff")

    def view(self, c: int) -> PayoffField:
        """Two-slot field (maximizer slot first) with the frozen slot at c."""
        pinned = self.payoff.pin(self.frozen_slot, c)
        # pin() removed the frozen slot; the rest keep their relative order
        if self.max_slot < self.min_slot:
            return pinned
        space = self.payoff.space
        return PayoffField(
            space,
            2,
            {(a, b): pinned.at((b, a)) for (b, a) in pinned.values},
        )


@dataclass(frozen=True)
class NodeGap:
    k: int
    block: tuple[int, ...]
    gap: Fraction


@dataclass(frozen=True)
class ReactionValueResult:
    value_at: RV
    layers: tuple
    report: tuple[NodeGap, ...]


def _maximin(ss, sc, cs, cc):
    """Pure maximin of a 2x2 node: the maximizer picks a row, then the minimizer."""
    return max(min(ss, sc), min(cs, cc))


def _node_tables(space: FilteredSpace, view: PayoffField, c: int):
    """Backward sweep; returns (layers, report, nodes) with
    ``nodes[k] = ((ss, sc, cs, cc), (min_react, max_react))``."""
    layers, nodes = node_sweep(space, view, ("inf", "sup"), c, _maximin)
    report: list[NodeGap] = []
    for k in range(space.grid.terminal_index - 1, c - 1, -1):
        ss, sc, cs, cc = nodes[k][0]
        for block in space.partitions[k]:
            w = block[0]
            minimax = min(max(ss[w], cs[w]), max(sc[w], cc[w]))
            if minimax != layers[k][w]:
                report.append(NodeGap(k=k, block=block, gap=minimax - layers[k][w]))
    return layers, tuple(report), nodes


def reaction_game_value(spec: ReactionGameSpec, c: int) -> ReactionValueResult:
    """Pure-maximin value at conditioning index c, plus the node-gap report."""
    space = spec.payoff.space
    layers, report, _ = _node_tables(space, spec.view(c), c)
    return ReactionValueResult(value_at=tuple(layers[c]), layers=tuple(layers), report=report)


@dataclass(frozen=True)
class ReactionSaddleResult:
    max_strategy: StrategyOrder2
    min_strategy: StrategyOrder2
    certified_gap: Fraction
    value_at: RV
    report: tuple[NodeGap, ...]
    tolerance: Fraction


def _strategies_from_nodes(space, view, c, nodes):
    """Initial stops where the node solution stops; Snell reaction tables."""
    K = space.grid.terminal_index
    max_init, min_init = [], []
    for w in range(space.n_outcomes):
        k = c
        while k < K:
            ss, sc, cs, cc = nodes[k][0]
            if min(ss[w], sc[w]) >= min(cs[w], cc[w]):
                break
            k += 1
        max_init.append(k)
        k = c
        while k < K:
            ss, sc, cs, cc = nodes[k][0]
            if max(ss[w], cs[w]) <= max(sc[w], cc[w]):
                break
            k += 1
        min_init.append(k)
    max_react, min_react = [], []
    for s in range(K):
        max_react.append(snell(space, view.pin(1, s).as_layers(), "sup", s + 1).rule)
        min_react.append(snell(space, view.pin(0, s).as_layers(), "inf", s + 1).rule)
    terminal = StoppingTime((K,) * space.n_outcomes)
    max_react.append(terminal)
    min_react.append(terminal)
    return (
        StrategyOrder2(initial=StoppingTime(tuple(max_init)), react=tuple(max_react)),
        StrategyOrder2(initial=StoppingTime(tuple(min_init)), react=tuple(min_react)),
    )


def reaction_game_saddle(
    spec: ReactionGameSpec, c: int, eps
) -> ReactionSaddleResult:
    """Node strategies certified by exact best response on both sides.

    The certificate must stay within eps plus the probability-weighted total
    node gap; a larger gap is surfaced as CertificationFailed, never accepted.
    """
    eps = rat(eps)
    space = spec.payoff.space
    view = spec.view(c)
    layers, report, nodes = _node_tables(space, view, c)
    smax, smin = _strategies_from_nodes(space, view, c, nodes)
    on_path, _ = on_path_value(space, view, [smax, smin], c)
    br_max = exact_best_response(space, view, [None, smin], (0,), "max", c)
    br_min = exact_best_response(space, view, [smax, None], (1,), "min", c)
    gap = Fraction(0)
    for atom, v in br_max.values.items():
        gap = max(gap, v - on_path[atom])
    for atom, v in br_min.values.items():
        gap = max(gap, on_path[atom] - v)
    total_node_gap = Fraction(0)
    for node in report:
        p = sum(space.weights[w] for w in node.block)
        total_node_gap += p * node.gap
    tolerance = eps + total_node_gap
    if gap > tolerance:
        raise CertificationFailed(
            f"reaction saddle gap {gap} exceeds eps+node-gap {tolerance}"
        )
    return ReactionSaddleResult(
        max_strategy=smax,
        min_strategy=smin,
        certified_gap=gap,
        value_at=tuple(layers[c]),
        report=report,
        tolerance=tolerance,
    )
