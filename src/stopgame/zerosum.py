"""Two-player zero-sum stopping games with reactions and one frozen time slot.

The maximizer and minimizer each control one slot of a three-slot payoff; the
remaining slot is pinned to the conditioning time.  Each backward-induction
node offers both sides {stop, continue}: a lone stopper hands the survivor an
exact Snell reaction, simultaneous stops settle immediately, and double
continuation rolls the layer forward; the sweep is ``classic.node_sweep``,
shared with the cooperative two-stop infimum.  It runs on block-scaled
integers, and only the start layer and the reported gaps become ``Fraction``.
The canonical value takes the pure maximin of every 2x2 node; nodes where
pure maximin and minimax differ are collected in a gap report rather than
hidden.  The construction's certified saddle strategies are the
coalition's ``("pair", member)`` families; views come from ``nash2.AfterStopTable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classic import block_rv, node_sweep
from .nash2 import AfterStopTable
from .payoff import PayoffField
from .space import RV, FilteredSpace


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

    def view(self, c: int, table: AfterStopTable | None = None) -> PayoffField:
        """Two-slot field (maximizer slot first) with the frozen slot at c."""
        # pin() removes the frozen slot; the rest keep their relative order
        swap = self.max_slot > self.min_slot
        return (table or AfterStopTable()).pin(self.payoff, self.frozen_slot, c, swap)


@dataclass(frozen=True)
class NodeGap:
    k: int
    block: tuple[int, ...]
    gap: Fraction


@dataclass(frozen=True)
class ReactionValueResult:
    value_at: RV
    report: tuple[NodeGap, ...]


def _maximin(ss, sc, cs, cc):
    """Pure maximin cell of a 2x2 node: the maximizer picks a row, stop or
    continue, then the minimizer the worse cell of that row."""
    if min(ss, sc) >= min(cs, cc):  # the maximizer stops
        return 0 if ss <= sc else 1
    return 2 if cs <= cc else 3


def _node_tables(space: FilteredSpace, view: PayoffField, c: int):
    """Backward sweep; returns (value at c, report).  The report compares the
    sweep's block-scaled integers and converts only the gaps it reports."""
    (layers,), nodes = node_sweep(space, (view,), ("inf", "sup"), c, _maximin)
    report: list[NodeGap] = []
    for k in range(space.grid.terminal_index - 1, c - 1, -1):
        ss, sc, cs, cc = nodes[k][0]
        for b, (block, w_b) in enumerate(zip(space.partitions[k], space.block_wnum[k])):
            minimax = min(max(ss[b], cs[b]), max(sc[b], cc[b]))
            if minimax != layers[k][b]:
                gap = Fraction(minimax - layers[k][b], view.den * w_b)
                report.append(NodeGap(k=k, block=block, gap=gap))
    return block_rv(space, c, layers[c], view.den), tuple(report)


def reaction_game_value(spec: ReactionGameSpec, c: int, table=None) -> ReactionValueResult:
    """Pure-maximin value at conditioning index c, plus the node-gap report."""
    value_at, report = _node_tables(spec.payoff.space, spec.view(c, table), c)
    return ReactionValueResult(value_at=value_at, report=report)
