"""Single-agent and classical two-sided stopping solvers.

Everything here is exact backward induction on the finite grid:

* Snell envelopes with earliest-optimizer rules, for one controlled stop:
  ``snell`` on ``Fraction`` layers, and ``_snell_sweep``, the one a solve runs.
* The cooperative two-stop problem (both stops minimize one payoff), whose
  value coincides with the infimum over committed stopping-time pairs.  It
  runs on ``node_sweep``, the one backward induction over 2x2 stop/continue
  nodes, which the zero-sum reaction game in ``zerosum`` and the nonzero-sum
  game in ``nash2`` share; each game only chooses the cell played per node.
  The sweep runs on the fields' integer ``rows``, scaled per block as in the
  best-response oracle; only the values a caller reports become ``Fraction``.
* The stopping duel where a maximizer collects the lower process at her stop
  and a minimizer the upper process at his, ties paying the maximizer's side,
  plus the epsilon-hitting times that form an exact epsilon-saddle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import NamedTuple, Sequence

from .errors import OrderViolation
from .payoff import PayoffField
from .space import (
    RV, FilteredSpace, StoppingTime, _start_indices, cond_exp, fill_blocks, first_hit, rat,
    stopped_atoms,
)

Layers = list  # list[RV | None], one entry per grid index


@dataclass(frozen=True)
class SnellResult:
    """Value layers plus the earliest optimal stopping rule from the start."""

    value: tuple
    rule: StoppingTime
    direction: str


def snell(
    space: FilteredSpace,
    layers: Sequence,
    direction: str,
    from_=0,
) -> SnellResult:
    """Optimal stopping of the layer process from a start time.

    ``layers[k]`` is the payoff of stopping at grid index k (entries below the
    minimal start index may be None).  The value satisfies the backward
    recursion value_K = payoff_K, value_k = opt(payoff_k, E_k[value_{k+1}]),
    and the rule stops at the first index where the value equals the payoff.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    opt = max if direction == "sup" else min
    kmin = min(_start_indices(space, from_))
    K = space.grid.terminal_index
    value: Layers = [None] * (K + 1)
    if layers[K] is None:
        raise ValueError("terminal payoff layer is required")
    value[K] = tuple(layers[K])
    for k in range(K - 1, kmin - 1, -1):
        if layers[k] is None:
            raise ValueError(f"payoff layer {k} required for start {kmin}")
        cont = cond_exp(space, value[k + 1], k)
        value[k] = tuple(opt(p, c) for p, c in zip(layers[k], cont))
    rule = first_hit(space, from_, lambda k, w: value[k][w] == layers[k][w])
    return SnellResult(value=tuple(value), rule=rule, direction=direction)


class SoloStop(NamedTuple):
    """One slot's optimum from k, the others pinned at k: value at k, rule,
    and the value per block of partitions[k] on ``field.den * W_B``."""

    value: RV
    rule: StoppingTime
    direction: str
    scaled: tuple[int, ...]


def solo_stop(space, field: PayoffField, slot: int, k: int, direction: str) -> SoloStop:
    """The Snell optimum from k of one slot, every other slot pinned at k."""
    head, tail = (k,) * slot, (k,) * (field.arity - slot - 1)
    value, rule = _snell_sweep(space, field.rows, lambda j: (*head, j, *tail), k, direction)
    return SoloStop(block_rv(space, k, value, field.den), rule, direction, tuple(value))


@dataclass(frozen=True)
class JointStopResult:
    """Cooperative two-stop infimum at its start, per start atom also on
    ``field2.den * W_B`` (``scaled``), and one optimal committed pair."""

    value: tuple
    rho: StoppingTime
    tau: StoppingTime
    scaled: tuple[int, ...]


def node_sweep(space: FilteredSpace, fields, directions, kmin: int, choose):
    """Backward induction over the 2x2 stop/continue nodes of a two-stop game.

    ``fields`` is one two-slot field that both slots share (the cooperative
    and zero-sum games) or one two-slot field per slot, each slot's own
    payoff (the nonzero-sum game).  The sweep runs on each field's ``rows``:
    as in the best-response oracle, a number at block B of partitions[k] is
    a value scaled by ``den * W_B`` (``W_B = space.block_wnum[k][B]``).

    Returns (values, nodes): ``values[j][k][B]`` is field j's value from k
    on, and ``nodes[k] = (cells, rules, choice)`` for k from K-1 down to
    kmin.  ``rules[i]`` is the survivor's earliest optimal stop from k+1 on
    its own field ``(fields[-1], fields[0])[i]``, in ``directions[i]``, once
    slot i stopped at k (``_snell_sweep``).  ``cells`` holds four lists per
    field, one number per block: both stop (``W_B * N(k, k)``, N the
    numerator), slot 0 alone and slot 1 alone (``PayoffField.stop_sums`` at
    the stop pair, the survivor at its rule; on the survivor's own field,
    the children sums of its Snell value at k+1, the same number) and both
    continue (the sum of the children's values).  ``choice[B]`` is
    ``choose(*cells)`` at B, the index of the played cell.  All cells of one
    field at B share the factor ``den * W_B > 0``, so ``choose`` picks as on
    the unscaled values as long as it never compares cells of two different
    fields.

    Precondition: the both-stop slices and the survivors' payoff slices are
    read once per block, so each must be constant on the blocks at its latest
    time; one that is not raises ValueError.  Input games are adapted, and a
    pinned slice is adapted from its pin index on, where its sweeps start.
    """
    K = space.grid.terminal_index
    values = [[None] * K + [_block_stops(space, f.rows, (K, K))] for f in fields]
    nodes: list = [None] * (K + 1)
    own = (len(fields) - 1, 0)  # the field each survivor's sweep runs on
    for k in range(K - 1, kmin - 1, -1):
        sweeps = (
            _snell_sweep(space, fields[-1].rows, lambda j: (k, j), k + 1, directions[0]),
            _snell_sweep(space, fields[0].rows, lambda j: (j, k), k + 1, directions[1]),
        )
        rules = (sweeps[0][1], sweeps[1][1])
        lone = [_children_sums(space, value, k) for value, _ in sweeps]
        part = space.partitions[k]
        cells: list = []
        for i, (f, layers) in enumerate(zip(fields, values)):
            cells.append(_block_stops(space, f.rows, (k, k)))
            for slot, stops in enumerate(((k, rules[0]), (rules[1], k))):
                cells.append(lone[slot] if i == own[slot] else f.stop_sums(stops, part))
            cells.append(_children_sums(space, layers[k + 1], k))
        choice = tuple(map(choose, *cells))
        for j, layers in enumerate(values):
            layers[k] = [cells[4 * j + c][b] for b, c in enumerate(choice)]
        nodes[k] = (tuple(cells), rules, choice)
    return values, nodes


def _block_stops(space: FilteredSpace, rows, ks: tuple[int, ...]) -> list[int]:
    """``W_B * N`` per block B at index max(ks), N the numerator of the slice
    at ks on B; raises ValueError when the slice is not constant on a block."""
    k = max(ks)
    row = rows[ks]
    out = []
    for block, w_b in zip(space.partitions[k], space.block_wnum[k]):
        n = row[block[0]]
        for w in block:
            if row[w] != n:
                raise ValueError(f"payoff slice at times {ks} varies on block {block}")
        out.append(w_b * n)
    return out


def _children_sums(space: FilteredSpace, upper: Sequence[int], k: int) -> list[int]:
    """Per block of partitions[k], the sum of ``upper`` (one entry per block
    of partitions[k+1]) over the block's children."""
    parent = space.block_id[k]
    out = [0] * len(space.partitions[k])
    for child, v in zip(space.partitions[k + 1], upper):
        out[parent[child[0]]] += v
    return out


def _snell_sweep(space: FilteredSpace, rows, at, start: int, direction: str):
    """The one integer Snell envelope: stopping at index j >= start pays the
    slice ``rows[at(j)]``, whose latest time is j.  Returns the value at start
    on :func:`node_sweep`'s scale and the earliest optimal rule from start."""
    opt = max if direction == "sup" else min
    K = space.grid.terminal_index
    stops: Layers = [None] * (K + 1)  # per block, whether the rule stops there
    for j in range(K, start - 1, -1):
        stop = _block_stops(space, rows, at(j))
        value = stop if j == K else list(map(opt, stop, _children_sums(space, value, j)))
        stops[j] = list(map(eq, value, stop))
    bid = space.block_id
    return value, first_hit(space, start, lambda j, w: stops[j][bid[j][w]])


def block_rv(space: FilteredSpace, k: int, nums: Sequence[int], den: int) -> RV:
    """The RV equal to ``nums[B] / (den * W_B)`` on each block B of
    partitions[k]: a :func:`node_sweep` layer or cell back on ``Fraction``."""
    values = [Fraction(n, den * w_b) for n, w_b in zip(nums, space.block_wnum[k])]
    return fill_blocks(space, space.partitions[k], values)


def _first_min(*cells):
    return cells.index(min(cells))


def joint_inf_value(space: FilteredSpace, field2: PayoffField, kmin: int = 0):
    """Backward sweep for the cooperative two-stop infimum.

    Returns (layers, nodes) where ``layers[k]`` is the infimum over pairs of
    stops >= k on :func:`node_sweep`'s scale, and ``nodes[k]`` is the sweep's
    node at k, whose rules are the survivor's infimum once the other side
    stopped at k and whose choice is the first minimal cell.  Its layers are
    no larger than the view, so no state cap applies.
    """
    if field2.arity != 2:
        raise ValueError("cooperative solver needs a two-slot field")
    (layers,), nodes = node_sweep(space, (field2,), ("inf", "inf"), kmin, _first_min)
    return layers, nodes


def joint_inf_pair(
    space: FilteredSpace, field2: PayoffField, from_=0
) -> JointStopResult:
    """Exact infimum over committed stopping-time pairs, with one optimizer.

    The value is converted once per start atom.  The forward trace follows
    each node's choice, which prefers stopping both sides, then the first
    slot, then the second, so constants return the earliest pair.
    """
    atoms = stopped_atoms(space, from_)
    layers, nodes = joint_inf_value(space, field2, atoms[0][0])
    K = space.grid.terminal_index
    bid = space.block_id

    def stops(w: int, k: int) -> tuple[int, int]:
        if k == K:
            return K, K
        _, (after_a, after_b), choice = nodes[k]
        return ((k, k), (k, after_a.idx[w]), (after_b.idx[w], k))[choice[bid[k][w]]]

    first = first_hit(space, from_, lambda k, w: nodes[k][2][bid[k][w]] < 3)
    rho, tau = zip(*(stops(w, k) for w, k in enumerate(first.idx)))
    scaled = tuple(layers[k][bid[k][b[0]]] for k, b, _ in atoms)
    at_start = [Fraction(n, field2.den * w_b) for n, (_, _, w_b) in zip(scaled, atoms)]
    value = fill_blocks(space, (b for _, b, _ in atoms), at_start)
    return JointStopResult(value, StoppingTime(rho), StoppingTime(tau), scaled)


def dynkin_value(
    space: FilteredSpace,
    lower: Sequence,
    upper: Sequence,
    from_=0,
) -> tuple:
    """Value layers of the stopping duel between ``lower`` and ``upper``.

    The maximizer collects lower at her stop when she is not strictly later,
    the minimizer collects upper otherwise; at the horizon the maximizer is
    forced to stop.  Requires lower <= upper on the reachable region.
    """
    start = _start_indices(space, from_)
    kmin = min(start)
    K = space.grid.terminal_index
    for k in range(kmin, K + 1):
        for w in range(space.n_outcomes):
            if k >= start[w] and lower[k][w] > upper[k][w]:
                raise OrderViolation(
                    f"lower exceeds upper at index {k}, outcome {w}: "
                    f"{lower[k][w]} > {upper[k][w]}"
                )
    value: Layers = [None] * (K + 1)
    value[K] = tuple(lower[K])
    for k in range(K - 1, kmin - 1, -1):
        cont = cond_exp(space, value[k + 1], k)
        value[k] = tuple(
            max(x, min(y, c)) for x, y, c in zip(lower[k], upper[k], cont)
        )
    return tuple(value)


def _negated(layers: Sequence) -> tuple:
    return tuple(None if x is None else tuple(-v for v in x) for x in layers)


def dynkin_convention_gap(
    space: FilteredSpace, value: Sequence, lower: Sequence, upper: Sequence, from_=0
) -> Fraction:
    """Largest reachable difference between the two tie conventions.

    ``value`` is the main duel's ``dynkin_value(space, lower, upper, from_)``.
    The tie-pays-the-minimizer duel is its mirror: the minimizer of ``upper``
    is the maximizer of ``-upper`` against ``-lower``.
    """
    start = _start_indices(space, from_)
    alt = _negated(dynkin_value(space, _negated(upper), _negated(lower), from_))
    K = space.grid.terminal_index
    gap = Fraction(0)
    for k in range(min(start), K + 1):
        for w in range(space.n_outcomes):
            if k >= start[w]:
                gap = max(gap, abs(value[k][w] - alt[k][w]))
    return gap


def dynkin_hitting_pair(
    space: FilteredSpace,
    value: Sequence,
    lower: Sequence,
    upper: Sequence,
    eps,
    mu: StoppingTime,
) -> tuple[StoppingTime, StoppingTime]:
    """First times the value pins to each side within eps, from mu onward.

    Either falls back to the terminal point when never within eps; the
    maximizer's always hits there, as the horizon forces value = lower.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return (
        first_hit(space, mu, lambda k, w: value[k][w] <= lower[k][w] + eps),
        first_hit(space, mu, lambda k, w: value[k][w] >= upper[k][w] - eps),
    )


def duel_payoff(
    space: FilteredSpace,
    lower: Sequence,
    upper: Sequence,
    stop_max: StoppingTime,
    stop_min: StoppingTime,
) -> RV:
    """Pathwise duel payoff: lower at the maximizer's stop on ties or earlier."""
    out = []
    for w in range(space.n_outcomes):
        if stop_max.idx[w] <= stop_min.idx[w]:
            out.append(lower[stop_max.idx[w]][w])
        else:
            out.append(upper[stop_min.idx[w]][w])
    return tuple(out)
