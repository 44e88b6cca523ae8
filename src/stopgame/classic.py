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
  plus the epsilon-hitting times that form an exact epsilon-saddle.  Its one
  recursion, ``_duel``, runs on ``BlockLayers``: a process held as one
  integer per block, on the node sweep's scale.  A solve's processes are born
  in that form and stay in it; ``Fraction`` layers given to the public duel
  functions are lifted onto it once.  A layer becomes ``Fraction`` values
  only where it is read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import eq
from typing import NamedTuple

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
    """One slot's optimum from k, the others pinned at k: its rule, and its
    value per block of partitions[k] on ``den * W_B`` (``scaled``), which
    ``value`` converts to an RV on each read."""

    rule: StoppingTime
    direction: str
    scaled: tuple[int, ...]
    space: FilteredSpace
    k: int
    den: int

    @property
    def value(self) -> RV:
        return block_rv(self.space, self.k, self.scaled, self.den)


def solo_stop(space, field: PayoffField, slot: int, k: int, direction: str) -> SoloStop:
    """The Snell optimum from k of one slot, every other slot pinned at k."""
    head, tail = (k,) * slot, (k,) * (field.arity - slot - 1)
    value, rule = _snell_sweep(space, field.rows, lambda j: (*head, j, *tail), k, direction)
    return SoloStop(rule, direction, tuple(value), space, k, field.den)


@dataclass(frozen=True)
class JointStopResult:
    """One optimal committed pair of the cooperative two-stop problem, and
    its infimum per atom of the start (``atoms``, ``stopped_atoms``' order)
    on ``den * W_B`` (``scaled``), which ``value`` converts to an RV on each
    read."""

    rho: StoppingTime
    tau: StoppingTime
    scaled: tuple[int, ...]
    space: FilteredSpace
    atoms: tuple
    den: int

    @property
    def value(self) -> RV:
        values = [Fraction(n, self.den * w_b) for n, (_, _, w_b) in zip(self.scaled, self.atoms)]
        return fill_blocks(self.space, (block for _, block, _ in self.atoms), values)


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


class BlockLayers(Sequence):
    """A process held as integers: ``nums[k]`` holds one integer per block B
    of partitions[k], the value on B times ``scale * W_B`` (None at an index
    the process does not reach).  ``layers[k]`` converts layer k to a
    ``Fraction`` RV on each read and keeps nothing, as ``PayoffField.at``
    does.  Equal values compare equal: another ``BlockLayers`` by
    cross-multiplying the scales, a tuple of RVs layer by layer."""

    __slots__ = ("space", "nums", "scale")
    __hash__ = None  # equal to tuples that hash otherwise

    def __init__(self, space: FilteredSpace, nums, scale: int):
        self.space, self.nums, self.scale = space, tuple(nums), scale

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]
        row = self.nums[k]
        return None if row is None else block_rv(self.space, k, row, self.scale)

    def __eq__(self, other) -> bool:
        if isinstance(other, tuple):
            return tuple(self) == other
        if not isinstance(other, BlockLayers):
            return NotImplemented
        a, b = other.scale, self.scale
        return self.space == other.space and len(self) == len(other) and all(
            x is None if y is None else y is not None and [n * a for n in x] == [n * b for n in y]
            for x, y in zip(self.nums, other.nums)
        )

    def __repr__(self) -> str:
        return f"BlockLayers({tuple(self)!r})"


def sweep_layers(space: FilteredSpace, layers, den: int, eps: Fraction) -> BlockLayers:
    """Layers on ``den * W_B`` (a node sweep's scale, one per grid index) as
    a process on ``eps.denominator * den``, where eps on block B is the
    integer ``eps.numerator * den * W_B``."""
    q = eps.denominator
    return BlockLayers(space, [[q * n for n in layer] for layer in layers], q * den)


def _lift(space: FilteredSpace, layers: Sequence, kmin: int) -> BlockLayers:
    """``Fraction`` layers from kmin on (earlier ones are dropped) as a
    process on the lcm of their denominators; a layer that varies on a
    block of partitions[k] raises ValueError."""
    scale = math.lcm(*(v.denominator for x in layers[kmin:] if x is not None for v in x))
    nums: list = [None] * kmin
    for k in range(kmin, len(layers)):
        x = layers[k]
        if x is None:
            nums.append(None)
            continue
        row = []
        for block, w_b in zip(space.partitions[k], space.block_wnum[k]):
            v = x[block[0]]
            if any(x[w] != v for w in block):
                raise ValueError(f"layer {k} varies on block {block}")
            row.append(v.numerator * (scale // v.denominator) * w_b)
        nums.append(row)
    return BlockLayers(space, nums, scale)


def _on_one_scale(space: FilteredSpace, kmin: int, *processes, unit: int = 1):
    """The processes' integer layers on one scale, a multiple of ``unit``,
    and that scale: a ``BlockLayers`` is read as it is (rescaled only when
    the scales differ), ``Fraction`` layers are lifted once from kmin on."""
    held = [p if isinstance(p, BlockLayers) else _lift(space, p, kmin) for p in processes]
    scale = math.lcm(unit, *(p.scale for p in held))
    return [
        p.nums if p.scale == scale else _times(p.nums, scale // p.scale) for p in held
    ], scale


def _times(nums, factor: int) -> list:
    return [None if row is None else [factor * n for n in row] for row in nums]


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

    The value stays on integers per start atom (``scaled``).  The forward trace follows
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
    return JointStopResult(
        StoppingTime(rho), StoppingTime(tau), scaled, space, tuple(atoms), field2.den
    )


def _duel(space: FilteredSpace, lower, upper, start, scale: int) -> list:
    """The one stopping-duel recursion, on integer layers of one ``scale``
    (``BlockLayers.nums``): value_K = lower_K and, per block, value_k =
    max(lower_k, min(upper_k, children sums of value_{k+1})) down to the
    earliest start index.  Raises OrderViolation at the first (index,
    outcome) reachable from the start (k >= start[w]) where lower > upper."""
    kmin = min(start)
    K = space.grid.terminal_index
    for k in range(kmin, K + 1):
        bad = {b for b, (x, y) in enumerate(zip(lower[k], upper[k])) if x > y}
        if not bad:
            continue
        for w in range(space.n_outcomes):
            b = space.block_id[k][w]
            if k >= start[w] and b in bad:
                den = scale * space.block_wnum[k][b]
                raise OrderViolation(
                    f"lower exceeds upper at index {k}, outcome {w}: "
                    f"{Fraction(lower[k][b], den)} > {Fraction(upper[k][b], den)}"
                )
    value: Layers = [None] * (K + 1)
    value[K] = list(lower[K])
    for k in range(K - 1, kmin - 1, -1):
        cont = _children_sums(space, value[k + 1], k)
        value[k] = [max(x, min(y, c)) for x, y, c in zip(lower[k], upper[k], cont)]
    return value


def dynkin_value(
    space: FilteredSpace,
    lower: Sequence,
    upper: Sequence,
    from_=0,
) -> BlockLayers:
    """Value layers of the stopping duel between ``lower`` and ``upper``.

    The maximizer collects lower at her stop when she is not strictly later,
    the minimizer collects upper otherwise; at the horizon the maximizer is
    forced to stop.  Requires lower <= upper on the reachable region.  The
    processes are ``BlockLayers`` or adapted ``Fraction`` layers (None below
    the earliest start index); the value is ``BlockLayers``, None there.
    """
    start = _start_indices(space, from_)
    (lo, hi), scale = _on_one_scale(space, min(start), lower, upper)
    return BlockLayers(space, _duel(space, lo, hi, start, scale), scale)


def dynkin_convention_gap(
    space: FilteredSpace, value: Sequence, lower: Sequence, upper: Sequence, from_=0
) -> Fraction:
    """Largest reachable difference between the two tie conventions.

    ``value`` is the main duel's ``dynkin_value(space, lower, upper, from_)``.
    The tie-pays-the-minimizer duel is its mirror: the minimizer of ``upper``
    is the maximizer of ``-upper`` against ``-lower``.
    """
    start = _start_indices(space, from_)
    (main, lo, hi), scale = _on_one_scale(space, min(start), value, lower, upper)
    mirror = _duel(space, _times(hi, -1), _times(lo, -1), start, scale)  # the alt duel, negated
    gap = (0, 1)
    for k in range(min(start), space.grid.terminal_index + 1):
        for b, (block, w_b) in enumerate(zip(space.partitions[k], space.block_wnum[k])):
            if any(k >= start[w] for w in block):
                d = abs(main[k][b] + mirror[k][b])
                if d * gap[1] > gap[0] * scale * w_b:
                    gap = (d, scale * w_b)
    return Fraction(*gap)


def first_within(space: FilteredSpace, a: Sequence, b: Sequence, eps, start) -> StoppingTime:
    """Per outcome, the first index k from the start (a stopping time or a
    constant grid index) with a[k] <= b[k] + eps, or the terminal index when
    no earlier k has it; ``a`` and ``b`` as in :func:`dynkin_value`."""
    eps = rat(eps)
    (x, y), scale = _on_one_scale(
        space, min(_start_indices(space, start)), a, b, unit=eps.denominator
    )
    e = eps.numerator * (scale // eps.denominator)  # eps on block B is e * W_B
    bid, wnum = space.block_id, space.block_wnum

    def hit(k, w):
        i = bid[k][w]
        return x[k][i] <= y[k][i] + e * wnum[k][i]

    return first_hit(space, start, hit)


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
    return first_within(space, value, lower, eps, mu), first_within(space, upper, value, eps, mu)


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
