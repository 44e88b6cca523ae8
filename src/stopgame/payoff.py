"""Payoff fields over time tuples, adaptedness checks, continuity moduli.

A payoff field assigns a random value to every tuple of grid times, one time
slot per player.  The game settles at the latest stop, so the slice at a time
tuple must be measurable at the maximum of its entries.  The continuity
modulus table bounds payoff changes by the total numeric time displacement,
with the terminal point's coordinate acting as the surrogate for infinity;
callers that intend genuine never-stop behavior should keep the field constant
between the last interior time and the terminal time.

A field has one form and no cached state, its integer table ``rows``: each
tuple's values as numerators on ``den``, read by every integer kernel, by
``stop_sums`` (the payoff at a stop profile summed per block), by equality
(numerators cross-multiplied by the other field's ``den``) and by the game
file writer.  ``at`` converts one slice to ``Fraction`` values on each call
and keeps nothing, so a parsed game file, born as rows, is verified and
solved without a payoff ``Fraction``.  A field built from values converts
them to rows once.  ``pin``, ``negated`` and the zero-sum view build rows
from rows.  One modulus serves every seat: a walk over pairs of time tuples,
on integer ticks, compares each tuple's joint row of all seats' payoff
numerators on one common denominator, and converts to ``Fraction`` once per
distinct displacement.  Each tuple visits only the later tuples within a radius, which
is the whole grid for ``estimate_modulus``.  Choosing h and rechecking
eta(h) read only a few entries, so ``auto_h`` and ``eta_reaching`` build the
joint rows once, walk no pair when each row coordinate's whole range
(max - min over the tuples) stays below eps, and otherwise only the pairs
within a radius no larger than the largest candidate h.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, neg, sub
from typing import Callable, NamedTuple, Sequence

from .errors import NoValidH
from .space import RV, FilteredSpace, TimeGrid, _numerators, _start_indices, rat

# added to the empirical maximum so the modulus bound is strict, as required
MODULUS_SLACK = Fraction(1, 10**9)


@dataclass(frozen=True, init=False, eq=False)
class PayoffField:
    """Dense payoff tensor over a filtered space, stored as integer rows:
    rows[(k_1,..,k_N)] holds the slice's values as numerators on ``den``.

    Fields are equal exactly when their values are: a ``pin`` or ``negated``
    result carries its parent's ``den``, a multiple of its own lcm, so equal
    fields may differ in ``den`` and ``rows``.
    """

    space: FilteredSpace
    arity: int
    rows: dict[tuple[int, ...], tuple[int, ...]]
    den: int

    def __init__(self, space: FilteredSpace, arity: int, values: dict[tuple[int, ...], RV]):
        """A field from its ``Fraction`` values, converted once to rows on the
        lcm of their denominators."""
        den = math.lcm(*(v.denominator for layer in values.values() for v in layer))
        rows = {ks: _numerators(layer, den) for ks, layer in values.items()}
        self.__dict__.update(space=space, arity=arity, rows=rows, den=den)

    @classmethod
    def from_rows(cls, space: FilteredSpace, arity: int, rows: dict, den: int) -> "PayoffField":
        """A field stored as ``rows``, numerators on ``den``."""
        field = cls.__new__(cls)
        field.__dict__.update(space=space, arity=arity, rows=rows, den=den)
        return field

    def __eq__(self, other) -> bool:
        """Equal values: the same space, arity and tuples, and numerators
        equal once each is multiplied by the other field's ``den``."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.rows, other.rows
        if (self.space, self.arity, mine.keys()) != (other.space, other.arity, theirs.keys()):
            return False
        a, b = other.den, self.den
        return all([n * a for n in mine[ks]] == [n * b for n in row] for ks, row in theirs.items())

    def at(self, ks: tuple[int, ...]) -> RV:
        """The slice at ks as ``Fraction`` values, converted on each call."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.rows[ks])

    def stop_sums(self, stops: Sequence, blocks) -> list[int]:
        """Per block B, the sum over w in B of ``wnum[w]`` times the numerator
        at w of the slice at one stop per slot (a ``StoppingTime`` or a grid
        index): the payoff's mean on B at the stops, scaled by ``den * W_B``."""
        wnum, rows = self.space.wnum, self.rows
        at = list(zip(*(_start_indices(self.space, s) for s in stops)))
        return [sum(wnum[w] * rows[at[w]][w] for w in block) for block in blocks]

    def pin(self, slot: int, k: int) -> "PayoffField":
        """Freeze one time slot at index k, producing an arity-1 lower field
        on this field's ``den``.

        The slice indexes the remaining tuples directly, in lexicographic
        order.  The result is adapted only on tuples whose maximum is >= k;
        callers must stay in that region (solvers conditioned at or after k
        do).
        """
        if not 0 <= slot < self.arity:
            raise ValueError(f"slot {slot} out of range for arity {self.arity}")
        indices = range(len(self.space.grid))
        ranges = [indices] * self.arity
        ranges[slot] = (k,)
        # fixing one slot keeps the lexicographic order of the others
        subs = itertools.product(indices, repeat=self.arity - 1)
        rows = dict(zip(subs, map(self.rows.__getitem__, itertools.product(*ranges))))
        return PayoffField.from_rows(self.space, self.arity - 1, rows, self.den)

    def negated(self) -> "PayoffField":
        rows = {ks: tuple(map(neg, x)) for ks, x in self.rows.items()}
        return PayoffField.from_rows(self.space, self.arity, rows, self.den)


def payoff_from_function(
    space: FilteredSpace, arity: int, fn: Callable[[tuple[int, ...], int], object]
) -> PayoffField:
    """Materialize fn(time-index tuple, omega) into a dense field."""
    K = space.grid.terminal_index
    vals: dict[tuple[int, ...], RV] = {}
    for ks in itertools.product(range(K + 1), repeat=arity):
        vals[ks] = tuple(rat(fn(ks, w)) for w in range(space.n_outcomes))
    return PayoffField(space, arity, vals)


def check_adapted(field: PayoffField) -> list[tuple[int, ...]]:
    """Sorted time tuples whose slice is not constant on max-time blocks.
    Only blocks of two or more outcomes are compared, on the integer rows:
    each later outcome of a block against its first, at once per tuple."""
    getters = []
    for part in field.space.partitions:
        pairs = [(w, b[0]) for b in part for w in b[1:]]
        getters.append(pairs and [itemgetter(*col) for col in zip(*pairs)])
    return sorted(
        ks for ks, row in field.rows.items()
        if (pair := getters[max(ks)]) and pair[0](row) != pair[1](row)
    )


@dataclass(frozen=True)
class Modulus:
    """Nondecreasing staircase delta -> eta(delta) with eta(0) = 0.

    ``table`` holds the jump points in increasing delta order; lookups between
    jump points return the value at the largest tabulated delta below.
    """

    table: tuple[tuple[Fraction, Fraction], ...]

    def eval(self, delta) -> Fraction:
        delta = rat(delta)
        if delta < 0:
            raise ValueError("displacement must be nonnegative")
        eta = Fraction(0)
        for d, v in self.table:
            if d <= delta:
                eta = v
            else:
                break
        return eta


class _Joint(NamedTuple):  # built by ``_joint_rows``
    fields: tuple[PayoffField, ...]
    rows: dict[tuple[int, ...], tuple[int, ...]]
    den: int


def _pair_changes(joint: _Joint, radius=None, beyond=0) -> dict[Fraction, Fraction]:
    """Worst payoff change, over all the joint fields, at each total time
    displacement over distinct tuple pairs whose displacement is at most
    ``radius`` (the whole grid when None) and above ``beyond``.

    The pair walk is pure ``int``: grid points become integer ticks on their
    common denominator, so a pair's displacement is a sum of per-slot tick
    distances, and a pair's change is a max of numerator differences over
    the joint row (``_joint_rows``).  Each tuple visits only the later tuples
    in reach, found slot by slot by bisecting the sorted ticks with the reach
    left over.  Only the worst change per displacement is converted back to
    ``Fraction``.
    """
    fields, rows, den = joint
    space, arity = fields[0].space, fields[0].arity
    radius = arity * space.grid.span if radius is None else radius
    ticks, tick_den = _ticks(space.grid)
    reach = math.floor(rat(radius) * tick_den)
    skip = math.floor(rat(beyond) * tick_den)
    size = len(ticks)
    row_at: list = [None] * size ** arity
    for ks, x in rows.items():
        row_at[_flat(ks, size)] = x
    worst: dict[int, int] = {}
    for ks, x in rows.items():
        # the tuples in reach as flat indices, slot by slot within the
        # reach left over; the first slot only moves up, to later tuples
        near = [(0, 0)]
        for slot, a in enumerate(ks):
            t = ticks[a]
            near = [
                (head * size + b, d + abs(ticks[b] - t))
                for head, d in near
                for b in range(
                    a if slot == 0 else bisect_left(ticks, t - reach + d),
                    bisect_right(ticks, t + reach - d),
                )
            ]
        i = _flat(ks, size)
        for j, delta in near:
            if j > i and delta > skip and row_at[j] is not None:
                change = max(map(abs, map(sub, x, row_at[j])))
                if change > worst.get(delta, -1):
                    worst[delta] = change
    return {
        Fraction(delta, tick_den): Fraction(change, den)
        for delta, change in worst.items()
    }


def _flat(ks: tuple[int, ...], size: int) -> int:
    """Position of an index tuple in the lexicographic order of all tuples."""
    i = 0
    for k in ks:
        i = i * size + k
    return i


def _ticks(grid: TimeGrid) -> tuple[tuple[int, ...], int]:
    """Grid points as integer ticks on their common denominator, and it."""
    tick_den = math.lcm(*(t.denominator for t in grid.points))
    return _numerators(grid.points, tick_den), tick_den


def _joint_rows(fields: Sequence[PayoffField]) -> _Joint:
    """The fields' joint rows: each field's ``rows`` entry scaled up to the
    lcm of their ``den``.  The fields must share one space and one tuple set."""
    if not fields:
        raise ValueError("the modulus needs at least one field")
    space, tuples = fields[0].space, fields[0].rows.keys()
    for f in fields[1:]:
        if f.space != space or f.rows.keys() != tuples:
            raise ValueError("fields of one modulus must share a space and a tuple set")
    den = math.lcm(*(f.den for f in fields))
    scaled = [(f.rows, den // f.den) for f in fields]
    rows = {ks: tuple(n * s for t, s in scaled for n in t[ks]) for ks in sorted(tuples)}
    return _Joint(tuple(fields), rows, den)


def _staircase(worst: dict[Fraction, Fraction]) -> Modulus:
    """Running maximum of the worst changes plus ``MODULUS_SLACK``, in
    increasing displacement order (zero displacement skipped)."""
    table: list[tuple[Fraction, Fraction]] = []
    running = Fraction(0)
    for delta in sorted(worst):
        if delta == 0:
            continue
        running = max(running, worst[delta] + MODULUS_SLACK)
        table.append((delta, running))
    return Modulus(tuple(table))


def estimate_modulus(*fields: PayoffField) -> Modulus:
    """Empirical modulus: max payoff change at each total time displacement,
    over one or more fields on the same space and tuple set.

    The result equals ``modulus_max`` of the single-field moduli: the joint
    worst change at a displacement is the max of the per-field ones, and a
    running max of maxima is the max of the running maxima.  The
    strict-inequality slack is one representable unit added to every
    positive-displacement entry, so the bound certifies the fields with
    strict inequalities at displacement > 0 (equal tuples are trivially
    unchanged).
    """
    return _staircase(_pair_changes(_joint_rows(fields)))


def modulus_max(mods: Sequence[Modulus]) -> Modulus:
    """Pointwise maximum of several moduli (one uniform bound for all players)."""
    deltas = sorted({d for m in mods for d, _ in m.table})
    table = tuple((d, max(m.eval(d) for m in mods)) for d in deltas)
    return Modulus(table)


def select_h(mod: Modulus, eps, grid: TimeGrid) -> Fraction:
    """Largest positive multiple of the minimal grid step with eta(h) < eps.

    eta is a nondecreasing staircase, so eta(h) < eps exactly for h below
    the first tabulated delta d* whose value reaches eps: the answer is the
    largest multiple m * step with m * step < d* and m * step <= span.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    step = grid.min_step
    m = grid.span // step
    first_reach = next((d for d, v in mod.table if v >= eps), None)
    if first_reach is not None:
        m = min(m, math.ceil(first_reach / step) - 1)
    if m < 1:
        raise NoValidH(
            f"even the minimal step {step} has eta={mod.eval(step)} >= {eps}"
        )
    return m * step


def _below(joint: _Joint, eps: Fraction) -> bool:
    """Whole-range shortcut, in O(tuples): True when no modulus entry can
    reach eps.  The largest change over distinct tuple pairs is, per
    joint-row coordinate (field, outcome), max - min over the tuples."""
    widest = max(max(col) - min(col) for col in zip(*joint.rows.values()))
    return Fraction(widest, joint.den) + MODULUS_SLACK < eps


def _pairs_within(grid: TimeGrid, arity: int, radius) -> tuple:
    """Whether more than half of the ordered pairs of index tuples lie within
    ``radius``, and the least displacement above it that a pair has
    (``math.inf`` if none).  The count convolves the per-slot tick distances
    over the slots, dropping sums past the radius; a least displacement past
    it is such a sum over all slots but one plus the least distance crossing
    the radius in the last."""
    ticks, tick_den = _ticks(grid)
    reach = math.floor(radius * tick_den)
    dists = sorted(abs(a - b) for a in ticks for b in ticks)
    sums = {0: 1}
    for _ in range(arity - 1):
        nxt: dict[int, int] = {}
        for s, n in sums.items():
            for d in dists[: bisect_right(dists, reach - s)]:
                nxt[s + d] = nxt.get(s + d, 0) + n
        sums = nxt
    within = sum(n * bisect_right(dists, reach - s) for s, n in sums.items())
    ahead = min((s + dists[i] for s in sums if (i := bisect_right(dists, reach - s)) < len(dists)),
                default=math.inf)
    return 2 * within > len(dists) ** arity, ahead if ahead == math.inf else Fraction(ahead, tick_den)


def auto_h(fields: Sequence[PayoffField], eps, grid: TimeGrid) -> Fraction:
    """The h that ``select_h`` picks from the fields' ``estimate_modulus``,
    without walking every tuple pair.

    ``select_h`` reads only the first entry d* that reaches eps, and the
    entry at the minimal step for its ``NoValidH`` message.  If the
    whole-range shortcut holds, there is no d*.  Otherwise the pairs are
    walked within a radius that starts at the minimal step and doubles until
    an entry reaches eps or the radius reaches ``top``, the largest candidate
    h: a d* past ``top`` leaves h at ``top``, so no pair beyond it is walked.
    Each walk adds only the displacements beyond the last radius; a doubling
    that would add none jumps to the next displacement some pair has, and a
    radius that would cover most pairs is widened to ``top`` at once.
    """
    eps = rat(eps)
    joint = _joint_rows(fields)
    if _below(joint, eps):
        return select_h(Modulus(()), eps, grid)
    step = grid.min_step
    top = grid.span // step * step
    worst: dict[Fraction, Fraction] = {}
    inner, radius = Fraction(0), step
    while True:
        most, ahead = _pairs_within(grid, fields[0].arity, radius)
        if most:
            radius = top
        worst.update(_pair_changes(joint, radius=radius, beyond=inner))
        mod = _staircase(worst)
        if radius == top or mod.eval(radius) >= eps:
            return select_h(mod, eps, grid)
        inner, radius = radius, min(max(2 * radius, ahead), top)


def eta_reaching(fields: Sequence[PayoffField], eps, r) -> Fraction | None:
    """eta(r) of the fields' ``estimate_modulus`` when it reaches eps, else
    None; walks only the pairs within r, and none when the whole-range
    shortcut holds."""
    eps = rat(eps)
    joint = _joint_rows(fields)
    if _below(joint, eps):
        return None
    eta = _staircase(_pair_changes(joint, radius=r)).eval(r)
    return eta if eta >= eps else None
