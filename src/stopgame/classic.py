"""Single-agent and classical two-sided stopping solvers.

Everything here is exact backward induction on the finite grid:

* Snell envelopes with earliest-optimizer rules, for one controlled stop.
* The cooperative two-stop problem (both stops minimize one payoff), whose
  value coincides with the infimum over committed stopping-time pairs.  It
  runs on ``node_sweep``, the one backward induction over 2x2 stop/continue
  nodes, which the zero-sum reaction game in ``zerosum`` and the nonzero-sum
  game in ``nash2`` share; each game only chooses the cell played per node.
* The stopping duel where a maximizer collects the lower process at her stop
  and a minimizer the upper process at his, ties paying the maximizer's side,
  plus the epsilon-hitting times that form an exact epsilon-saddle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import current_guards
from .errors import GuardExceeded, OrderViolation
from .payoff import PayoffField
from .space import RV, FilteredSpace, StoppingTime, _start_indices, cond_exp, first_hit, rat

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


@dataclass(frozen=True)
class JointStopResult:
    """Cooperative two-stop infimum: value layers and one optimal committed pair."""

    value: tuple
    rho: StoppingTime
    tau: StoppingTime


def node_sweep(space: FilteredSpace, fields, directions, kmin: int, choose):
    """Backward induction over the 2x2 stop/continue nodes of a two-stop game.

    ``fields`` is one two-slot field that both slots share (the cooperative
    and zero-sum games) or one two-slot field per slot, each slot's own
    payoff (the nonzero-sum game).  Returns (values, nodes) with
    ``nodes[k] = (cells, reactions, choice)`` for k from K-1 down to kmin:
    ``reactions[i]`` is the survivor's Snell solution from k+1 on its own
    field ``(fields[-1], fields[0])[i]``, in ``directions[i]``, once slot i
    stopped at k.  ``cells`` holds four cells per field (both stop, slot 0
    alone, slot 1 alone, both continue), each E_k of the field at the stop
    pair; on the survivor's own field this equals the E_k of its Snell value
    (tower property).  ``choice[w]`` is ``choose(*cells)`` at outcome w, the
    index of the played cell, and ``values[j][k]`` is field j at that cell.
    """
    K = space.grid.terminal_index
    values = [[None] * K + [f.at((K, K))] for f in fields]
    nodes: list = [None] * (K + 1)
    for k in range(K - 1, kmin - 1, -1):
        reactions = tuple(
            snell(space, f.process(1 - i, k), directions[i], k + 1)
            for i, f in enumerate((fields[-1], fields[0]))
        )
        lone_stops = ((k, reactions[0].rule), (reactions[1].rule, k))
        cells: list = []
        for f, layers in zip(fields, values):
            cells.append(f.at((k, k)))
            for stops in lone_stops:
                cells.append(cond_exp(space, f.at_stops(stops), k))
            cells.append(cond_exp(space, layers[k + 1], k))
        choice = tuple(map(choose, *cells))
        for j, layers in enumerate(values):
            layers[k] = tuple(cells[4 * j + c][w] for w, c in enumerate(choice))
        nodes[k] = (tuple(cells), reactions, choice)
    return values, nodes


def _first_min(*cells):
    return cells.index(min(cells))


def joint_inf_value(space: FilteredSpace, field2: PayoffField, kmin: int = 0):
    """Backward sweep for the cooperative two-stop infimum.

    Returns (open layers, nodes) where ``open[k]`` is the infimum over pairs
    of stops >= k and ``nodes[k]`` is the :func:`node_sweep` node at k, whose
    reactions are the survivor's infimum once the other side stopped at k and
    whose choice is the first minimal cell.
    """
    if field2.arity != 2:
        raise ValueError("cooperative solver needs a two-slot field")
    K = space.grid.terminal_index
    n_states = (K + 1) * (K + 1) * space.n_outcomes
    if n_states > current_guards().dp_state_cap:
        raise GuardExceeded(f"joint stop DP needs {n_states} states")
    (layers,), nodes = node_sweep(space, (field2,), ("inf", "inf"), kmin, _first_min)
    return layers, nodes


def joint_inf_pair(
    space: FilteredSpace, field2: PayoffField, from_=0
) -> JointStopResult:
    """Exact infimum over committed stopping-time pairs, with one optimizer.

    The forward trace follows each node's choice, which prefers stopping
    both sides, then the first slot, then the second, so constants return
    the earliest pair.
    """
    open_layers, nodes = joint_inf_value(space, field2, min(_start_indices(space, from_)))
    K = space.grid.terminal_index

    def stops(w: int, k: int) -> tuple[int, int]:
        if k == K:
            return K, K
        _, (after_a, after_b), choice = nodes[k]
        return ((k, k), (k, after_a.rule.idx[w]), (after_b.rule.idx[w], k))[choice[w]]

    first = first_hit(space, from_, lambda k, w: nodes[k][2][w] < 3)
    rho, tau = zip(*(stops(w, k) for w, k in enumerate(first.idx)))
    return JointStopResult(value=tuple(open_layers), rho=StoppingTime(rho), tau=StoppingTime(tau))


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
