"""Single-agent and classical two-sided stopping solvers.

Everything here is exact backward induction on the finite grid:

* Snell envelopes with earliest-optimizer rules, for one controlled stop.
* The cooperative two-stop problem (both stops minimize one payoff), whose
  value coincides with the infimum over committed stopping-time pairs.
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
from .space import RV, FilteredSpace, StoppingTime, _start_indices, cond_exp, rat

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
    start = _start_indices(space, from_)
    kmin = min(start)
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
    rule = []
    for w in range(space.n_outcomes):
        k = start[w]
        while k < K and value[k][w] != layers[k][w]:
            k += 1
        rule.append(k)
    return SnellResult(value=tuple(value), rule=StoppingTime(tuple(rule)), direction=direction)


@dataclass(frozen=True)
class JointStopResult:
    """Cooperative two-stop infimum: value layers and one optimal committed pair."""

    value: tuple
    rho: StoppingTime
    tau: StoppingTime


def joint_inf_value(space: FilteredSpace, field2: PayoffField, kmin: int = 0):
    """Backward sweep for the cooperative two-stop infimum.

    Returns (open layers, inner results) where ``open[k]`` is the infimum over
    pairs of stops >= k and ``inner[k] = (after_a, after_b)`` are the Snell
    solutions for the survivor once the other side stopped at k.
    """
    if field2.arity != 2:
        raise ValueError("cooperative solver needs a two-slot field")
    K = space.grid.terminal_index
    n_states = (K + 1) * (K + 1) * space.n_outcomes
    if n_states > current_guards().dp_state_cap:
        raise GuardExceeded(f"joint stop DP needs {n_states} states")
    open_layers: Layers = [None] * (K + 1)
    inner: list = [None] * (K + 1)
    open_layers[K] = field2.at((K, K))
    for k in range(K - 1, kmin - 1, -1):
        after_a = snell(space, field2.pin(0, k).as_layers(), "inf", k + 1)
        after_b = snell(space, field2.pin(1, k).as_layers(), "inf", k + 1)
        inner[k] = (after_a, after_b)
        both = field2.at((k, k))
        a_only = cond_exp(space, after_a.value[k + 1], k)
        b_only = cond_exp(space, after_b.value[k + 1], k)
        cont = cond_exp(space, open_layers[k + 1], k)
        open_layers[k] = tuple(
            min(s, x, y, c) for s, x, y, c in zip(both, a_only, b_only, cont)
        )
    return open_layers, inner


def joint_inf_pair(
    space: FilteredSpace, field2: PayoffField, from_=0
) -> JointStopResult:
    """Exact infimum over committed stopping-time pairs, with one optimizer.

    The forward trace prefers stopping both sides, then the first slot, then
    the second, so constants return the earliest pair.
    """
    start = _start_indices(space, from_)
    kmin = min(start)
    open_layers, inner = joint_inf_value(space, field2, kmin)
    K = space.grid.terminal_index
    rho, tau = [0] * space.n_outcomes, [0] * space.n_outcomes
    for w in range(space.n_outcomes):
        k = start[w]
        while k < K:
            after_a, after_b = inner[k]
            v = open_layers[k][w]
            if field2.value_at((k, k), w) == v:
                rho[w] = tau[w] = k
                break
            if cond_exp(space, after_a.value[k + 1], k)[w] == v:
                rho[w] = k
                tau[w] = after_a.rule.idx[w]
                break
            if cond_exp(space, after_b.value[k + 1], k)[w] == v:
                tau[w] = k
                rho[w] = after_b.rule.idx[w]
                break
            k += 1
        else:
            rho[w] = tau[w] = K
    return JointStopResult(
        value=tuple(open_layers), rho=StoppingTime(tuple(rho)), tau=StoppingTime(tuple(tau))
    )


@dataclass(frozen=True)
class DynkinResult:
    value: tuple
    stop_max: StoppingTime
    stop_min: StoppingTime
    epsilon: Fraction


def solve_duel(
    space: FilteredSpace, lower: Sequence, upper: Sequence, eps, mu: StoppingTime
) -> DynkinResult:
    """Duel value plus its eps-hitting saddle, bundled."""
    value = dynkin_value(space, lower, upper, mu)
    stop_max, stop_min = dynkin_hitting_pair(space, value, lower, upper, eps, mu)
    return DynkinResult(value=value, stop_max=stop_max, stop_min=stop_min, epsilon=rat(eps))


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


def dynkin_value_alt(
    space: FilteredSpace, lower: Sequence, upper: Sequence, from_=0
) -> tuple:
    """Same duel under the tie-pays-the-minimizer convention."""
    start = _start_indices(space, from_)
    kmin = min(start)
    K = space.grid.terminal_index
    value: Layers = [None] * (K + 1)
    value[K] = tuple(upper[K])
    for k in range(K - 1, kmin - 1, -1):
        cont = cond_exp(space, value[k + 1], k)
        value[k] = tuple(
            min(y, max(x, c)) for x, y, c in zip(lower[k], upper[k], cont)
        )
    return tuple(value)


def dynkin_convention_gap(
    space: FilteredSpace, lower: Sequence, upper: Sequence, from_=0
) -> Fraction:
    """Largest reachable difference between the two tie conventions."""
    start = _start_indices(space, from_)
    main = dynkin_value(space, lower, upper, from_)
    alt = dynkin_value_alt(space, lower, upper, from_)
    K = space.grid.terminal_index
    gap = Fraction(0)
    for k in range(min(start), K + 1):
        for w in range(space.n_outcomes):
            if k >= start[w]:
                gap = max(gap, abs(main[k][w] - alt[k][w]))
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

    The maximizer's time always hits (the horizon forces value = lower); the
    minimizer's falls back to the terminal point when never within eps.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    K = space.grid.terminal_index
    hit_max, hit_min = [], []
    for w in range(space.n_outcomes):
        k = mu.idx[w]
        while value[k][w] > lower[k][w] + eps:
            k += 1
        hit_max.append(k)
        k = mu.idx[w]
        while k < K and value[k][w] < upper[k][w] - eps:
            k += 1
        if value[k][w] < upper[k][w] - eps:
            k = K
        hit_min.append(k)
    return StoppingTime(tuple(hit_max)), StoppingTime(tuple(hit_min))


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
