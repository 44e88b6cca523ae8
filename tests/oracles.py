"""Independent reference computations for the test suite.

Everything here is deliberately naive: per-outcome transcriptions of the
closed-form resolution case tables, and brute-force optimization over
enumerated stopping objects.  Solvers are checked against these, never the
other way around.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Sequence

from stopgame.classic import block_rv, snell
from stopgame.config import current_guards
from stopgame.errors import (
    DeskScaleExceeded,
    GuardExceeded,
    NoValidDelta,
    NoValidH,
    OrderViolation,
    ParseError,
    TheoremViolation,
    ValidationError,
)
from stopgame.gamefile import GameDoc, _int, _malformed, _object
from stopgame.nash2 import Nash2Result
from stopgame.nash3 import DeltaMap
from stopgame.payoff import (
    MODULUS_SLACK, Modulus, PayoffField, _joint_rows, _pair_changes, payoff_from_function,
)
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    TimeGrid,
    _start_indices,
    cond_exp,
    cond_exp_at,
    constant_time,
    is_stopping_time,
    phi_h,
    rat,
    stopped_atoms,
    validate_space,
)
from stopgame.strategy import StrategyOrder2, StrategyOrder3
from stopgame.verify import (
    BestResponseResult,
    NashCertificate,
    certify_nash,
    count_strategies2,
    enumerate_stopping_times,
    enumerate_strategies2,
    exact_best_response,
    resolve_profile,
)
from stopgame.zerosum import NodeGap


# Payoff reads for the references below.  A field's one stored form is its
# integer rows, so each value is converted where it is read.


def value_at(field: PayoffField, ks: tuple[int, ...], w: int) -> Fraction:
    """The payoff at time tuple ks and outcome w."""
    return Fraction(field.rows[ks][w], field.den)


def as_layers(field: PayoffField) -> list:
    """An arity-1 field as a per-time list of ``Fraction`` slices."""
    return [field.at((k,)) for k in range(len(field.space.grid))]


def closed_form_resolve2(
    a: StrategyOrder2, b: StrategyOrder2, w: int
) -> tuple[int, int]:
    """Two-player case formula: keep the initial if not strictly later."""
    ia, ib = a.initial.idx[w], b.initial.idx[w]
    ta = ia if ia <= ib else a.react[ib].idx[w]
    tb = ib if ib <= ia else b.react[ia].idx[w]
    return ta, tb


def _actual3(me: StrategyOrder3, s_q: StrategyOrder3, s_r: StrategyOrder3, w: int) -> int:
    """Protagonist's stop time from the six-case three-player table."""
    q, r = me.others()
    mp = me.initial.idx[w]
    mq = s_q.initial.idx[w]
    mr = s_r.initial.idx[w]
    if mp <= min(mq, mr):
        return mp
    if mq == mr:  # both others tie strictly first
        return me.react_two[(mq, mr)].idx[w]
    if mr < mq:  # seat r strictly first
        mine = me.react_one[r][mr].idx[w]
        theirs = s_q.react_one[r][mr].idx[w]
        if mine <= theirs:
            return mine
        return me.react_two[(theirs, mr)].idx[w]
    # seat q strictly first
    mine = me.react_one[q][mq].idx[w]
    theirs = s_r.react_one[q][mq].idx[w]
    if mine <= theirs:
        return mine
    return me.react_two[(mq, theirs)].idx[w]


def closed_form_resolve3(
    s0: StrategyOrder3, s1: StrategyOrder3, s2: StrategyOrder3, w: int
) -> tuple[int, int, int]:
    return (
        _actual3(s0, s1, s2, w),
        _actual3(s1, s0, s2, w),
        _actual3(s2, s0, s1, w),
    )


def pair_payoff(
    space: FilteredSpace,
    field2: PayoffField,
    rho: StoppingTime,
    tau: StoppingTime,
    theta,
) -> tuple[Fraction, ...]:
    pay = tuple(
        value_at(field2, (rho.idx[w], tau.idx[w]), w) for w in range(space.n_outcomes)
    )
    if not isinstance(theta, StoppingTime):
        theta = constant_time(space, int(theta))
    return cond_exp_at(space, pay, theta)


def brute_joint_inf(
    space: FilteredSpace, field2: PayoffField, from_
) -> tuple[Fraction, ...]:
    """Pointwise infimum over committed stopping-time pairs, conditioned at start."""
    best = None
    for rho in enumerate_stopping_times(space, from_):
        for tau in enumerate_stopping_times(space, from_):
            val = pair_payoff(space, field2, rho, tau, from_)
            best = val if best is None else tuple(min(x, y) for x, y in zip(best, val))
    return best


def duel_payoff_rv(space, lower, upper, rho, theta_st, mu):
    pay = []
    for w in range(space.n_outcomes):
        if rho.idx[w] <= theta_st.idx[w]:
            pay.append(lower[rho.idx[w]][w])
        else:
            pay.append(upper[theta_st.idx[w]][w])
    start = mu if isinstance(mu, StoppingTime) else constant_time(space, int(mu))
    return cond_exp_at(space, tuple(pay), start)


def brute_dynkin_maximin(space, lower, upper, from_):
    """sup_rho inf_theta and inf_theta sup_rho over enumerated pairs."""
    rhos = list(enumerate_stopping_times(space, from_))
    thetas = list(enumerate_stopping_times(space, from_))
    n = space.n_outcomes

    def payoff(rho, theta_st):
        return duel_payoff_rv(space, lower, upper, rho, theta_st, from_)

    table = {(i, j): payoff(r, t) for i, r in enumerate(rhos) for j, t in enumerate(thetas)}
    maximin = tuple(
        max(min(table[(i, j)][w] for j in range(len(thetas))) for i in range(len(rhos)))
        for w in range(n)
    )
    minimax = tuple(
        min(max(table[(i, j)][w] for i in range(len(rhos))) for j in range(len(thetas)))
        for w in range(n)
    )
    return maximin, minimax


# The two hand-written 2x2 node sweeps that ``classic.node_sweep`` replaced,
# kept as they were so the shared sweep is checked against them with ==.


def reference_joint_inf_pair(space: FilteredSpace, field2: PayoffField, from_=0):
    """Cooperative two-stop infimum: (open layers, rho, tau) from a start."""
    start = _start_indices(space, from_)
    kmin = min(start)
    K = space.grid.terminal_index
    open_layers = [None] * (K + 1)
    inner: list = [None] * (K + 1)
    open_layers[K] = field2.at((K, K))
    for k in range(K - 1, kmin - 1, -1):
        after_a = snell(space, as_layers(field2.pin(0, k)), "inf", k + 1)
        after_b = snell(space, as_layers(field2.pin(1, k)), "inf", k + 1)
        inner[k] = (after_a, after_b)
        both = field2.at((k, k))
        a_only = cond_exp(space, after_a.value[k + 1], k)
        b_only = cond_exp(space, after_b.value[k + 1], k)
        cont = cond_exp(space, open_layers[k + 1], k)
        open_layers[k] = tuple(
            min(s, x, y, c) for s, x, y, c in zip(both, a_only, b_only, cont)
        )
    rho, tau = [0] * space.n_outcomes, [0] * space.n_outcomes
    for w in range(space.n_outcomes):
        k = start[w]
        while k < K:
            after_a, after_b = inner[k]
            v = open_layers[k][w]
            if value_at(field2, (k, k), w) == v:
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
    return tuple(open_layers), StoppingTime(tuple(rho)), StoppingTime(tuple(tau))


def reference_node_tables(space: FilteredSpace, view: PayoffField, c: int):
    """Zero-sum reaction game from c: (maximin layers, node-gap report)."""
    K = space.grid.terminal_index
    layers: list = [None] * (K + 1)
    layers[K] = view.at((K, K))
    report: list[NodeGap] = []
    for k in range(K - 1, c - 1, -1):
        min_react = snell(space, as_layers(view.pin(0, k)), "inf", k + 1)
        max_react = snell(space, as_layers(view.pin(1, k)), "sup", k + 1)
        ss = view.at((k, k))
        sc = cond_exp(space, min_react.value[k + 1], k)
        cs = cond_exp(space, max_react.value[k + 1], k)
        cc = cond_exp(space, layers[k + 1], k)
        value = []
        for w in range(space.n_outcomes):
            maximin = max(min(ss[w], sc[w]), min(cs[w], cc[w]))
            value.append(maximin)
        layers[k] = tuple(value)
        for b, block in enumerate(space.partitions[k]):
            w = block[0]
            maximin = max(min(ss[w], sc[w]), min(cs[w], cc[w]))
            minimax = min(max(ss[w], cs[w]), max(sc[w], cc[w]))
            if minimax != maximin:
                report.append(NodeGap(k=k, block=block, gap=minimax - maximin))
    return layers, tuple(report)


# The ``Fraction`` node sweep that the integer ``classic.node_sweep``
# replaced, with its Snell reactions and its per-outcome cells, and the
# scanning ``PayoffField.pin`` that the indexed slice replaced.  Kept as they
# were so the new sweep and slice are checked against them with ==.


def reference_node_sweep(space: FilteredSpace, fields, directions, kmin: int, choose):
    K = space.grid.terminal_index
    values = [[None] * K + [f.at((K, K))] for f in fields]
    nodes: list = [None] * (K + 1)
    for k in range(K - 1, kmin - 1, -1):
        reactions = tuple(
            snell(space, reference_process(f, 1 - i, k), directions[i], k + 1)
            for i, f in enumerate((fields[-1], fields[0]))
        )
        lone_stops = ((k, reactions[0].rule), (reactions[1].rule, k))
        cells: list = []
        for f, layers in zip(fields, values):
            cells.append(f.at((k, k)))
            for stops in lone_stops:
                cells.append(cond_exp(space, reference_at_stops(f, stops), k))
            cells.append(cond_exp(space, layers[k + 1], k))
        choice = tuple(map(choose, *cells))
        for j, layers in enumerate(values):
            layers[k] = tuple(cells[4 * j + c][w] for w, c in enumerate(choice))
        nodes[k] = (tuple(cells), reactions, choice)
    return values, nodes


def reference_pin(field: PayoffField, slot: int, k: int) -> PayoffField:
    if not 0 <= slot < field.arity:
        raise ValueError(f"slot {slot} out of range for arity {field.arity}")
    rows: dict = {}
    for ks in field.rows:
        if ks[slot] == k:
            rows[ks[:slot] + ks[slot + 1 :]] = tuple(int(v * field.den) for v in field.at(ks))
    return PayoffField.from_rows(field.space, field.arity - 1, rows, field.den)


def every_multiple(space: FilteredSpace, h) -> list[Fraction]:
    """Every positive multiple of h up to phi_h of the last interior grid time:
    the entries a family would hold if it built one per multiple."""
    top = phi_h(space.grid.points[-2], h)
    out = []
    m = 1
    while m * h <= top:
        out.append(m * h)
        m += 1
    return out


# The pairwise ``Fraction`` modulus loop that the integer kernel in
# ``payoff._pair_changes`` replaced, kept as it was so the kernel's moduli and
# certificates are checked against it with ==.


def reference_pair_changes(field: PayoffField):
    """(total time displacement, max payoff change) for each distinct tuple pair."""
    grid = field.space.grid
    slices = [(ks, field.at(ks)) for ks in sorted(field.rows)]
    for i, (ks, layer) in enumerate(slices):
        for ks2, layer2 in slices[i + 1 :]:
            delta = sum(
                (abs(grid.points[a] - grid.points[b]) for a, b in zip(ks, ks2)),
                Fraction(0),
            )
            diff = max(abs(x - y) for x, y in zip(layer, layer2))
            yield delta, diff


def reference_estimate_modulus(field: PayoffField) -> Modulus:
    """Empirical modulus: max payoff change at each total time displacement."""
    worst: dict[Fraction, Fraction] = {}
    for delta, diff in reference_pair_changes(field):
        if diff > worst.get(delta, Fraction(-1)):
            worst[delta] = diff
    table: list[tuple[Fraction, Fraction]] = []
    running = Fraction(0)
    for delta in sorted(worst):
        if delta == 0:
            continue
        running = max(running, worst[delta] + MODULUS_SLACK)
        table.append((delta, running))
    return Modulus(tuple(table))


def reference_certifies_field(mod: Modulus, field: PayoffField) -> bool:
    """Strict modulus bound over all distinct tuple pairs of the field."""
    return all(diff < mod.eval(delta) for delta, diff in reference_pair_changes(field))


# Helpers only the tests use: an exact affine change of a field's payoffs
# (gaps must scale by its slope) and the strict modulus certificate over the
# library's pair kernel.


def affine(field: PayoffField, a, b) -> PayoffField:
    """The field with every payoff v replaced by a * v + b."""
    a, b = rat(a), rat(b)
    return PayoffField(
        field.space,
        field.arity,
        {ks: tuple(a * v + b for v in field.at(ks)) for ks in field.rows},
    )


def certifies_field(mod: Modulus, field: PayoffField) -> bool:
    """Strict modulus bound over all distinct tuple pairs of the field.

    Checking the worst change at each displacement is the same as checking
    every pair, since the bound at a displacement is one strict inequality.
    """
    return all(
        worst < mod.eval(delta) for delta, worst in _pair_changes(_joint_rows([field])).items()
    )


# The game-file value reader and adaptedness check that the integer fast path
# in ``gamefile._s2f`` and the singleton-skipping ``payoff.check_adapted``
# replaced, kept as they were so the two are checked against each other.


def reference_s2f(x, where: str) -> Fraction:
    try:
        return rat(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: not a rational: {x!r}") from exc


def reference_check_adapted(field: PayoffField) -> list[tuple[int, ...]]:
    """Time tuples whose outcome slice is not constant on max-time blocks."""
    space = field.space
    bad: list[tuple[int, ...]] = []
    for ks in sorted(field.rows):
        layer, k_max = field.at(ks), max(ks)
        for block in space.partitions[k_max]:
            if len({layer[w] for w in block}) > 1:
                bad.append(ks)
                break
    return bad


# The game-file parser that reading payoffs straight into integer rows
# replaced, kept as it was (with the plain readers above) so the two are
# checked against each other: it builds every payoff as a ``Fraction`` and
# gives fields born from their values.


def reference_parse_game(text: str) -> GameDoc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _object(obj, "game")  # a document that is no JSON object: the parser's own text
    with _malformed("game"):
        for key in ("grid", "outcomes", "partitions", "players", "payoffs", "epsilon"):
            if key not in obj:
                raise ParseError(f"missing field {key!r}")
        grid = TimeGrid(tuple(reference_s2f(p, "grid") for p in obj["grid"]))
        weights = tuple(reference_s2f(o["weight"], "outcomes.weight") for o in obj["outcomes"])
        partitions = tuple(
            tuple(tuple(_int(w, "partitions") for w in block) for block in part)
            for part in obj["partitions"]
        )
        space = FilteredSpace(grid=grid, weights=weights, partitions=partitions)
        problems = validate_space(space)
        if problems:
            raise ValidationError("; ".join(problems))
        n_players = _int(obj["players"], "players")
        if n_players not in (2, 3):
            raise ValidationError(f"players must be 2 or 3, got {n_players}")
        K = grid.terminal_index
        n = space.n_outcomes

        def read_tensor(node, player):
            values = {}

            def rec(prefix: tuple, sub):
                if len(prefix) == n_players:
                    if not isinstance(sub, list) or len(sub) != n:
                        raise ParseError(
                            f"payoff[{player}] at times {prefix}: need one value per outcome"
                        )
                    values[prefix] = tuple(
                        reference_s2f(v, f"payoff[{player}]{prefix}") for v in sub
                    )
                    return
                if not isinstance(sub, list) or len(sub) != K + 1:
                    raise ParseError(f"payoff[{player}] missing entries under times {prefix}")
                for k, child in enumerate(sub):
                    rec(prefix + (k,), child)

            rec((), node)
            return PayoffField(space, n_players, values)

        fields = tuple(read_tensor(node, p) for p, node in enumerate(obj["payoffs"]))
        if len(fields) != n_players:
            raise ParseError("need one payoff tensor per player")
        for p, f in enumerate(fields):
            bad = reference_check_adapted(f)
            if bad:
                raise ValidationError(
                    f"payoff[{p}] not settled at the latest stop for times {bad[0]}"
                )
        start = obj.get("start")
        if start is None:
            theta = StoppingTime((0,) * n)
        else:
            vals = [reference_s2f(v, "start") for v in start]
            try:
                idx = tuple(grid.index(v) for v in vals)
            except ValueError as exc:
                raise ValidationError(f"start: {exc}") from exc
            if not is_stopping_time(space, idx):
                raise ValidationError("start is not a stopping time")
            theta = StoppingTime(idx)
        epsilon = reference_s2f(obj["epsilon"], "epsilon")
        if epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        h = reference_s2f(obj["h"], "h") if "h" in obj else None
        if h is not None and h <= 0:
            raise ValidationError("h must be positive")
        return GameDoc(space=space, fields=fields, theta=theta, epsilon=epsilon, h=h)


# The step-by-step window-width search that the closed form in
# ``payoff.select_h`` replaced, kept as it was so the two are checked against
# each other with ==.  It evaluates eta at every multiple of the step, so it
# runs only on grids with a few thousand steps.


def reference_select_h(mod: Modulus, eps, grid: TimeGrid) -> Fraction:
    """Largest positive multiple of the minimal grid step with eta(h) < eps."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    step = grid.min_step
    best = None
    m = 1
    while m * step <= grid.span:
        h = m * step
        if mod.eval(h) < eps:
            best = h
        m += 1
    if best is None:
        raise NoValidH(
            f"even the minimal step {step} has eta={mod.eval(step)} >= {eps}"
        )
    return best


# The ``Fraction`` conditional expectations that the integer block kernel in
# ``space`` replaced, kept as they were so the kernel is checked against them
# with ==.  The block weight, once the cached ``FilteredSpace.block_weight``,
# is summed in place.


def reference_block_average(
    space: FilteredSpace, x: Sequence[Fraction], k: int, b: int
) -> Fraction:
    block = space.partitions[k][b]
    total = sum(space.weights[w] for w in block)
    return sum((space.weights[w] * x[w] for w in block), Fraction(0)) / total


def reference_cond_exp(space: FilteredSpace, x: Sequence[Fraction], k: int):
    """Conditional expectation given the time-k partition, as a new RV."""
    averages = [
        reference_block_average(space, x, k, b) for b in range(len(space.partitions[k]))
    ]
    ids = space.block_id[k]
    return tuple(averages[ids[w]] for w in range(space.n_outcomes))


# The stopping-time test and the stopped atoms as they were before
# ``space.stopped_atoms`` became the one reader of a start: a scan of every
# (time, block) pair, with no refinement assumed.  Kept as they were so the
# library's check and atoms are checked against them with ==, and called by
# every reference below that reads a start.


def reference_is_stopping_time(space: FilteredSpace, idx: Sequence[int]) -> bool:
    """True iff {tau <= t_k} is a union of time-k blocks for every k."""
    n = space.n_outcomes
    if len(idx) != n:
        return False
    K = space.grid.terminal_index
    if any(not 0 <= i <= K for i in idx):
        return False
    for k in range(K + 1):
        for block in space.partitions[k]:
            hits = {idx[w] <= k for w in block}
            if len(hits) > 1:
                return False
    return True


def reference_stopped_atoms(
    space: FilteredSpace, theta: StoppingTime
) -> list[tuple[int, tuple[int, ...]]]:
    """Atoms of the stopped sigma-algebra, as (time index, outcome block) pairs.

    Each atom is the intersection of {theta = t_k} with a time-k block; for a
    valid stopping time this recovers whole time-k blocks.
    """
    atoms: list[tuple[int, tuple[int, ...]]] = []
    for k in range(len(space.grid)):
        for block in space.partitions[k]:
            members = tuple(w for w in block if theta.idx[w] == k)
            if members:
                atoms.append((k, members))
    return atoms


def reference_cond_exp_at(space: FilteredSpace, x: Sequence[Fraction], theta: StoppingTime):
    """Conditional expectation given the information at a stopping time."""
    if not reference_is_stopping_time(space, theta.idx):
        raise ValueError("conditioning requires a valid stopping time")
    out = [Fraction(0)] * space.n_outcomes
    for _, members in reference_stopped_atoms(space, theta):
        total = sum(space.weights[w] for w in members)
        avg = sum((space.weights[w] * x[w] for w in members), Fraction(0)) / total
        for w in members:
            out[w] = avg
    return tuple(out)


# The ``Fraction`` best-response DP that the integer program in
# ``verify.exact_best_response`` replaced, kept as it was so the new oracle's
# values and its DP state count are checked against it.  It reads the fixed
# seats' commitments from the strategy fields itself, so a fault in the
# library's lookup (``strategy.committed_index``) shows as a mismatch.


def reference_committed_index(strat, seat: int, status: tuple, w: int) -> int:
    """Stop index a fixed seat is committed to at outcome w, given ``status``
    (per seat, its stop index or -1 while it has not stopped)."""
    seen = [(q, s) for q, s in enumerate(status) if q != seat and s >= 0]
    if not seen:
        return strat.initial.idx[w]
    if isinstance(strat, StrategyOrder2):
        ((_, s),) = seen
        return strat.react[s].idx[w]
    if len(seen) == 1:
        ((q, s),) = seen
        return strat.react_one[q][s].idx[w]
    (_, s_lo), (_, s_hi) = seen  # in seat order: the lower other seat first
    return strat.react_two[(s_lo, s_hi)].idx[w]


def reference_exact_best_response(
    space: FilteredSpace,
    field: PayoffField,
    strategies: Sequence,
    controlled: tuple[int, ...],
    objective: str,
    start,
) -> BestResponseResult:
    """Optimal value for the controlled seats against fixed opponents.

    ``strategies[q]`` must be supplied for every fixed seat q; controlled
    entries are ignored.  The value is conditioned on the atoms of the start
    stopping time.  ``objective`` applies to the field as the controlled
    seats' common payoff ('max' for a deviating player, 'min' for a punishing
    coalition).
    """
    if objective not in ("max", "min"):
        raise ValueError("objective must be 'max' or 'min'")
    opt = max if objective == "max" else min
    n_seats = field.arity
    K = space.grid.terminal_index
    cap = current_guards().dp_state_cap
    memo: dict[tuple, Fraction] = {}

    def block_avg_payoff(block: tuple[int, ...], times: tuple[int, ...]) -> Fraction:
        total = sum(space.weights[w] for w in block)
        acc = Fraction(0)
        for w in block:
            acc += space.weights[w] * value_at(field, times, w)
        return acc / total

    def solve(k: int, block: tuple[int, ...], status: tuple) -> Fraction:
        key = (k, block, status)
        if key in memo:
            return memo[key]
        if len(memo) > cap:
            raise GuardExceeded(f"best-response DP exceeded {cap} states")
        w0 = block[0]
        if k == K:
            times = tuple(K if s < 0 else s for s in status)
            val = block_avg_payoff(block, times)
            memo[key] = val
            return val
        fixed_now = [
            q
            for q in range(n_seats)
            if q not in controlled
            and status[q] < 0
            and reference_committed_index(strategies[q], q, status, w0) == k
        ]
        free = [q for q in controlled if status[q] < 0]
        best: Fraction | None = None
        for r in range(len(free) + 1):
            for stop_set in itertools.combinations(free, r):
                nxt = list(status)
                for q in fixed_now:
                    nxt[q] = k
                for q in stop_set:
                    nxt[q] = k
                nxt_t = tuple(nxt)
                if all(s >= 0 for s in nxt_t):
                    val = block_avg_payoff(block, nxt_t)
                else:
                    total = sum(space.weights[w] for w in block)
                    val = Fraction(0)
                    for child in space.partitions[k + 1]:
                        if child[0] in block:
                            p = sum(space.weights[w] for w in child)
                            val += p * solve(k + 1, child, nxt_t)
                    val /= total
                best = val if best is None else opt(best, val)
        memo[key] = best
        return best

    start_idx = _start_indices(space, start)
    values: dict[Atom, Fraction] = {}
    out = [Fraction(0)] * space.n_outcomes
    all_alive = (-1,) * n_seats
    for k in range(K + 1):
        for block in space.partitions[k]:
            members = tuple(w for w in block if start_idx[w] == k)
            if not members:
                continue
            if members != block:
                raise ValueError("start must be a valid stopping time")
            v = solve(k, block, all_alive)
            values[(k, block)] = v
            for w in block:
                out[w] = v
    # the Fraction DP has no integer scale to hand back
    return BestResponseResult(
        values=values, value_rv=tuple(out), objective=objective, scaled=None
    )


# The two-player solver as it was when it solved a Snell reaction for every
# observation, including those before its start, and left the patching to
# its caller.  The library's solver is checked to return this pair patched at
# the earliest start index, with the same certificate.


def reference_own_reactions(space, field, other_slot):
    """Snell-optimal reaction table maximizing the owner's own payoff."""
    K = space.grid.terminal_index
    react = []
    for s in range(K):
        react.append(snell(space, as_layers(field.pin(other_slot, s)), "sup", s + 1))
    return react


def reference_solve_2p_nash(
    space: FilteredSpace,
    field_a: PayoffField,
    field_b: PayoffField,
    start,
    eps,
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

    react_b = reference_own_reactions(space, field_b, other_slot=0)  # b reacting to a's stop
    react_a = reference_own_reactions(space, field_a, other_slot=1)  # a reacting to b's stop

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
                value_at(field_a, (k, rb.rule.idx[w]), w)
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
                value_at(field_b, (ra.rule.idx[w], k), w)
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
    if cert.passes:
        return Nash2Result((strat_a, strat_b), cert, fallback_used=False)
    return reference_fallback_search(
        space, field_a, field_b, start_st, eps, (strat_a, strat_b), cert
    )


def reference_fallback_search(space, field_a, field_b, start_st, eps, best_pair, best):
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
                reference_one_field_on_path_value(space, f, [sa, sb], start_st)[0]
                for f in (field_a, field_b)
            ]
            cert = reference_nash_certificate(eps, (br_a_vs[j], br_b_vs[i]), paths)
            if cert.worst_gap < best.worst_gap:
                best_pair, best = (sa, sb), cert
    return Nash2Result(best_pair, best, fallback_used=True)


# The reaction rule as it was written out before ``strategy.committed_index``
# and the one resolver replaced it: the two-player closed form, the
# three-player rounds with their own lookup, and the best-response oracle's
# lookup.  Kept as they were so the shared rule is checked against them
# with ==.


def reference_resolve2(
    space: FilteredSpace, a: StrategyOrder2, b: StrategyOrder2
) -> tuple[StoppingTime, StoppingTime]:
    """Actual stop times of a two-player profile, outcome by outcome."""
    n = space.n_outcomes
    out_a, out_b = [0] * n, [0] * n
    for w in range(n):
        ia, ib = a.initial.idx[w], b.initial.idx[w]
        if ia == ib:
            out_a[w], out_b[w] = ia, ib
        elif ia < ib:
            out_a[w] = ia
            out_b[w] = b.react[ia].idx[w]
        else:
            out_b[w] = ib
            out_a[w] = a.react[ib].idx[w]
    return StoppingTime(tuple(out_a)), StoppingTime(tuple(out_b))


def reference_react3(strat: StrategyOrder3, stopped: dict[int, int], w: int) -> int:
    """Committed index after the observed stops ``stopped`` (other seat -> index)."""
    if len(stopped) == 1:
        (q, s), = stopped.items()
        return strat.react_one[q][s].idx[w]
    lo, hi = strat.others()
    return strat.react_two[(stopped[lo], stopped[hi])].idx[w]


def reference_resolve3(
    space: FilteredSpace,
    s0: StrategyOrder3,
    s1: StrategyOrder3,
    s2: StrategyOrder3,
) -> tuple[StoppingTime, StoppingTime, StoppingTime]:
    """Actual stop times of a three-player profile via chronological rounds."""
    strats = (s0, s1, s2)
    if tuple(s.seat for s in strats) != (0, 1, 2):
        raise ValueError("strategies must carry seats 0, 1, 2 in order")
    n = space.n_outcomes
    result = [[0] * n for _ in range(3)]
    for w in range(n):
        committed = {p: strats[p].initial.idx[w] for p in range(3)}
        stopped: dict[int, int] = {}
        while committed:
            m = min(committed.values())
            now = [p for p, c in committed.items() if c == m]
            for p in now:
                stopped[p] = m
                result[p][w] = m
                del committed[p]
            for p in committed:
                observed = {q: s for q, s in stopped.items() if q != p}
                committed[p] = reference_react3(strats[p], observed, w)
    return tuple(StoppingTime(tuple(r)) for r in result)  # type: ignore[return-value]


def reference_oracle_committed_index(strat, seat: int, status: tuple, w: int) -> int:
    """Current committed stop index of a fixed strategy given observed stops."""
    observed = {
        q: s for q, s in enumerate(status) if q != seat and s >= 0
    }
    if not observed:
        return strat.initial.idx[w]
    if isinstance(strat, StrategyOrder2):
        (s,) = observed.values()
        return strat.react[s].idx[w]
    return reference_react3(strat, observed, w)


# The stopping duel as it was before it ran on integer block layers: per
# outcome, on ``Fraction`` layers, with the reference conditional expectation;
# the hand-written tie-pays-the-minimizer duel that the mirrored duel in
# ``classic.dynkin_convention_gap`` replaced; and the gap as it was computed
# from the two.  None of them calls a library duel; they are kept so the
# integer duel is checked against them with ==.


def reference_dynkin_value(
    space: FilteredSpace, lower: Sequence, upper: Sequence, from_=0
) -> tuple:
    """Value layers of the duel (ties pay the maximizer's side, lower), None
    below the earliest start index; OrderViolation where lower > upper at a
    reachable (index, outcome)."""
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
    value: list = [None] * (K + 1)
    value[K] = tuple(lower[K])
    for k in range(K - 1, kmin - 1, -1):
        cont = reference_cond_exp(space, value[k + 1], k)
        value[k] = tuple(
            max(x, min(y, c)) for x, y, c in zip(lower[k], upper[k], cont)
        )
    return tuple(value)


def reference_dynkin_value_alt(
    space: FilteredSpace, lower: Sequence, upper: Sequence, from_=0
) -> tuple:
    """Same duel under the tie-pays-the-minimizer convention."""
    start = _start_indices(space, from_)
    kmin = min(start)
    K = space.grid.terminal_index
    value: list = [None] * (K + 1)
    value[K] = tuple(upper[K])
    for k in range(K - 1, kmin - 1, -1):
        cont = reference_cond_exp(space, value[k + 1], k)
        value[k] = tuple(
            min(y, max(x, c)) for x, y, c in zip(lower[k], upper[k], cont)
        )
    return tuple(value)


def reference_dynkin_convention_gap(
    space: FilteredSpace, lower: Sequence, upper: Sequence, from_=0
) -> Fraction:
    """Largest reachable difference between the two tie conventions."""
    start = _start_indices(space, from_)
    main = reference_dynkin_value(space, lower, upper, from_)
    alt = reference_dynkin_value_alt(space, lower, upper, from_)
    K = space.grid.terminal_index
    gap = Fraction(0)
    for k in range(min(start), K + 1):
        for w in range(space.n_outcomes):
            if k >= start[w]:
                gap = max(gap, abs(main[k][w] - alt[k][w]))
    return gap


# The per-outcome payoff reads and the slice copies made only to be read that
# ``PayoffField.at_stops`` and ``PayoffField.process`` replaced: the lone-stop
# cells of ``classic.node_sweep``, ``verify.on_path_value`` for one field,
# ``nash3._family_value``, the coop and single window gaps of ``nash2`` and
# its ``_double_pin``.  Kept as they were so the two readers are checked
# against them with ==.  The two readers themselves, which the integer
# ``PayoffField.stop_sums`` and ``classic.solo_stop`` replaced in the solve,
# are kept below as they were, as functions of the field.


def reference_at_stops(field: PayoffField, stops: Sequence) -> tuple:
    """The payoff at one stop per slot, each a ``StoppingTime`` or a grid
    index: outcome w reads the slice at the stops' indices at w."""
    columns = [_start_indices(field.space, s) for s in stops]
    return tuple(value_at(field, ks, w) for w, ks in enumerate(zip(*columns)))


def reference_process(field: PayoffField, slot: int, k: int) -> list:
    """The layers over one slot's grid index, every other slot at k."""
    head, tail = (k,) * slot, (k,) * (field.arity - slot - 1)
    return [field.at(head + (j,) + tail) for j in range(len(field.space.grid))]


def reference_double_pin(field3: PayoffField, free_slot: int, c: int) -> PayoffField:
    others = sorted(s for s in range(3) if s != free_slot)
    return field3.pin(others[1], c).pin(others[0], c)


def reference_lone_stop_cells(space: FilteredSpace, f: PayoffField, k: int, reactions):
    """The two lone-stop cells of a node, slot 0 alone then slot 1 alone."""
    lone_stops = (  # per outcome, the stop pair once slot 0 or slot 1 stopped alone
        [(k, r) for r in reactions[0].rule.idx],
        [(r, k) for r in reactions[1].rule.idx],
    )
    return [
        cond_exp(space, [value_at(f, p, w) for w, p in enumerate(pairs)], k)
        for pairs in lone_stops
    ]


def reference_one_field_on_path_value(
    space: FilteredSpace, field: PayoffField, strategies, start
):
    """Expected payoff of the conforming profile, conditioned at the start."""
    times = resolve_profile(space, strategies)
    pay = tuple(
        value_at(field, tuple(t.idx[w] for t in times), w)
        for w in range(space.n_outcomes)
    )
    theta = start if isinstance(start, StoppingTime) else constant_time(space, int(start))
    rv_out = cond_exp_at(space, pay, theta)
    values = {
        (k, members): rv_out[members[0]] for k, members in reference_stopped_atoms(space, theta)
    }
    return values, rv_out


def reference_family_value(space, field, seat, k, pair, free_slots):
    """E_k of the field with the seat slot at k and the survivors at ``pair``."""
    vals = []
    for w in range(space.n_outcomes):
        ks = [0, 0, 0]
        ks[seat] = k
        ks[free_slots[0]] = pair[0].idx[w]
        ks[free_slots[1]] = pair[1].idx[w]
        vals.append(value_at(field, tuple(ks), w))
    return cond_exp(space, tuple(vals), k)


def reference_pair_component(entry, free_slots, want: int) -> StrategyOrder2:
    """Strategy of seat ``want`` in a pair entry with a tuple payload; the
    lower free slot comes first."""
    return entry.payload[0] if want == min(free_slots) else entry.payload[1]


def reference_coop_gap(space, field3, frozen_slot, stop_now, payload, k):
    rho, tau = payload[:2]
    view = field3.pin(frozen_slot, k)
    pay = tuple(
        value_at(view, (rho.idx[w], tau.idx[w]), w) for w in range(space.n_outcomes)
    )
    attained = cond_exp(space, pay, k)
    return max(a - o for a, o in zip(attained, stop_now[k].value))


def reference_single_gap(space, field3, free_slot, solo, payload, k):
    direction = solo[-1].direction
    (rule,) = payload
    layers = as_layers(reference_double_pin(field3, free_slot, k))
    attained = cond_exp(
        space,
        tuple(layers[rule.idx[w]][w] for w in range(space.n_outcomes)),
        k,
    )
    opt = solo[k].value
    if direction == "inf":
        return max(a - o for a, o in zip(attained, opt))
    return max(o - a for a, o in zip(attained, opt))


# ``nash2._shortfall`` as it was before the window gaps were measured on
# integers: the attained payoff and the optimum as ``Fraction`` RVs, and the
# gap a ``Fraction`` maximum over outcomes.  Kept so the integer gap is
# checked against it with ==.


def reference_shortfall(space, field3, stops, k, opt, direction) -> Fraction:
    """How far the payoff at ``stops``, averaged at time k, falls short of ``opt``."""
    attained = block_rv(space, k, field3.stop_sums(stops, space.partitions[k]), field3.den)
    sign = 1 if direction == "inf" else -1
    return max(sign * (a - o) for a, o in zip(attained, opt))


# The hand-written forward scans that ``space.first_hit`` replaced (the
# ``classic.snell`` rule, both ``classic.dynkin_hitting_pair`` times, the
# ``nash3.build_player_processes`` exit time), the first-exit partition that
# ``nash3.first_exit_seats`` replaced and the linear ``index_at_or_after``,
# kept as they were so the new code is checked against them with ==.


def reference_snell_rule(space: FilteredSpace, value, layers, from_=0) -> StoppingTime:
    start = _start_indices(space, from_)
    K = space.grid.terminal_index
    rule = []
    for w in range(space.n_outcomes):
        k = start[w]
        while k < K and value[k][w] != layers[k][w]:
            k += 1
        rule.append(k)
    return StoppingTime(tuple(rule))


def reference_dynkin_hitting_pair(space, value, lower, upper, eps, mu):
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


def reference_exit_time(space, value, stop_family, theta, eps) -> StoppingTime:
    exit_idx = []
    for w in range(space.n_outcomes):
        k = theta.idx[w]
        while value[k][w] > stop_family[k][w] + eps:
            k += 1
        exit_idx.append(k)
    return StoppingTime(tuple(exit_idx))


def reference_partition_ABC(space: FilteredSpace, mu_by_seat):
    m0, m1, m2 = (mu_by_seat[s].idx for s in range(3))
    a, b, c = [], [], []
    for w in range(space.n_outcomes):
        in_a = m0[w] <= m1[w] and m0[w] <= m2[w]
        in_b = m1[w] < m0[w] and m1[w] <= m2[w]
        in_c = m2[w] < m0[w] and m2[w] < m1[w]
        if in_a + in_b + in_c != 1:
            raise TheoremViolation("exit-time events failed to partition")
        a.append(in_a)
        b.append(in_b)
        c.append(in_c)
    return tuple(a), tuple(b), tuple(c)


def reference_index_at_or_after(grid: TimeGrid, t) -> int:
    t = rat(t)
    for k, p in enumerate(grid.points):
        if p >= t:
            return k
    return grid.terminal_index


# The settle-delay search as it was before ``nash3.select_delta`` tried only
# the multiples where an end index moves: every multiple of the minimal step,
# one at a time down from the largest.  Kept as it was so the two are checked
# against each other with ==.


def reference_select_delta(space: FilteredSpace, players, theta, eps) -> DeltaMap:
    eps = rat(eps)
    step = space.grid.min_step
    max_m = max(1, math.ceil(space.grid.span / step))
    per_atom: dict = {}

    def atom_ok(members, m) -> bool:
        dur = m * step
        total = sum(space.weights[w] for w in members)
        for pp in players.values():
            sup_acc = Fraction(0)
            v_acc = Fraction(0)
            for w in members:
                mu_k = pp.exit_time.idx[w]
                mu_val = space.grid.points[mu_k]
                end_k = space.grid.index_at_or_after(mu_val + dur)
                worst = max(
                    abs(pp.stop_family[k][w] - pp.stop_family[mu_k][w])
                    for k in range(mu_k, end_k + 1)
                )
                sup_acc += space.weights[w] * worst
                v_acc += space.weights[w] * abs(pp.value[end_k][w] - pp.value[mu_k][w])
            if not (sup_acc / total < eps and v_acc / total < eps):
                return False
        return True

    for k, members, _ in stopped_atoms(space, theta):
        chosen = None
        for m in range(max_m, 0, -1):
            if atom_ok(members, m):
                chosen = m * step
                break
        if chosen is None:
            raise NoValidDelta(
                f"no stable delay of at least one step on atom {(k, members)}"
            )
        per_atom[(k, members)] = chosen
    duration = [Fraction(0)] * space.n_outcomes
    for (k, members), dur in per_atom.items():
        for w in members:
            duration[w] = dur
    return DeltaMap(per_atom=per_atom, duration=tuple(duration))


# The strategy validation as it was before ``strategy.validate_strategy``
# checked each distinct index tuple once per call: one stopping-time check
# per entry.  Kept as it was so the problem lists are checked with ==.


def reference_validate_strategy(space: FilteredSpace, strat) -> list[str]:
    """Diagnostics for the strictly-later and measurability requirements."""
    K = space.grid.terminal_index
    problems: list[str] = []

    def check_reaction(tag: str, s_max: int, st: StoppingTime):
        if not reference_is_stopping_time(space, st.idx):
            problems.append(f"{tag}: reaction is not a stopping time")
        if s_max < K and any(i <= s_max for i in st.idx):
            problems.append(f"{tag}: reaction not strictly after the observation")

    if not reference_is_stopping_time(space, strat.initial.idx):
        problems.append("initial is not a stopping time")
    if isinstance(strat, StrategyOrder2):
        if len(strat.react) != K + 1:
            problems.append("reaction table must cover every observation time")
        for s, st in enumerate(strat.react):
            check_reaction(f"react[{s}]", s, st)
    elif isinstance(strat, StrategyOrder3):
        lo, hi = strat.others()
        if set(strat.react_one) != {lo, hi}:
            problems.append("need one solo reaction table per other seat")
        for q, table in strat.react_one.items():
            if len(table) != K + 1:
                problems.append(f"react_one[{q}] must cover every observation time")
            for s, st in enumerate(table):
                check_reaction(f"react_one[{q}][{s}]", s, st)
        for (s1, s2), st in strat.react_two.items():
            check_reaction(f"react_two[{(s1, s2)}]", max(s1, s2), st)
        want = {(a, b) for a in range(K + 1) for b in range(K + 1)}
        if set(strat.react_two) != want:
            problems.append("react_two must cover every observation pair")
    else:
        problems.append(f"unknown strategy type {type(strat).__name__}")
    return problems


# The certificate as it was computed in ``Fraction`` before ``verify`` put
# the conforming value and the gap on the best-response oracle's integer
# scale: the profile's payoff read per outcome with ``at_stops``, averaged
# over the start atoms with ``cond_exp_at``, and each gap a ``Fraction``
# difference.  Kept as they were so ``verify.certify_nash`` and
# ``verify.on_path_value`` are checked against them with ==.


def reference_on_path_value(
    space: FilteredSpace, fields: Sequence[PayoffField], strategies: Sequence, start
) -> list[tuple[dict, tuple]]:
    """Per field, the expected payoff of the conforming profile conditioned at
    the start, by start atom and as an RV.  The profile is resolved once."""
    times = resolve_profile(space, strategies)
    theta = start if isinstance(start, StoppingTime) else constant_time(space, int(start))
    atoms = reference_stopped_atoms(space, theta)
    out = []
    for field in fields:
        rv_out = cond_exp_at(space, reference_at_stops(field, times), theta)
        out.append(({(k, members): rv_out[members[0]] for k, members in atoms}, rv_out))
    return out


def reference_certify_nash(
    space: FilteredSpace, fields: Sequence[PayoffField], profile: Sequence, theta, eps
) -> NashCertificate:
    """Exact per-atom deviation gaps for every player against the Nash bound.

    Seat s maximizes ``fields[s]`` against the others' fixed strategies.  The
    bound is 13*eps for three players and eps for two.
    """
    best = tuple(
        exact_best_response(
            space, field, profile, controlled=(seat,), objective="max", start=theta
        ).values
        for seat, field in enumerate(fields)
    )
    paths = tuple(values for values, _ in reference_on_path_value(space, fields, profile, theta))
    return reference_nash_certificate(eps, best, paths)


def reference_nash_certificate(eps, best_response, on_path) -> NashCertificate:
    """Certificate from per-seat best-response and conforming values by atom."""
    eps = rat(eps)
    bound = (13 if len(best_response) == 3 else 1) * eps
    gaps = tuple(
        {atom: br[atom] - path[atom] for atom in br}
        for br, path in zip(best_response, on_path)
    )
    worst = max([Fraction(0), *(g for per_seat in gaps for g in per_seat.values())])
    return NashCertificate(
        eps=eps,
        bound=bound,
        per_player_gaps=gaps,
        on_path=tuple(on_path),
        best_response=tuple(best_response),
        worst_gap=worst,
        passes=worst <= bound,
    )


# ``generator.random_payoff`` as it was before it built integer rows: every
# entry a ``Fraction``, materialized by ``payoff_from_function``.  Kept so the
# integer generator is checked against it with == on rows and den.


def reference_random_payoff(
    space: FilteredSpace, rng: random.Random, slope: Fraction, arity: int = 3
) -> PayoffField:
    n = space.n_outcomes
    K = space.grid.terminal_index
    info = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(n))
    mart = {k: cond_exp(space, info, k) for k in range(K + 1)}
    jump = max(
        (abs(mart[k + 1][w] - mart[k][w]) for k in range(K) for w in range(n)),
        default=Fraction(0),
    )
    half = slope * Fraction(9, 20)  # strictly inside the per-part budget
    gamma = min(Fraction(1), half * space.grid.min_step / jump) if jump else Fraction(1)
    slopes = [Fraction(rng.randint(-100, 100), 100) * half for _ in range(arity)]
    base = Fraction(rng.randint(35, 65), 100)
    anchor = mart[0][0]
    pts = space.grid.points

    def clamp01(v: Fraction) -> Fraction:
        return min(max(v, Fraction(0)), Fraction(1))

    def fn(ks, w):
        v = base + sum(s * pts[k] for s, k in zip(slopes, ks))
        v += gamma * (mart[max(ks)][w] - anchor)
        return clamp01(v)

    return payoff_from_function(space, arity, fn)
