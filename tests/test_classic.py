from __future__ import annotations

import itertools
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SETTINGS, random_adapted_field, random_rv, random_space, solo_solutions, spaces,
)
from oracles import (
    as_layers,
    brute_dynkin_maximin,
    brute_joint_inf,
    duel_payoff_rv,
    pair_payoff,
    reference_dynkin_convention_gap,
    reference_dynkin_hitting_pair,
    reference_dynkin_value,
    reference_exit_time,
    reference_joint_inf_pair,
    reference_lone_stop_cells,
    reference_node_sweep,
    reference_snell_rule,
)
from stopgame import classic
from stopgame.classic import (
    _first_min,
    block_rv,
    dynkin_convention_gap,
    dynkin_hitting_pair,
    dynkin_value,
    first_within,
    joint_inf_pair,
    node_sweep,
    snell,
    solo_stop,
)
from stopgame.errors import OrderViolation
from stopgame.generator import generate_instance
from stopgame.nash2 import _nash_cell
from stopgame.payoff import PayoffField, payoff_from_function
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    _start_indices,
    cond_exp,
    constant_time,
    expectation,
    fill_blocks,
    is_stopping_time,
    make_grid,
    stopped_atoms,
)
from stopgame.verify import enumerate_stopping_times
from stopgame.zerosum import _maximin


def rv_const(space, c):
    return tuple(Fraction(c) for _ in range(space.n_outcomes))


def test_snell_decreasing_deterministic(three_time_space):
    space = three_time_space
    layers = [rv_const(space, 5 - k) for k in range(3)]
    res = snell(space, layers, "sup", 0)
    assert res.rule.idx == (0, 0)
    assert res.value[0] == layers[0]


def test_snell_two_point(two_outcome_space):
    space = two_outcome_space
    layers = [rv_const(space, 1), (Fraction(2), Fraction(0))]
    res = snell(space, layers, "sup", 0)
    assert res.value[0] == (Fraction(1), Fraction(1))
    assert res.rule.idx == (0, 0)  # earliest optimizer: stopping now already attains 1


def test_snell_inf_duality(three_time_space):
    rng = random.Random(13)
    space = three_time_space
    layers = [cond_exp(space, random_rv(rng, 2), k) for k in range(3)]
    neg = [tuple(-x for x in layer) for layer in layers]
    up = snell(space, layers, "sup", 0)
    dn = snell(space, neg, "inf", 0)
    assert dn.value[0] == tuple(-x for x in up.value[0])


def test_snell_value_is_enumeration_optimum():
    rng = random.Random(17)
    for _ in range(10):
        space = random_space(rng, 3, 4)
        layers = [cond_exp(space, random_rv(rng, 3), k) for k in range(4)]
        res = snell(space, layers, "sup", 0)
        best = None
        for tau in enumerate_stopping_times(space, 0):
            pay = tuple(layers[tau.idx[w]][w] for w in range(3))
            val = expectation(space, pay)
            best = val if best is None else max(best, val)
        assert expectation(space, res.value[0]) == best
        # the returned rule attains the value
        pay = tuple(layers[res.rule.idx[w]][w] for w in range(3))
        assert expectation(space, pay) == best


def test_snell_supermartingale_dominates():
    rng = random.Random(29)
    space = random_space(rng, 4, 4)
    layers = [cond_exp(space, random_rv(rng, 4), k) for k in range(4)]
    res = snell(space, layers, "sup", 0)
    for k in range(3):
        cont = cond_exp(space, res.value[k + 1], k)
        assert all(v >= c for v, c in zip(res.value[k], cont))
        assert all(v >= p for v, p in zip(res.value[k], layers[k]))


def test_joint_inf_constant(three_time_space):
    space = three_time_space
    field = payoff_from_function(space, 2, lambda ks, w: 4)
    res = joint_inf_pair(space, field, 0)
    assert res.value == rv_const(space, 4)
    assert res.rho.idx == (0, 0)
    assert res.tau.idx == (0, 0)


def test_joint_inf_monotone_sum(three_time_space):
    space = three_time_space
    field = payoff_from_function(space, 2, lambda ks, w: ks[0] + ks[1])
    res = joint_inf_pair(space, field, 1)
    assert res.rho.idx == (1, 1)
    assert res.tau.idx == (1, 1)
    assert res.value == rv_const(space, 2)


def test_joint_inf_equals_enumeration():
    rng = random.Random(43)
    for _ in range(8):
        space = random_space(rng, 3, 4)
        base = {k: cond_exp(space, random_rv(rng, 3), k) for k in range(4)}
        field = payoff_from_function(
            space, 2, lambda ks, w: base[max(ks)][w] + ks[0] - 2 * ks[1]
        )
        res = joint_inf_pair(space, field, 0)
        brute = brute_joint_inf(space, field, 0)
        assert res.value == brute
        # returned pair attains it
        attained = pair_payoff(space, field, res.rho, res.tau, 0)
        assert attained == brute


def test_joint_inf_monotone_in_payoff(three_time_space):
    rng = random.Random(47)
    space = three_time_space
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    f1 = payoff_from_function(space, 2, lambda ks, w: base[max(ks)][w])
    f2 = payoff_from_function(space, 2, lambda ks, w: base[max(ks)][w] + 1)
    v1 = joint_inf_pair(space, f1, 0).value
    v2 = joint_inf_pair(space, f2, 0).value
    assert all(a <= b for a, b in zip(v1, v2))


D1_LOWER = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
D1_UPPER = [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))]


def test_dynkin_d1_value(two_outcome_space):
    value = dynkin_value(two_outcome_space, D1_LOWER, D1_UPPER, 0)
    assert value[0] == (Fraction(1), Fraction(1))


def test_dynkin_squeeze(three_time_space):
    rng = random.Random(53)
    layers = [cond_exp(three_time_space, random_rv(rng, 2), k) for k in range(3)]
    value = dynkin_value(three_time_space, layers, layers, 0)
    assert value == tuple(tuple(layer) for layer in layers)


def test_dynkin_zero_one(three_time_space):
    space = three_time_space
    lo = [rv_const(space, 0)] * 3
    hi = [rv_const(space, 1)] * 3
    value = dynkin_value(space, lo, hi, 0)
    assert value[0] == rv_const(space, 0)


def test_dynkin_order_violation(two_outcome_space):
    with pytest.raises(OrderViolation):
        dynkin_value(two_outcome_space, D1_UPPER, D1_LOWER, 0)


def spread_layers(space, rng, lo):
    """lo plus an adapted nonnegative gap (conditional expectation of noise)."""
    hi = []
    for k, layer in enumerate(lo):
        gap = cond_exp(
            space, tuple(Fraction(rng.randint(0, 8), 4) for _ in layer), k
        )
        hi.append(tuple(x + g for x, g in zip(layer, gap)))
    return hi


def test_dynkin_equals_enumerated_maximin():
    rng = random.Random(59)
    for _ in range(8):
        space = random_space(rng, 3, 4)
        lo = [cond_exp(space, random_rv(rng, 3), k) for k in range(4)]
        hi = spread_layers(space, rng, lo)
        value = dynkin_value(space, lo, hi, 0)
        maximin, minimax = brute_dynkin_maximin(space, lo, hi, 0)
        assert value[0] == maximin == minimax


def test_dynkin_hitting_d1(two_outcome_space):
    value = dynkin_value(two_outcome_space, D1_LOWER, D1_UPPER, 0)
    mu = constant_time(two_outcome_space, 0)
    rho, theta = dynkin_hitting_pair(
        two_outcome_space, value, D1_LOWER, D1_UPPER, "1/10", mu
    )
    assert rho.idx == (1, 1)
    assert theta.idx == (0, 0)


def test_dynkin_hitting_squeeze(three_time_space):
    space = three_time_space
    rng = random.Random(61)
    layers = [cond_exp(space, random_rv(rng, 2), k) for k in range(3)]
    value = dynkin_value(space, layers, layers, 0)
    mu = constant_time(space, 0)
    rho, theta = dynkin_hitting_pair(space, value, layers, layers, "1/10", mu)
    assert rho == mu
    assert theta == mu


def test_dynkin_hitting_saddle_within_eps():
    rng = random.Random(67)
    eps = Fraction(1, 10)
    for _ in range(6):
        space = random_space(rng, 3, 4)
        lo = [cond_exp(space, random_rv(rng, 3), k) for k in range(4)]
        hi = spread_layers(space, rng, lo)
        value = dynkin_value(space, lo, hi, 0)
        mu = constant_time(space, 0)
        rho, theta = dynkin_hitting_pair(space, value, lo, hi, eps, mu)
        assert is_stopping_time(space, rho.idx)
        assert is_stopping_time(space, theta.idx)
        on_path = expectation(space, duel_payoff_rv(space, lo, hi, rho, theta, mu))
        assert abs(on_path - expectation(space, value[0])) <= eps
        for dev in enumerate_stopping_times(space, 0):
            up = expectation(space, duel_payoff_rv(space, lo, hi, dev, theta, mu))
            dn = expectation(space, duel_payoff_rv(space, lo, hi, rho, dev, mu))
            assert up - eps <= on_path
            assert dn + eps >= on_path


def test_convention_gap_zero_when_ordered():
    rng = random.Random(71)
    space = random_space(rng, 3, 4)
    lo = [cond_exp(space, random_rv(rng, 3), k) for k in range(4)]
    hi = [tuple(x + 1 for x in layer) for layer in lo]
    gap = dynkin_convention_gap(space, dynkin_value(space, lo, hi, 0), lo, hi, 0)
    # the conventions differ at most by the terminal forced-stop payoff
    assert gap <= max(
        abs(a - b) for a, b in zip(lo[-1], hi[-1])
    )


@pytest.mark.parametrize("seed", range(6))
def test_convention_gap_matches_reference(seed):
    """The mirrored duel gives the hand-written tie-pays-the-minimizer duel's
    gap, from constant starts and from stopping-time starts (layers before
    the earliest start index are None)."""
    rng = random.Random(300 + seed)
    space = random_space(rng, 3, 5)
    K = space.grid.terminal_index
    lo = [cond_exp(space, random_rv(rng, 3), k) for k in range(K + 1)]
    hi = spread_layers(space, rng, lo)
    taus = list(enumerate_stopping_times(space, 0))
    for start in [0, 2, K, *rng.sample(taus, 4)]:
        kmin = start if isinstance(start, int) else min(start.idx)
        cut_lo = [None] * kmin + lo[kmin:]
        cut_hi = [None] * kmin + hi[kmin:]
        value = dynkin_value(space, cut_lo, cut_hi, start)
        got = dynkin_convention_gap(space, value, cut_lo, cut_hi, start)
        assert got == reference_dynkin_convention_gap(space, cut_lo, cut_hi, start)
        assert got == reference_dynkin_convention_gap(space, lo, hi, start)


def test_solve_duel_bundles_saddle(two_outcome_space):
    mu = constant_time(two_outcome_space, 0)
    value = dynkin_value(two_outcome_space, D1_LOWER, D1_UPPER, mu)
    stop_max, stop_min = dynkin_hitting_pair(
        two_outcome_space, value, D1_LOWER, D1_UPPER, "1/10", mu
    )
    assert value[0] == (Fraction(1), Fraction(1))
    assert stop_max.idx == (1, 1)
    assert stop_min.idx == (0, 0)


@pytest.mark.parametrize("seed", range(10))
def test_joint_inf_matches_reference_sweep(seed):
    """The shared node sweep gives the old sweep's value at the start and
    traced pair; every layer is compared in
    ``test_node_sweep_matches_reference_sweep``."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    space = inst.space
    K = space.grid.terminal_index
    pinned_at = seed % K
    field2 = inst.fields[seed % 3].pin(seed % 3, pinned_at)
    starts = list(range(pinned_at, K + 1))
    _, rho, tau = reference_joint_inf_pair(space, field2, pinned_at)
    starts += [rho, tau]  # stopping-time starts
    for from_ in starts:
        res = joint_inf_pair(space, field2, from_)
        layers, *pair = reference_joint_inf_pair(space, field2, from_)
        at_start = tuple(layers[k][w] for w, k in enumerate(_start_indices(space, from_)))
        assert (res.value, res.rho, res.tau) == (at_start, *pair)
        atoms = stopped_atoms(space, from_)
        assert len(res.scaled) == len(atoms)
        for n, (_, block, w_b) in zip(res.scaled, atoms):
            assert type(n) is int and Fraction(n, field2.den * w_b) == at_start[block[0]]


@pytest.mark.parametrize("seed", range(6))
def test_node_sweep_cells_match_per_outcome_reads(seed):
    """Each node's lone-stop cells, scaled back to ``Fraction``, equal the
    per-outcome reads they replaced at the survivors' rules, for one shared
    field and for one field per slot; each rule is the Snell rule of the
    pinned slice."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    space = inst.space
    K = space.grid.terminal_index
    pinned_at = seed % K
    pairs = [f.pin(seed % 3, pinned_at) for f in inst.fields]
    for fields, directions, choose in (
        ((pairs[0],), ("inf", "inf"), _first_min),
        (tuple(pairs[1:]), ("sup", "sup"), _nash_cell),
    ):
        _, nodes = node_sweep(space, fields, directions, pinned_at, choose)
        for k in range(pinned_at, K):
            cells, rules, _ = nodes[k]
            reactions = []
            for i, f in enumerate((fields[-1], fields[0])):
                reactions.append(snell(space, as_layers(f.pin(i, k)), directions[i], k + 1))
                assert rules[i] == reactions[i].rule
            for j, f in enumerate(fields):
                lone = [block_rv(space, k, cell, f.den) for cell in cells[4 * j + 1 : 4 * j + 3]]
                assert lone == reference_lone_stop_cells(space, f, k, reactions)


@pytest.mark.parametrize("seed", range(3))
def test_node_sweep_reads_lone_stops_from_the_survivor_sweep(seed, monkeypatch):
    """A lone-stop cell on the survivor's own field is its Snell value at k+1,
    so one shared field takes no ``stop_sums`` call, and one field per slot
    takes one per node for each slot, on the other field."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    K = inst.space.grid.terminal_index
    pairs = [f.pin(seed % 3, 0) for f in inst.fields]
    real, calls = PayoffField.stop_sums, []

    def counting(field, stops, blocks):
        calls.append(field)
        return real(field, stops, blocks)

    monkeypatch.setattr(PayoffField, "stop_sums", counting)
    for fields, directions, choose, per_node in (
        ((pairs[0],), ("inf", "inf"), _first_min, []),
        (tuple(pairs[1:]), ("sup", "sup"), _nash_cell, [pairs[1], pairs[2]]),
    ):
        calls.clear()
        node_sweep(inst.space, fields, directions, 0, choose)
        assert len(calls) == len(per_node) * K
        assert all(f is g for f, g in zip(calls, per_node * K))


def sweep_cases(seed):
    """Pairs of two-slot fields, each with the first index a sweep of them
    may start at: a generated three-player game pinned at c, a generated
    two-player game, and a random adapted field and its negation pinned at c."""
    size = dict(n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    inst3 = generate_instance(seed, **size)
    c = seed % inst3.space.grid.terminal_index
    yield [f.pin(seed % 3, c) for f in inst3.fields[:2]], c
    yield list(generate_instance(seed, n_players=2, **size).fields), 0
    field = random_adapted_field(seed)
    c = seed % 3
    yield [field.pin(seed % 3, c), field.negated().pin((seed + 1) % 3, c)], c


@pytest.mark.parametrize("seed", range(6))
def test_node_sweep_matches_reference_sweep(seed, monkeypatch):
    """The integer sweep gives the ``Fraction`` sweep's choices and reaction
    rules, and its layers and cells scaled back to ``Fraction``, under == for
    every choose function and every start index; it solves no Snell sweep
    and takes no conditional expectation."""

    def forbidden(*args):
        raise AssertionError("node_sweep called a Fraction kernel")

    for fields, c in sweep_cases(seed):
        space = fields[0].space
        K = space.grid.terminal_index
        bid = space.block_id
        games = (
            ((fields[0],), ("inf", "inf"), _first_min),
            ((fields[1],), ("inf", "sup"), _maximin),
            (tuple(fields), ("sup", "sup"), _nash_cell),
        )
        for game in games:
            for kmin in range(c, K + 1):
                with monkeypatch.context() as mp:
                    mp.setattr(classic, "snell", forbidden)
                    mp.setattr(classic, "cond_exp", forbidden)
                    values, nodes = node_sweep(space, *game[:2], kmin, game[2])
                ref_values, ref_nodes = reference_node_sweep(space, *game[:2], kmin, game[2])
                dens = [f.den for f in game[0]]
                for j, den in enumerate(dens):
                    layers = [block_rv(space, k, values[j][k], den) for k in range(kmin, K + 1)]
                    assert layers == ref_values[j][kmin:]
                assert nodes[:kmin] == ref_nodes[:kmin]
                for k in range(kmin, K):
                    cells, rules, choice = nodes[k]
                    ref_cells, ref_reactions, ref_choice = ref_nodes[k]
                    assert rules == tuple(r.rule for r in ref_reactions)
                    assert tuple(choice[b] for b in bid[k]) == ref_choice
                    scaled = [block_rv(space, k, x, dens[i // 4]) for i, x in enumerate(cells)]
                    assert scaled == list(ref_cells)


def test_node_sweep_rejects_a_slice_not_adapted():
    """A both-stop slice or a survivor's payoff slice that varies on a block
    of its latest stop raises ValueError, from the sweep and its callers."""
    space = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0, 1),), ((0,), (1,))),
    )
    adapted = {ks: (Fraction(sum(ks)),) * 2 for ks in itertools.product(range(3), repeat=2)}
    for ks in ((0, 0), (0, 1), (1, 0)):
        values = dict(adapted)
        values[ks] = (Fraction(0), Fraction(1))
        field = PayoffField(space, 2, values)
        with pytest.raises(ValueError, match=re.escape(f"times {ks}")):
            node_sweep(space, (field,), ("inf", "inf"), 0, _first_min)
        with pytest.raises(ValueError):
            joint_inf_pair(space, field, 0)
        # a sweep from index 1 reads no slice with a time 0
        joint_inf_pair(space, field, 1)
    joint_inf_pair(space, PayoffField(space, 2, adapted), 0)


@pytest.mark.parametrize("seed", range(8))
def test_solo_stop_equals_snell_of_the_double_pin(seed):
    """The integer solo optimum of each slot from each index k, the other
    slots pinned at k, equals the ``Fraction`` Snell sweep of that process
    at k under ==, its value at k and its rule, in both directions, on
    random adapted three-slot fields."""
    field = random_adapted_field(seed)
    space = field.space
    for free in range(3):
        for direction in ("sup", "inf"):
            want = solo_solutions(space, field, free, direction)
            got = tuple(solo_stop(space, field, free, k, direction) for k in range(len(space.grid)))
            assert got == want


def scan_starts(space, rng):
    """Constant starts at 0, mid-grid and K, plus random stopping-time starts."""
    K = space.grid.terminal_index
    taus = list(enumerate_stopping_times(space, 0))
    return [0, K // 2, K, *rng.sample(taus, min(4, len(taus)))]


@pytest.mark.parametrize("seed", range(6))
def test_snell_rule_matches_reference_scan(seed):
    """The rule read by first_hit equals the old per-outcome scan, on random
    layers and on layers whose optimum is always the start (decreasing) or
    never before the horizon (increasing)."""
    rng = random.Random(400 + seed)
    space = random_space(rng, 3, 5)
    K = space.grid.terminal_index
    n = space.n_outcomes
    layer_sets = [
        [cond_exp(space, random_rv(rng, n), k) for k in range(K + 1)],
        [rv_const(space, -k) for k in range(K + 1)],
        [rv_const(space, k) for k in range(K + 1)],
    ]
    for layers in layer_sets:
        for start in scan_starts(space, rng):
            for direction in ("sup", "inf"):
                res = snell(space, layers, direction, start)
                assert res.rule == reference_snell_rule(space, res.value, layers, start)
    res = snell(space, layer_sets[2], "sup", 0)
    assert res.rule == constant_time(space, K)  # first holds at K
    res = snell(space, layer_sets[1], "sup", 1)
    assert res.rule == constant_time(space, 1)  # holds at the start


@pytest.mark.parametrize("seed", range(6))
def test_dynkin_hitting_pair_matches_reference_scan(seed):
    """Both hitting times equal the old loops (the unbounded maximizer loop
    and the minimizer loop with its post-loop branch) for an eps so small
    that most hits come only at K and one so large that they come at once."""
    rng = random.Random(500 + seed)
    space = random_space(rng, 3, 5)
    K = space.grid.terminal_index
    lo = [cond_exp(space, random_rv(rng, 3), k) for k in range(K + 1)]
    hi = spread_layers(space, rng, lo)
    for start in scan_starts(space, rng):
        mu = start if not isinstance(start, int) else constant_time(space, start)
        value = dynkin_value(space, lo, hi, mu)
        for eps in ("1/1000", "1/10", "1", "100"):
            got = dynkin_hitting_pair(space, value, lo, hi, eps, mu)
            assert got == reference_dynkin_hitting_pair(space, value, lo, hi, eps, mu)
        if start == K:
            assert got == (mu, mu)


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4)))


@settings(max_examples=300, **SETTINGS)
@given(data=st.data(), space=spaces())
def test_integer_duel_matches_reference_duel(data, space):
    """The integer duel against the per-outcome ``Fraction`` references under
    ==, on random adapted layers from stopping-time starts (layers before
    the earliest start index are None half the time): its value, both
    hitting times, the exit time (``first_within`` of the value against a
    committed-stop layer that is at least lower at the horizon) and the
    convention gap.  Upper is lower plus a gap that is sometimes negative,
    and a reachable lower > upper raises the reference's OrderViolation
    text."""
    K = space.grid.terminal_index

    def adapted(entries):
        return [
            fill_blocks(space, part, [data.draw(entries) for _ in part])
            for part in space.partitions
        ]

    def plus(x, y):
        return [tuple(map(operator.add, a, b)) for a, b in zip(x, y)]

    lower = adapted(small_rationals)
    gaps = (0, 0, 1, Fraction(1, 2), 3, *[-1] * (data.draw(st.integers(0, 3)) == 0))
    upper = plus(lower, adapted(st.sampled_from(gaps)))
    # a stopping time: one index at or after k0 per block of partitions[k0]
    k0 = data.draw(st.integers(0, K))
    stops = [data.draw(st.integers(k0, K)) for _ in space.partitions[k0]]
    start = StoppingTime(fill_blocks(space, space.partitions[k0], stops))
    eps = data.draw(st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 4, 12))))
    if data.draw(st.booleans()):
        kmin = min(start.idx)
        lower, upper = ([None] * kmin + x[kmin:] for x in (lower, upper))

    def answer(fn, *args):
        try:
            return fn(*args)
        except OrderViolation as exc:
            return str(exc)

    want = answer(reference_dynkin_value, space, lower, upper, start)
    value = answer(dynkin_value, space, lower, upper, start)
    if isinstance(want, str):
        assert value == want
        return
    assert tuple(value) == want
    pair = dynkin_hitting_pair(space, value, lower, upper, eps, start)
    assert pair == reference_dynkin_hitting_pair(space, want, lower, upper, eps, start)
    family = adapted(small_rationals)
    family[K] = tuple(map(max, family[K], lower[K]))  # value[K] = lower[K]: the exit hits at K
    exit_time = first_within(space, value, family, eps, start)
    assert exit_time == reference_exit_time(space, want, family, start, eps)
    gap = dynkin_convention_gap(space, value, lower, upper, start)
    assert gap == reference_dynkin_convention_gap(space, lower, upper, start)
