from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_rv, random_space
from oracles import affine, value_at
from stopgame.errors import GuardExceeded
from stopgame.payoff import payoff_from_function
from stopgame.space import (
    StoppingTime,
    cond_exp,
    constant_time,
    expectation,
    is_stopping_time,
)
from stopgame.strategy import lift_constant3, lift_obstinate2
from stopgame.classic import snell
from stopgame.verify import (
    count_stopping_times,
    count_strategies2,
    enumerate_stopping_times,
    enumerate_strategies2,
    certify_nash,
    exact_best_response,
    nash_gap,
    on_path_value,
    resolve_profile,
)


def test_count_two_point(two_outcome_space):
    assert count_stopping_times(two_outcome_space, 0) == 2
    got = list(enumerate_stopping_times(two_outcome_space, 0))
    assert sorted(st.idx for st in got) == [(0, 0), (1, 1)]


def test_count_from_terminal(two_outcome_space):
    term = constant_time(two_outcome_space, 1)
    assert count_stopping_times(two_outcome_space, term) == 1


def test_count_matches_enumeration_on_random_spaces():
    rng = random.Random(73)
    for _ in range(10):
        space = random_space(rng, rng.randint(2, 4), rng.randint(3, 4))
        got = list(enumerate_stopping_times(space, 0))
        assert len(got) == count_stopping_times(space, 0)
        assert len({st.idx for st in got}) == len(got)
        for st in got:
            assert is_stopping_time(space, st.idx)


def test_enumeration_guard(two_outcome_space):
    with pytest.raises(GuardExceeded):
        list(enumerate_stopping_times(two_outcome_space, 0, cap=1))


def test_strategies2_count_and_validity(three_time_space):
    space = three_time_space
    strategies = list(enumerate_strategies2(space, 0))
    assert len(strategies) == count_strategies2(space, 0) == 20
    from stopgame.strategy import validate_strategy

    for s in strategies:
        assert validate_strategy(space, s) == []


def test_strategies2_degenerate_two_point(two_outcome_space):
    strategies = list(enumerate_strategies2(two_outcome_space, 0))
    # reactions are forced to the terminal point, so only initials vary
    assert len(strategies) == count_stopping_times(two_outcome_space, 0)


def test_best_response_constant_payoff(three_time_space):
    space = three_time_space
    field = payoff_from_function(space, 2, lambda ks, w: 7)
    other = lift_obstinate2(space, constant_time(space, 1))
    br = exact_best_response(space, field, [None, other], (0,), "max", 0)
    assert br.value_rv == tuple(Fraction(7) for _ in range(2))


def test_best_response_against_immediate_stopper_is_snell():
    rng = random.Random(79)
    for _ in range(6):
        space = random_space(rng, 3, 4)
        own = {k: cond_exp(space, random_rv(rng, 3), k) for k in range(4)}
        field = payoff_from_function(space, 2, lambda ks, w: own[ks[0]][w])
        other = lift_obstinate2(space, constant_time(space, 0))
        br = exact_best_response(space, field, [None, other], (0,), "max", 0)
        res = snell(space, [own[k] for k in range(4)], "sup", 0)
        assert expectation(space, br.value_rv) == expectation(space, res.value[0])


def test_best_response_equals_strategy_enumeration(three_time_space):
    space = three_time_space
    rng = random.Random(83)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    field = payoff_from_function(
        space, 2, lambda ks, w: base[max(ks)][w] + Fraction(ks[0] - ks[1], 2)
    )
    strategies = list(enumerate_strategies2(space, 0))
    for other in random.Random(5).sample(strategies, 6):
        br = exact_best_response(space, field, [None, other], (0,), "max", 0)
        best = None
        for mine in strategies:
            r_me, r_other = resolve_profile(space, [mine, other])
            pay = tuple(
                value_at(field, (r_me.idx[w], r_other.idx[w]), w) for w in range(2)
            )
            val = expectation(space, pay)
            best = val if best is None else max(best, val)
        assert expectation(space, br.value_rv) == best


def test_conformity_gap_zero(three_time_space):
    space = three_time_space
    rng = random.Random(89)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    field = payoff_from_function(space, 2, lambda ks, w: base[max(ks)][w])
    a = lift_obstinate2(space, constant_time(space, 1))
    b = lift_obstinate2(space, constant_time(space, 2))
    conforming = exact_best_response(space, field, [a, b], (), "max", 0)
    [(on_path, _)] = on_path_value(space, [field], [a, b], 0)
    assert conforming.values == on_path


def test_nash_gap_constant_three_player(three_time_space):
    space = three_time_space
    fields = [payoff_from_function(space, 3, lambda ks, w: i) for i in range(3)]
    profile = [lift_constant3(space, seat, 1) for seat in range(3)]
    gaps = nash_gap(space, fields, profile, 0)
    cert = certify_nash(space, fields, profile, 0, eps=1)
    assert list(cert.per_player_gaps) == gaps
    assert cert.worst_gap == 0


def test_gap_affine_equivariance(three_time_space):
    space = three_time_space
    rng = random.Random(97)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[0], 3) - Fraction(ks[1], 5)
    )
    profile = [lift_constant3(space, seat, min(seat, 2)) for seat in range(3)]
    gaps = nash_gap(space, [field] * 3, profile, 0)
    a, b = Fraction(7, 3), Fraction(-2, 9)
    scaled = affine(field, a, b)
    gaps_scaled = nash_gap(space, [scaled] * 3, profile, 0)
    for g, gs in zip(gaps, gaps_scaled):
        for atom in g:
            assert gs[atom] == a * g[atom]


def test_deviator_can_match_simultaneous_stops(three_time_space):
    """The best response may stop exactly when a fixed opponent stops."""
    space = three_time_space
    # payoff 1 exactly when both stop at the opponent's (random) stop time
    opp_stop = (1, 2)

    def fn(ks, w):
        return 1 if ks[0] == ks[1] == opp_stop[w] else 0

    field = payoff_from_function(space, 2, fn)
    other = lift_obstinate2(space, StoppingTime(opp_stop))
    br = exact_best_response(space, field, [None, other], (0,), "max", 0)
    assert expectation(space, br.value_rv) == 1


def test_three_player_br_equals_strategy_enumeration(three_time_space):
    """The augmented-state DP meets exhaustive order-3 deviation search."""
    from test_strategy import all_order3
    from stopgame.strategy import resolve3

    space = three_time_space
    rng = random.Random(307)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    field = payoff_from_function(
        space,
        3,
        lambda ks, w: base[max(ks)][w] + Fraction(2 * ks[0] - ks[1] - ks[2], 6),
    )
    build = all_order3(space)
    pools = build(0), build(1), build(2)
    deviations = pools[0]
    for _ in range(3):
        fixed1 = rng.choice(pools[1])
        fixed2 = rng.choice(pools[2])
        br = exact_best_response(
            space, field, [None, fixed1, fixed2], (0,), "max", 0
        )
        best = None
        for mine in deviations:
            times = resolve3(space, mine, fixed1, fixed2)
            pay = tuple(
                value_at(field, tuple(t.idx[w] for t in times), w) for w in range(2)
            )
            val = expectation(space, pay)
            best = val if best is None else max(best, val)
        assert expectation(space, br.value_rv) == best


def test_coalition_br_equals_joint_enumeration(three_time_space):
    """Joint coalition minimization equals exhaustive pair search exactly."""
    from test_strategy import all_order3
    from stopgame.strategy import resolve3

    space = three_time_space
    rng = random.Random(311)
    base = {k: cond_exp(space, random_rv(rng, 2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[0] - 2 * ks[1], 5)
    )
    build = all_order3(space)
    pools = build(0), build(1), build(2)
    fixed0 = rng.choice(pools[0])
    br = exact_best_response(space, field, [fixed0, None, None], (1, 2), "min", 0)
    best = None
    for s1 in pools[1]:
        for s2 in pools[2]:
            times = resolve3(space, fixed0, s1, s2)
            pay = tuple(
                value_at(field, tuple(t.idx[w] for t in times), w) for w in range(2)
            )
            val = expectation(space, pay)
            best = val if best is None else min(best, val)
    assert expectation(space, br.value_rv) == best
