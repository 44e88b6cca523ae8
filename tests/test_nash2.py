from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_rv
from stopgame.classic import joint_inf_pair
from stopgame.errors import NonGridResult
from stopgame.nash2 import (
    build_pair_family,
    build_coop_family,
    build_single_family,
    family_lookup,
    family_multiples,
    solve_2p_nash,
)
from stopgame.payoff import payoff_from_function
from stopgame.space import cond_exp
from stopgame.strategy import validate_strategy
from stopgame.verify import on_path_value


def test_constant_payoffs_gap_zero(three_time_space):
    space = three_time_space
    fa = payoff_from_function(space, 2, lambda ks, w: 1)
    fb = payoff_from_function(space, 2, lambda ks, w: 2)
    res = solve_2p_nash(space, fa, fb, 0, "1/10")
    assert res.gap == 0
    assert not res.fallback_used
    for s in res.strategies:
        assert validate_strategy(space, s) == []


def test_coordination_reaches_joint_optimum(three_time_space):
    """Identical payoffs: the certified pair should attain the joint supremum."""
    space = three_time_space
    rng = random.Random(113)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=3), k) for k in range(3)}

    def fn(ks, w):
        return base[max(ks)][w] + Fraction(ks[0] + ks[1], 7)

    field = payoff_from_function(space, 2, fn)
    res = solve_2p_nash(space, field, field, 0, "1/10")
    assert res.gap <= Fraction(1, 10)
    joint_sup = joint_inf_pair(space, field.negated(), 0)
    best = tuple(-v for v in joint_sup.value[0])
    path, _ = on_path_value(space, field, list(res.strategies), 0)
    ((_, atom_val),) = path.items()
    assert best[0] - atom_val <= Fraction(1, 10)


def test_random_games_certify(three_time_space):
    space = three_time_space
    rng = random.Random(127)
    eps = Fraction(1, 2)
    for _ in range(8):
        ba = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
        bb = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
        fa = payoff_from_function(
            space, 2, lambda ks, w: ba[max(ks)][w] + Fraction(ks[0] - ks[1], 6)
        )
        fb = payoff_from_function(
            space, 2, lambda ks, w: bb[max(ks)][w] + Fraction(ks[1] - ks[0], 6)
        )
        res = solve_2p_nash(space, fa, fb, 0, eps)
        assert res.gap <= eps  # fallback guarantees the best enumerable pair
        for s in res.strategies:
            assert validate_strategy(space, s) == []


def test_family_multiples(three_time_space):
    assert family_multiples(three_time_space, 1) == [1, 2]
    assert family_multiples(three_time_space, 2) == [2]


def flat_3field(space, shift=0):
    return payoff_from_function(space, 3, lambda ks, w: shift)


def test_pair_family_constant(three_time_space):
    space = three_time_space
    fam = build_pair_family(space, (flat_3field(space), flat_3field(space, 1)), 0, 1, "1/10")
    assert fam.kind == "nonzero_sum_pair"
    assert set(fam.entries) == {1, 2}
    for entry in fam.entries.values():
        assert entry.achieved == 0
        assert entry.tolerance == Fraction(11, 10)


def test_family_lookup_windows(three_time_space):
    space = three_time_space
    fam = build_pair_family(space, (flat_3field(space), flat_3field(space)), 0, 1, "1/10")
    # exactly at a multiple: strictly later entry
    assert family_lookup(fam, 1).g == 2
    assert family_lookup(fam, 0).g == 1
    assert family_lookup(fam, Fraction(1, 2)).g == 1
    with pytest.raises(NonGridResult):
        family_lookup(fam, 2)  # beyond the last needed multiple


def test_pair_family_window_certificates(three_time_space):
    space = three_time_space
    rng = random.Random(131)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}

    def mk(sign):
        return payoff_from_function(
            space,
            3,
            lambda ks, w: base[max(ks)][w] + sign * Fraction(ks[1] - ks[2], 8),
        )

    eps = Fraction(1, 2)
    fam = build_pair_family(space, (mk(1), mk(-1)), 0, 1, eps)
    for entry in fam.entries.values():
        assert entry.achieved <= entry.tolerance == 11 * eps
        for s in entry.payload:
            assert validate_strategy(space, s) == []


def test_coop_family_windows(three_time_space):
    space = three_time_space
    rng = random.Random(137)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[1] + ks[2], 9)
    )
    eps = Fraction(1, 2)
    fam = build_coop_family(space, field, 0, 1, eps)
    assert fam.kind == "coop_pair"
    for entry in fam.entries.values():
        assert entry.achieved <= entry.tolerance == 5 * eps


def test_single_family_tracks_snell(three_time_space):
    """Window bound eps only binds when eta(h) < eps actually holds."""
    space = three_time_space
    rng = random.Random(139)
    base = {
        k: tuple(x / 8 for x in cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k))
        for k in range(3)
    }
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[0], 11)
    )
    from stopgame.payoff import estimate_modulus, select_h

    eps = Fraction(1, 2)
    h = select_h(estimate_modulus(field), eps, space.grid)
    for direction in ("inf", "sup"):
        fam = build_single_family(space, field, 0, direction, h, eps)
        assert fam.kind == "single"
        for entry in fam.entries.values():
            assert entry.achieved <= entry.tolerance == eps
