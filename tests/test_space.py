from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_rv, random_space
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    cond_exp,
    cond_exp_at,
    constant_time,
    expectation,
    is_stopping_time,
    make_grid,
    rat,
    stopped_atoms,
    validate_space,
)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("1/3") == Fraction(1, 3)
    assert rat("0.25") == Fraction(1, 4)


def test_grid_invariants():
    with pytest.raises(ValueError):
        make_grid([0])
    with pytest.raises(ValueError):
        make_grid([0, 0])
    with pytest.raises(ValueError):
        make_grid([-1, 0])
    g = make_grid([0, "1/4", 1])
    assert g.terminal == 1
    assert g.min_step == Fraction(1, 4)
    assert g.index("1/4") == 1


def test_validate_space_canonical(two_outcome_space):
    assert validate_space(two_outcome_space) == []


def test_validate_space_normalization():
    bad = FilteredSpace(
        grid=make_grid([0, 1]),
        weights=("3/5", "3/5"),
        partitions=(((0, 1),), ((0,), (1,))),
    )
    assert any("sum" in p for p in validate_space(bad))


def test_validate_space_refinement():
    bad = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=("1/2", "1/2"),
        partitions=(((0,), (1,)), ((0, 1),), ((0,), (1,))),
    )
    assert any("refine" in p for p in validate_space(bad))


def test_validate_space_terminal_separation():
    bad = FilteredSpace(
        grid=make_grid([0, 1]),
        weights=("1/2", "1/2"),
        partitions=(((0, 1),), ((0, 1),)),
    )
    assert any("terminal" in p for p in validate_space(bad))


def test_cond_exp_constant(two_outcome_space):
    x = (Fraction(3), Fraction(3))
    assert cond_exp(two_outcome_space, x, 0) == x
    assert cond_exp(two_outcome_space, x, 1) == x


def test_cond_exp_plain_average(two_outcome_space):
    x = (Fraction(2), Fraction(0))
    assert cond_exp(two_outcome_space, x, 0) == (Fraction(1), Fraction(1))
    assert cond_exp(two_outcome_space, x, 1) == x


def test_tower_property_random_spaces():
    rng = random.Random(7)
    for _ in range(20):
        space = random_space(rng, rng.randint(2, 5), rng.randint(3, 5))
        x = random_rv(rng, space.n_outcomes)
        for k in range(len(space.grid) - 1):
            inner = cond_exp(space, x, k + 1)
            assert cond_exp(space, inner, k) == cond_exp(space, x, k)


def test_cond_exp_linear_monotone():
    rng = random.Random(11)
    for _ in range(10):
        space = random_space(rng, 4, 4)
        x = random_rv(rng, 4)
        y = random_rv(rng, 4)
        for k in range(len(space.grid)):
            ex = cond_exp(space, x, k)
            ey = cond_exp(space, y, k)
            both = cond_exp(space, tuple(a + b for a, b in zip(x, y)), k)
            assert both == tuple(a + b for a, b in zip(ex, ey))
        lo = tuple(min(a, b) for a, b in zip(x, y))
        for k in range(len(space.grid)):
            assert all(
                l <= a
                for l, a in zip(cond_exp(space, lo, k), cond_exp(space, x, k))
            )


def test_cond_exp_terminal_is_identity():
    rng = random.Random(3)
    space = random_space(rng, 4, 4)
    x = random_rv(rng, 4)
    assert cond_exp(space, x, len(space.grid) - 1) == x


def test_is_stopping_time(two_outcome_space):
    assert is_stopping_time(two_outcome_space, (0, 0))
    assert is_stopping_time(two_outcome_space, (1, 1))
    assert not is_stopping_time(two_outcome_space, (0, 1))
    assert not is_stopping_time(two_outcome_space, (1, 0))


def test_first_hit_of_adapted_indicator(branching_space):
    space = branching_space
    rng = random.Random(5)
    layers = [
        cond_exp(space, random_rv(rng, 3, lo=0, hi=1, den=1), k)
        for k in range(len(space.grid))
    ]
    K = space.grid.terminal_index
    hit = []
    for w in range(space.n_outcomes):
        k = 0
        while k < K and layers[k][w] != 1:
            k += 1
        hit.append(k)
    assert is_stopping_time(space, tuple(hit))


def test_cond_exp_at_constant_times(three_time_space):
    space = three_time_space
    x = (Fraction(4), Fraction(-2))
    theta0 = constant_time(space, 0)
    assert cond_exp_at(space, x, theta0) == cond_exp(space, x, 0)
    theta_term = constant_time(space, 2)
    assert cond_exp_at(space, x, theta_term) == x


def test_cond_exp_at_atom_oracle(branching_space):
    space = branching_space
    theta = StoppingTime((1, 1, 2))
    assert is_stopping_time(space, theta.idx)
    x = (Fraction(6), Fraction(0), Fraction(3))
    got = cond_exp_at(space, x, theta)
    atoms = stopped_atoms(space, theta)
    for _, members in atoms:
        total = sum(space.weights[w] for w in members)
        avg = sum((space.weights[w] * x[w] for w in members), Fraction(0)) / total
        for w in members:
            assert got[w] == avg


def test_expectation(two_outcome_space):
    assert expectation(two_outcome_space, (Fraction(2), Fraction(0))) == 1
