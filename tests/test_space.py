from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DENOMINATORS, SETTINGS, drawn_stopping_time, random_rv, random_space, spaces,
)
from oracles import (
    reference_at_stops,
    reference_cond_exp,
    reference_cond_exp_at,
    reference_dynkin_value,
    reference_index_at_or_after,
    reference_is_stopping_time,
    reference_on_path_value,
    reference_stopped_atoms,
)
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    cond_exp,
    cond_exp_at,
    constant_time,
    expectation,
    first_hit,
    is_stopping_time,
    make_grid,
    rat,
    stopped_atoms,
    validate_space,
)
from stopgame.verify import on_path_value


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("1/3") == Fraction(1, 3)
    assert rat("0.25") == Fraction(1, 4)


@pytest.mark.parametrize(
    "idx", [(1.9, 0), (Fraction(3, 2), "2"), (0, "1"), (Fraction(2), 0), (2.0,)],
    ids=["float", "fraction-and-str", "str", "integral-fraction", "integral-float"],
)
def test_stopping_time_rejects_non_integer_indices(idx):
    """A stopping time's indices are ints: a float, ``Fraction`` or str is a
    ``TypeError``, never truncated or parsed."""
    with pytest.raises(TypeError):
        StoppingTime(idx)


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


def relabelled_space(rng: random.Random, n: int, n_times: int) -> FilteredSpace:
    """``random_space`` with its outcomes shuffled and, half the time, its
    one-block first partition dropped, so that time 0 may already split."""
    drop = rng.random() < 0.5
    space = random_space(rng, n, n_times + drop)
    label = rng.sample(range(n), n)
    weights = [None] * n
    for w, v in enumerate(space.weights):
        weights[label[w]] = v
    partitions = tuple(
        tuple(tuple(label[w] for w in block) for block in part)
        for part in space.partitions[drop:]
    )
    relabelled = FilteredSpace(make_grid(range(n_times)), tuple(weights), partitions)
    assert validate_space(relabelled) == []
    return relabelled


def test_stopping_time_test_and_atoms_match_reference_scan():
    """On 60 valid spaces (up to 4 outcomes and 4 times), the check that reads
    only a start's own times answers as the full scan over every (time,
    block) pair on every index tuple in {-1..K+1}^n and on wrong lengths, and
    ``stopped_atoms`` gives the scan's atoms with their ``block_wnum``, for a
    stopping time and for a constant index, or raises its one text."""
    rng = random.Random(2020)
    checked = valid = 0
    for i in range(60):
        space = relabelled_space(rng, 1 + i % 4, 2 + i % 3)
        n, K = space.n_outcomes, space.grid.terminal_index
        wrong = [(0,) * (n - 1), (0,) * (n + 1), (K,) * (n + 1), ()]
        for idx in [*itertools.product(range(-1, K + 2), repeat=n), *wrong]:
            want = reference_is_stopping_time(space, idx)
            assert is_stopping_time(space, idx) == want
            checked += 1
            if not want:
                with pytest.raises(ValueError) as raised:
                    stopped_atoms(space, StoppingTime(idx))
                assert str(raised.value) == "conditioning requires a valid stopping time"
                continue
            valid += 1
            got = stopped_atoms(space, StoppingTime(idx))
            assert [(k, block) for k, block, _ in got] == reference_stopped_atoms(
                space, StoppingTime(idx)
            )
            for k, block, w_b in got:
                assert w_b == space.block_wnum[k][space.partitions[k].index(block)]
            if len(set(idx)) == 1:
                assert stopped_atoms(space, idx[0]) == got
    assert checked > 10000 and valid > 300


def test_first_hit_of_adapted_indicator(branching_space):
    space = branching_space
    rng = random.Random(5)
    layers = [
        cond_exp(space, random_rv(rng, 3, lo=0, hi=1, den=1), k)
        for k in range(len(space.grid))
    ]
    hit = first_hit(space, 0, lambda k, w: layers[k][w] == 1)
    assert is_stopping_time(space, hit.idx)


def test_first_hit_reads_from_the_start_up_to_the_terminal_index(branching_space):
    """The first k from each outcome's start with hit(k, w); the terminal
    index when no earlier k has it, without asking hit at the terminal index
    or before the start."""
    space = branching_space
    K = space.grid.terminal_index
    asked = []

    def hit_at(table):
        def hit(k, w):
            asked.append((k, w))
            return table[k][w]

        return hit

    never = [(False,) * 3] * (K + 1)
    assert first_hit(space, 0, hit_at(never)) == StoppingTime((K, K, K))
    assert sorted(set(asked)) == [(k, w) for k in range(K) for w in range(3)]
    asked.clear()
    assert first_hit(space, K, hit_at(never)) == StoppingTime((K, K, K))
    assert asked == []
    at_k = [(False,) * 3, (False, True, False), (True, True, False), (True,) * 3]
    assert first_hit(space, 0, hit_at(at_k)) == StoppingTime((2, 1, K))
    assert first_hit(space, 2, hit_at(at_k)) == StoppingTime((2, 2, K))
    asked.clear()
    start = StoppingTime((1, 2, 0))
    assert first_hit(space, start, hit_at(at_k)) == StoppingTime((2, 2, K))
    assert all(k >= start.idx[w] for k, w in asked)


@pytest.mark.parametrize("seed", range(4))
def test_index_at_or_after_matches_reference(seed):
    """The bisected index equals the linear scan it replaced: below the first
    point, on every point, between points and past the terminal point."""
    rng = random.Random(700 + seed)
    points = sorted(rng.sample(range(0, 60), rng.randint(2, 8)))
    grid = make_grid([Fraction(p, 3) for p in points])
    probes = [Fraction(t, 6) for t in range(-6, 2 * points[-1] + 12)]
    probes += [*grid.points, "1/7", 0]
    for t in probes:
        assert grid.index_at_or_after(t) == reference_index_at_or_after(grid, t)


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
    for _, members, _ in atoms:
        total = sum(space.weights[w] for w in members)
        avg = sum((space.weights[w] * x[w] for w in members), Fraction(0)) / total
        for w in members:
            assert got[w] == avg


def test_expectation(two_outcome_space):
    assert expectation(two_outcome_space, (Fraction(2), Fraction(0))) == 1


# The integer block kernel behind cond_exp and cond_exp_at against the
# ``Fraction`` code it replaced (``oracles.py``), compared with ==.

entries = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(DENOMINATORS)),
)


def exact_rv(got) -> bool:
    return all(type(v) is Fraction for v in got)


@settings(max_examples=100, **SETTINGS)
@given(space=spaces())
def test_children_are_the_finer_blocks_inside_each_block(space):
    """``children[k][B]``: the blocks of partitions[k+1] whose first outcome
    lies in B, in partition order, for every block B below the terminal index."""
    K = space.grid.terminal_index
    assert len(space.children) == K
    for k in range(K):
        assert space.children[k] == {
            block: tuple(c for c in space.partitions[k + 1] if c[0] in block)
            for block in space.partitions[k]
        }


@settings(max_examples=200, **SETTINGS)
@given(data=st.data(), space=spaces())
def test_cond_exp_matches_reference(data, space):
    x = tuple(data.draw(entries) for _ in range(space.n_outcomes))
    for k in range(len(space.grid)):
        got = cond_exp(space, x, k)
        assert got == reference_cond_exp(space, x, k) and exact_rv(got)
    theta = drawn_stopping_time(data.draw, space)
    got = cond_exp_at(space, x, theta)
    assert got == reference_cond_exp_at(space, x, theta) and exact_rv(got)


def test_cond_exp_matches_reference_on_ladder(ladder_run):
    """Every conditional expectation taken while generating and solving the
    ladder; every integer duel of the solves, each value layer below the
    horizon read back as ``Fraction``, against the reference duel, whose
    backward step averages with the reference ``cond_exp``; every payoff
    mean read there by ``PayoffField.stop_sums``, scaled back to
    ``Fraction`` per block, against the reference ``at_stops`` averaged by
    the reference ``cond_exp``; and the conforming value of every
    certificate made there, one field at a time, against the ``cond_exp_at``
    average it replaced."""
    for args, result in ladder_run["cond_exp"]:
        assert result == reference_cond_exp(*args) and exact_rv(result)
    samples = 0  # one per block value of a duel's backward step: a block average
    for (space, lower, upper, start), value in ladder_run["duel"]:
        want = reference_dynkin_value(space, lower, upper, start)
        assert tuple(value) == want and all(x is None or exact_rv(x) for x in value)
        samples += sum(map(len, space.partitions[min(start.idx) : -1]))
    assert samples >= 270
    sums = ladder_run["stop_sums"]
    assert len(sums) > 1000
    for (field, stops, blocks), result in sums:
        space = field.space
        at_stops = reference_at_stops(field, stops)
        assert len(result) == len(blocks)
        for block, n in zip(blocks, result):
            k = next(k for k, part in enumerate(space.partitions) if block in part)
            mean = Fraction(n, field.den * sum(space.wnum[w] for w in block))
            assert mean == reference_cond_exp(space, at_stops, k)[block[0]]
    samples = [
        (space, [field], profile, start)
        for (space, fields, profile, start, _), _, _ in ladder_run["certify"]
        for field in fields
    ]
    assert len(samples) > 1000
    for args in samples:
        [(values, got)] = on_path_value(*args)
        assert [(values, got)] == reference_on_path_value(*args) and exact_rv(got)
