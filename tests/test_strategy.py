from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from oracles import (
    closed_form_resolve2,
    closed_form_resolve3,
    reference_oracle_committed_index,
    reference_resolve2,
    reference_resolve3,
    reference_validate_strategy,
)
from stopgame.space import StoppingTime, constant_time, is_stopping_time, phi_h
from stopgame.strategy import (
    StrategyOrder2,
    StrategyOrder3,
    committed_time,
    dense_strategy3,
    lift_constant3,
    lift_obstinate2,
    patch_pair,
    resolve2,
    resolve3,
    validate_strategy,
)
from stopgame.verify import enumerate_stopping_times, enumerate_strategies2


def all_order3(space):
    """Exhaustive order-3 strategies for one seat on a tiny space."""
    K = space.grid.terminal_index
    inits = list(enumerate_stopping_times(space, 0))
    react_tables = []
    for s in range(K):
        react_tables.append(list(enumerate_stopping_times(space, constant_time(space, s + 1))))
    react_tables.append([constant_time(space, K)])
    per_obs = [list(x) for x in react_tables]
    solo_choices = list(itertools.product(*per_obs))
    pair_keys = [(a, b) for a in range(K + 1) for b in range(K + 1)]
    pair_options = []
    for (a, b) in pair_keys:
        m = max(a, b)
        if m < K:
            pair_options.append(list(enumerate_stopping_times(space, constant_time(space, m + 1))))
        else:
            pair_options.append([constant_time(space, K)])

    def build(seat):
        lo, hi = sorted(q for q in (0, 1, 2) if q != seat)
        out = []
        for init in inits:
            for ra in solo_choices:
                for rb in solo_choices:
                    for pair_vals in itertools.product(*pair_options):
                        out.append(
                            StrategyOrder3(
                                seat=seat,
                                initial=init,
                                react_one={lo: tuple(ra), hi: tuple(rb)},
                                react_two=dict(zip(pair_keys, pair_vals)),
                            )
                        )
        return out

    return build


def test_validate_obstinate_lift(three_time_space):
    tau = StoppingTime((1, 2))
    assert is_stopping_time(three_time_space, tau.idx)
    s = lift_obstinate2(three_time_space, tau)
    assert validate_strategy(three_time_space, s) == []


def test_validate_non_strict_reaction(three_time_space):
    bad = StrategyOrder2(
        initial=constant_time(three_time_space, 0),
        react=(
            constant_time(three_time_space, 0),  # not strictly later
            constant_time(three_time_space, 2),
            constant_time(three_time_space, 2),
        ),
    )
    problems = validate_strategy(three_time_space, bad)
    assert any("strictly after" in p for p in problems)


def test_validate_react_two_before_max(three_time_space):
    s = lift_constant3(three_time_space, 0, 1)
    bad_two = dict(s.react_two)
    bad_two[(1, 1)] = constant_time(three_time_space, 1)
    bad = StrategyOrder3(
        seat=0, initial=s.initial, react_one=s.react_one, react_two=bad_two
    )
    problems = validate_strategy(three_time_space, bad)
    assert any("strictly after" in p for p in problems)


def _mutations(rng, space, strat):
    """``strat`` and copies with random damage: an entry replaced by an
    arbitrary index tuple (out of range, not a stopping time or not strictly
    later), a table cut short, an observation pair or a solo table dropped."""
    K, n = space.grid.terminal_index, space.n_outcomes

    def any_time():
        return StoppingTime(tuple(rng.randint(-1, K + 1) for _ in range(n)))

    yield strat
    yield dataclasses.replace(strat, initial=any_time())
    if isinstance(strat, StrategyOrder2):
        for _ in range(4):
            react = list(strat.react)
            for s in rng.sample(range(K + 1), rng.randint(1, K + 1)):
                react[s] = any_time()
            yield dataclasses.replace(strat, react=tuple(react))
        yield dataclasses.replace(strat, react=strat.react[:-1])
        return
    for _ in range(4):
        react_one = dict(strat.react_one)
        q = rng.choice(sorted(react_one))
        table = list(react_one[q])
        table[rng.randint(0, K)] = any_time()
        react_one[q] = tuple(table)
        react_two = dict(strat.react_two)
        for key in rng.sample(sorted(react_two), 3):
            react_two[key] = any_time()
        yield dataclasses.replace(strat, react_one=react_one, react_two=react_two)
    q = min(strat.react_one)
    yield dataclasses.replace(strat, react_one={**strat.react_one, q: strat.react_one[q][:-1]})
    yield dataclasses.replace(strat, react_one={q: strat.react_one[q]})
    react_two = dict(strat.react_two)
    del react_two[(0, K)]
    yield dataclasses.replace(strat, react_two=react_two)


def test_validate_strategy_matches_reference_on_enumerated_and_mutated_profiles(
    three_time_space, branching_space
):
    """The problem lists, in order and text, equal the per-entry reference on
    every enumerated two-player strategy, on random three-player ones, and on
    mutations of both."""
    rng = random.Random(53)
    checked = 0
    for space in (three_time_space, branching_space):
        K = space.grid.terminal_index
        inits = list(enumerate_stopping_times(space, 0))
        later = [
            list(enumerate_stopping_times(space, constant_time(space, min(s + 1, K))))
            for s in range(K + 1)
        ]
        pool = list(itertools.islice(enumerate_strategies2(space, 0), 400))
        pool += [
            dense_strategy3(
                space,
                seat,
                rng.choice(inits),
                lambda q, s: rng.choice(later[s]),
                lambda a, b: rng.choice(later[max(a, b)]),
            )
            for seat in (0, 1, 2)
            for _ in range(20)
        ]
        for strat in pool:
            for mutated in _mutations(rng, space, strat):
                problems = validate_strategy(space, mutated)
                assert problems == reference_validate_strategy(space, mutated)
                checked += bool(problems)
    assert checked > 1000


def test_resolve2_leader_follower(three_time_space):
    space = three_time_space
    a = StrategyOrder2(
        initial=constant_time(space, 0),
        react=(constant_time(space, 2),) * 3,
    )
    b = StrategyOrder2(
        initial=constant_time(space, 1),
        react=(
            StoppingTime((1, 2)),
            constant_time(space, 2),
            constant_time(space, 2),
        ),
    )
    ra, rb = resolve2(space, a, b)
    assert ra.idx == (0, 0)
    assert rb.idx == (1, 2)  # b.react[0]


def test_resolve2_tie(three_time_space):
    a = StrategyOrder2(
        initial=constant_time(three_time_space, 1),
        react=(constant_time(three_time_space, 2),) * 3,
    )
    ra, rb = resolve2(three_time_space, a, a)
    assert ra.idx == rb.idx == (1, 1)


def test_resolve2_matches_closed_form_exhaustively(three_time_space):
    space = three_time_space
    strategies = list(enumerate_strategies2(space, 0))
    for a in strategies:
        for b in strategies:
            ra, rb = resolve2(space, a, b)
            for w in range(space.n_outcomes):
                assert (ra.idx[w], rb.idx[w]) == closed_form_resolve2(a, b, w)


def test_obstinate_round_trip_exhaustive(three_time_space):
    space = three_time_space
    taus = list(enumerate_stopping_times(space, 0))
    for t1 in taus:
        for t2 in taus:
            ra, rb = resolve2(space, lift_obstinate2(space, t1), lift_obstinate2(space, t2))
            assert ra == t1
            assert rb == t2


def test_obstinate_ignores_earlier_stop(three_time_space):
    space = three_time_space
    s = lift_obstinate2(space, constant_time(space, 1))
    opp = StrategyOrder2(
        initial=constant_time(space, 0), react=(constant_time(space, 2),) * 3
    )
    rs, _ = resolve2(space, s, opp)
    assert rs.idx == (1, 1)


def test_lift_constant3(three_time_space):
    space = three_time_space
    s0 = lift_constant3(space, 0, 0)
    s1 = lift_constant3(space, 1, 1)
    s2 = lift_constant3(space, 2, 2)
    assert validate_strategy(space, s0) == []
    r0, r1, r2 = resolve3(space, s0, s1, s2)
    assert r0.idx == (0, 0)
    # others saw the stop at 0 and switched to never
    assert r1.idx == (2, 2)
    assert r2.idx == (2, 2)


def test_resolve3_tied_pair(three_time_space):
    space = three_time_space
    s0 = lift_constant3(space, 0, 2)
    rt = dict(s0.react_two)
    rt[(1, 1)] = constant_time(space, 2)
    s0 = StrategyOrder3(seat=0, initial=constant_time(space, 2), react_one=s0.react_one, react_two=rt)
    s1 = lift_constant3(space, 1, 1)
    s2 = lift_constant3(space, 2, 1)
    r0, r1, r2 = resolve3(space, s0, s1, s2)
    assert r1.idx == (1, 1) and r2.idx == (1, 1)
    assert r0.idx == (2, 2)  # react_two[(1,1)]


def test_resolve3_all_equal(three_time_space):
    space = three_time_space
    strats = [lift_constant3(space, seat, 1) for seat in range(3)]
    for r in resolve3(space, *strats):
        assert r.idx == (1, 1)


def test_resolve3_matches_closed_form_exhaustive_deterministic():
    """One-outcome space: the full strategy cube against the case table."""
    from stopgame.space import FilteredSpace, make_grid

    space = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1),),
        partitions=(((0,),), ((0,),), ((0,),)),
    )
    build = all_order3(space)
    strategies = build(0), build(1), build(2)
    for s0 in strategies[0]:
        for s1 in strategies[1]:
            for s2 in strategies[2]:
                got = resolve3(space, s0, s1, s2)
                want = closed_form_resolve3(s0, s1, s2, 0)
                assert tuple(r.idx[0] for r in got) == want


def test_resolve3_matches_closed_form_random_branching(three_time_space):
    space = three_time_space
    build = all_order3(space)
    pools = build(0), build(1), build(2)
    rng = random.Random(31)
    for _ in range(1500):
        s0, s1, s2 = (rng.choice(pool) for pool in pools)
        got = resolve3(space, s0, s1, s2)
        for w in range(space.n_outcomes):
            assert tuple(r.idx[w] for r in got) == closed_form_resolve3(s0, s1, s2, w)


def test_resolved_times_are_stopping_times(three_time_space):
    space = three_time_space
    build = all_order3(space)
    pools = build(0), build(1), build(2)
    rng = random.Random(37)
    for _ in range(300):
        s0, s1, s2 = (rng.choice(pool) for pool in pools)
        for r in resolve3(space, s0, s1, s2):
            assert is_stopping_time(space, r.idx)


def test_phi_h():
    assert phi_h("9/10", "1/2") == Fraction(1)
    assert phi_h(1, "1/2") == Fraction(3, 2)
    assert phi_h(0, "1/4") == Fraction(1, 4)
    with pytest.raises(ValueError):
        phi_h(1, 0)


def test_patch_pair_identities_exhaustive(three_time_space):
    """Resolutions against anchored opponents cannot tell patched from raw."""
    space = three_time_space
    anchor = 1
    anchored = list(enumerate_strategies2(space, constant_time(space, anchor)))
    rng = random.Random(41)
    base_pairs = [(rng.choice(anchored), rng.choice(anchored)) for _ in range(12)]
    for star_a, star_b in base_pairs:
        hat_a, hat_b = patch_pair(space, (star_a, star_b), anchor)
        assert validate_strategy(space, hat_a) == []
        assert validate_strategy(space, hat_b) == []
        for other in anchored:
            assert resolve2(space, hat_a, other) == resolve2(space, star_a, other)
            assert resolve2(space, other, hat_a) == resolve2(space, other, star_a)
            assert resolve2(space, hat_b, other) == resolve2(space, star_b, other)
            assert resolve2(space, other, hat_b) == resolve2(space, other, star_b)


def test_patch_pair_redirects_early_observations(three_time_space):
    space = three_time_space
    star = StrategyOrder2(
        initial=constant_time(space, 1),
        react=(
            constant_time(space, 2),
            StoppingTime((2, 2)),
            constant_time(space, 2),
        ),
    )
    hat, _ = patch_pair(space, (star, star), 1)
    # initial equals the anchor, so an early observation redirects to stopping
    # at the anchor itself
    assert hat.react[0].idx == (1, 1)
    assert hat.react[1] is star.react[1]


def assert_committed_time_matches_reference(space, strategies):
    """``committed_time`` at each outcome against the oracle's old lookup,
    for every seat and every status of the others (-1 while a seat has not
    stopped)."""
    K = space.grid.terminal_index
    for seat, strat in enumerate(strategies):
        others = [q for q in range(len(strategies)) if q != seat]
        for seen in itertools.product(range(-1, K + 1), repeat=len(others)):
            status = [-1] * len(strategies)
            for q, s in zip(others, seen):
                status[q] = s
            stops = {q: s for q, s in zip(others, seen) if s >= 0}
            for w in range(space.n_outcomes):
                assert committed_time(strat, stops).idx[w] == (
                    reference_oracle_committed_index(strat, seat, tuple(status), w)
                )


def test_resolve2_matches_reference_on_every_pair(three_time_space):
    space = three_time_space
    strategies = list(enumerate_strategies2(space, 0))
    for a in strategies:
        for b in strategies:
            assert resolve2(space, a, b) == reference_resolve2(space, a, b)
    for a, b in zip(strategies, strategies[::-1]):
        assert_committed_time_matches_reference(space, (a, b))


def test_resolve3_matches_reference_on_random_triples(branching_space):
    """Random valid triples on a four-time space, where a two-stop table is
    not symmetric in its key."""
    space = branching_space
    K = space.grid.terminal_index
    inits = list(enumerate_stopping_times(space, 0))
    later = [
        list(enumerate_stopping_times(space, constant_time(space, min(s + 1, K))))
        for s in range(K + 1)
    ]
    rng = random.Random(43)

    def draw(seat):
        return dense_strategy3(
            space,
            seat,
            rng.choice(inits),
            lambda q, s: rng.choice(later[s]),
            lambda a, b: rng.choice(later[max(a, b)]),
        )

    for _ in range(200):
        triple = tuple(draw(seat) for seat in range(3))
        assert resolve3(space, *triple) == reference_resolve3(space, *triple)
        assert_committed_time_matches_reference(space, triple)


def test_resolve3_keeps_its_seat_check(three_time_space):
    space = three_time_space
    s0, s1, s2 = (lift_constant3(space, seat, 1) for seat in range(3))
    with pytest.raises(ValueError):
        resolve3(space, s1, s0, s2)


def test_resolution_matches_reference_on_solved_profiles(ladder_run):
    """Every profile the oracle measured while solving the ladder: the
    three-player profiles and the two-player pairs of every family."""
    seen = set()
    for args, _, _ in ladder_run["oracle"]:
        space, _, strategies = args[:3]
        if id(strategies) in seen or None in strategies:
            continue
        seen.add(id(strategies))
        if len(strategies) == 2:
            assert resolve2(space, *strategies) == reference_resolve2(space, *strategies)
        else:
            assert resolve3(space, *strategies) == reference_resolve3(space, *strategies)
        assert_committed_time_matches_reference(space, strategies)
    assert len(seen) > 12


def test_dense_strategy3_never_asks_at_the_terminal_index(three_time_space):
    space = three_time_space
    K = space.grid.terminal_index
    asked = []

    def one(q, s):
        asked.append(("one", q, s))
        return constant_time(space, s + 1)

    def two(a, b):
        asked.append(("two", a, b))
        return constant_time(space, max(a, b) + 1)

    strat = dense_strategy3(space, 1, constant_time(space, 0), one, two)
    assert sorted(asked) == sorted(
        [("one", q, s) for q in (0, 2) for s in range(K)]
        + [("two", a, b) for a in range(K) for b in range(K)]
    )
    assert validate_strategy(space, strat) == []
    terminal = constant_time(space, K)
    for q in (0, 2):
        assert strat.react_one[q] == tuple(one(q, s) for s in range(K)) + (terminal,)
    for (a, b), st in strat.react_two.items():
        assert st == (terminal if max(a, b) == K else two(a, b))
