from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SETTINGS, random_rv, random_space, solo_solutions
from oracles import (
    reference_coop_gap,
    reference_dynkin_hitting_pair,
    reference_dynkin_value,
    reference_exit_time,
    reference_family_value,
    reference_joint_inf_pair,
    reference_node_tables,
    reference_one_field_on_path_value,
    reference_pair_component,
    reference_partition_ABC,
    reference_process,
    reference_select_delta,
    reference_single_gap,
)
from stopgame.classic import block_rv, joint_inf_value, snell, solo_stop
from stopgame.cli import main as cli_main
from stopgame.config import ENV_OVERRIDE
from stopgame.errors import NoValidDelta, StopGameError, WindowCertificationFailed
from stopgame.gamefile import GameDoc, emit_game
from stopgame.generator import generate_instance
from stopgame import classic, coalition, nash2, nash3, verify
from stopgame import space as space_module
from stopgame.nash2 import family_lookup
from stopgame.nash3 import (
    PlayerProcesses,
    build_overline_families,
    build_player_processes,
    certify_nash,
    first_exit_seats,
    partition_ABC,
    resolve_overline,
    select_delta,
    shift_time,
    solve_three_player,
)
from stopgame.nash2 import stop_now_solutions
from stopgame.payoff import PayoffField, payoff_from_function
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    TimeGrid,
    cond_exp,
    constant_time,
    is_stopping_time,
    make_grid,
    rat,
)
from stopgame.strategy import lift_constant3, resolve2
from stopgame.verify import enumerate_stopping_times, on_path_value, resolve_profile
from stopgame.zerosum import ReactionGameSpec


def urgency_space():
    return FilteredSpace(
        grid=make_grid(["0", "1/10", "1/5", "3/10"]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )


def urgency_fields(space, urgencies):
    pts = space.grid.points

    def mk(i):
        def fn(ks, w):
            own = pts[ks[i]]
            others = sum(pts[k] for j, k in enumerate(ks) if j != i)
            return Fraction(1, 2) + urgencies[i] * own - Fraction(1, 5) * others

        return payoff_from_function(space, 3, fn)

    return [mk(i) for i in range(3)]


def test_constant_payoffs():
    inst = generate_instance(1)
    space = inst.space
    fields = [payoff_from_function(space, 3, lambda ks, w: "1/3")] * 3
    sol = solve_three_player(space, fields, eps="1/20", h=space.grid.min_step)
    assert sol.certificate.worst_gap == 0
    for s in range(3):
        pp = sol.context.players[s]
        assert pp.exit_time == constant_time(space, 0)
        K = space.grid.terminal_index
        for k in range(K + 1):
            assert pp.stop_exact[k] == pp.stop_family[k]
            assert set(pp.rival_floor[k]) == {Fraction(1, 3) + Fraction(1, 20)}


def test_own_time_only_payoff():
    """When a player's payoff ignores the rivals, the family evaluation of
    stopping now coincides with the exact one."""
    inst = generate_instance(2)
    space = inst.space
    pts = space.grid.points
    fields = [
        payoff_from_function(space, 3, lambda ks, w, i=i: Fraction(1, 2) + pts[ks[i]])
        for i in range(3)
    ]
    h = space.grid.min_step
    overline = build_overline_families(space, fields, h, "1/20")
    pp = build_player_processes(
        space, fields, 0, constant_time(space, 0), "1/20", resolve_overline(space, overline),
        stop_now_solutions(space, fields[0], 0),
    )
    K = space.grid.terminal_index
    for k in range(K + 1):
        assert pp.stop_exact[k] == pp.stop_family[k]
        assert pp.stop_exact[k] == tuple([Fraction(1, 2) + pts[k]] * space.n_outcomes)


def test_ordering_on_random_instances():
    # the builders abort on a violation; run them over a spread of seeds
    for seed in range(1, 26):
        inst = generate_instance(
            seed, n_outcomes=2 + seed % 2, n_times=3 + seed % 2
        )
        h = inst.space.grid.min_step
        overline = build_overline_families(inst.space, inst.fields, h, inst.epsilon)
        theta = constant_time(inst.space, 0)
        for seat in range(3):
            pp = build_player_processes(
                inst.space, inst.fields, seat, theta, inst.epsilon,
                resolve_overline(inst.space, overline),
                stop_now_solutions(inst.space, inst.fields[seat], seat),
            )
            K = inst.space.grid.terminal_index
            for k in range(K + 1):
                for w in range(inst.space.n_outcomes):
                    assert pp.stop_exact[k][w] <= pp.stop_family[k][w]
                    assert pp.stop_exact[k][w] <= pp.rival_floor[k][w]


def test_value_submartingale_before_stop_hit():
    inst = generate_instance(7, n_outcomes=3)
    space = inst.space
    h = space.grid.min_step
    overline = build_overline_families(space, inst.fields, h, inst.epsilon)
    theta = constant_time(space, 0)
    for seat in range(3):
        pp = build_player_processes(
            space, inst.fields, seat, theta, inst.epsilon, resolve_overline(space, overline),
            stop_now_solutions(space, inst.fields[seat], seat),
        )
        K = space.grid.terminal_index
        eps = inst.epsilon
        for w in range(space.n_outcomes):
            k = 0
            while pp.value[k][w] > pp.stop_exact[k][w] + eps and k < K:
                cont = cond_exp(space, pp.value[k + 1], k)
                assert cont[w] >= pp.value[k][w]
                k += 1


def test_partition_examples():
    inst = generate_instance(3)
    space = inst.space
    t0 = constant_time(space, 0)
    t1 = constant_time(space, 1)
    a, b, c = partition_ABC(first_exit_seats(space, {0: t0, 1: t0, 2: t0}))
    assert all(a) and not any(b) and not any(c)
    a, b, c = partition_ABC(first_exit_seats(space, {0: t1, 1: t0, 2: t0}))
    assert all(b)
    a, b, c = partition_ABC(first_exit_seats(space, {0: t1, 1: t1, 2: t0}))
    assert all(c)


def test_partition_random_triples():
    rng = random.Random(229)
    inst = generate_instance(4, n_outcomes=3)
    space = inst.space
    sts = [
        StoppingTime(tuple(rng.randint(0, space.grid.terminal_index) for _ in range(3)))
        for _ in range(30)
    ]
    for i in range(0, 30, 3):
        a, b, c = partition_ABC(first_exit_seats(space, {0: sts[i], 1: sts[i + 1], 2: sts[i + 2]}))
        for w in range(space.n_outcomes):
            assert a[w] + b[w] + c[w] == 1


def test_partition_matches_reference_on_every_exit_triple():
    """Built from the one first-exit seat, A, B and C equal the three old
    inequalities on every exit-index triple in range(4)**3, one per outcome."""
    triples = list(itertools.product(range(4), repeat=3))
    n = len(triples)
    space = FilteredSpace(
        grid=make_grid(range(4)),
        weights=(Fraction(1, n),) * n,
        partitions=(((*range(n),),),) * 3 + (tuple((w,) for w in range(n)),),
    )
    exits = {s: StoppingTime(tuple(t[s] for t in triples)) for s in range(3)}
    first = first_exit_seats(space, exits)
    assert partition_ABC(first) == reference_partition_ABC(space, exits)
    assert first == tuple(min(range(3), key=t.__getitem__) for t in triples)


@pytest.mark.parametrize("case", ("seed2", "seed9", "urgency"))
def test_exit_time_matches_reference_scan(case):
    """Each seat's exit time equals the old unbounded scan from constant
    starts (0, mid-grid and K) and from stopping-time starts; on the
    symmetric urgency game the value ties with stop_family + eps."""
    if case == "urgency":
        space = urgency_space()
        fields, eps = urgency_fields(space, (Fraction(1, 2),) * 3), Fraction(1, 20)
    else:
        inst = generate_instance(int(case[4:]), n_outcomes=3, n_times=4)
        space, fields, eps = inst.space, inst.fields, inst.epsilon
    K = space.grid.terminal_index
    after_stop = resolve_overline(
        space, build_overline_families(space, fields, space.grid.min_step, eps)
    )
    stop_now = {s: stop_now_solutions(space, fields[s], s) for s in range(3)}
    taus = list(enumerate_stopping_times(space, 0))
    rng = random.Random(case)
    thetas = [constant_time(space, k) for k in (0, K // 2, K)] + rng.sample(taus, 3)
    hits_at_k = ties = 0
    for theta in thetas:
        for e in (eps, 2 * eps):
            for seat in range(3):
                pp = build_player_processes(
                    space, fields, seat, theta, e, after_stop, stop_now[seat]
                )
                want = reference_exit_time(space, pp.value, pp.stop_family, theta, e)
                assert pp.exit_time == want
                hits_at_k += want.idx.count(K)
                ties += sum(
                    pp.value[k][w] == pp.stop_family[k][w] + e for w, k in enumerate(want.idx)
                )
    assert hits_at_k > 0
    if case == "urgency":
        assert ties > 0


def fake_processes(space, layers, exit_idx):
    return PlayerProcesses(
        seat=0,
        stop_exact=layers,
        stop_family=layers,
        rival={},
        rival_floor=layers,
        value=layers,
        exit_time=StoppingTime(exit_idx),
    )


def test_select_delta_constant_processes():
    inst = generate_instance(5)
    space = inst.space
    flat = tuple(
        tuple([Fraction(1, 2)] * space.n_outcomes) for _ in range(len(space.grid))
    )
    pp = fake_processes(space, flat, (0,) * space.n_outcomes)
    theta = constant_time(space, 0)
    delta = select_delta(space, {0: pp, 1: pp, 2: pp}, theta, "1/20")
    for dur in delta.per_atom.values():
        assert dur >= space.grid.span  # maximal allowed multiple


def test_select_delta_jumpy_process():
    inst = generate_instance(6)
    space = inst.space
    eps = Fraction(1, 20)
    step_jump = eps / 2
    layers = tuple(
        tuple([k * step_jump] * space.n_outcomes) for k in range(len(space.grid))
    )
    pp = fake_processes(space, layers, (0,) * space.n_outcomes)
    theta = constant_time(space, 0)
    delta = select_delta(space, {0: pp, 1: pp, 2: pp}, theta, eps)
    assert set(delta.per_atom.values()) == {space.grid.min_step}


def test_select_delta_no_valid():
    inst = generate_instance(8)
    space = inst.space
    eps = Fraction(1, 20)
    layers = tuple(
        tuple([k * 2 * eps] * space.n_outcomes) for k in range(len(space.grid))
    )
    pp = fake_processes(space, layers, (0,) * space.n_outcomes)
    with pytest.raises(NoValidDelta):
        select_delta(space, {0: pp, 1: pp, 2: pp}, constant_time(space, 0), eps)


def test_select_delta_on_a_tiny_grid_step():
    """The largest delay is the span in closed form, not found by counting
    every multiple of a 1/10**9 step (which takes minutes)."""
    space = FilteredSpace(
        grid=make_grid([0, Fraction(1, 10**9), 1]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,))),
    )
    pts = space.grid.points
    fields = [
        payoff_from_function(
            space, 3, lambda ks, w, s=s: Fraction(s + 1, 100) * sum(pts[k] for k in ks)
        )
        for s in range(3)
    ]
    sol = solve_three_player(space, fields)
    assert sol.certificate.passes
    assert set(sol.context.delta.per_atom.values()) == {space.grid.span}


def test_select_delta_per_atom_measurable():
    """Exit processes that differ across the first split give per-atom delays."""
    space = FilteredSpace(
        grid=make_grid(["0", "1/20", "1/10", "3/20"]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0,), (1,)), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )
    eps = Fraction(1, 20)
    layers = tuple(
        (k * eps / 2, Fraction(0)) for k in range(len(space.grid))
    )
    pp = fake_processes(space, layers, (0, 0))
    theta = constant_time(space, 0)
    delta = select_delta(space, {0: pp, 1: pp, 2: pp}, theta, eps)
    durations = set(delta.per_atom.values())
    assert len(durations) == 2  # jumpy branch forces a shorter delay
    shifted = shift_time(space, pp.exit_time, delta.duration)
    assert is_stopping_time(space, shifted.idx)


def long_span_game(last):
    """Grid (0, 1/1000, 2/1000, last), two outcomes split after time 0;
    U_i = sum_j c_ij [t_j = last] + (w/50) [max t >= 1/1000], with c_ij
    integers in [-9, 9] over 100."""
    space = FilteredSpace(
        grid=make_grid([0, "1/1000", "2/1000", last]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )
    rng = random.Random(4)
    c = [[Fraction(rng.randint(-9, 9), 100) for _ in range(3)] for _ in range(3)]
    K = space.grid.terminal_index

    def mk(i):
        return payoff_from_function(
            space,
            3,
            lambda ks, w: sum(c[i][j] for j, k in enumerate(ks) if k == K)
            + (Fraction(w, 50) if max(ks) >= 1 else 0),
        )

    return space, [mk(i) for i in range(3)]


def test_select_delta_matches_reference_scan(monkeypatch):
    """The delay tried only where an end index moves equals the scan over
    every multiple of the step under ==, on its delay map or its
    ``NoValidDelta`` text: on generated games at auto and minimal-step h, the
    long-span game on a short span, and random processes on uneven grids.
    Some answers are below the longest delay the space allows, and some are
    errors."""
    seen, select = [], nash3.select_delta

    def answer(fn, *args):
        try:
            return fn(*args)
        except NoValidDelta as exc:
            return str(exc)

    def compare(space, *args):
        got = answer(select, space, *args)
        assert got == answer(reference_select_delta, space, *args)
        step = space.grid.min_step
        seen.append((got, max(1, math.ceil(space.grid.span / step)) * step))
        if isinstance(got, str):
            raise NoValidDelta(got)
        return got

    monkeypatch.setattr(nash3, "select_delta", compare)
    for seed in range(60, 70):
        inst = generate_instance(seed, n_outcomes=2 + seed % 2, n_times=3 + seed % 2)
        for h in (None, inst.space.grid.min_step):
            try:
                solve_three_player(inst.space, inst.fields, eps=inst.epsilon, h=h)
            except StopGameError:
                pass
    space, fields = long_span_game(1)
    assert_passes_but_single_family_fails(solve_three_player(space, fields, eps="1/20", h="1/1000"))
    rng = random.Random(71)
    for _ in range(60):
        n, times = rng.randint(2, 3), rng.randint(3, 6)
        cuts = sorted(rng.sample(range(1, 40), times - 1))
        space = dataclasses.replace(
            random_space(rng, n, times),
            grid=TimeGrid((Fraction(0), *(Fraction(c, 12) for c in cuts))),
        )

        def layers():  # per outcome, a walk of jumps 0, 1/40 or 3/40
            walks = [
                list(itertools.accumulate(rng.choice((0, 0, 0, 1, 3)) for _ in range(times)))
                for _ in range(n)
            ]
            return tuple(tuple(Fraction(x, 40) for x in layer) for layer in zip(*walks))

        players = {
            s: dataclasses.replace(
                fake_processes(space, layers(), tuple(rng.randrange(times) for _ in range(n))),
                seat=s,
                stop_family=layers(),
            )
            for s in range(3)
        }
        theta = constant_time(space, rng.randrange(times - 1))
        try:
            nash3.select_delta(space, players, theta, Fraction(1, 20))
        except NoValidDelta:
            pass
    errors = sum(isinstance(got, str) for got, _ in seen)
    below = sum(
        not isinstance(got, str) and min(got.per_atom.values()) < longest for got, longest in seen
    )
    assert errors and below


LONG_SPAN_FAILURE = "single entry at 3/1000 reached gap 9/100 > 1*eps at grid index 2"


def assert_passes_but_single_family_fails(sol):
    """At h = 1/1000 the long-span game breaks the premise, yet seat 0 exits
    first on both outcomes, so no family the profile reads fails and the
    certificate passes with gap 0; seat 2's ``("single", 2)`` family, which
    only seat 2's own saddle reads, fails its window when it is read."""
    assert sol.context.first_exit == (0, 0)
    assert sol.certificate.passes and sol.certificate.worst_gap == 0
    with pytest.raises(WindowCertificationFailed) as failure:
        sol.context.saddles[2][0].families[("single", 2)]
    assert str(failure.value) == LONG_SPAN_FAILURE


def test_select_delta_on_a_long_span_grid(monkeypatch):
    """On the grid (0, 1/1000, 2/1000, 100) at h = 1/1000 the delay reads a
    few end indices, not one per multiple of the step (200004 reads when
    every multiple was tried); the solve then passes, and only a family it
    never reads fails its windows, as that h breaks the premise."""
    inside, reads = [], []
    index_at_or_after, select = TimeGrid.index_at_or_after, nash3.select_delta

    def counted_index(grid, t):
        reads.extend(inside)
        return index_at_or_after(grid, t)

    def counted_select(*args):
        inside.append(1)
        try:
            return select(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(TimeGrid, "index_at_or_after", counted_index)
    monkeypatch.setattr(nash3, "select_delta", counted_select)
    space, fields = long_span_game(100)
    sol = solve_three_player(space, fields, eps="1/20", h="1/1000")
    assert 0 < len(reads) <= 48
    assert_passes_but_single_family_fails(sol)


def test_on_path_identity():
    """Conforming play decomposes into the family evaluations at the exits."""
    for seed in (11, 12, 13):
        inst = generate_instance(seed, n_outcomes=3)
        space = inst.space
        theta = constant_time(space, 0)
        sol = solve_three_player(space, inst.fields, eps=inst.epsilon)
        ctx = sol.context
        times = resolve_profile(space, sol.profile)
        for p in range(3):
            [(path, _)] = on_path_value(space, [inst.fields[p]], sol.profile, theta)
            for atom, got in path.items():
                want = Fraction(0)
                members = atom[1]
                total = sum(space.weights[w] for w in members)
                for w in members:
                    e = next(s for s in range(3) if ctx.events[s][w])
                    mu = ctx.players[e].exit_time.idx[w]
                    if e == p:
                        ref = ctx.players[p].stop_family[mu][w]
                    else:
                        ref = ctx.players[p].rival[e][mu][w]
                    want += space.weights[w] * ref
                assert got == want / total


def test_solve_certifies_and_validates():
    for seed in (21, 22):
        inst = generate_instance(seed, n_outcomes=2, n_times=4)
        sol = solve_three_player(inst.space, inst.fields, eps=inst.epsilon)
        assert sol.certificate.passes
        assert sol.certificate.worst_gap <= sol.certificate.bound


def test_heterogeneous_urgency_exits_split():
    space = urgency_space()
    fields = urgency_fields(
        space, [Fraction(9, 10), Fraction(-3, 10), Fraction(-8, 10)]
    )
    sol = solve_three_player(space, fields, eps="1/8", h="1/10")
    assert sol.certificate.passes
    exits = {s: sol.context.players[s].exit_time.idx for s in range(3)}
    assert min(exits[1]) == 0 and min(exits[0]) > 0
    assert any(sol.context.events[1])  # seat 1 is the designated stopper


def test_broken_profile_detected():
    """A profile ignoring the late rewards fails a tight certificate."""
    space = urgency_space()
    fields = urgency_fields(
        space, [Fraction(9, 10), Fraction(8, 10), Fraction(7, 10)]
    )
    eps = Fraction(1, 1000)
    profile = [lift_constant3(space, s, 0) for s in range(3)]
    cert = certify_nash(space, fields, profile, constant_time(space, 0), eps)
    assert not cert.passes
    assert cert.worst_gap > cert.bound


def test_constant_payoff_profile_initials():
    inst = generate_instance(41)
    space = inst.space
    fields = [payoff_from_function(space, 3, lambda ks, w: "1/2")] * 3
    sol = solve_three_player(space, fields, eps="1/20", h=space.grid.min_step)
    ctx = sol.context
    assert all(ctx.events[0])  # ties designate the first seat
    assert sol.profile[0].initial == ctx.players[0].exit_time
    for s in (1, 2):
        assert sol.profile[s].initial == ctx.saddles[0][1][s].initial


def test_built_processes_are_adapted():
    def is_adapted_layer(space, x, k):
        return all(len({x[w] for w in block}) == 1 for block in space.partitions[k])

    inst = generate_instance(42, n_outcomes=3)
    sol = solve_three_player(inst.space, inst.fields, eps=inst.epsilon)
    for s in range(3):
        pp = sol.context.players[s]
        for k in range(len(inst.space.grid)):
            for layers in (pp.stop_exact, pp.stop_family, pp.rival_floor):
                assert is_adapted_layer(inst.space, layers[k], k)
            if pp.value[k] is not None:
                assert is_adapted_layer(inst.space, pp.value[k], k)


def test_dispatch_tables_on_designated_rival():
    """With seat 1 exiting first, seat 0's tables route per the case split."""
    from stopgame.nash2 import family_lookup

    space = urgency_space()
    fields = urgency_fields(
        space, [Fraction(9, 10), Fraction(-3, 10), Fraction(-8, 10)]
    )
    sol = solve_three_player(space, fields, eps="1/8", h="1/10")
    ctx = sol.context
    assert all(ctx.events[1])  # B everywhere on this fixture
    pts = space.grid.points
    K = space.grid.terminal_index
    strat0 = sol.profile[0]
    shift1 = ctx.shifted_exit[1]
    exit1 = ctx.players[1].exit_time
    for s in range(K):
        entry = family_lookup(ctx.overline[1], pts[s])
        overline_initial = entry.payload[0].initial  # seat 0's play after seat 1 stopped
        saddle_react = ctx.saddles[1][1][0].react_one[1][s]
        for w in range(space.n_outcomes):
            got = strat0.react_one[1][s].idx[w]
            if pts[s] >= pts[shift1.idx[w]]:
                assert got == saddle_react.idx[w]
            else:
                assert got == overline_initial.idx[w]
    # simultaneous rivals at seat 1's exit: punish the non-designated one
    for w in range(space.n_outcomes):
        a = exit1.idx[w]
        if a < K and pts[a] < pts[shift1.idx[w]]:
            entry = family_lookup(ctx.saddles[2][0].families[("single", 0)], pts[a])
            assert strat0.react_two[(a, a)].idx[w] == entry.payload[0].idx[w]


def test_standalone_coalition_value_tracks_duel_value():
    """The coalition game started at any time never exceeds the assembled
    duel value by more than eps (the floor's built-in margin)."""
    from stopgame.coalition import build_components

    inst = generate_instance(43, n_outcomes=2, n_times=4)
    space = inst.space
    eps = inst.epsilon
    sol = solve_three_player(space, inst.fields, eps=eps)
    h = sol.context.h
    for seat in range(3):
        pp = sol.context.players[seat]
        for k in range(len(space.grid)):
            comp = build_components(
                space, inst.fields[seat], seat, constant_time(space, k), eps, h,
                stop_now_solutions(space, inst.fields[seat], seat),
            )
            for w in range(space.n_outcomes):
                assert comp.value[k][w] <= pp.value[k][w] + eps


@pytest.mark.parametrize(
    "seed, outcomes, times, min_step_h",
    [
        pytest.param(seed, 2 + seed % 2, 3 + seed % 2, m, id=f"{seed}-{'minh' if m else 'autoh'}")
        for seed in range(60, 64)
        for m in (False, True)
    ]
    + [
        pytest.param(1004, 4, 6, True, id="1004-minh"),
        pytest.param(1000, 3, 5, False, id="1000-autoh"),
    ],
)
def test_shared_solutions_equal_direct_sweeps(seed, outcomes, times, min_step_h):
    """The stop-now values and pinned single optima that one solve shares
    between its player processes and coalition games equal a fresh sweep,
    and the integer solo tables (``classic.solo_stop``) equal the ``Fraction``
    Snell sweep of each double-pinned process under ==, its value at k and
    its rule, for every free slot and every k; on small games and the two
    bench games."""
    inst = generate_instance(seed, n_outcomes=outcomes, n_times=times)
    space = inst.space
    h = space.grid.min_step if min_step_h else None
    ctx = solve_three_player(space, inst.fields, eps=inst.epsilon, h=h).context
    K = space.grid.terminal_index
    for s in range(3):
        field = inst.fields[s]
        stop_now = tuple(
            block_rv(space, k, joint_inf_value(space, field.pin(s, k), k)[0][k], field.den)
            for k in range(K + 1)
        )
        comp = ctx.saddles[s][0]
        assert ctx.players[s].stop_exact == stop_now
        assert comp.leader_stop_value == stop_now
        for free in range(3):
            direction = "sup" if free == s else "inf"
            solo = solo_solutions(space, field, free, direction)
            assert tuple(solo_stop(space, field, free, k, direction) for k in range(K + 1)) == solo
            assert comp.pinned_solo[free] == tuple(sol.value for sol in solo)


def reference_processes(space, fields, ctx):
    """Each seat's ``PlayerProcesses`` and the processes, times and
    designated stoppers of its ``CoalitionComponents``, assembled per outcome
    on ``Fraction`` from the references and the solve's after-stop pairs:
    stop-now values from the reference cooperative sweep, after-stop family
    layers from per-outcome payoff reads, rival floors and the designate
    test with ``Fraction`` eps, reaction values from the reference node
    tables, pinned optima from the ``Fraction`` Snell sweep, and the duels,
    hitting times, exit times and settle delay from the reference duel and
    scans."""
    eps, theta, K = ctx.eps, ctx.theta, space.grid.terminal_index
    after_stop = resolve_overline(space, ctx.overline)

    def family_layers(seat, s):
        free = sorted(q for q in range(3) if q != s)
        return tuple(
            reference_family_value(space, fields[seat], s, k, pair, free)
            for k, pair in enumerate(after_stop[s])
        ) + (fields[seat].at((K, K, K)),)

    def lowest(*processes, plus=0):
        return tuple(tuple(min(x) + plus for x in zip(*layers)) for layers in zip(*processes))

    stop_now = {
        s: tuple(reference_joint_inf_pair(space, fields[s].pin(s, k), k)[0][k] for k in range(K + 1))
        for s in range(3)
    }
    players = {}
    for s in range(3):
        rival = {q: family_layers(s, q) for q in range(3) if q != s}
        floor = lowest(*rival.values(), plus=eps)
        value = reference_dynkin_value(space, stop_now[s], floor, theta)
        family = family_layers(s, s)
        players[s] = PlayerProcesses(
            seat=s, stop_exact=stop_now[s], stop_family=family, rival=rival, rival_floor=floor,
            value=value, exit_time=reference_exit_time(space, value, family, theta, eps),
        )
    delta = reference_select_delta(space, players, theta, eps)
    coalitions = {}
    for s in range(3):
        cj, ck = (q for q in range(3) if q != s)
        mu = shift_time(space, players[s].exit_time, delta.duration)
        after = {
            member: tuple(
                reference_node_tables(space, ReactionGameSpec(fields[s], member, s, other).view(k), k)[0][k]
                for k in range(K + 1)
            )
            for member, other in ((cj, ck), (ck, cj))
        }
        floor = lowest(after[cj], after[ck])
        value = reference_dynkin_value(space, stop_now[s], floor, mu)
        hits = reference_dynkin_hitting_pair(space, value, stop_now[s], floor, eps, mu)
        coalitions[s] = dict(
            mu=mu,
            leader_stop_value=stop_now[s],
            after_stop_value=after,
            coalition_floor=floor,
            pinned_solo={
                free: tuple(
                    snell(space, reference_process(fields[s], free, k), direction, k).value[k]
                    for k in range(K + 1)
                )
                for free, direction in ((s, "sup"), (cj, "inf"), (ck, "inf"))
            },
            value=value,
            leader_hit=hits[0],
            coalition_hit=hits[1],
            designate=tuple(value[k][w] >= after[cj][k][w] - eps for w, k in enumerate(hits[1].idx)),
        )
    return players, delta, coalitions


@pytest.mark.parametrize("min_step_h", (False, True), ids=("autoh", "minh"))
@pytest.mark.parametrize("outcomes, times", ((3, 5), (4, 6), (3, 7)), ids=("3x5", "4x6", "3x7"))
def test_processes_match_reference_assembly(outcomes, times, min_step_h):
    """Every ``Fraction`` attribute of each seat's ``PlayerProcesses`` and
    ``CoalitionComponents``, which a solve keeps as integer block layers and
    converts on read, equals under == the one ``reference_processes``
    assembles, as do the settle delay and the shifted exits, on gen seeds
    0-5."""
    for seed in range(6):
        inst = generate_instance(seed, n_outcomes=outcomes, n_times=times)
        space, fields = inst.space, inst.fields
        h = space.grid.min_step if min_step_h else None
        ctx = solve_three_player(space, fields, eps=inst.epsilon, h=h).context
        players, delta, coalitions = reference_processes(space, fields, ctx)
        assert ctx.players == players
        assert ctx.delta == delta
        for s, want in coalitions.items():
            comp = ctx.saddles[s][0]
            assert ctx.shifted_exit[s] == want["mu"]
            assert {name: getattr(comp, name) for name in want} == want


@pytest.mark.parametrize("min_step_h", (False, True), ids=("autoh", "minh"))
def test_after_stop_entries_resolved_once_per_solve(monkeypatch, min_step_h):
    """One solve resolves each after-stop entry that some interior time looks
    up exactly once, not once per seat and time (4x6 bench game, seed 1004).
    Entries of different families may hold the same interned pair, so each
    call is matched to its entry's payload by identity and in order."""
    inst = generate_instance(1004, n_outcomes=4, n_times=6)
    space = inst.space
    calls = []

    def counting_resolve2(space, a, b):
        calls.append((a, b))
        return resolve2(space, a, b)

    monkeypatch.setattr(nash3, "resolve2", counting_resolve2)
    h = space.grid.min_step if min_step_h else None
    ctx = solve_three_player(space, inst.fields, eps=inst.epsilon, h=h).context
    looked_up = {
        (s, family_lookup(family, t).g): family_lookup(family, t)
        for s, family in ctx.overline.items()
        for t in space.grid.points[:-1]
    }
    assert len(calls) == len(looked_up)
    for call, entry in zip(calls, looked_up.values()):
        assert all(x is y for x, y in zip(call, entry.payload.values(), strict=True))
    # h = span: one entry per family; minimal step: one per interior time
    assert len(calls) == (3 * (len(space.grid) - 1) if min_step_h else 3)


@pytest.mark.parametrize("min_step_h", (False, True), ids=("autoh", "minh"))
@pytest.mark.parametrize("seed", (1, 1000))
def test_solve_reads_match_per_outcome_references(seed, min_step_h):
    """A solve's after-stop family layers, coop and single window gaps and
    on-path values equal the per-outcome reads ``at_stops`` and ``process``
    replaced."""
    inst = generate_instance(seed, n_outcomes=3, n_times=5)
    space, fields = inst.space, inst.fields
    h = space.grid.min_step if min_step_h else None
    sol = solve_three_player(space, fields, eps=inst.epsilon, h=h)
    ctx = sol.context
    K = space.grid.terminal_index
    after_stop = resolve_overline(space, ctx.overline)
    for seat, pp in ctx.players.items():

        def family_layers(s):
            free = sorted(q for q in range(3) if q != s)
            return tuple(
                reference_family_value(space, fields[seat], s, k, pair, free)
                for k, pair in enumerate(after_stop[s])
            ) + (fields[seat].at((K, K, K)),)

        assert pp.stop_family == family_layers(seat)
        assert pp.rival == {q: family_layers(q) for q in pp.rival}
    for s, (comp, _) in ctx.saddles.items():
        stop_now = stop_now_solutions(space, fields[s], s)
        for entry in comp.families["coop"].entries.values():
            gaps = [
                reference_coop_gap(
                    space, fields[s], s, stop_now,
                    tuple(play.initial for play in entry.payload.values()), k,
                )
                for k in entry.window
            ]
            assert entry.achieved == max(0, *gaps)
        for free in range(3):
            solo = solo_solutions(space, fields[s], free, "sup" if free == s else "inf")
            for entry in comp.families[("single", free)].entries.values():
                gaps = [
                    reference_single_gap(
                        space, fields[s], free, solo, tuple(entry.payload.values()), k
                    )
                    for k in entry.window
                ]
                assert entry.achieved == max(0, *gaps)
    assert sol.certificate.on_path == tuple(
        reference_one_field_on_path_value(space, f, sol.profile, ctx.theta)[0]
        for f in fields
    )


@pytest.mark.parametrize(
    "seed, outcomes, times, min_step_h",
    [(1004, 4, 6, True), (1000, 3, 5, False)],
    ids=("4x6-minh", "3x5-autoh"),
)
def test_family_entries_answer_by_index_and_seat(seed, outcomes, times, min_step_h):
    """On two bench games, every family of a solve holds ``family_lookup``'s
    entry for each interior grid time at its index, and each entry maps the
    free seats, in increasing order, to what they play: the pair strategy,
    the lifted cooperative stop, or the pinned single optimum."""
    inst = generate_instance(seed, n_outcomes=outcomes, n_times=times)
    space, fields = inst.space, inst.fields
    h = space.grid.min_step if min_step_h else None
    ctx = solve_three_player(space, fields, eps=inst.epsilon, h=h).context
    interior = space.grid.points[:-1]
    families = [(("pair", s), s, family) for s, family in ctx.overline.items()]
    for s, (comp, _) in ctx.saddles.items():
        families += [(key, s, family) for key, family in comp.families.items()]
    assert len(families) == 21
    for key, leader, family in families:
        assert len(family.by_index) == len(interior)
        for k, t in enumerate(interior):
            assert family.by_index[k] is family_lookup(family, t)
        if key == "coop":
            stop_now = stop_now_solutions(space, fields[leader], leader)
            lo, hi = (q for q in range(3) if q != leader)
            for e in family.entries.values():
                assert list(e.payload) == [lo, hi]
                assert e.payload[lo].initial == stop_now[e.anchor].rho
                assert e.payload[hi].initial == stop_now[e.anchor].tau
        elif key[0] == "single":
            free = key[1]
            solo = solo_solutions(space, fields[leader], free, "sup" if free == leader else "inf")
            for e in family.entries.values():
                assert e.payload == {free: solo[e.anchor].rule}
        else:
            free = tuple(q for q in range(3) if q != key[1])
            for e in family.entries.values():
                assert tuple(e.payload) == free
                as_tuple = dataclasses.replace(e, payload=tuple(e.payload.values()))
                for q in free:
                    assert e.payload[q] is reference_pair_component(as_tuple, free, q)


@pytest.mark.parametrize(
    "seed, outcomes, times, min_step_h, families, pins, phi_h_calls, checks, block_rvs, "
    "commits, certificates, resolutions, dp_runs, gap_measures, fractions",
    [(1004, 4, 6, True, 11, 66, 5, 283, 0, 136, 1, 10, 87, 51, 331),
     (1000, 3, 5, False, 11, 55, 4, 208, 0, 100, 1, 2, 43, 26, 205)],
    ids=("4x6-minh", "3x5-autoh"),
)
def test_calls_per_solve_on_bench_games(
    monkeypatch, seed, outcomes, times, min_step_h, families, pins, phi_h_calls, checks,
    block_rvs, commits, certificates, resolutions, dp_runs, gap_measures, fractions,
):
    """On two bench games: the gap measurements (``verify._measure_gaps``:
    the pair families' anchors and window times, and the final certificate)
    resolve each interned pair once per solve, and the final profile once;
    the best-response DP runs once per after-stop view, seat, start and
    interned opponent (``nash2.AfterStopTable``), plus once per seat for the
    final certificate; only the final certificate builds per-atom
    ``Fraction`` maps (``certify_nash``); ``pin`` runs only for solver
    sub-fields, once per distinct view of the solve (pair-family views, which
    an overline family and a coalition pair family freezing the same seat
    share, stop-now sweeps, zero-sum views); a solve builds 11 of its 21
    families (the three after-stop families, the six of the first stopper's
    coalition game and, per other seat, its single family in the game of the
    seat it punishes), so only that coalition game negates its payoff, once; all families share one
    window schedule, so ``phi_h`` maps each interior grid time once per
    solve, and profile assembly reads entries by grid index without any
    ``phi_h``; ``classic.snell`` never
    runs, as the node sweep's reactions and the coalition's solo tables run
    on the one integer Snell sweep; ``is_stopping_time`` runs only for
    strategy validation (once per entry of the three strategies) and for the
    oracle's check that a forced tail may be played out (once per commitment
    it reads), as certificates read their start through ``stopped_atoms``;
    ``classic.block_rv`` never runs, as every process (stop-now values,
    reaction games, solo optima, after-stop family layers, rival floors and
    duels) stays on integers and the solve reads none as ``Fraction``; the
    solve builds ``fractions`` ``Fraction`` objects, counted by wrapping
    ``Fraction.__new__`` (exactly where every ``Fraction`` is built through
    it, as up to Python 3.11; at most that many where arithmetic builds its
    results without it); and the best-response oracle reads each live fixed
    seat's commitment (``committed_time``) once per observed-stop status of a
    DP run, not once per DP node."""
    counts = Counter()

    def counting(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return call

    for module in (nash2, nash3):
        monkeypatch.setattr(module, "certify_nash", counting("certificates", verify.certify_nash))
    monkeypatch.setattr(classic, "snell", counting("snell", classic.snell))
    monkeypatch.setattr(nash2, "_window_family", counting("_window_family", nash2._window_family))
    monkeypatch.setattr(verify, "committed_time", counting("commits", verify.committed_time))
    for name in ("pin", "negated"):
        monkeypatch.setattr(PayoffField, name, counting(name, getattr(PayoffField, name)))
    for name, real in (
        ("is_stopping_time", is_stopping_time),
        ("block_rv", classic.block_rv),
        ("phi_h", space_module.phi_h),
        ("resolve_profile", verify.resolve_profile),
        ("_best_response", verify._best_response),
        ("_measure_gaps", verify._measure_gaps),
    ):
        counted = counting(name, real)
        for key, module in list(sys.modules.items()):
            if key.startswith("stopgame.") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert nash2.phi_h is space_module.phi_h  # family_lookup's calls are counted too
    inst = generate_instance(seed, n_outcomes=outcomes, n_times=times)
    h = inst.space.grid.min_step if min_step_h else None
    built = Fraction.__new__

    def counted_fraction(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return built(cls, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counted_fraction))
        sol = solve_three_player(inst.space, inst.fields, eps=inst.epsilon, h=h)
    assert sol.certificate.passes
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+: arithmetic skips __new__
        assert counts["Fraction"] <= fractions
    else:
        assert counts["Fraction"] == fractions
    assert counts["_window_family"] == families
    assert counts["_measure_gaps"] == gap_measures and counts["resolve_profile"] == resolutions
    assert counts["_best_response"] == dp_runs
    assert (counts["pin"], counts["negated"], counts["phi_h"]) == (pins, 1, phi_h_calls)
    assert counts["snell"] == 0
    assert (counts["is_stopping_time"], counts["block_rv"]) == (checks, block_rvs)
    assert counts["commits"] == commits
    assert counts["certificates"] == certificates


# every builder a three-player solve hands its after-stop table to, by the
# module namespace the solve calls it through
AFTER_STOP_BUILDERS = (
    (nash3, "build_overline_families"),
    (nash3, "build_pair_family"),
    (nash3, "stop_now_solutions"),
    (nash3, "build_components"),
    (coalition, "build_pair_family"),
    (coalition, "reaction_game_value"),
)


def solved(space, fields, eps, h):
    """The solve with every coalition family read, so all 21 families are
    built, or its error as (type, message)."""
    try:
        sol = solve_three_player(space, fields, eps=eps, h=h)
        for comp, _ in sol.context.saddles.values():
            dict(comp.families)
        return sol
    except StopGameError as exc:
        return type(exc), str(exc)


def solved_with_fresh_tables(space, fields, eps, h):
    """``solved`` with a fresh after-stop table on every builder call, and
    the number of tables made."""
    made = []

    def fresh(real):
        signature = inspect.signature(real)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["table"] = nash2.AfterStopTable()
            made.append(bound.arguments["table"])
            return real(*bound.args, **bound.kwargs)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for module, name in AFTER_STOP_BUILDERS:
            mp.setattr(module, name, fresh(getattr(module, name)))
        return solved(space, fields, eps, h), len(made)


def assert_shared_table_changes_nothing(space, fields, eps, h):
    """The solve with its one after-stop table and with a fresh table per
    builder call give ``==`` families (entries, anchors, payloads, achieved
    gaps, ``by_index``), coalition components, profile and certificate, or
    the same error."""
    shared = solved(space, fields, eps, h)
    fresh, made = solved_with_fresh_tables(space, fields, eps, h)
    if isinstance(shared, tuple):
        assert fresh == shared and made
        return
    assert not isinstance(fresh, tuple), fresh
    assert made > 9
    for s in range(3):
        assert fresh.context.overline[s] == shared.context.overline[s]
        assert fresh.context.saddles[s][0].families == shared.context.saddles[s][0].families
    assert fresh.context == shared.context
    assert fresh.profile == shared.profile
    assert fresh.certificate == shared.certificate


@pytest.mark.parametrize("min_step_h", (False, True), ids=("autoh", "minh"))
def test_shared_after_stop_table_matches_fresh_tables(min_step_h):
    """The two bench games of ``test_calls_per_solve_on_bench_games`` and gen
    seeds 0-5 at 3x5, 4x6 and 3x7, at auto h and at the minimal step."""
    games = [(1004, 4, 6), (1000, 3, 5)]
    games += [(seed, o, t) for o, t in ((3, 5), (4, 6), (3, 7)) for seed in range(6)]
    for seed, outcomes, times in games:
        inst = generate_instance(seed, n_outcomes=outcomes, n_times=times)
        h = inst.space.grid.min_step if min_step_h else None
        assert_shared_table_changes_nothing(inst.space, inst.fields, inst.epsilon, h)


@settings(max_examples=40, **SETTINGS)
@given(
    seed=st.integers(0, 10**6),
    outcomes=st.integers(2, 3),
    times=st.integers(3, 4),
    eps=st.sampled_from(("1/4", "2", "10")),
)
def test_shared_after_stop_table_matches_fresh_tables_on_small_games(seed, outcomes, times, eps):
    """Random adapted three-player games with 2-3 outcomes and 3-4 times,
    at the minimal step; some raise (an eps below the payoffs' moves), and
    then both solves raise the same error.  The enumeration cap keeps the
    two-player fallback search to the smallest games (it raises
    ``DeskScaleExceeded`` on the others, in both solves alike)."""
    rng = random.Random(seed)
    space = random_space(rng, outcomes, times)

    def adapted_field():
        slices = {}

        def fn(ks, w):
            if ks not in slices:
                slices[ks] = cond_exp(space, random_rv(rng, outcomes), max(ks))
            return slices[ks][w]

        return payoff_from_function(space, 3, fn)

    fields = [adapted_field() for _ in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_OVERRIDE, "enum=2000")
        assert_shared_table_changes_nothing(space, fields, eps, space.grid.min_step)


def split_urgency_fields(space, urgencies):
    """``urgency_fields`` with seat i's urgency ``urgencies[i][w]`` on outcome
    w; it scales the seat's own time, which is 0 until index 1 reveals the
    outcome, so each field stays adapted."""
    pts = space.grid.points

    def mk(i):
        def fn(ks, w):
            others = sum(pts[k] for j, k in enumerate(ks) if j != i)
            return Fraction(1, 2) + urgencies[i][w] * pts[ks[i]] - Fraction(1, 5) * others

        return payoff_from_function(space, 3, fn)

    return [mk(i) for i in range(3)]


def eagerly(build_components):
    """``build_components`` that reads, so builds and certifies, all six
    families of each coalition game right after building it."""

    def call(*args, **kwargs):
        comp = build_components(*args, **kwargs)
        dict(comp.families)
        return comp

    return call


def solve_and_cli_report(space, fields, eps, h, game, out):
    """The library solve, or its error as (type, message), and the CLI
    solve's exit code and report bytes, on the game file ``game``."""
    try:
        sol = solve_three_player(space, fields, eps=eps, h=h)
    except StopGameError as exc:
        sol = type(exc), str(exc)
    out.unlink(missing_ok=True)
    code = cli_main(["solve", "--game", str(game), "--out", str(out),
                     *(["--h", str(h)] if h is not None else [])])
    return sol, code, out.read_bytes()


def assert_lazy_matches_eager(space, fields, eps, h, tmp_path):
    """The solve that builds each coalition family on its first read against
    the solve that builds all 18 as each coalition game is built: ``==``
    profiles, certificates, contexts and CLI report bytes, or the same error;
    or the eager solve fails the windows of a family the lazy solve never
    read, and reading that family (the first to fail, in build order) raises
    the same text.  Returns which of the three it was, and the lazy solve."""
    eps = rat(eps)
    game, out = tmp_path / "game.json", tmp_path / "report.json"
    game.write_text(emit_game(GameDoc(space, tuple(fields), constant_time(space, 0), eps, None)))
    lazy, lazy_code, lazy_report = solve_and_cli_report(space, fields, eps, h, game, out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash3, "build_components", eagerly(nash3.build_components))
        eager, eager_code, eager_report = solve_and_cli_report(space, fields, eps, h, game, out)
    if isinstance(eager, tuple) and not isinstance(lazy, tuple):
        assert eager[0] is WindowCertificationFailed and eager_code == 1
        assert lazy_code == (0 if lazy.certificate.passes else 1)
        assert json.loads(lazy_report)["passes"] is lazy.certificate.passes
        failures = []
        for comp, _ in lazy.context.saddles.values():
            for key in ("coop", *(("pair", q) for q in comp.coalition),
                        *(("single", q) for q in (comp.leader, *comp.coalition))):
                try:
                    comp.families[key]
                except WindowCertificationFailed as exc:
                    failures.append(str(exc))
        assert failures and failures[0] == eager[1]
        return "unread failure", lazy
    assert (lazy_code, lazy_report) == (eager_code, eager_report)
    if isinstance(eager, tuple):
        assert lazy == eager
        return "error", lazy
    assert lazy.profile == eager.profile
    assert lazy.certificate == eager.certificate
    assert lazy.context == eager.context  # reads every lazy family
    return "solved", lazy


@pytest.mark.parametrize("min_step_h", (False, True), ids=("autoh", "minh"))
def test_lazy_families_match_eager_families(min_step_h, tmp_path):
    """Gen seeds 0-5 at 3x5, 4x6 and 3x7, the long-span game (whose eager
    solve fails the windows of a family the lazy solve never reads) and two
    games whose first stopper differs between the outcomes, at auto h and at
    the minimal step."""
    games = [
        (inst.space, inst.fields, inst.epsilon)
        for inst in (
            generate_instance(seed, n_outcomes=o, n_times=t)
            for o, t in ((3, 5), (4, 6), (3, 7))
            for seed in range(6)
        )
    ]
    games.append((*long_span_game(1), "1/20"))
    nine, one = Fraction(9, 10), Fraction(1, 10)
    space = urgency_space()
    for urgencies in [(nine, nine), (nine, one), (one, nine)], [(nine, nine)] * 2 + [(nine, one)]:
        games.append((space, split_urgency_fields(space, urgencies), "1/8"))
    seen, split = Counter(), 0
    for space, fields, eps in games:
        h = space.grid.min_step if min_step_h else None
        kind, lazy = assert_lazy_matches_eager(space, fields, eps, h, tmp_path)
        seen[kind] += 1
        split += kind == "solved" and len(set(lazy.context.first_exit)) > 1
    assert (seen["solved"], seen["unread failure"], split) == (20, 1, 2)


def test_cli_solves_the_long_span_game_past_an_unread_family(tmp_path, capsys):
    """At h = 1/1000 the long-span game's ``("single", 2)`` family of seat
    2's coalition game fails its windows, but no profile reads it (seat 0
    exits first on both outcomes): ``solve`` exits 0 with a passing report,
    and ``verify`` of that report exits 0 with the same gaps."""
    space, fields = long_span_game(1)
    game, report, checked = (tmp_path / name for name in ("game.json", "r.json", "v.json"))
    doc = GameDoc(space, tuple(fields), constant_time(space, 0), Fraction(1, 20), None)
    game.write_text(emit_game(doc))
    assert cli_main(["solve", "--game", str(game), "--h", "1/1000", "--out", str(report)]) == 0
    solve = json.loads(report.read_text())
    assert (solve["passes"], solve["max_gap"], solve["h"]) == (True, "0", "1/1000")
    assert cli_main(["verify", "--game", str(game), "--profile", str(report),
                     "--out", str(checked)]) == 0
    verify = json.loads(checked.read_text())
    assert verify["passes"] is True
    assert (verify["max_gap"], verify["per_player"]) == (solve["max_gap"], solve["per_player"])
    assert capsys.readouterr().err == ""
