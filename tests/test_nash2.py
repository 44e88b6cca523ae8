from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conftest import random_rv, solo_solutions
from oracles import (
    every_multiple,
    reference_certify_nash,
    reference_shortfall,
    reference_solve_2p_nash,
)
from stopgame import classic, nash2
from stopgame.cli import main
from stopgame.classic import block_rv, joint_inf_pair
from stopgame.config import ENV_OVERRIDE
from stopgame.errors import DeskScaleExceeded, NonGridResult, WindowCertificationFailed
from stopgame.generator import generate_instance
from stopgame.nash2 import (
    build_pair_family,
    build_coop_family,
    build_single_family,
    family_lookup,
    solve_2p_nash,
    stop_now_solutions,
)
from stopgame.payoff import PayoffField, payoff_from_function
from stopgame.space import (
    FilteredSpace, StoppingTime, cond_exp, constant_time, make_grid, stopped_atoms,
)
from stopgame.strategy import StrategyOrder2, patch_pair, validate_strategy
from stopgame.verify import certify_nash, on_path_value


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
    best = tuple(-v for v in joint_sup.value)
    [(path, _)] = on_path_value(space, [field], list(res.strategies), 0)
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
    """On a uniform grid at h no finer than its step, a family holds an entry
    at every multiple of h up to the last lookup target."""
    space = three_time_space
    fields = tuple(payoff_from_function(space, 3, lambda ks, w: c) for c in (1, 2))
    for h, want in ((1, [1, 2]), (2, [2])):
        family = build_pair_family(space, fields, 0, h, "1/10")
        assert list(family.entries) == every_multiple(space, h) == want


def uneven_space() -> FilteredSpace:
    """Grid {0, 1/10, 1, 5/2, 3}: its widest gaps are several quarter steps."""
    return FilteredSpace(
        grid=make_grid([0, "1/10", 1, "5/2", 3]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0, 1),), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )


def test_families_skip_windows_without_grid_times():
    """With h below the grid gaps every entry's window holds a grid time and
    every interior grid time finds its entry; the families hold only the
    multiples of h a lookup lands on, each with the window [g-h, g] and the
    anchor at or after g."""
    space = uneven_space()
    h, eps = Fraction(1, 4), Fraction(1, 2)
    points = space.grid.points
    # phi_h of 0, 1/10, 1, 5/2; the grid times 1 and 5/2 are multiples of h
    # too, but no lookup lands on them
    targets = [h, 5 * h, 11 * h]
    rng = random.Random(149)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(5)}

    def mk(sign):
        return payoff_from_function(
            space, 3, lambda ks, w: base[max(ks)][w] + sign * Fraction(ks[1] - ks[2], 8)
        )

    field = mk(1)
    stop_now = stop_now_solutions(space, field, 0)
    solo = solo_solutions(space, field, 1, "sup")

    built = (
        build_pair_family(space, (mk(1), mk(-1)), 0, h, eps),
        build_coop_family(space, field, 0, stop_now, h, eps),
        build_single_family(space, field, 1, solo, h, eps),
    )
    assert set(targets) < set(every_multiple(space, h))
    for fam in built:
        assert list(fam.entries) == targets
        for g, entry in fam.entries.items():
            assert entry.window
            assert entry.window == tuple(k for k, p in enumerate(points) if g - h <= p <= g)
            assert entry.anchor == space.grid.index_at_or_after(g)
        for k, t in enumerate(points[:-1]):
            assert k in family_lookup(fam, t).window


def test_cli_solve_at_tiny_h_finishes(tmp_path):
    """h far below the grid step builds only the entries a lookup can reach."""
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--seed", "1", "--outcomes", "2", "--times", "3", "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--h", "1/1000000000", "--out", str(rep)]) == 0
    for entries in json.loads(rep.read_text())["flags"]["window_achieved"].values():
        assert len(entries) <= 4  # two interior grid times, at most two entries each


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
        assert list(entry.payload) == [1, 2]
        for s in entry.payload.values():
            assert validate_strategy(space, s) == []


def test_coop_family_windows(three_time_space):
    space = three_time_space
    rng = random.Random(137)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[1] + ks[2], 9)
    )
    eps = Fraction(1, 2)
    fam = build_coop_family(space, field, 0, stop_now_solutions(space, field, 0), 1, eps)
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
        solo = solo_solutions(space, field, 0, direction)
        fam = build_single_family(space, field, 0, solo, h, eps)
        assert fam.kind == "single"
        for entry in fam.entries.values():
            assert entry.achieved <= entry.tolerance == eps


def test_pair_family_solves_match_reference_patched_on_ladder(ladder_run):
    """Every pair-family anchor candidate of the ladder's three-player games
    is the old solver's pair patched at its anchor: solved with eps at the
    candidate's own measured gap, the old solver certifies its pair without
    a fallback, with that gap, and ``solve_2p_nash`` returns the candidate
    with the old solver's certificate."""
    pair_calls = ladder_run["pair"]
    assert len(pair_calls) > 100
    for (space, fa, fb, anchor), pair in pair_calls:
        gap = reference_certify_nash(space, (fa, fb), list(pair), anchor, 1).worst_gap
        ref = reference_solve_2p_nash(space, fa, fb, anchor, gap)
        assert not ref.fallback_used and ref.certificate.worst_gap == gap
        assert pair == patch_pair(space, ref.strategies, anchor)
        res = solve_2p_nash(space, fa, fb, anchor, gap)
        assert (res.strategies, res.certificate, res.fallback_used) == (pair, ref.certificate, False)


def test_pair_anchor_gap_is_a_fresh_certificate_on_ladder(ladder_run):
    """``build_pair_family`` takes each anchor's gap from the measurement of
    its candidate; it equals the worst gap of a fresh ``certify_nash`` of
    the candidate, and so of ``solve_2p_nash``'s certificate."""
    pair_calls = ladder_run["pair"]
    measured = {
        (id(args[1][0]), id(args[1][1]), args[3], *args[2]): result[2]
        for args, _, result in ladder_run["certify"]
        if len(args[1]) == 2
    }
    for (space, fa, fb, anchor), pair in pair_calls:
        fresh = certify_nash(space, (fa, fb), list(pair), anchor, 1)
        assert measured[(id(fa), id(fb), anchor, *pair)] == fresh.worst_gap


def test_window_shortfalls_match_reference_on_ladder(ladder_run):
    """Every coop and single window gap of the ladder's solves, at both h,
    measured on integers against the optimum's numerators, equals the
    ``Fraction`` shortfall against the optimum's values (``test_classic``
    checks the numerators of ``solo_stop`` and ``joint_inf_pair`` against
    their values)."""
    calls = ladder_run["shortfall"]
    assert len(calls) > 100
    assert {args[-1] for args, _ in calls} == {"inf", "sup"}
    for (space, field3, stops, k, opt, direction), gap in calls:
        values = block_rv(space, k, opt, field3.den)
        assert type(gap) is Fraction
        assert gap == reference_shortfall(space, field3, stops, k, values, direction)


def test_pair_anchor_gap_is_a_fresh_certificate_after_fallback(three_time_space):
    """At start index 1 the exhaustive fallback certifies the unpatched pair;
    the patched pair it returns has the same certificate."""
    space = three_time_space
    changed_fallbacks = 0
    for seed in range(8):
        rng = random.Random(seed)
        tables = [
            {(a, b, w): rng.randint(0, 3) for a in range(3) for b in range(3) for w in range(2)}
            for _ in range(2)
        ]
        fa, fb = (
            payoff_from_function(space, 2, lambda ks, w, t=t: t[(ks[0], ks[1], w)])
            for t in tables
        )
        args = (space, fa, fb, 1, Fraction(1, 10**9))
        res = solve_2p_nash(*args)
        fresh = certify_nash(space, (fa, fb), list(res.strategies), 1, args[-1])
        assert res.gap == fresh.worst_gap
        assert res.certificate == fresh
        raw = reference_solve_2p_nash(*args).strategies
        changed_fallbacks += res.fallback_used and res.strategies != raw
    assert changed_fallbacks > 0


def family_outcome(build):
    """What ``build()`` returns, or its error's type, text and window fields."""
    try:
        return build()
    except (DeskScaleExceeded, WindowCertificationFailed) as exc:
        fields = [getattr(exc, a, None) for a in ("g", "at", "kind", "achieved", "bound")]
        return type(exc), str(exc), fields


def full_solve_pair_family(space, fields3, frozen, h, eps):
    """``build_pair_family`` with every anchor solved by the full
    ``solve_2p_nash`` (certificate, then fallback search)."""
    free, tolerance = [q for q in range(3) if q != frozen], 11 * eps
    entries = {}
    for g, (anchor, window) in space.windows(h)[1].items():
        res = solve_2p_nash(space, *(f.pin(frozen, anchor) for f in fields3), anchor, eps)
        achieved = Fraction(0)
        for k in window:
            views = [f.pin(frozen, k) for f in fields3]
            gap = certify_nash(space, views, list(res.strategies), k, eps).worst_gap
            achieved = max(achieved, res.gap if k == anchor else gap)
            if achieved > tolerance:
                raise WindowCertificationFailed(
                    f"pair entry at {g} reached gap {achieved} > 11*eps at grid index {k}",
                    g=g, at=k, kind="nonzero_sum_pair", achieved=achieved, bound=tolerance,
                )
        entries[g] = dict(zip(free, res.strategies)), achieved
    return entries


@pytest.mark.parametrize("guard", ("", "enum=1,dp=10000000"))
def test_pair_family_anchor_candidate_over_eps_takes_the_full_solve(
    three_time_space, monkeypatch, guard
):
    """A pair-family anchor whose node-sweep candidate misses eps gets the
    full ``solve_2p_nash``: the same payload and gap, or the same
    ``WindowCertificationFailed``, or, past the enumeration cap, the same
    ``DeskScaleExceeded``."""
    space = three_time_space
    monkeypatch.setenv(ENV_OVERRIDE, guard)
    full_solves = []
    real_solve = nash2.solve_2p_nash
    monkeypatch.setattr(nash2, "solve_2p_nash", lambda *a: full_solves.append(a) or real_solve(*a))
    kinds = set()
    for eps in (Fraction(1, 8), Fraction(1, 4)):
        for seed in range(12):
            rng = random.Random(seed)
            tables = [
                {(a, b, w): rng.randint(0, 3) for a in range(3) for b in range(3) for w in range(2)}
                for _ in range(2)
            ]
            fields3 = tuple(
                payoff_from_function(space, 3, lambda ks, w, t=t: t[(ks[1], ks[2], w)])
                for t in tables
            )
            before = len(full_solves)
            got = family_outcome(lambda: {
                g: (e.payload, e.achieved)
                for g, e in build_pair_family(space, fields3, 0, 1, eps).entries.items()
            })
            want = family_outcome(lambda: full_solve_pair_family(space, fields3, 0, 1, eps))
            assert got == want
            if len(full_solves) > before:
                kinds.add(got[0] if isinstance(got, tuple) else "entries")
    assert kinds == ({DeskScaleExceeded} if guard else {"entries", WindowCertificationFailed})


def test_pair_family_entries_match_fresh_window_certificates():
    """Every entry's achieved gap is the max of fresh ``certify_nash`` gaps
    over its window, the anchor included, at the minimal step."""
    inst = generate_instance(seed=8, n_outcomes=4, n_times=6, n_players=3)
    space, eps, h = inst.space, inst.epsilon, inst.space.grid.min_step
    anchors_in_window = 0
    for frozen in range(3):
        free = [q for q in range(3) if q != frozen]
        fields3 = (inst.fields[free[0]], inst.fields[free[1]])
        fam = build_pair_family(space, fields3, frozen, h, eps)
        for entry in fam.entries.values():
            gaps = [
                certify_nash(
                    space, [f.pin(frozen, k) for f in fields3], [entry.payload[q] for q in free],
                    k, eps,
                ).worst_gap
                for k in entry.window
            ]
            assert entry.achieved == max([Fraction(0), *gaps])
            anchors_in_window += entry.anchor in entry.window
    assert anchors_in_window > 0


@pytest.mark.parametrize("seed", range(6))
def test_two_player_games_at_start_0_match_reference(seed):
    """From index 0 the solver returns the old solver's pair, unpatched."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 2, n_times=4 + seed % 3, n_players=2)
    args = (inst.space, *inst.fields, 0, inst.epsilon)
    res = solve_2p_nash(*args)
    ref = reference_solve_2p_nash(*args)
    assert res.strategies == ref.strategies
    assert res.certificate == ref.certificate
    assert res.fallback_used == ref.fallback_used


def test_later_start_matches_reference_patched(three_time_space):
    """From index 1, candidate and exhaustive-fallback pairs alike are the
    old solver's pair patched at the start."""
    space = three_time_space
    start = StoppingTime((1, 1))
    changed_fallbacks = 0
    for seed in range(8):
        rng = random.Random(seed)
        tables = [
            {(a, b, w): rng.randint(0, 3) for a in range(3) for b in range(3) for w in range(2)}
            for _ in range(2)
        ]
        fa, fb = (
            payoff_from_function(space, 2, lambda ks, w, t=t: t[(ks[0], ks[1], w)])
            for t in tables
        )
        args = (space, fa, fb, start, Fraction(1, 10**9))
        res = solve_2p_nash(*args)
        ref = reference_solve_2p_nash(*args)
        assert res.strategies == patch_pair(space, ref.strategies, 1)
        assert res.certificate == ref.certificate
        assert res.fallback_used == ref.fallback_used
        changed_fallbacks += res.fallback_used and res.strategies != ref.strategies
    assert changed_fallbacks > 0


def test_reactions_solved_only_from_the_start(monkeypatch):
    """Anchored at K no reaction is solved; from k, one per seat and per
    observation in [k, K), each by the integer Snell sweep."""
    inst = generate_instance(3, n_outcomes=3, n_times=5, n_players=2)
    K = inst.space.grid.terminal_index
    calls = []
    real = classic._snell_sweep

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classic, "_snell_sweep", counting)
    for k in range(K + 1):
        calls.clear()
        solve_2p_nash(inst.space, *inst.fields, k, inst.epsilon)
        assert len(calls) == 2 * (K - k)


def one_node_game(cells_a, cells_b):
    """Two-slot fields on one outcome over grid {0, 1} whose node at 0 has the
    given cells for seat a and seat b, each in the order both stop, a alone,
    b alone, both continue (the survivor's only reaction is to stop at 1)."""
    space = FilteredSpace(
        grid=make_grid([0, 1]), weights=(Fraction(1),), partitions=(((0,),), ((0,),))
    )
    cell = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    fields = tuple(
        payoff_from_function(space, 2, lambda ks, w, c=cells: c[cell[ks]])
        for cells in (cells_a, cells_b)
    )
    return space, fields


@pytest.mark.parametrize(
    "cells_a, cells_b, eps, initial",
    [
        # chicken: a alone and b alone are both equilibria, a alone comes first
        ((0, 1, 2, 0), (0, 2, 1, 0), 1, (0, 1)),
        # a's tie sc_a == cc_a makes a alone a weak equilibrium; both continue
        # and b alone are none, and the fallback would pick both stop
        ((0, 1, 1, 1), (0, 1, 0, 0), 1, (0, 1)),
        # matching pennies, no pure equilibrium: a waits (sc_a < cc_a) and b
        # stops (cs_b > cc_b); a gains 1 by stopping, within eps = 1
        ((1, 0, 0, 1), (0, 1, 1, 0), 1, (1, 0)),
    ],
)
def test_node_choice_sets_initial_stops(cells_a, cells_b, eps, initial):
    """The first pure node equilibrium in the order both stop, a alone, b
    alone, both continue, else each seat stops iff stopping alone is at least
    as good as waiting, is what the seats' initial stops play."""
    space, fields = one_node_game(cells_a, cells_b)
    res = solve_2p_nash(space, *fields, 0, eps)
    assert not res.fallback_used
    assert tuple(s.initial.idx[0] for s in res.strategies) == initial
    ref = reference_solve_2p_nash(space, *fields, 0, eps)
    assert res.strategies == ref.strategies
    assert res.certificate == ref.certificate


def test_after_stop_table_keys_on_identity(monkeypatch):
    """``AfterStopTable`` keys on the identity of objects it holds.  A view
    whose every outside reference is gone is still the one the table returns
    for its (field, slot, k), with the same best-response numerators and no
    new DP run, after many fresh fields and strategies came and went (each
    answered from its own values, never from a dropped object's reused id,
    also as an opponent that was never interned before);
    an equal but distinct strategy maps to the interned one; a field equal
    to a held one but not the same object gets a view and a DP run of its
    own."""
    inst = generate_instance(1004, n_outcomes=4, n_times=6)
    space, fields = inst.space, inst.fields
    K, k = space.grid.terminal_index, 2
    runs = []
    real = nash2._best_response
    # records the view of each DP run; the strategies it was given stay unheld
    monkeypatch.setattr(nash2, "_best_response", lambda *a, **kw: runs.append(a[1]) or real(*a, **kw))
    table = nash2.AfterStopTable()
    pair = [table.intern(s) for s in nash2._candidate(
        space, table.pin(fields[0], 1, k), table.pin(fields[2], 1, k), k)]
    view_id = id(table.pin(fields[0], 1, k))
    best = table.best_response(fields[0], 1, k, 0, pair)
    atoms, view_of_first = stopped_atoms(space, k), fields[0].pin(1, k)
    for i in range(100):
        rows = {ks: tuple(n + i for n in row) for ks, row in fields[0].rows.items()}
        fresh = PayoffField.from_rows(space, 3, rows, fields[0].den)
        assert table.pin(fresh, 1, k).rows == fresh.pin(1, k).rows
        assert table.best_response(fresh, 1, k, 0, pair) == real(
            space, fresh.pin(1, k), pair, (0,), "max", k, atoms=atoms)[1]
        del rows, fresh
    for i in range(100):  # opponents the table has not met, each dropped after use
        react = tuple(constant_time(space, K if i >> j & 1 else min(j + 1, K)) for j in range(K + 1))
        other = [None, StrategyOrder2(initial=constant_time(space, i % (K + 1)), react=react)]
        assert table.best_response(fields[0], 1, k, 0, other) == real(
            space, view_of_first, other, (0,), "max", k, atoms=atoms)[1]
        del react, other
    view = table.pin(fields[0], 1, k)
    assert id(view) == view_id and view.rows == fields[0].pin(1, k).rows
    before = len(runs)
    assert table.best_response(fields[0], 1, k, 0, pair) is best and len(runs) == before
    copy = dataclasses.replace(pair[1])
    assert copy is not pair[1] and table.intern(copy) is pair[1]
    twin = PayoffField.from_rows(space, 3, dict(fields[0].rows), fields[0].den)
    assert twin == fields[0] and table.pin(twin, 1, k) is not view
    assert table.best_response(twin, 1, k, 0, pair) == best and len(runs) == before + 1
