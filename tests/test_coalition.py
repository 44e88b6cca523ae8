from __future__ import annotations

import random
from fractions import Fraction

from conftest import random_space
from stopgame.coalition import assemble_saddle, build_components, certify_saddle
from stopgame.nash2 import stop_now_solutions
from stopgame.payoff import payoff_from_function
from stopgame.space import cond_exp, constant_time
from stopgame.strategy import validate_strategy


def coupled_field(space, rng, scale=Fraction(1, 8), slope_den=40):
    """Adapted payoff with martingale information and mild time slopes."""
    n = space.n_outcomes
    g = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(n))
    mart = {k: cond_exp(space, g, k) for k in range(len(space.grid))}
    jump = max(
        (
            abs(mart[k + 1][w] - mart[k][w])
            for k in range(len(space.grid) - 1)
            for w in range(n)
        ),
        default=Fraction(0),
    )
    gam = min(Fraction(1), (space.grid.min_step / (2 * jump))) if jump else Fraction(1)
    slopes = [Fraction(rng.randint(-slope_den, slope_den), slope_den * 4) for _ in range(3)]
    base = Fraction(rng.randint(30, 70), 100)
    pts = space.grid.points

    def fn(ks, w):
        v = base + sum(s * pts[k] for s, k in zip(slopes, ks))
        v += gam * scale * mart[max(ks)][w]
        return v

    return payoff_from_function(space, 3, fn)


def small_space():
    from stopgame.space import FilteredSpace, make_grid

    return FilteredSpace(
        grid=make_grid(["0", "1/100", "1/50", "3/100"]),
        weights=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        partitions=(
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0,), (1,), (2,)),
            ((0,), (1,), (2,)),
        ),
    )


def test_constant_payoff_components():
    space = small_space()
    field = payoff_from_function(space, 3, lambda ks, w: "2/3")
    mu = constant_time(space, 0)
    comp = build_components(
        space, field, 0, mu, "1/20", space.grid.min_step, stop_now_solutions(space, field, 0)
    )
    K = space.grid.terminal_index
    for k in range(K + 1):
        assert comp.leader_stop_value[k] == tuple([Fraction(2, 3)] * 3)
        assert comp.coalition_floor[k] == tuple([Fraction(2, 3)] * 3)
        assert comp.value[k] == tuple([Fraction(2, 3)] * 3)
    assert comp.leader_hit == mu
    assert comp.coalition_hit == mu


def test_leader_own_time_payoff():
    """Payoff = leader's own stop time: coalition is irrelevant and the duel
    value is the horizon-forced supremum."""
    space = small_space()
    pts = space.grid.points
    field = payoff_from_function(space, 3, lambda ks, w: pts[ks[0]])
    mu = constant_time(space, 0)
    comp = build_components(
        space, field, 0, mu, "1/400", space.grid.min_step, stop_now_solutions(space, field, 0)
    )
    K = space.grid.terminal_index
    for k in range(K + 1):
        assert comp.leader_stop_value[k] == tuple([pts[k]] * 3)
    # waiting dominates: the duel value is the terminal payoff everywhere
    for k in range(K + 1):
        assert comp.value[k] == tuple([pts[K]] * 3)
    assert comp.leader_hit.idx == (K,) * 3


def test_sandwiches_on_random_instances():
    rng = random.Random(211)
    for trial in range(50):
        space = random_space(rng, rng.randint(2, 3), rng.randint(3, 4))
        scaled = FractionGrid(space)
        field = coupled_field(scaled, rng)
        mu = constant_time(scaled, 0)
        leader = trial % 3
        comp = build_components(
            scaled, field, leader, mu, "1/20", scaled.grid.min_step,
            stop_now_solutions(scaled, field, leader),
        )
        # ordering checks run inside build_components; also assert the
        # designate-event dichotomy explicitly
        cj, ck = comp.coalition
        K = scaled.grid.terminal_index
        eps = comp.eps
        for w in range(scaled.n_outcomes):
            th = comp.coalition_hit.idx[w]
            if comp.designate[w]:
                assert comp.pinned_solo[ck][th][w] <= comp.after_stop_value[cj][th][w]
                assert (
                    comp.after_stop_value[cj][th][w] <= comp.value[th][w] + eps
                )
            else:
                assert (
                    comp.after_stop_value[ck][th][w] == comp.coalition_floor[th][w]
                )


def FractionGrid(space):
    """Shrink an integer test grid into the fine-step regime."""
    from stopgame.space import FilteredSpace, TimeGrid

    pts = tuple(p / 100 for p in space.grid.points)
    return FilteredSpace(
        grid=TimeGrid(pts), weights=space.weights, partitions=space.partitions
    )


def test_assemble_and_certify_random():
    rng = random.Random(223)
    for trial in range(8):
        space = FractionGrid(random_space(rng, rng.randint(2, 3), rng.randint(3, 4)))
        field = coupled_field(space, rng)
        mu = constant_time(space, 0)
        leader = trial % 3
        comp = build_components(
            space, field, leader, mu, "1/20", space.grid.min_step,
            stop_now_solutions(space, field, leader),
        )
        triple = assemble_saddle(comp)
        for s in triple:
            assert validate_strategy(space, s) == []
        cert = certify_saddle(comp, triple)
        assert cert.passes, (
            f"trial {trial}: leader {max(cert.leader_best.values())} vs "
            f"value+9eps, coalition {min(cert.coalition_best.values())}"
        )
        for atom, v in cert.value_at_start.items():
            assert abs(cert.on_path[atom] - v) <= cert.on_path_bound
            assert cert.leader_best[atom] <= v + cert.leader_bound
            assert cert.coalition_best[atom] >= v - cert.coalition_bound


def test_certify_from_stopping_time_start():
    rng = random.Random(227)
    space = FractionGrid(random_space(rng, 3, 4))
    field = coupled_field(space, rng)
    # start at a genuine stopping time: first split of the filtration
    from stopgame.space import StoppingTime, is_stopping_time

    idx = []
    for w in range(space.n_outcomes):
        k = 0
        while k < space.grid.terminal_index and len(space.partitions[k][space.block_id[k][w]]) > 1:
            k += 1
        idx.append(k)
    mu = StoppingTime(tuple(idx))
    assert is_stopping_time(space, mu.idx)
    comp = build_components(
        space, field, 0, mu, "1/20", space.grid.min_step, stop_now_solutions(space, field, 0)
    )
    triple = assemble_saddle(comp)
    cert = certify_saddle(comp, triple)
    assert cert.passes


def test_heterogeneous_urgency_saddle():
    """Leader strongly prefers late stops, the coalition early ones."""
    from stopgame.space import FilteredSpace, make_grid

    space = FilteredSpace(
        grid=make_grid(["0", "1/10", "1/5", "3/10"]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )
    pts = space.grid.points

    def fn(ks, w):
        return (
            Fraction(1, 2)
            + Fraction(9, 10) * pts[ks[0]]
            - Fraction(1, 5) * (pts[ks[1]] + pts[ks[2]])
        )

    field = payoff_from_function(space, 3, fn)
    comp = build_components(
        space, field, 0, constant_time(space, 0), "1/8", "1/10", stop_now_solutions(space, field, 0)
    )
    triple = assemble_saddle(comp)
    cert = certify_saddle(comp, triple)
    assert cert.passes
    # the leader has no incentive to stop early; the eps-hit fires only once
    # the remaining upside drops below eps, near the horizon
    assert min(comp.leader_hit.idx) >= 2


def test_constant_payoff_assembly_designation():
    """With a flat payoff the designate event is everything: the first
    coalition seat stops at the hitting time, the other never initiates."""
    space = small_space()
    field = payoff_from_function(space, 3, lambda ks, w: "1/2")
    mu = constant_time(space, 0)
    comp = build_components(
        space, field, 0, mu, "1/20", space.grid.min_step, stop_now_solutions(space, field, 0)
    )
    assert all(comp.designate)
    leader, member_lo, member_hi = assemble_saddle(comp)
    assert leader.initial == comp.leader_hit
    assert member_lo.initial == comp.coalition_hit
    K = space.grid.terminal_index
    assert member_hi.initial.idx == (K,) * space.n_outcomes


def test_leader_react_dispatch_matches_families():
    """The leader's pair-observation table routes to the right family branch."""
    from stopgame.nash2 import family_lookup

    rng = random.Random(239)
    space = FractionGrid(random_space(rng, 3, 4))
    field = coupled_field(space, rng)
    comp = build_components(
        space, field, 0, constant_time(space, 0), "1/20", space.grid.min_step,
        stop_now_solutions(space, field, 0),
    )
    leader, _, _ = assemble_saddle(comp)
    K = space.grid.terminal_index
    cj, ck = comp.coalition
    pts = space.grid.points
    for a in range(K):
        for b in range(K):
            got = leader.react_two[(a, b)]
            if a < b:
                entry = family_lookup(comp.families[("pair", cj)], pts[a])
                want = entry.payload[0].react[b]  # seat 0 is the leader
            elif a > b:
                entry = family_lookup(comp.families[("pair", ck)], pts[b])
                want = entry.payload[0].react[a]
            else:
                entry = family_lookup(comp.families[("single", 0)], pts[a])
                want = entry.payload[0]
            assert got == want, (a, b)


def test_on_path_routes_through_the_case_split():
    """Resolved play: the leader stops at her hitting time when not strictly
    later than the coalition hit; otherwise the designated member moves first
    and the leader responds strictly later."""
    from stopgame.verify import resolve_profile

    rng = random.Random(401)
    for trial in range(10):
        space = FractionGrid(random_space(rng, rng.randint(2, 3), rng.randint(3, 4)))
        field = coupled_field(space, rng)
        leader = trial % 3
        comp = build_components(
            space, field, leader, constant_time(space, 0), "1/20", space.grid.min_step,
            stop_now_solutions(space, field, leader),
        )
        triple = assemble_saddle(comp)
        profile = [None] * 3
        profile[comp.leader] = triple[0]
        profile[comp.coalition[0]] = triple[1]
        profile[comp.coalition[1]] = triple[2]
        times = resolve_profile(space, profile)
        for w in range(space.n_outcomes):
            rho, th = comp.leader_hit.idx[w], comp.coalition_hit.idx[w]
            cases = [
                rho < th,
                rho == th and comp.designate[w],
                rho == th and not comp.designate[w],
                rho > th and comp.designate[w],
                rho > th and not comp.designate[w],
            ]
            assert sum(cases) == 1
            if rho <= th:
                assert times[comp.leader].idx[w] == rho
            else:
                member = comp.coalition[0] if comp.designate[w] else comp.coalition[1]
                assert times[member].idx[w] == th
                assert times[comp.leader].idx[w] > th
