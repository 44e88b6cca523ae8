"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Criterion 1 family: seeds 1..50, 2-3 outcomes, 3-4 grid times, payoffs in
[0,1] with modulus slope at most 1, epsilon = 1/20, window width from
select_h.  Everything asserted here is exact rational arithmetic; the only
tolerances are the bounds the construction itself promises.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import random_rv
from oracles import (
    affine,
    brute_dynkin_maximin,
    brute_joint_inf,
    closed_form_resolve2,
    closed_form_resolve3,
    duel_payoff_rv,
    pair_payoff,
)
from stopgame.classic import (
    dynkin_hitting_pair,
    dynkin_value,
    joint_inf_pair,
)
from stopgame.cli import main as cli_main
from stopgame.coalition import assemble_saddle, build_components, certify_saddle
from stopgame.generator import generate_instance
from stopgame.nash2 import stop_now_solutions
from stopgame.nash3 import solve_three_player
from stopgame.payoff import estimate_modulus, modulus_max, select_h
from stopgame.space import (
    cond_exp,
    constant_time,
    expectation,
    is_stopping_time,
)
from stopgame.strategy import lift_obstinate2, patch_pair, resolve2, resolve3
from stopgame.verify import (
    enumerate_stopping_times,
    enumerate_strategies2,
    nash_gap,
)

EPS = Fraction(1, 20)
BOUND_13 = 13 * EPS


def family_instance(seed: int):
    return generate_instance(
        seed,
        n_outcomes=2 + seed % 2,
        n_times=3 + (seed // 2) % 2,
        slope="1",
        epsilon=EPS,
    )


@pytest.fixture(scope="module")
def solved_family():
    """Seeds 1..50 solved once; reused by criteria 1, 5, 7, 8."""
    out = []
    for seed in range(1, 51):
        inst = family_instance(seed)
        mod = modulus_max([estimate_modulus(f) for f in inst.fields])
        h = select_h(mod, EPS, inst.space.grid)
        sol = solve_three_player(inst.space, inst.fields, eps=EPS, h=h)
        out.append((inst, h, sol))
    return out


def test_criterion_1_equilibrium_bound(solved_family):
    """Three-player profiles certify within 13*eps on 50 generated instances."""
    assert len(solved_family) >= 50
    worst = Fraction(0)
    for inst, _, sol in solved_family:
        gaps = nash_gap(
            inst.space, inst.fields, sol.profile, constant_time(inst.space, 0)
        )
        for per_player in gaps:
            for gap in per_player.values():
                assert gap <= BOUND_13
                worst = max(worst, gap)
    assert worst <= BOUND_13


def test_criterion_2_coalition_saddle(solved_family):
    """17*eps saddle with per-part constants 9/5/8 eps on the same family."""
    for idx, (inst, h, _) in enumerate(solved_family):
        leader = idx % 3
        comp = build_components(
            inst.space, inst.fields[leader], leader,
            constant_time(inst.space, 0), EPS, h,
            stop_now_solutions(inst.space, inst.fields[leader], leader),
        )
        triple = assemble_saddle(comp)
        cert = certify_saddle(comp, triple)
        assert cert.passes
        for atom, v in cert.value_at_start.items():
            assert abs(cert.on_path[atom] - v) <= 8 * EPS
            assert cert.leader_best[atom] <= v + 9 * EPS
            assert cert.coalition_best[atom] >= v - 5 * EPS
            assert cert.leader_best[atom] - cert.coalition_best[atom] <= 17 * EPS


def test_criterion_3_cooperative_reduction():
    """Committed-pair infimum equals both enumeration oracles exactly."""
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        inst = generate_instance(seed, n_outcomes=2, n_times=3, n_players=2)
        space = inst.space
        n_pairs = sum(1 for _ in enumerate_stopping_times(space, 0)) ** 2
        if n_pairs > 200:
            continue
        field = inst.fields[0]
        res = joint_inf_pair(space, field, 0)
        brute = brute_joint_inf(space, field, 0)
        assert res.value == brute
        # the same infimum over obstinate-lifted strategy pairs
        best = None
        for rho in enumerate_stopping_times(space, 0):
            for tau in enumerate_stopping_times(space, 0):
                a, b = resolve2(
                    space, lift_obstinate2(space, rho), lift_obstinate2(space, tau)
                )
                val = pair_payoff(space, field, a, b, 0)
                best = val if best is None else tuple(
                    min(x, y) for x, y in zip(best, val)
                )
        assert best == res.value
        checked += 1
    assert checked >= 20


def test_criterion_4_dynkin_correctness():
    """Duel value equals maximin and minimax exactly; hitting pair is an
    eps-saddle against every enumerated one-sided deviation."""
    rng = random.Random(401)
    eps = Fraction(1, 10)
    for _ in range(12):
        from conftest import random_space

        space = random_space(rng, rng.randint(2, 3), rng.randint(3, 4))
        lo = [cond_exp(space, random_rv(rng, space.n_outcomes), k) for k in range(len(space.grid))]
        hi = []
        for k, layer in enumerate(lo):
            gap_rv = cond_exp(
                space,
                tuple(Fraction(rng.randint(0, 8), 4) for _ in layer),
                k,
            )
            hi.append(tuple(x + g for x, g in zip(layer, gap_rv)))
        value = dynkin_value(space, lo, hi, 0)
        maximin, minimax = brute_dynkin_maximin(space, lo, hi, 0)
        assert value[0] == maximin == minimax
        mu = constant_time(space, 0)
        rho, theta = dynkin_hitting_pair(space, value, lo, hi, eps, mu)
        assert is_stopping_time(space, rho.idx)
        assert is_stopping_time(space, theta.idx)
        on_path = expectation(space, duel_payoff_rv(space, lo, hi, rho, theta, mu))
        assert abs(on_path - expectation(space, value[0])) <= eps
        for dev in enumerate_stopping_times(space, 0):
            assert expectation(
                space, duel_payoff_rv(space, lo, hi, dev, theta, mu)
            ) - eps <= on_path
            assert expectation(
                space, duel_payoff_rv(space, lo, hi, rho, dev, mu)
            ) + eps >= on_path


def test_criterion_5_ordering_theorems(solved_family):
    """Stop-now values never exceed the rival floor, and the pinned optima
    sit between stop-now and after-stop values, pointwise everywhere."""
    for idx, (inst, h, sol) in enumerate(solved_family):
        space = inst.space
        K = space.grid.terminal_index
        for seat in range(3):
            pp = sol.context.players[seat]
            for k in range(K + 1):
                for w in range(space.n_outcomes):
                    assert pp.stop_exact[k][w] <= pp.rival_floor[k][w]
        comp = sol.context.saddles[idx % 3][0]
        cj, ck = comp.coalition
        for k in range(K + 1):
            for w in range(space.n_outcomes):
                x = comp.leader_stop_value[k][w]
                assert x <= comp.pinned_solo[ck][k][w] <= comp.after_stop_value[cj][k][w]
                assert x <= comp.pinned_solo[cj][k][w] <= comp.after_stop_value[ck][k][w]


def test_criterion_6_resolution_fidelity(three_time_space):
    """Chronological simulation equals the closed-form case tables, exactly,
    over exhaustive tiny enumerations."""
    space = three_time_space
    strategies = list(enumerate_strategies2(space, 0))
    for a in strategies:
        for b in strategies:
            ra, rb = resolve2(space, a, b)
            for w in range(space.n_outcomes):
                assert (ra.idx[w], rb.idx[w]) == closed_form_resolve2(a, b, w)

    from fractions import Fraction as F

    from stopgame.space import FilteredSpace, make_grid
    from test_strategy import all_order3

    det = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(F(1),),
        partitions=(((0,),), ((0,),), ((0,),)),
    )
    build = all_order3(det)
    pools = build(0), build(1), build(2)
    for s0 in pools[0]:
        for s1 in pools[1]:
            for s2 in pools[2]:
                got = resolve3(det, s0, s1, s2)
                assert tuple(r.idx[0] for r in got) == closed_form_resolve3(
                    s0, s1, s2, 0
                )


def test_criterion_7_window_certification(solved_family, three_time_space):
    """Family entries meet 11*eps / 5*eps / eps on the generated family, and
    the patch identities hold exhaustively on the fixture."""
    for inst, h, sol in solved_family[:25]:
        ctx = sol.context
        for fam in ctx.overline.values():
            for entry in fam.entries.values():
                assert entry.tolerance == 11 * EPS
                assert entry.achieved <= entry.tolerance
        for s in range(3):
            comp = ctx.saddles[s][0]
            for key, fam in comp.families.items():
                for entry in fam.entries.values():
                    assert entry.achieved <= entry.tolerance
                    if key[0] == "single":
                        assert entry.tolerance == EPS

    space = three_time_space
    anchored = list(enumerate_strategies2(space, constant_time(space, 1)))
    rng = random.Random(55)
    for _ in range(8):
        star = (rng.choice(anchored), rng.choice(anchored))
        hat = patch_pair(space, star, 1)
        for other in anchored:
            assert resolve2(space, hat[0], other) == resolve2(space, star[0], other)
            assert resolve2(space, other, hat[0]) == resolve2(space, other, star[0])
            assert resolve2(space, hat[1], other) == resolve2(space, star[1], other)
            assert resolve2(space, other, hat[1]) == resolve2(space, other, star[1])


def test_criterion_8_affine_equivariance(solved_family):
    """Replacing a player's payoff by a*U+b scales her gap exactly by a."""
    inst, h, sol = solved_family[0]
    theta = constant_time(inst.space, 0)
    base_gaps = nash_gap(inst.space, inst.fields, sol.profile, theta)
    a, b = Fraction(5, 2), Fraction(-7, 3)
    for seat in range(3):
        scaled_fields = list(inst.fields)
        scaled_fields[seat] = affine(inst.fields[seat], a, b)
        scaled = nash_gap(inst.space, scaled_fields, sol.profile, theta)
        for atom, gap in base_gaps[seat].items():
            assert scaled[seat][atom] == a * gap
        other = (seat + 1) % 3
        assert scaled[other] == base_gaps[other]


def test_criterion_9_determinism(tmp_path):
    """Identical inputs and seeds yield byte-identical files and reports."""
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for out in (g1, g2):
        assert cli_main(
            ["gen", "--seed", "33", "--outcomes", "3", "--times", "4", "--out", str(out)]
        ) == 0
    assert g1.read_bytes() == g2.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert cli_main(["solve", "--game", str(g1), "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    v1 = tmp_path / "v1.json"
    assert cli_main(
        ["verify", "--game", str(g1), "--profile", str(r1), "--out", str(v1)]
    ) == 0
    rep = json.loads(r1.read_text())
    ver = json.loads(v1.read_text())
    assert rep["max_gap"] == ver["max_gap"]
    assert [p["gap"] for p in rep["per_player"]] == [p["gap"] for p in ver["per_player"]]
