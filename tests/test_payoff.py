from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_rv, random_space
from oracles import (
    as_layers,
    certifies_field,
    reference_at_stops,
    reference_certifies_field,
    reference_check_adapted,
    reference_double_pin,
    reference_estimate_modulus,
    reference_family_value,
    reference_pair_changes,
    reference_pin,
    reference_process,
    reference_select_h,
    value_at,
)
from stopgame.classic import block_rv
from stopgame.errors import NoValidH
from stopgame.generator import generate_instance
from stopgame import payoff
from stopgame.payoff import (
    MODULUS_SLACK,
    Modulus,
    PayoffField,
    _pair_changes,
    auto_h,
    check_adapted,
    estimate_modulus,
    eta_reaching,
    modulus_max,
    payoff_from_function,
    select_h,
)
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    TimeGrid,
    cond_exp,
    cond_exp_at,
    fill_blocks,
    make_grid,
    stopped_atoms,
)
from stopgame.verify import enumerate_stopping_times


def _walk(*fields, radius=None, beyond=0):
    """The modulus pair walk over the fields' joint rows."""
    return _pair_changes(payoff._joint_rows(fields), radius=radius, beyond=beyond)


def test_time_only_payoff_is_adapted(three_time_space):
    field = payoff_from_function(three_time_space, 2, lambda ks, w: ks[0] + ks[1])
    assert check_adapted(field) == []


def test_outcome_split_at_time_zero_violates(three_time_space):
    field = payoff_from_function(
        three_time_space, 2, lambda ks, w: w if ks == (0, 0) else 0
    )
    assert (0, 0) in check_adapted(field)


def test_indicator_resolved_at_max_is_adapted(three_time_space):
    space = three_time_space

    def fn(ks, w):
        if max(ks) >= 1:
            return 1 if w == 0 else 0
        return Fraction(1, 2)

    field = payoff_from_function(space, 2, fn)
    assert check_adapted(field) == []


def test_constant_modulus_is_slack_only(three_time_space):
    field = payoff_from_function(three_time_space, 2, lambda ks, w: 7)
    mod = estimate_modulus(field)
    assert all(v == MODULUS_SLACK for _, v in mod.table)
    assert certifies_field(mod, field)


def test_sum_of_times_modulus(three_time_space):
    # payoff t1+t2 on an integer grid: eta(delta) is delta plus slack
    field = payoff_from_function(
        three_time_space,
        2,
        lambda ks, w: three_time_space.grid.points[ks[0]]
        + three_time_space.grid.points[ks[1]],
    )
    mod = estimate_modulus(field)
    for delta, eta in mod.table:
        assert eta == delta + MODULUS_SLACK
    assert certifies_field(mod, field)


def test_jump_payoff_modulus(three_time_space):
    field = payoff_from_function(
        three_time_space, 2, lambda ks, w: 1 if max(ks) >= 1 else 0
    )
    mod = estimate_modulus(field)
    assert mod.eval(1) >= 1


def test_modulus_certifies_random_adapted_fields():
    rng = random.Random(19)
    for _ in range(10):
        space = random_space(rng, 3, 4)
        base = {k: cond_exp(space, random_rv(rng, 3), k) for k in range(4)}
        field = payoff_from_function(space, 2, lambda ks, w: base[max(ks)][w])
        assert check_adapted(field) == []
        assert certifies_field(estimate_modulus(field), field)


def test_modulus_max_dominates_pointwise_max():
    rng = random.Random(23)
    space = random_space(rng, 3, 4)
    f1 = payoff_from_function(space, 2, lambda ks, w: cond_exp(space, (1, 2, 5), max(ks))[w] * ks[0])
    f2 = payoff_from_function(space, 2, lambda ks, w: cond_exp(space, (3, 0, 1), max(ks))[w] * ks[1])
    m1, m2 = estimate_modulus(f1), estimate_modulus(f2)
    merged = modulus_max([m1, m2])
    fmax = payoff_from_function(
        space, 2, lambda ks, w: max(value_at(f1, ks, w), value_at(f2, ks, w))
    )
    mod_of_max = estimate_modulus(fmax)
    for delta, eta in mod_of_max.table:
        assert eta <= merged.eval(delta)


def test_select_h_flat_payoff(three_time_space):
    field = payoff_from_function(three_time_space, 2, lambda ks, w: 3)
    mod = estimate_modulus(field)
    h = select_h(mod, "1/10", three_time_space.grid)
    assert h == three_time_space.grid.span


def test_select_h_linear():
    grid = make_grid([0, "1/4", "1/2", "3/4", 1])
    deltas = sorted(
        {
            abs(a - b) + abs(c - d)
            for a in grid.points
            for b in grid.points
            for c in grid.points
            for d in grid.points
        }
    )
    from stopgame.payoff import Modulus

    mod = Modulus(tuple((d, d) for d in deltas if d > 0))
    h = select_h(mod, "3/10", grid)
    assert h == Fraction(1, 4)


def test_select_h_no_valid(three_time_space):
    field = payoff_from_function(
        three_time_space, 2, lambda ks, w: 1 if max(ks) >= 1 else 0
    )
    mod = estimate_modulus(field)
    with pytest.raises(NoValidH):
        select_h(mod, "1/2", three_time_space.grid)


def test_pin_reduces_arity(three_time_space):
    field = payoff_from_function(three_time_space, 3, lambda ks, w: ks[0] * 9 + ks[1] * 3 + ks[2])
    pinned = field.pin(1, 2)
    assert pinned.arity == 2
    assert pinned.at((1, 0))[0] == 1 * 9 + 2 * 3 + 0


def assert_same_slice(got: PayoffField, ref: PayoffField):
    """Equal fields with the same rows, in the same key order, on the same
    den; the readers of the rows agree too."""
    assert got == ref
    assert (list(got.rows.items()), got.den) == (list(ref.rows.items()), ref.den)
    if got.arity:  # an arity-0 slice has no latest stop to check at
        assert check_adapted(got) == check_adapted(ref)
    assert payoff._joint_rows([got]) == payoff._joint_rows([ref])
    neg, ref_neg = got.negated(), ref.negated()
    assert (neg, list(neg.rows.items()), neg.den) == (
        ref_neg, list(ref_neg.rows.items()), ref_neg.den
    )


@pytest.mark.parametrize("seed", range(4))
def test_pin_matches_reference_scan(seed):
    """The indexed slice equals the scanning one on generated fields, their
    negations and nested pins; a field's den and rows, and so its slices',
    are read through ``negated`` unchanged."""
    inst = generate_instance(seed, n_outcomes=2 + seed % 3, n_times=4 + seed % 2)
    K = inst.space.grid.terminal_index
    for field in inst.fields:
        negated = field.negated()
        assert negated.den == field.den == math.lcm(
            *(v.denominator for ks in negated.rows for v in negated.at(ks))
        )
        for f in (field, negated):
            for slot, k in itertools.product(range(3), range(K + 1)):
                got, ref = f.pin(slot, k), reference_pin(f, slot, k)
                assert_same_slice(got, ref)
                for slot2, k2 in itertools.product(range(2), range(K + 1)):
                    inner = got.pin(slot2, k2)
                    assert_same_slice(inner, reference_pin(ref, slot2, k2))
                    assert_same_slice(inner.pin(0, k), reference_pin(inner, 0, k))
    with pytest.raises(ValueError):
        inst.fields[0].pin(3, 0)


def test_pinned_field_equals_a_field_of_its_values_on_another_den(three_time_space):
    """Equality is on values: a pin carries its parent's den, while a field
    built from the pin's values takes the lcm of their own denominators."""
    field = payoff_from_function(
        three_time_space, 2, lambda ks, w: Fraction(ks[0] + w, 1 + 2 * ks[0])
    )
    pinned = field.pin(0, 0)
    rebuilt = PayoffField(three_time_space, 1, {ks: pinned.at(ks) for ks in pinned.rows})
    assert (pinned.den, rebuilt.den) == (15, 1)
    assert pinned.rows != rebuilt.rows
    assert pinned == rebuilt and rebuilt == pinned
    assert pinned.negated() == rebuilt.negated()
    assert pinned != field.pin(0, 1)
    # equality on integers agrees with comparing the ``Fraction`` slices
    # that ``at`` reads, across fields on different dens
    bumped = [
        PayoffField.from_rows(
            pinned.space, 1, {**pinned.rows, ks: (*row[:w], row[w] + 1, *row[w + 1 :])}, pinned.den
        )
        for ks, row in pinned.rows.items()
        for w in range(len(row))
    ]
    partial = PayoffField.from_rows(pinned.space, 1, {(0,): pinned.rows[(0,)]}, pinned.den)
    fields = [pinned, rebuilt, pinned.negated(), rebuilt.negated(), field.pin(0, 1), partial]
    fields += bumped
    for a, b in itertools.product(fields, repeat=2):
        same = (a.space, a.arity, a.rows.keys()) == (b.space, b.arity, b.rows.keys()) and all(
            a.at(ks) == b.at(ks) for ks in a.rows
        )
        assert (a == b) is same
    # one numerator changed makes the field unequal to both of its forms
    for f in bumped:
        assert f != pinned and f != rebuilt and rebuilt != f


def _hand_built_space():
    return FilteredSpace(
        grid=make_grid([0, "1/3", "1/2", "7/5", 3]),
        weights=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)),
        partitions=(
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0,), (1,), (2,)),
            ((0,), (1,), (2,)),
            ((0,), (1,), (2,)),
        ),
    )


def _hand_built_fields():
    """Fields on a non-uniform grid with mixed denominators: random, negative,
    large pairwise-coprime value denominators, constant, arity 1 and arity 0."""
    space = _hand_built_space()
    rng = random.Random(31)
    coprime = (10**9 + 7, 998244353, 2**61 - 1, 1000003, 65537)
    fields = []
    for arity in (1, 2, 3):
        mixed = {
            ks: cond_exp(space, random_rv(rng, 3, den=rng.choice((3, 4, 5, 7))), max(ks))
            for ks in itertools.product(range(5), repeat=arity)
        }
        fields.append(payoff_from_function(space, arity, lambda ks, w: mixed[ks][w]))
    # arity 3 on this grid has 118 distinct displacements, which makes the
    # reference certificate walk slow, so the remaining fields stop at arity 2
    for arity in (1, 2):
        fields.append(
            payoff_from_function(
                space,
                arity,
                lambda ks, w: Fraction(
                    rng.randint(-(10**12), 10**12), coprime[(sum(ks) + w) % len(coprime)]
                ),
            )
        )
    fields.append(payoff_from_function(space, 2, lambda ks, w: Fraction(-5, 3)))
    fields.append(fields[0].pin(0, 2))  # arity 0: a single tuple, no pairs
    return fields


def _acceptance_fields(seeds):
    for seed in seeds:
        yield from generate_instance(
            seed, n_outcomes=2 + seed % 2, n_times=3 + (seed // 2) % 2, epsilon="1/20"
        ).fields


def _ladder_fields():
    for players in (2, 3):
        for outcomes, times in ((2, 4), (3, 5), (4, 6)):
            for seed in (1, 2):
                yield from generate_instance(
                    seed, n_outcomes=outcomes, n_times=times, n_players=players
                ).fields


def _assert_certificate_matches_reference(mod, field):
    """certifies_field equals the reference on both sides of the bound: the
    field's own modulus passes, and the same modulus with its first or last
    entry lowered to exactly the worst change at that displacement fails."""
    assert certifies_field(mod, field) is reference_certifies_field(mod, field) is True
    worst: dict[Fraction, Fraction] = {}
    for delta, diff in reference_pair_changes(field):
        worst[delta] = max(diff, worst.get(delta, diff))
    for i in {0, len(mod.table) - 1} if mod.table else ():
        delta = mod.table[i][0]
        lowered = Modulus(mod.table[:i] + ((delta, worst[delta]),) + mod.table[i + 1 :])
        assert certifies_field(lowered, field) is reference_certifies_field(lowered, field) is False


def test_modulus_kernel_matches_reference_on_hand_built_fields():
    for field in _hand_built_fields():
        mod = estimate_modulus(field)
        assert mod == reference_estimate_modulus(field)
        _assert_certificate_matches_reference(mod, field)


def test_modulus_kernel_matches_reference_on_acceptance_seeds():
    for field in _acceptance_fields(range(1, 51)):
        assert estimate_modulus(field) == reference_estimate_modulus(field)
    # the reference certificate walk costs several reference passes per field
    for field in _acceptance_fields(range(1, 6)):
        _assert_certificate_matches_reference(estimate_modulus(field), field)


def test_modulus_kernel_matches_reference_on_bench_ladder():
    # 3-player 4x6 fields are the reference loop's slowest, so the ladder checks
    # the modulus only; the certificate runs on the fields above
    for field in _ladder_fields():
        assert estimate_modulus(field) == reference_estimate_modulus(field)


def _assert_joint_modulus_is_modulus_max(fields):
    joint = estimate_modulus(*fields)
    assert joint == modulus_max([estimate_modulus(f) for f in fields])


def test_joint_modulus_is_modulus_max_on_acceptance_seeds():
    for seed in range(1, 51):
        inst = generate_instance(
            seed, n_outcomes=2 + seed % 2, n_times=3 + (seed // 2) % 2, epsilon="1/20"
        )
        _assert_joint_modulus_is_modulus_max(inst.fields)


def test_joint_modulus_is_modulus_max_on_bench_ladder():
    for players in (2, 3):
        for outcomes, times in ((2, 4), (3, 5), (4, 6)):
            for seed in (1, 2):
                inst = generate_instance(
                    seed, n_outcomes=outcomes, n_times=times, n_players=players
                )
                _assert_joint_modulus_is_modulus_max(inst.fields)


def test_joint_modulus_is_modulus_max_on_coprime_seats():
    """Each seat has its own large prime value denominator and signed values,
    so the joint row's common denominator is their product; one seat set
    also mixes in the small-denominator fields."""
    space = _hand_built_space()
    rng = random.Random(37)
    primes = (10**9 + 7, 998244353, 2**61 - 1)
    for arity in (1, 2, 3):
        seats = [
            payoff_from_function(
                space, arity, lambda ks, w, p=p: Fraction(rng.randint(-(10**12), 10**12), p)
            )
            for p in primes
        ]
        assert math.lcm(*(f.den for f in seats)) == math.prod(primes)
        _assert_joint_modulus_is_modulus_max(seats)
        _assert_joint_modulus_is_modulus_max(seats[:2])
        _assert_joint_modulus_is_modulus_max([seats[2], seats[2].negated()])
    small = [f for f in _hand_built_fields() if f.arity == 2]
    _assert_joint_modulus_is_modulus_max([*small, seats[0].pin(0, 1), seats[1].pin(2, 3)])


def test_joint_modulus_rejects_mismatched_fields():
    space = _hand_built_space()
    f2 = payoff_from_function(space, 2, lambda ks, w: ks[0] - ks[1])
    f1 = payoff_from_function(space, 1, lambda ks, w: ks[0])
    partial = PayoffField(space, 2, {ks: f2.at(ks) for ks in f2.rows if ks != (4, 4)})
    other_space = FilteredSpace(
        grid=make_grid([0, "1/3", "1/2", "7/5", 4]),
        weights=space.weights,
        partitions=space.partitions,
    )
    moved = PayoffField(other_space, 2, {ks: f2.at(ks) for ks in f2.rows})
    for pair in ((f2, f1), (f2, partial), (partial, f2), (f2, moved)):
        with pytest.raises(ValueError):
            estimate_modulus(*pair)
    with pytest.raises(ValueError):
        estimate_modulus()


def _random_staircase(rng, grid, eps):
    """Nondecreasing staircase over random deltas in (0, 2*span], with some
    values at exactly eps."""
    step = grid.min_step
    deltas = sorted({step * Fraction(rng.randint(1, 40 * len(grid)), 20) for _ in range(rng.randint(0, 8))})
    values, v = [], Fraction(0)
    for _ in deltas:
        v += rng.choice((Fraction(0), eps / 4, eps / 3, eps - v if v < eps else Fraction(0)))
        values.append(v)
    return Modulus(tuple(zip(deltas, values)))


def _assert_select_h_matches_reference(mod, eps, grid):
    try:
        want = reference_select_h(mod, eps, grid)
    except NoValidH as exc:
        with pytest.raises(NoValidH) as got:
            select_h(mod, eps, grid)
        assert str(got.value) == str(exc)
        return
    assert select_h(mod, eps, grid) == want


def test_select_h_matches_reference_on_random_staircases():
    rng = random.Random(41)
    grids = [make_grid([0, "1/4", "1/2", "3/4", 1]), make_grid([0, "1/3", "1/2", "7/5", 3])]
    grids.append(TimeGrid((Fraction(1, 2), Fraction(3, 2), Fraction(17, 7))))
    for _ in range(30):
        n = rng.randint(2, 12)
        points = sorted({Fraction(rng.randint(0, 20), rng.choice((1, 3, 7))) for _ in range(n)})
        if len(points) >= 2:
            grids.append(TimeGrid(tuple(points)))
    for grid in grids:
        for eps in (Fraction(1, 20), Fraction(1, 3), Fraction(7, 2)):
            for _ in range(8):
                _assert_select_h_matches_reference(_random_staircase(rng, grid, eps), eps, grid)
            _assert_select_h_matches_reference(Modulus(()), eps, grid)


def test_select_h_matches_reference_on_long_grids():
    """Grids of up to 10**4 minimal steps, with the staircase reaching eps
    before, at, between and after multiples of the step."""
    rng = random.Random(43)
    eps = Fraction(1, 20)
    for steps in (2, 10, 999, 10**4):
        step = Fraction(1, steps)
        grid = make_grid([0, step, 1])
        for first in (step / 3, step, 2 * step, Fraction(1, 2), Fraction(1, 2) + step / 2, 1, 2):
            mod = Modulus(((step / 7, eps / 2), (first, eps), (first + 1, eps * 2)))
            _assert_select_h_matches_reference(mod, eps, grid)
        _assert_select_h_matches_reference(_random_staircase(rng, grid, eps), eps, grid)


def test_select_h_on_a_tiny_step_is_closed_form():
    """On [0, 1e-9, 1] the old step-by-step search would take hours."""
    step = Fraction(1, 10**9)
    grid = make_grid([0, step, 1])
    eps = Fraction(1, 20)
    start = time.perf_counter()
    assert select_h(Modulus(()), eps, grid) == 1
    assert select_h(Modulus(((Fraction(1, 3), eps),)), eps, grid) == 333333333 * step
    assert select_h(Modulus(((step, eps / 2), (Fraction(1, 2), eps))), eps, grid) == (
        Fraction(1, 2) - step
    )
    with pytest.raises(NoValidH):
        select_h(Modulus(((step, eps),)), eps, grid)
    assert time.perf_counter() - start < 0.5




# auto_h and eta_reaching read the modulus only up to a radius; each check
# below compares them under == with select_h and eval of the full
# ``estimate_modulus``, NoValidH text included.


def _assert_auto_h_matches_reference(fields, eps, ref=None):
    """h, eta(h) and eta(step) from the bounded walks equal the reference's;
    ``eta_reaching`` reports eta exactly when it reaches eps.  Returns h, or
    None when no h is valid."""
    grid = fields[0].space.grid
    ref = estimate_modulus(*fields) if ref is None else ref
    step = grid.min_step
    try:
        h = select_h(ref, eps, grid)
    except NoValidH as exc:
        with pytest.raises(NoValidH) as got:
            auto_h(fields, eps, grid)
        assert str(got.value) == str(exc)
        h = None
    else:
        assert auto_h(fields, eps, grid) == h
    for r in {h or step, step}:
        eta = ref.eval(r)
        assert payoff._staircase(_walk(*fields, radius=r)).eval(r) == eta
        assert eta_reaching(fields, eps, r) == (eta if eta >= eps else None)
    return h


def _reference_worst(field):
    """Worst change per displacement over the ``Fraction`` pair loop."""
    worst = {}
    for delta, diff in reference_pair_changes(field):
        worst[delta] = max(diff, worst.get(delta, diff))
    return worst


def test_bounded_pair_walk_is_the_reference_cut_to_its_radius():
    """On the hand-built fields (non-uniform grid, arity 0 to 3, a pinned
    field, a partial field), the walk with no radius is the ``Fraction``
    pair loop's worst change per displacement, a walk within a radius and
    beyond another keeps exactly its displacements in between, and the
    staircase of a walk within a radius is the prefix of the reference
    modulus up to it."""
    rng = random.Random(61)
    for field in _hand_built_fields():
        full = _reference_worst(field)
        assert _walk(field) == full
        ref = reference_estimate_modulus(field)
        cuts = sorted({Fraction(0), *full, *(d + Fraction(1, 97) for d in full)})
        for radius in {cuts[0], cuts[-1], *rng.sample(cuts, min(5, len(cuts)))}:
            assert payoff._staircase(_walk(field, radius=radius)).table == tuple(
                (d, v) for d, v in ref.table if d <= radius
            )
            beyond = rng.choice([c for c in cuts if c <= radius])
            assert _walk(field, radius=radius, beyond=beyond) == {
                d: c for d, c in full.items() if beyond < d <= radius
            }
    space = _hand_built_space()
    f2 = payoff_from_function(space, 2, lambda ks, w: Fraction(ks[0] - 2 * ks[1] + w, 3))
    partial = PayoffField(space, 2, {ks: f2.at(ks) for ks in f2.rows if ks[0] != 2})
    full = _reference_worst(partial)
    assert _walk(partial) == full
    for radius in (Fraction(1, 3), 1, 3, 6):
        assert _walk(partial, radius=radius) == {
            d: c for d, c in full.items() if d <= radius
        }


def test_every_generated_game_takes_the_whole_range_shortcut():
    """Acceptance seeds 1-50 and the solve3-auto-h bench pool at seed 1
    (games 1000+i, four 3x5 games to one 4x6): no payoff moves by eps over
    the whole range of tuples, so h is the whole span with no pair walked."""
    games = [
        generate_instance(seed, n_outcomes=2 + seed % 2, n_times=3 + (seed // 2) % 2, epsilon="1/20")
        for seed in range(1, 51)
    ]
    games += [
        generate_instance(1000 + i, n_outcomes=n, n_times=t, n_players=3)
        for i, (n, t) in enumerate([(3, 5), (3, 5), (3, 5), (3, 5), (4, 6)] * 3)
    ]
    for inst in games:
        assert payoff._below(payoff._joint_rows(inst.fields), inst.epsilon)
        h = _assert_auto_h_matches_reference(inst.fields, inst.epsilon)
        assert h == inst.space.grid.span


@pytest.mark.parametrize(
    "outcomes,times,seed,epsilons,bounded",
    [
        (3, 5, 1, (40, 60, 100, 150, 300, 500, 1000, 3000), 6),
        (3, 7, 2, (40, 60, 100, 150, 300, 500, 1000, 3000), 6),
        (3, 10, 3, (60, 300, 3000), 3),
    ],
)
def test_auto_h_matches_reference_on_an_epsilon_sweep(outcomes, times, seed, epsilons, bounded):
    """Down to eps = 1/3000, where even the minimal step fails.  The
    whole-range shortcut holds only at the largest eps (the widest changes
    are 1/61, 1/73 and 1/47 of these games), so the rest walk bounded radii."""
    inst = generate_instance(seed, n_outcomes=outcomes, n_times=times, n_players=3)
    ref = estimate_modulus(*inst.fields)
    eps_all = [Fraction(1, den) for den in epsilons]
    joint = payoff._joint_rows(inst.fields)
    assert sum(not payoff._below(joint, eps) for eps in eps_all) == bounded
    for eps in eps_all:
        h = _assert_auto_h_matches_reference(inst.fields, eps, ref)
        # the eta(h) recheck after a failed construction at an auto h never
        # finds a broken premise
        assert h is None or eta_reaching(inst.fields, eps, h) is None


def _top(grid):
    """The largest candidate h: the largest multiple of the minimal step that
    fits in the span."""
    return grid.span // grid.min_step * grid.min_step


def _record_walks(monkeypatch):
    """(radius, beyond, top of the grid) of each pair walk from now on."""
    walks = []
    real = payoff._pair_changes

    def counting(joint, radius=None, beyond=0):
        walks.append((radius, beyond, _top(joint.fields[0].space.grid)))
        return real(joint, radius=radius, beyond=beyond)

    monkeypatch.setattr(payoff, "_pair_changes", counting)
    return walks


def test_auto_h_matches_reference_on_staircase_grids(monkeypatch):
    """The random grids of the select_h staircase tests, with smooth, noisy
    and mixed fields of arity 1 to 3, at eps equal to table entries, between
    them and past both ends.  auto_h never walks every pair: its walks reach
    ``top`` (``eta_reaching`` walks only from zero), some widened there at
    once from a radius below half of it."""
    walks = _record_walks(monkeypatch)
    rng = random.Random(59)
    grids = [make_grid([0, "1/4", "1/2", "3/4", 1]), make_grid([0, "1/10", "1/5", "3/10", 10])]
    for _ in range(12):
        points = sorted({Fraction(rng.randint(0, 20), rng.choice((1, 3, 7))) for _ in range(8)})
        grids.append(TimeGrid(tuple(points)))
    for grid in grids:
        n = len(grid.points)
        space = FilteredSpace(
            grid=grid, weights=(Fraction(1, 2), Fraction(1, 2)), partitions=(((0,), (1,)),) * n
        )
        for arity in (1, 2, 3) if n <= 6 else (1, 2):
            slope = rng.choice((Fraction(1, 10), 1, 3))
            noise = rng.choice((0, 1, 40))
            fields = [
                payoff_from_function(
                    space,
                    arity,
                    lambda ks, w: slope * sum(grid.points[k] for k in ks)
                    + Fraction(rng.randint(-noise, noise), 40),
                )
                for _ in range(2)
            ]
            ref = estimate_modulus(*fields)
            assert walks.pop()[0] is None  # the reference's own walk
            values = sorted({v for _, v in ref.table})
            picks = rng.sample(values, min(4, len(values)))
            epsilons = {*picks, *(v + MODULUS_SLACK / 2 for v in picks)}
            epsilons |= {values[0] / 2, values[-1] + 1} if values else {Fraction(1)}
            for eps in sorted(epsilons):
                _assert_auto_h_matches_reference(fields, eps, ref)
    assert all(radius is not None for radius, _, _ in walks)
    assert any(radius == top and beyond > 0 for radius, beyond, top in walks)
    assert any(radius == top and 0 < 2 * beyond < top for radius, beyond, top in walks)


def test_auto_h_matches_reference_on_a_clustered_grid(monkeypatch):
    """Six grid times within 1/200 and a terminal time 1000, three slots:
    payoffs move little inside the cluster, so the walks double while the
    cluster adds displacements (up to 15 minimal steps), then jump straight
    to the least displacement that reaches the terminal time, 1000 - 5/1000,
    where they find the first entry reaching eps, never walking the pairs
    past ``top``.  Doubling walked 21 radii here, 15 of them adding no
    displacement."""
    grid = make_grid([*(Fraction(i, 1000) for i in range(6)), 1000])
    space = FilteredSpace(
        grid=grid, weights=(Fraction(1, 2), Fraction(1, 2)), partitions=(((0,), (1,)),) * 7
    )
    rng = random.Random(67)
    fields = [
        payoff_from_function(
            space,
            3,
            lambda ks, w: Fraction(sum(k == 6 for k in ks), 10)
            + Fraction(rng.randint(0, 9) + w, 1000),
        )
        for _ in range(2)
    ]
    top = _top(grid)
    assert payoff._pairs_within(grid, 3, top)[0]
    ref = estimate_modulus(*fields)
    walks = _record_walks(monkeypatch)
    for eps in (Fraction(1, 50), Fraction(1, 20), Fraction(1, 1000)):
        walks.clear()
        h = _assert_auto_h_matches_reference(fields, eps, ref)
        assert all(radius is not None and radius <= top for radius, _, _ in walks)
        if eps > Fraction(1, 1000):
            assert grid.min_step < h < top
            step = grid.min_step
            radii = [step, 2 * step, 4 * step, 8 * step, 16 * step, 1000 - 5 * step]
            assert [r for r, _, _ in walks[:6]] == radii  # then eta_reaching's walks
            assert all(beyond == 0 for _, beyond, _ in walks[6:])
        else:
            assert h is None


def test_pairs_within_matches_every_pair():
    """``_pairs_within`` against every ordered pair of index tuples, on
    uniform, clustered and random grids at arity 1 to 3: whether more than
    half the pairs lie within the radius, and the least displacement above
    it, which a doubling of ``auto_h``'s radius that adds none jumps to."""
    rng = random.Random(71)
    grids = [make_grid(range(5)), make_grid([*(Fraction(i, 1000) for i in range(4)), 10])]
    for _ in range(6):
        grids.append(make_grid(sorted({Fraction(rng.randint(0, 40), rng.choice((1, 3, 7)))
                                       for _ in range(6)})))
    for grid in grids:
        for arity in (1, 2, 3):
            scale = math.lcm(*(t.denominator for t in grid.points))
            ticks = [int(t * scale) for t in grid.points]
            tuples = list(itertools.product(ticks, repeat=arity))
            pairs = Counter(sum(abs(a - b) for a, b in zip(s, t)) for s in tuples for t in tuples)
            deltas = [Fraction(d, scale) for d in sorted(pairs)]
            picks = [*deltas[:4], *rng.sample(deltas, min(8, len(deltas))), deltas[-1]]
            for radius in [*picks, *(d + Fraction(1, 1001) for d in picks)]:
                within = sum(n for d, n in pairs.items() if d <= radius * scale)
                ahead = next((d for d in deltas if d > radius), math.inf)
                most = 2 * within > len(tuples) ** 2
                assert payoff._pairs_within(grid, arity, radius) == (most, ahead)


def _adapted_values(rng, space, arity):
    """One random value per (time tuple, block at its latest index)."""
    K = space.grid.terminal_index
    values = {}
    for ks in itertools.product(range(K + 1), repeat=arity):
        layer = [None] * space.n_outcomes
        for block in space.partitions[max(ks)]:
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            for w in block:
                layer[w] = v
        values[ks] = layer
    return values


def test_check_adapted_matches_reference_with_planted_violations():
    """The singleton-skipping check returns the reference's sorted bad tuples
    on random fields with planted changes, including all-singleton
    partitions and a space whose terminal partition still pools outcomes."""
    rng = random.Random(20261018)
    found = found_terminal = 0
    for trial in range(300):
        n, n_times, arity = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 3)
        space = random_space(rng, n, n_times)
        parts = space.partitions
        if trial % 5 == 1:  # fully separated at every index: nothing can be bad
            parts = (tuple((w,) for w in range(n)),) * n_times
        if trial % 5 == 2:  # the terminal index pools outcomes as the one before does
            parts = parts[:-1] + parts[-2:-1]
        space = FilteredSpace(space.grid, space.weights, parts)
        values = _adapted_values(rng, space, arity)
        tuples = sorted(values)
        K = space.grid.terminal_index
        terminal = [ks for ks in tuples if max(ks) == K]
        planted = rng.sample(tuples, min(len(tuples), rng.randint(0, 4))) + rng.sample(terminal, 1)
        for ks in planted:
            w = rng.randrange(n)
            values[ks][w] = values[ks][w] + rng.choice((0, 1, Fraction(1, 3)))
        if trial % 3 == 0:  # an int equal to a Fraction is no change
            for layer in values.values():
                layer[0] = int(layer[0]) if layer[0].denominator == 1 else layer[0]
        rng.shuffle(tuples)  # bad tuples come back sorted whatever the dict's order
        field = PayoffField(space, arity, {ks: tuple(values[ks]) for ks in tuples})
        bad = check_adapted(field)
        assert bad == reference_check_adapted(field)
        if trial % 5 == 1:
            assert bad == []
        found += len(bad)
        found_terminal += sum(max(ks) == K for ks in bad)
    assert found > 100 and found_terminal > 10


@pytest.mark.parametrize("arity", (1, 2, 3))
def test_readers_match_the_reads_they_replaced(arity):
    """``stop_sums`` at stops that mix stopping times and grid indices,
    scaled back to ``Fraction``, equals the reference ``at_stops`` averaged
    with ``cond_exp`` on every partition's blocks and with ``cond_exp_at``
    on the atoms of random starts, whose times mix; and the reference
    ``process`` equals the slice that pinning every other slot at k leaves
    (``_double_pin`` for three slots).  The fields are random and not
    adapted."""
    rng = random.Random(700 + arity)
    mixed = 0
    for _ in range(25):
        space = random_space(rng, rng.randint(1, 4), rng.randint(2, 4))
        K, n = space.grid.terminal_index, space.n_outcomes
        field = PayoffField(
            space,
            arity,
            {ks: random_rv(rng, n) for ks in itertools.product(range(K + 1), repeat=arity)},
        )

        def random_stop():
            if rng.random() < 0.5:
                return rng.randint(0, K)
            return StoppingTime(tuple(rng.randint(0, K) for _ in range(n)))

        stops = [random_stop() for _ in range(arity)]
        at_stops = reference_at_stops(field, stops)
        for k, part in enumerate(space.partitions):
            got = block_rv(space, k, field.stop_sums(stops, part), field.den)
            assert got == cond_exp(space, at_stops, k)
        starts = list(enumerate_stopping_times(space))
        for theta in rng.sample(starts, min(3, len(starts))):
            atoms = stopped_atoms(space, theta)
            mixed += len({k for k, _, _ in atoms}) > 1
            sums = field.stop_sums(stops, [block for _, block, _ in atoms])
            got = fill_blocks(
                space,
                (block for _, block, _ in atoms),
                (Fraction(s, field.den * w_b) for s, (_, _, w_b) in zip(sums, atoms)),
            )
            assert got == cond_exp_at(space, at_stops, theta)
        for slot in range(arity):
            for k in range(K + 1):
                sliced = field
                for other in sorted((s for s in range(arity) if s != slot), reverse=True):
                    sliced = sliced.pin(other, k)
                assert reference_process(field, slot, k) == as_layers(sliced)
                if arity == 3:
                    want = as_layers(reference_double_pin(field, slot, k))
                    assert reference_process(field, slot, k) == want
        if arity == 3:
            for seat in range(3):
                free = [q for q in range(3) if q != seat]
                k = rng.randint(0, K)
                pair = tuple(
                    StoppingTime(tuple(rng.randint(0, K) for _ in range(n))) for _ in free
                )
                sums = field.stop_sums((*pair[:seat], k, *pair[seat:]), space.partitions[k])
                got = block_rv(space, k, sums, field.den)
                assert got == reference_family_value(space, field, seat, k, pair, free)
    assert mixed > 10
