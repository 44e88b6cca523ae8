"""The integer best-response DP and certificate against the ``Fraction``
code they replaced.

``reference_exact_best_response``, ``reference_certify_nash`` and
``reference_on_path_value`` in ``oracles.py`` are the former oracle,
certificate and conforming value, kept verbatim.  Values are compared with
``==`` on exact rationals, and the DP state count is compared through the
guard: the DP keeps the reference's states with a free controlled seat (it
plays forced tails out), and must trip ``GuardExceeded`` below the cap the
reference would need for those and pass at it.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DENOMINATORS, SETTINGS, random_space
from oracles import (
    reference_certify_nash,
    reference_exact_best_response,
    reference_on_path_value,
    reference_validate_strategy,
)
from stopgame import verify
from stopgame.config import ENV_OVERRIDE
from stopgame.errors import GuardExceeded
from stopgame.payoff import PayoffField, payoff_from_function
from stopgame.space import (
    FilteredSpace,
    StoppingTime,
    cond_exp_at,
    constant_time,
    is_stopping_time,
    make_grid,
    stopped_atoms,
)
from stopgame.strategy import (
    StrategyOrder2,
    StrategyOrder3,
    dense_strategy3,
    validate_strategy,
)
from stopgame.verify import (
    certify_nash,
    exact_best_response,
    on_path_value,
    worst_gap,
)


def same_result(got, want) -> bool:
    return (
        got.values == want.values
        and got.value_rv == want.value_rv
        and got.objective == want.objective
    )


@pytest.fixture(scope="module")
def ladder_calls(ladder_run):
    """Every oracle call, with its result, made while solving the ladder, as
    the public oracle takes it: without the start atoms a gap measurement
    passes (``test_gap_measurement_reads_its_start_atoms_once`` checks them)."""
    return [(args, {k: v for k, v in kwargs.items() if k != "atoms"}, result)
            for args, kwargs, result in ladder_run["oracle"]]


def as_values(field: PayoffField, result) -> dict:
    """The DP core's (atoms, scaled) result as values by start atom."""
    atoms, scaled = result
    assert list(scaled) == [(k, block) for k, block, _ in atoms]
    return {(k, block): Fraction(scaled[(k, block)], field.den * w_b) for k, block, w_b in atoms}


def test_oracle_matches_reference_on_ladder(ladder_calls):
    """Every DP run of the ladder's solves, the gap measurements' included:
    its integers, and the public oracle's values on the same call."""
    assert len(ladder_calls) > 1000
    for args, kwargs, result in ladder_calls:
        want = reference_exact_best_response(*args, **kwargs)
        assert as_values(args[1], result) == want.values
        assert same_result(exact_best_response(*args, **kwargs), want)


def test_gap_measurement_reads_its_start_atoms_once(ladder_run, monkeypatch):
    """Every DP run of a gap measurement on the ladder was given the atoms
    of its start, and ``certify_nash`` and ``worst_gap`` read them once for
    every seat's DP run and the conforming value."""
    given = [(args, kwargs["atoms"], result[0])
             for args, kwargs, result in ladder_run["oracle"] if "atoms" in kwargs]
    assert len(given) > 1000
    for args, atoms, used in given:
        assert used is atoms and atoms == stopped_atoms(args[0], args[5])
    reads = []
    monkeypatch.setattr(verify, "stopped_atoms", lambda *a: reads.append(a) or stopped_atoms(*a))
    space, fields, profile, start, _ = next(
        args for args, _, _ in ladder_run["certify"] if len(args[1]) == 3
    )
    certify_nash(space, fields, profile, start, 1)
    assert reads == [(space, start)]
    reads.clear()
    worst_gap(space, fields, profile, start)
    assert reads == [(space, start)]


def test_certificate_runs_each_seat_through_the_public_oracle(ladder_run, monkeypatch):
    """``certify_nash`` calls the module's ``exact_best_response``, the name
    the bench tracer wraps, once per seat, and its best-response maps are
    those calls' values, not converted a second time."""
    calls = []
    real = verify.exact_best_response
    monkeypatch.setattr(verify, "exact_best_response",
                        lambda *a, **kw: calls.append(real(*a, **kw)) or calls[-1])
    space, fields, profile, start, _ = next(
        args for args, _, _ in ladder_run["certify"] if len(args[1]) == 3
    )
    cert = certify_nash(space, fields, profile, start, 1)
    assert len(calls) == len(fields) == 3
    assert all(got is br.values for got, br in zip(cert.best_response, calls))


CERTIFICATE_FIELDS = (
    "eps", "bound", "per_player_gaps", "on_path", "best_response", "worst_gap", "passes"
)


def assert_same_certificate(got, want):
    for name in CERTIFICATE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for per_seat in (*got.per_player_gaps, *got.on_path, *got.best_response):
        assert all(type(v) is Fraction for v in per_seat.values())


def test_certificate_matches_reference_on_ladder(ladder_run):
    """Every gap measurement made while solving the ladder, at both h: its
    worst gap, and the certificate of its profile, against the ``Fraction``
    certificate (``test_space`` checks ``on_path_value`` on the same
    calls)."""
    calls = ladder_run["certify"]
    assert len(calls) > 100
    for (space, fields, profile, start, _), _, (_, _, worst) in calls:
        want = reference_certify_nash(space, fields, profile, start, 1)
        assert type(worst) is Fraction and worst == want.worst_gap
        assert_same_certificate(certify_nash(space, fields, profile, start, 1), want)


def random_stopping_time(rng, space: FilteredSpace, first: int) -> StoppingTime:
    """A random stopping time that stops nowhere before index ``first``."""
    K = space.grid.terminal_index
    idx = [None] * space.n_outcomes
    for k in range(K + 1):
        for block in space.partitions[k]:
            if idx[block[0]] is None and k >= first and (k == K or rng.random() < 0.4):
                for w in block:
                    idx[w] = k
    return StoppingTime(tuple(idx))


def random_strategy(rng, space: FilteredSpace, n_seats: int, seat: int):
    K = space.grid.terminal_index

    def react(s: int) -> StoppingTime:
        return random_stopping_time(rng, space, min(s + 1, K))

    initial = random_stopping_time(rng, space, 0)
    if n_seats == 2:
        strat = StrategyOrder2(initial=initial, react=tuple(react(s) for s in range(K + 1)))
    else:
        lo, hi = sorted(q for q in range(3) if q != seat)
        strat = StrategyOrder3(
            seat=seat,
            initial=initial,
            react_one={q: tuple(react(s) for s in range(K + 1)) for q in (lo, hi)},
            react_two={
                (a, b): react(max(a, b)) for a in range(K + 1) for b in range(K + 1)
            },
        )
    assert validate_strategy(space, strat) == []
    return strat


def coprime_weight_space() -> FilteredSpace:
    """Four outcomes with weights 1/2, 1/3, 1/7, 1/42 revealed in two stages."""
    return FilteredSpace(
        grid=make_grid([0, "1/3", "1/2", 2]),
        weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42)),
        partitions=(
            ((0, 1, 2, 3),),
            ((0, 3), (1, 2)),
            ((0,), (3,), (1, 2)),
            ((0,), (1,), (2,), (3,)),
        ),
    )


def mixed_field(rng, space: FilteredSpace, arity: int) -> PayoffField:
    """Negative and positive values over mixed and large coprime denominators."""
    return payoff_from_function(
        space,
        arity,
        lambda ks, w: Fraction(rng.randint(-10**6, 10**6), rng.choice(DENOMINATORS)),
    )


def hand_built_cases():
    """(space, field, strategies, controlled, objective, start) tuples."""
    rng = random.Random(6)
    spaces = [coprime_weight_space()] + [
        random_space(rng, n, t) for n, t in ((3, 4), (4, 4), (2, 5))
    ]
    for space in spaces:
        K = space.grid.terminal_index
        for arity in (2, 3):
            field = mixed_field(rng, space, arity)
            strategies = [random_strategy(rng, space, arity, q) for q in range(arity)]
            starts = [0, 1, random_stopping_time(rng, space, 0), K]
            seatings = [(0,), (arity - 1,), ()]
            if arity == 3:
                seatings.append((1, 2))
            for controlled in seatings:
                for objective in ("max", "min"):
                    for start in starts:
                        fixed = [
                            None if q in controlled else s for q, s in enumerate(strategies)
                        ]
                        yield space, field, fixed, controlled, objective, start


def test_oracle_matches_reference_on_hand_built_fields():
    cases = list(hand_built_cases())
    assert any(isinstance(c[5], StoppingTime) and len(set(c[5].idx)) > 1 for c in cases)
    for case in cases:
        assert same_result(
            exact_best_response(*case), reference_exact_best_response(*case)
        )


def seven_time_space() -> FilteredSpace:
    """Four outcomes on grid times 0..6: pairs revealed at 1, one pair split
    at 3, singletons from 4 on."""
    return FilteredSpace(
        grid=make_grid(range(7)),
        weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42)),
        partitions=(((0, 1, 2, 3),),)
        + (((0, 1), (2, 3)),) * 2
        + (((0,), (1,), (2, 3)),)
        + (((0,), (1,), (2,), (3,)),) * 3,
    )


def order2(space, initial: StoppingTime, react) -> StrategyOrder2:
    K = space.grid.terminal_index
    return StrategyOrder2(initial=initial, react=tuple(react(s) for s in range(K + 1)))


def test_forced_tails_match_reference(monkeypatch):
    """Once no controlled seat is free the DP plays the fixed seats out
    (``strategy.play_forward``) instead of recursing.  Each case is checked
    with == against the reference and shows in the playouts it records: with
    no controlled seat, a fixed seat's initial stop at index 2 before a
    start at 3 never fires, and neither does a reaction at or before its
    observation, so the seat reads K; two fixed seats fire in successive
    rounds or at one index; and a reaction that is not a stopping time is
    not played out (the playout gives up and the DP recurses, reading it at
    each block's first outcome)."""
    played = []  # each outcome's final stops, or None for a playout given up
    real = verify.play_forward

    def record(*args):
        ends = real(*args)
        played.extend([None] if ends is None else ends)
        return ends

    monkeypatch.setattr(verify, "play_forward", record)
    space = seven_time_space()
    K = space.grid.terminal_index
    rng = random.Random(31)

    def at(k):
        return constant_time(space, min(k, K))

    def check(strategies, starts, want_played, controlled=(0,)):
        field = mixed_field(rng, space, len(strategies))
        played.clear()
        for objective in ("max", "min"):
            for start in starts:
                case = (space, field, strategies, controlled, objective, start)
                assert same_result(exact_best_response(*case), reference_exact_best_response(*case))
        assert want_played <= set(played)

    early_initial = [order2(space, at(2), lambda s: at(K)), order2(space, at(5), lambda s: at(K))]
    check(early_initial, [3], {(K, 5)}, controlled=())
    early_reaction = order2(space, at(K), lambda s: at(max(s - 1, 0)))
    check([None, early_reaction], [0, 1], {(1, K), (2, K)})
    successive = [
        None,
        dense_strategy3(space, 1, at(K), lambda o, s: at(s + 1), lambda a, b: at(max(a, b) + 1)),
        dense_strategy3(space, 2, at(K), lambda o, s: at(s + 3), lambda a, b: at(max(a, b) + 1)),
    ]
    check(successive, [0, 1], {(1, 2, 3), (2, 3, 4), (3, 4, 5)})
    together = [
        None,
        *(dense_strategy3(space, q, at(K), lambda o, s: at(s + 2), lambda a, b: at(max(a, b) + 1))
          for q in (1, 2)),
    ]
    check(together, [0, 1], {(1, 3, 3), (2, 4, 4), (4, K, K)})
    split = StoppingTime((2, 3, K, K))  # splits block (0, 1) at index 2
    assert not is_stopping_time(space, split.idx)
    check([None, order2(space, at(K), lambda s: split if s < 2 else at(K))], [0], {None})


def test_oracle_matches_reference_on_pinned_fields():
    """Window checks hand the oracle pinned fields, which carry their parent's den."""
    rng = random.Random(61)
    space = coprime_weight_space()
    field3 = mixed_field(rng, space, 3)
    for slot in range(3):
        for k in range(len(space.grid)):
            pinned = field3.pin(slot, k)
            assert pinned.den == field3.den
            for ks, row in pinned.rows.items():
                assert pinned.at(ks) == tuple(Fraction(n, pinned.den) for n in row)
            strategies = [random_strategy(rng, space, 2, q) for q in range(2)]
            for controlled, objective in (((0,), "max"), ((1,), "min")):
                fixed = [None if q in controlled else s for q, s in enumerate(strategies)]
                case = (space, pinned, fixed, controlled, objective, k)
                assert same_result(
                    exact_best_response(*case), reference_exact_best_response(*case)
                )
    # equality is on values: a rebuilt field with the same values is equal
    # and computes its own, smaller or equal, denominator
    pinned = field3.pin(0, 1)
    rebuilt = PayoffField(space, 2, {ks: pinned.at(ks) for ks in pinned.rows})
    assert rebuilt == pinned
    assert pinned.den % rebuilt.den == 0


def unchecked_strategy(rng, space: FilteredSpace, n_seats: int, seat: int, initial):
    """A strategy outside the strategy rules: every reaction is a random
    stopping time from index 0, so it may lie at or before its observation."""
    K = space.grid.terminal_index

    def table():
        return tuple(random_stopping_time(rng, space, 0) for _ in range(K + 1))

    if n_seats == 2:
        return StrategyOrder2(initial=initial, react=table())
    lo, hi = sorted(q for q in range(3) if q != seat)
    return StrategyOrder3(
        seat=seat,
        initial=initial,
        react_one={lo: table(), hi: table()},
        react_two={(a, b): random_stopping_time(rng, space, 0)
                   for a in range(K + 1) for b in range(K + 1)},
    )


@st.composite
def unchecked_cases(draw):
    """(space, field, strategies, controlled, objective, start) on a small
    random space, with any seating, objective and start, and fixed
    strategies never passed through ``validate_strategy``: an initial stop
    may lie before the start, a reaction at or before its observation, and
    two fixed seats may share their initial stop."""
    rng = draw(st.randoms(use_true_random=False))
    space = random_space(rng, draw(st.integers(2, 5)), draw(st.integers(3, 5)))
    K = space.grid.terminal_index
    arity = draw(st.sampled_from((2, 3)))
    seatings = [(), *((q,) for q in range(arity))]
    if arity == 3:
        seatings += [(0, 1), (0, 2), (1, 2)]
    controlled = draw(st.sampled_from(seatings))
    shared = random_stopping_time(rng, space, 0)
    share = draw(st.booleans())
    strategies = [
        None if q in controlled else unchecked_strategy(
            rng, space, arity, q, shared if share else random_stopping_time(rng, space, 0)
        )
        for q in range(arity)
    ]
    if draw(st.booleans()):
        start = draw(st.integers(0, K))
    else:
        start = random_stopping_time(rng, space, 0)
    objective = draw(st.sampled_from(("max", "min")))
    return space, mixed_field(rng, space, arity), strategies, controlled, objective, start


@settings(max_examples=200, **SETTINGS)
@given(case=unchecked_cases())
def test_oracle_matches_reference_on_unchecked_strategies(case):
    """The DP reads each live fixed seat's commitment once per observed-stop
    status; on strategies the solvers never build it still gives the
    reference's values, and ``validate_strategy`` its problem lists."""
    got, want = exact_best_response(*case), reference_exact_best_response(*case)
    assert (got.values, got.value_rv) == (want.values, want.value_rv)
    space, strategies = case[0], case[2]
    for strat in filter(None, strategies):
        assert validate_strategy(space, strat) == reference_validate_strategy(space, strat)


@st.composite
def unchecked_profiles(draw):
    """(space, fields, profile, start) on a small random space: 2 or 3
    seats, strategies never passed through ``validate_strategy`` (two seats
    may share their initial stop) and a constant or random start."""
    rng = draw(st.randoms(use_true_random=False))
    space = random_space(rng, draw(st.integers(2, 5)), draw(st.integers(3, 5)))
    K = space.grid.terminal_index
    n_seats = draw(st.sampled_from((2, 3)))
    shared = random_stopping_time(rng, space, 0)
    profile = [
        unchecked_strategy(
            rng, space, n_seats, q, shared if draw(st.booleans()) else random_stopping_time(rng, space, 0)
        )
        for q in range(n_seats)
    ]
    start = draw(st.integers(0, K)) if draw(st.booleans()) else random_stopping_time(rng, space, 0)
    fields = [mixed_field(rng, space, n_seats) for _ in range(n_seats)]
    return space, fields, profile, start


@settings(max_examples=150, **SETTINGS)
@given(case=unchecked_profiles())
def test_measured_worst_gap_matches_reference(case):
    """The integer gap measurement's worst gap, a cross-multiplied maximum
    floored at 0, is the ``Fraction`` certificate's worst gap."""
    worst = worst_gap(*case)
    assert type(worst) is Fraction
    assert worst == reference_certify_nash(*case, eps=1).worst_gap


def random_profiles():
    """(space, fields, profile, start) with a random profile of 2 or 3 seats
    and a start that is not constant."""
    rng = random.Random(19)
    spaces = [coprime_weight_space()] + [
        random_space(rng, n, t) for n, t in ((3, 4), (4, 4), (4, 5), (5, 4))
    ]
    for space in spaces:
        if len(space.partitions[-2]) == 1:  # every stopping time is constant
            continue
        for n_seats in (2, 3):
            for _ in range(3):
                fields = [mixed_field(rng, space, n_seats) for _ in range(n_seats)]
                profile = [random_strategy(rng, space, n_seats, q) for q in range(n_seats)]
                start = random_stopping_time(rng, space, 0)
                while len(set(start.idx)) == 1:
                    start = random_stopping_time(rng, space, 0)
                yield space, fields, profile, start


def test_certificate_matches_reference_on_random_profiles():
    cases = list(random_profiles())
    assert len(cases) >= 18 and {len(fields) for _, fields, _, _ in cases} == {2, 3}
    for space, fields, profile, start in cases:
        for eps in (0, Fraction(1, 3)):
            assert_same_certificate(
                certify_nash(space, fields, profile, start, eps),
                reference_certify_nash(space, fields, profile, start, eps),
            )
        assert on_path_value(space, fields, profile, start) == reference_on_path_value(
            space, fields, profile, start
        )


def test_certificate_rejects_an_invalid_start_like_reference():
    """A start that splits a block, or lies past the grid, raises the same
    ``ValueError`` from the certificate and the conforming value as from the
    ``Fraction`` code."""
    space, fields, profile, _ = next(random_profiles())
    K = space.grid.terminal_index
    for start in (StoppingTime((0, 1, 1, 1)), StoppingTime((0,) * 3 + (K,)), K + 1):
        for got, want in (
            (certify_nash, reference_certify_nash),
            (on_path_value, reference_on_path_value),
        ):
            args = (space, fields, profile, start) + ((1,) if got is certify_nash else ())
            with pytest.raises(ValueError) as expected:
                want(*args)
            with pytest.raises(ValueError) as raised:
                got(*args)
            assert str(raised.value) == str(expected.value)


def test_invalid_start_raises_one_text_from_every_reader():
    """A start that splits a block, lies off the grid or has the wrong length
    raises the one ``ValueError`` of ``space.stopped_atoms`` from the oracle,
    the certificate, the conforming value, ``cond_exp_at`` and
    ``stopped_atoms`` alike.  The oracle used to skip an off-grid index,
    leaving its outcomes at 0 with no atom, and to read past a short start."""
    space, fields, profile, _ = next(random_profiles())
    n, K = space.n_outcomes, space.grid.terminal_index
    x = tuple(Fraction(w) for w in range(n))
    readers = (
        lambda start: exact_best_response(space, fields[0], profile, (0,), "max", start),
        lambda start: certify_nash(space, fields, profile, start, 1),
        lambda start: on_path_value(space, fields, profile, start),
        lambda start: cond_exp_at(space, x, start),
        lambda start: stopped_atoms(space, start),
    )
    splitting = [StoppingTime((0, 1, 1, 1)), StoppingTime((1, 1, 2, 1))]
    off_grid = [K + 1, -1, StoppingTime((K + 1,) * n), StoppingTime((0, 0, 0, K + 1))]
    wrong_length = [StoppingTime((0,) * (n - 1)), StoppingTime((0,) * (n + 1))]
    for start in splitting + off_grid + wrong_length:
        for read in readers:
            with pytest.raises(ValueError) as raised:
                read(start)
            assert str(raised.value) == "conditioning requires a valid stopping time"


def smallest_passing_cap(monkeypatch, oracle, args, kwargs) -> int:
    """Least ``dp`` guard under which the call finishes without GuardExceeded."""
    lo, hi = 0, 1
    while True:
        monkeypatch.setenv(ENV_OVERRIDE, f"dp={hi}")
        try:
            oracle(*args, **kwargs)
            break
        except GuardExceeded:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setenv(ENV_OVERRIDE, f"dp={mid}")
        try:
            oracle(*args, **kwargs)
            hi = mid
        except GuardExceeded:
            lo = mid + 1
    return lo


def reference_replayed_cap(args, kwargs, kept) -> int:
    """The smallest ``dp`` cap the reference DP would pass under if its memo
    held only the states whose status ``kept`` accepts: its ``solve`` calls
    and returns are replayed through ``sys.setprofile``, and the guard reads
    the number of kept states completed whenever a new one is entered."""
    code = next(c for c in reference_exact_best_response.__code__.co_consts
                if getattr(c, "co_name", None) == "solve")
    done, peak = set(), 0

    def watch(frame, event, _):
        nonlocal peak
        if frame.f_code is not code or not kept(frame.f_locals["status"]):
            return
        key = frame.f_locals["k"], frame.f_locals["block"], frame.f_locals["status"]
        if event == "call" and key not in done:
            peak = max(peak, len(done))
        elif event == "return":
            done.add(key)

    sys.setprofile(watch)
    try:
        reference_exact_best_response(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return peak


def test_guard_trips_at_the_same_cap_as_reference(ladder_calls, monkeypatch):
    """The DP keeps only the reference's states with a free controlled seat
    (a forced tail is played out, not memoized): its smallest passing cap is
    the one the reference would need if its memo held only those.  The
    replay is checked on the reference itself, whose own cap counts every
    state; on three-player fields that cap is larger."""
    picked = {}
    for args, kwargs, result in ladder_calls:
        field = args[1]
        controlled = kwargs.get("controlled", args[3] if len(args) > 3 else None)
        objective = kwargs.get("objective", args[4] if len(args) > 4 else None)
        picked.setdefault((field.arity, controlled, objective), (args, kwargs))
    assert len(picked) >= 3
    for (arity, controlled, _), (args, kwargs) in picked.items():
        cap = smallest_passing_cap(monkeypatch, exact_best_response, args, kwargs)
        assert cap > 0
        monkeypatch.setenv(ENV_OVERRIDE, f"dp={cap}")
        exact_best_response(*args, **kwargs)
        monkeypatch.setenv(ENV_OVERRIDE, f"dp={cap - 1}")
        with pytest.raises(GuardExceeded):
            exact_best_response(*args, **kwargs)
        full = smallest_passing_cap(monkeypatch, reference_exact_best_response, args, kwargs)
        monkeypatch.delenv(ENV_OVERRIDE)
        assert full == reference_replayed_cap(args, kwargs, lambda status: True)
        free = reference_replayed_cap(args, kwargs, lambda st: any(st[q] < 0 for q in controlled))
        assert cap == free
        assert cap < full if arity == 3 else cap <= full
