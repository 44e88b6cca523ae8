from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck
from hypothesis import strategies as st

from stopgame import classic, coalition, nash2, nash3, verify
from stopgame import space as space_module
from stopgame.classic import SoloStop, snell
from stopgame.gamefile import parse_game
from stopgame.generator import generate_instance
from stopgame.nash3 import solve_three_player
from stopgame.payoff import PayoffField, payoff_from_function
from stopgame.space import (
    FilteredSpace, StoppingTime, TimeGrid, cond_exp, constant_time, make_grid, validate_space,
)

# hypothesis settings of the property tests: derandomized, so every run of
# the suite draws the same examples (for a given hypothesis version)
SETTINGS = dict(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# mixed small denominators and large pairwise-coprime ones
DENOMINATORS = (1, 2, 3, 7, 12, 10**9 + 7, 998244353, 2**61 - 1)

ACCEPTANCE_CRITERIA = {
    1: "equilibrium bound 13*eps on 50 generated instances",
    2: "coalition saddle parts 9/5/8 eps, total 17*eps",
    3: "cooperative pair infimum equals enumeration exactly",
    4: "duel value exact; hitting pair is an eps-saddle",
    5: "ordering theorems pointwise on every instance",
    6: "resolution matches the closed-form case tables",
    7: "window certificates 11/5/1 eps; patch identities",
    8: "gaps scale exactly under affine payoff changes",
    9: "byte-identical reports for identical seeds",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                num = int(name.split("test_criterion_")[1].split("_")[0])
                results[num] = status.upper() if status != "passed" else "PASS"
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(results):
        label = ACCEPTANCE_CRITERIA.get(num, "")
        word = "PASS" if results[num] == "PASS" else "FAIL"
        terminalreporter.write_line(f"  criterion {num}: {word} - {label}")


@pytest.fixture
def two_outcome_space() -> FilteredSpace:
    """Grid {0,1}, two equally likely outcomes, trivial then discrete."""
    return FilteredSpace(
        grid=make_grid([0, 1]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,))),
    )


@pytest.fixture
def three_time_space() -> FilteredSpace:
    """Grid {0,1,2} with the split revealed at time 1."""
    return FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,))),
    )


@pytest.fixture
def branching_space() -> FilteredSpace:
    """Three outcomes revealed in two stages over grid {0,1,2,3}."""
    return FilteredSpace(
        grid=make_grid([0, 1, 2, 3]),
        weights=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        partitions=(
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0,), (1,), (2,)),
            ((0,), (1,), (2,)),
        ),
    )


def assert_parses_as_reference(text: str) -> None:
    """``parse_game`` raises what ``reference_parse_game`` raises, with the
    same text, or gives a document equal to the reference's whose fields
    have the reference's ``den`` and every ``rows`` entry, in the same order."""
    from oracles import reference_parse_game

    got, want = (_parsed(read, text) for read in (parse_game, reference_parse_game))
    if got[0] == "raise" or want[0] == "raise":
        assert got == want
        return
    doc, ref = got[1], want[1]
    for field, ref_field in zip(doc.fields, ref.fields, strict=True):
        assert field.den == ref_field.den
        assert list(field.rows.items()) == list(ref_field.rows.items())
    assert doc == ref


def _parsed(read, text):
    """("ok", document) or ("raise", exception type, message) of one parser."""
    try:
        return ("ok", read(text))
    except Exception as exc:  # the type and text are compared, whatever they are
        return ("raise", type(exc), str(exc))


def random_space(rng: random.Random, n_outcomes: int, n_times: int) -> FilteredSpace:
    """Random refining filtration with positive rational weights summing to 1."""
    raw = [rng.randint(1, 8) for _ in range(n_outcomes)]
    total = sum(raw)
    weights = tuple(Fraction(r, total) for r in raw)
    partitions = [[tuple(range(n_outcomes))]]
    for _ in range(n_times - 2):
        prev = partitions[-1]
        nxt = []
        for block in prev:
            if len(block) > 1 and rng.random() < 0.6:
                cut = rng.randint(1, len(block) - 1)
                nxt.append(tuple(block[:cut]))
                nxt.append(tuple(block[cut:]))
            else:
                nxt.append(block)
        partitions.append(nxt)
    partitions.append([(w,) for w in range(n_outcomes)])
    points = [Fraction(k) for k in range(n_times)]
    return FilteredSpace(
        grid=TimeGrid(tuple(points)),
        weights=weights,
        partitions=tuple(tuple(p) for p in partitions),
    )


@st.composite
def spaces(draw) -> FilteredSpace:
    """A valid space: weights on mixed denominators, and refining partitions
    of shuffled outcomes with singleton and multi-outcome blocks."""
    n = draw(st.integers(1, 6))
    n_times = draw(st.integers(2, 5))
    raw = [
        Fraction(draw(st.integers(1, 10**6)), draw(st.sampled_from(DENOMINATORS)))
        for _ in range(n)
    ]
    weights = tuple(r / sum(raw) for r in raw)
    parts = [[tuple(draw(st.permutations(range(n))))]]
    for _ in range(n_times - 2):
        finer = []
        for block in parts[-1]:
            cuts = draw(st.sets(st.integers(1, len(block) - 1))) if len(block) > 1 else ()
            edges = [0, *sorted(cuts), len(block)]
            finer += [block[a:b] for a, b in zip(edges, edges[1:])]
        parts.append(finer)
    parts.append([(w,) for w in range(n)])
    space = FilteredSpace(
        grid=make_grid(range(n_times)), weights=weights, partitions=tuple(parts)
    )
    assert validate_space(space) == []
    return space


def drawn_stopping_time(draw, space: FilteredSpace) -> StoppingTime:
    K = space.grid.terminal_index
    idx = [None] * space.n_outcomes
    for k in range(K + 1):
        for block in space.partitions[k]:
            if idx[block[0]] is None and (k == K or draw(st.booleans())):
                for w in block:
                    idx[w] = k
    return StoppingTime(tuple(idx))


def random_rv(rng: random.Random, n: int, lo: int = -4, hi: int = 4, den: int = 4):
    return tuple(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(n))


def solo_solutions(space: FilteredSpace, field3, free_slot: int, direction: str) -> tuple:
    """The per-index entries ``build_single_family`` reads, as
    ``classic.solo_stop`` gives them, read off the ``Fraction`` Snell sweep of
    each process with the other slots pinned at k; the value at k per block,
    times ``field3.den * W_B``, must be an integer, and the entry's ``value``,
    converted back from those integers, must be the Snell value at k."""
    from oracles import reference_process

    out = []
    for k in range(len(space.grid)):
        res = snell(space, reference_process(field3, free_slot, k), direction, k)
        value = res.value[k]
        scaled = [
            value[block[0]] * field3.den * w_b
            for block, w_b in zip(space.partitions[k], space.block_wnum[k])
        ]
        assert all(x.denominator == 1 for x in scaled)
        out.append(SoloStop(res.rule, direction, tuple(map(int, scaled)), space, k, field3.den))
        assert out[-1].value == value
    return tuple(out)


def random_adapted_field(seed):
    """Three-slot field whose slice at each time tuple is a random RV
    measurable at the tuple's maximum; its nodes often have maximin < minimax."""
    rng = random.Random(seed)
    space = random_space(rng, 3, 4)
    slices = {}

    def fn(ks, w):
        if ks not in slices:
            slices[ks] = cond_exp(space, random_rv(rng, 3), max(ks))
        return slices[ks][w]

    return payoff_from_function(space, 3, fn)


# (outcomes, times, generator seed); each game is solved at the h the modulus
# selects and at the minimal grid step
LADDER = [(3, 5, 1), (3, 5, 2), (3, 5, 3), (4, 6, 1000), (4, 6, 8), (3, 7, 7)]


@pytest.fixture(scope="session")
def ladder_run() -> dict:
    """Calls made while solving the ladder, with their results:
    ``"oracle"`` holds (args, kwargs, result) per call of the best-response
    DP (``verify._best_response``, under ``exact_best_response`` and
    ``nash2.AfterStopTable``, which runs each pair-family DP once per
    solve), ``"certify"`` the same per gap measurement
    (``verify._measure_gaps``: under the final certificates, the pair
    families' anchors and window times), ``"pair"`` holds (args, result) per pair
    candidate (``nash2._candidate``, solved at each pair-family anchor),
    ``"shortfall"`` the same per coop and single window gap
    (``nash2._shortfall``), ``"cond_exp"`` holds (args, result) per call,
    with the input RV copied to a tuple, ``"stop_sums"`` holds ((field,
    stops, blocks), result) per ``PayoffField.stop_sums`` call, with the
    stops and blocks as tuples, and ``"duel"`` holds (args, result) per
    ``classic.dynkin_value`` call (the integer duels of the coalition games
    and the player processes).  After each solve every coalition family is
    read, so the families the solve itself never reads are built and
    recorded too."""
    keys = ("oracle", "certify", "pair", "shortfall", "cond_exp", "stop_sums", "duel")
    calls = {key: [] for key in keys}

    def recording(key, real, with_kwargs=True):
        def record(*args, **kwargs):
            result = real(*args, **kwargs)
            calls[key].append((args, kwargs, result) if with_kwargs else (args, result))
            return result

        return record

    real_average = space_module.cond_exp
    real_sums = PayoffField.stop_sums

    def recording_sums(field, stops, blocks):
        stops, blocks = tuple(stops), tuple(blocks)
        result = real_sums(field, stops, blocks)
        calls["stop_sums"].append(((field, stops, blocks), result))
        return result

    def recording_average(space, x, at):
        result = real_average(space, x, at)
        calls["cond_exp"].append(((space, tuple(x), at), result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        for key, name in (("oracle", "_best_response"), ("certify", "_measure_gaps")):
            real = getattr(verify, name)
            recorded = recording(key, real)
            for module_name, module in list(sys.modules.items()):  # verify and nash2
                if module_name.startswith("stopgame") and getattr(module, name, None) is real:
                    mp.setattr(module, name, recorded)
        for key, name in (("pair", "_candidate"), ("shortfall", "_shortfall")):
            mp.setattr(nash2, name, recording(key, getattr(nash2, name), with_kwargs=False))
        for module in (coalition, nash3):
            mp.setattr(module, "dynkin_value", recording("duel", classic.dynkin_value, False))
        mp.setattr(PayoffField, "stop_sums", recording_sums)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "stopgame" and (
                getattr(module, "cond_exp", None) is real_average
            ):
                mp.setattr(module, "cond_exp", recording_average)
        for outcomes, times, seed in LADDER:
            inst = generate_instance(
                seed=seed, n_outcomes=outcomes, n_times=times, n_players=3
            )
            theta = constant_time(inst.space, 0)
            for h in (None, inst.space.grid.min_step):
                sol = solve_three_player(inst.space, inst.fields, theta, inst.epsilon, h)
                assert sol.certificate.passes
                for comp, _ in sol.context.saddles.values():
                    dict(comp.families)  # the families the solve never read, built here
    return calls
