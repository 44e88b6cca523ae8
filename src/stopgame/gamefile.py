"""JSON round-trip for game specs, strategy profiles, and solver reports.

Rationals are serialized as "p/q" strings, so parse(emit(x)) reproduces x and
reports can be re-verified bit for bit.  On input the accepted grammar is
exactly ``Fraction(str)``'s (decimals are converted exactly); plain ASCII
integers and "p/q" strings are split directly into integers, and each
distinct payoff string is read once per parse, into its field's integer
``PayoffField.rows``, so parsing builds no payoff ``Fraction``.  The
adaptedness check compares those integers on partition blocks of two or more
outcomes.  Payoff tensors are dense nested lists indexed by time indices then
outcome, written from the same integer rows with one string per distinct
numerator; profiles are explicit tables so that a report's profile can be
re-checked without access to solver internals.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .errors import ParseError, ValidationError
from .payoff import PayoffField, check_adapted
from .space import FilteredSpace, StoppingTime, TimeGrid, is_stopping_time, rat, validate_space
from .strategy import StrategyOrder2, StrategyOrder3

SCHEMA = "stopgame-game-v1"


def _f2s(x: Fraction) -> str:
    x = Fraction(x)
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms: "p/q", or "p" when it is an integer."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}" if q != g else str(p // g)


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")  # ASCII, nonzero denominator


def _ratio(x, where: str, *args) -> tuple[int, int]:
    """x read as ``rat`` reads it, as its reduced (numerator, denominator); an
    ASCII "p/q" or integer is split into ints with no ``Fraction``.  The
    error label ``where.format(*args)`` is formatted only on failure."""
    try:
        if type(x) is str and (m := _RATIO.fullmatch(x)):
            p, q = int(m[1]), int(m[2] or 1)
            g = math.gcd(p, q)
            return p // g, q // g
        value = rat(x)
        return value.numerator, value.denominator
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where.format(*args)}: not a rational: {x!r}") from exc


def _s2f(x, where: str, *args) -> Fraction:
    """x read as ``rat`` reads it (see ``_ratio``)."""
    return Fraction(*_ratio(x, where, *args))


def _int(x, where: str) -> int:
    """A JSON integer; a float, string or boolean is an input error."""
    if type(x) is not int:
        raise ParseError(f"{where}: need a JSON integer, got {x!r}")
    return x


@contextmanager
def _malformed(what: str):
    """Report a missing key or a value of the wrong shape as a ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class GameDoc:
    space: FilteredSpace
    fields: tuple[PayoffField, ...]
    theta: StoppingTime
    epsilon: Fraction
    h: Fraction | None


def emit_game(doc: GameDoc) -> str:
    space = doc.space
    n_players = len(doc.fields)
    K = space.grid.terminal_index

    def tensor(field: PayoffField):
        rows, den = field.rows, field.den
        text = {n: _ratio_text(n, den) for n in set(chain.from_iterable(rows.values()))}

        def rec(prefix):
            if len(prefix) == field.arity:
                return [text[n] for n in rows[tuple(prefix)]]
            return [rec(prefix + [k]) for k in range(K + 1)]

        return rec([])

    obj = {
        "schema": SCHEMA,
        "grid": [_f2s(p) for p in space.grid.points],
        "outcomes": [
            {"label": f"w{w}", "weight": _f2s(space.weights[w])}
            for w in range(space.n_outcomes)
        ],
        "partitions": [[list(block) for block in part] for part in space.partitions],
        "players": n_players,
        "payoffs": [tensor(f) for f in doc.fields],
        "start": [_f2s(space.grid.points[i]) for i in doc.theta.idx],
        "epsilon": _f2s(doc.epsilon),
    }
    if doc.h is not None:
        obj["h"] = _f2s(doc.h)
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def parse_game(text: str) -> GameDoc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    with _malformed("game"):
        for key in ("grid", "outcomes", "partitions", "players", "payoffs", "epsilon"):
            if key not in obj:
                raise ParseError(f"missing field {key!r}")
        grid = TimeGrid(tuple(_s2f(p, "grid") for p in obj["grid"]))
        weights = tuple(_s2f(o["weight"], "outcomes.weight") for o in obj["outcomes"])
        partitions = tuple(
            tuple(tuple(_int(w, "partitions") for w in block) for block in part)
            for part in obj["partitions"]
        )
        space = FilteredSpace(grid=grid, weights=weights, partitions=partitions)
        problems = validate_space(space)
        if problems:
            raise ValidationError("; ".join(problems))
        n_players = _int(obj["players"], "players")
        if n_players not in (2, 3):
            raise ValidationError(f"players must be 2 or 3, got {n_players}")
        n = space.n_outcomes
        ratios: dict[str, tuple[int, int]] = {}  # each distinct payoff string, read once
        fields = tuple(
            _read_payoffs(space, node, p, n_players, ratios)
            for p, node in enumerate(obj["payoffs"])
        )
        if len(fields) != n_players:
            raise ParseError("need one payoff tensor per player")
        for p, f in enumerate(fields):
            bad = check_adapted(f)
            if bad:
                raise ValidationError(
                    f"payoff[{p}] not settled at the latest stop for times {bad[0]}"
                )
        start = obj.get("start")
        if start is None:
            theta = StoppingTime((0,) * n)
        else:
            vals = [_s2f(v, "start") for v in start]
            try:
                idx = tuple(grid.index(v) for v in vals)
            except ValueError as exc:
                raise ValidationError(f"start: {exc}") from exc
            if not is_stopping_time(space, idx):
                raise ValidationError("start is not a stopping time")
            theta = StoppingTime(idx)
        epsilon = _s2f(obj["epsilon"], "epsilon")
        if epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        h = _s2f(obj["h"], "h") if "h" in obj else None
        if h is not None and h <= 0:
            raise ValidationError("h must be positive")
        return GameDoc(space=space, fields=fields, theta=theta, epsilon=epsilon, h=h)


def _read_payoffs(
    space: FilteredSpace, node, player: int, arity: int, ratios: dict
) -> PayoffField:
    """One payoff tensor as a field born from its integer rows: its ``den``
    is the lcm of its values' reduced denominators, and each distinct value
    is scaled to it once."""
    leaves: list = []
    _walk(node, (), (len(space.grid),) * arity + (space.n_outcomes,), player, ratios, leaves)
    values = set(chain.from_iterable(leaves))
    # a JSON integer, the only value but a string that ``rat`` accepts, is p/1
    reduced = {v: ratios[v] if type(v) is str else (v, 1) for v in values}
    den = math.lcm(*(q for _, q in reduced.values()))
    scaled = {v: p * (den // q) for v, (p, q) in reduced.items()}
    # n numerators at a time make each tuple's row, in tuple order
    rows = zip(*[map(scaled.__getitem__, chain.from_iterable(leaves))] * space.n_outcomes)
    tuples = product(range(len(space.grid)), repeat=arity)
    return PayoffField.from_rows(space, arity, dict(zip(tuples, rows)), den)


def _walk(node, prefix: tuple, sizes: tuple, player: int, ratios: dict, leaves: list) -> None:
    """Depth first, in tuple order, so the first error in that order is the
    one raised: check that a tensor node is a list of ``sizes[len(prefix)]``
    entries, then walk its children, or read a leaf's values and append the
    leaf.  A string is read once per parse into ``ratios`` as its reduced
    (p, q); only strings are keys, since ``True == 1 == 1.0`` would share one."""
    inner = len(prefix) + 1 < len(sizes)
    if not isinstance(node, list) or len(node) != sizes[len(prefix)]:
        if inner:
            raise ParseError(f"payoff[{player}] missing entries under times {prefix}")
        raise ParseError(f"payoff[{player}] at times {prefix}: need one value per outcome")
    if inner:
        for k, child in enumerate(node):
            _walk(child, prefix + (k,), sizes, player, ratios, leaves)
        return
    for v in node:
        if type(v) is not str or v not in ratios:
            pq = _ratio(v, "payoff[{}]{}", player, prefix)
            if type(v) is str:
                ratios[v] = pq
    leaves.append(node)


def strategy_to_obj(space: FilteredSpace, strat) -> dict:
    pts = space.grid.points

    def st_vals(st: StoppingTime):
        return [_f2s(pts[i]) for i in st.idx]

    if isinstance(strat, StrategyOrder2):
        return {
            "order": 2,
            "initial": st_vals(strat.initial),
            "react": [st_vals(st) for st in strat.react],
        }
    return {
        "order": 3,
        "seat": strat.seat,
        "initial": st_vals(strat.initial),
        "react_one": {
            str(q): [st_vals(st) for st in table]
            for q, table in sorted(strat.react_one.items())
        },
        "react_two": {
            f"{a},{b}": st_vals(st)
            for (a, b), st in sorted(strat.react_two.items())
        },
    }


def strategy_from_obj(space: FilteredSpace, obj: dict):
    grid = space.grid
    K = grid.terminal_index
    # time string -> grid index; only strings, so a bool never matches a
    # key, and only lookups that succeeded, so every error is raised afresh
    indices: dict[str, int] = {}

    def time_index(v, where, args) -> int:
        if isinstance(v, str) and v in indices:
            return indices[v]
        k = grid.index(_s2f(v, where, *args))
        if isinstance(v, str):
            indices[v] = k
        return k

    def read_st(vals, where, *args):
        if len(vals) != space.n_outcomes:
            raise ParseError(f"{where.format(*args)}: need one time per outcome")
        try:
            return StoppingTime(tuple([time_index(v, where, args) for v in vals]))
        except ValueError as exc:
            raise ParseError(f"{where.format(*args)}: {exc}") from exc

    order = _int(obj.get("order", 0), "order")
    if order == 2:
        react = obj.get("react", [])
        if len(react) != K + 1:
            raise ParseError("react table must cover every observation time")
        return StrategyOrder2(
            initial=read_st(obj["initial"], "initial"),
            react=tuple(read_st(r, "react[{}]", s) for s, r in enumerate(react)),
        )
    if order == 3:
        react_one = {}
        for q, table in obj["react_one"].items():
            if len(table) != K + 1:
                raise ParseError("react_one tables must cover every observation time")
            react_one[int(q)] = tuple(
                read_st(r, "react_one[{}][{}]", q, s) for s, r in enumerate(table)
            )
        react_two = {}
        for key, vals in obj["react_two"].items():
            a, b = (int(x) for x in key.split(","))
            react_two[(a, b)] = read_st(vals, "react_two[{}]", key)
        want = {(a, b) for a in range(K + 1) for b in range(K + 1)}
        if set(react_two) != want:
            raise ParseError("react_two must cover every observation pair")
        return StrategyOrder3(
            seat=_int(obj["seat"], "seat"),
            initial=read_st(obj["initial"], "initial"),
            react_one=react_one,
            react_two=react_two,
        )
    raise ParseError(f"unknown strategy order {order!r}")


def profile_to_obj(space: FilteredSpace, profile) -> dict:
    return {
        "players": len(profile),
        "strategies": [strategy_to_obj(space, s) for s in profile],
    }


def profile_from_obj(space: FilteredSpace, obj: dict):
    with _malformed("profile"):
        if "profile" in obj:  # accept a whole solve output
            obj = obj["profile"]
        strategies = obj.get("strategies")
        if not isinstance(strategies, list):
            raise ParseError("profile needs a 'strategies' list")
        return [strategy_from_obj(space, s) for s in strategies]


def atoms_obj(space: FilteredSpace, values: dict) -> list:
    out = []
    for (k, members), v in sorted(values.items()):
        out.append(
            {
                "time": _f2s(space.grid.points[k]),
                "outcomes": list(members),
                "value": _f2s(v),
            }
        )
    return out


def dump_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
