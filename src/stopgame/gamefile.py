"""JSON round-trip for game specs, strategy profiles, and solver reports.

Rationals are serialized as "p/q" strings (decimals are accepted and
converted exactly on input), so parse(emit(x)) reproduces x and reports can
be re-verified bit for bit.  Payoff tensors are dense nested lists indexed by
time indices then outcome; profiles are explicit tables so that a report's
profile can be re-checked without access to solver internals.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ValidationError
from .payoff import PayoffField, check_adapted
from .space import FilteredSpace, StoppingTime, TimeGrid, is_stopping_time, rat, validate_space
from .strategy import StrategyOrder2, StrategyOrder3

SCHEMA = "stopgame-game-v1"


def _f2s(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _s2f(x, where: str) -> Fraction:
    try:
        return rat(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: not a rational: {x!r}") from exc


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
        def rec(prefix):
            if len(prefix) == field.arity:
                return [_f2s(v) for v in field.at(tuple(prefix))]
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
            tuple(tuple(int(w) for w in block) for block in part)
            for part in obj["partitions"]
        )
        space = FilteredSpace(grid=grid, weights=weights, partitions=partitions)
        problems = validate_space(space)
        if problems:
            raise ValidationError("; ".join(problems))
        n_players = int(obj["players"])
        if n_players not in (2, 3):
            raise ValidationError(f"players must be 2 or 3, got {n_players}")
        K = grid.terminal_index
        n = space.n_outcomes

        def read_tensor(node, player):
            values = {}

            def rec(prefix, sub):
                if len(prefix) == n_players:
                    if not isinstance(sub, list) or len(sub) != n:
                        raise ParseError(
                            f"payoff[{player}] at times {tuple(prefix)}: need one "
                            f"value per outcome"
                        )
                    values[tuple(prefix)] = tuple(
                        _s2f(v, f"payoff[{player}]{tuple(prefix)}") for v in sub
                    )
                    return
                if not isinstance(sub, list) or len(sub) != K + 1:
                    raise ParseError(
                        f"payoff[{player}] missing entries under times {tuple(prefix)}"
                    )
                for k, child in enumerate(sub):
                    rec(prefix + [k], child)

            rec([], node)
            return PayoffField(space, n_players, values)

        fields = tuple(read_tensor(node, p) for p, node in enumerate(obj["payoffs"]))
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
        return GameDoc(space=space, fields=fields, theta=theta, epsilon=epsilon, h=h)


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

    def read_st(vals, where):
        if len(vals) != space.n_outcomes:
            raise ParseError(f"{where}: need one time per outcome")
        try:
            return StoppingTime(tuple(grid.index(_s2f(v, where)) for v in vals))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    order = int(obj.get("order", 0))
    if order == 2:
        react = obj.get("react", [])
        if len(react) != K + 1:
            raise ParseError("react table must cover every observation time")
        return StrategyOrder2(
            initial=read_st(obj["initial"], "initial"),
            react=tuple(read_st(r, f"react[{s}]") for s, r in enumerate(react)),
        )
    if order == 3:
        react_one = {}
        for q, table in obj["react_one"].items():
            if len(table) != K + 1:
                raise ParseError("react_one tables must cover every observation time")
            react_one[int(q)] = tuple(
                read_st(r, f"react_one[{q}][{s}]") for s, r in enumerate(table)
            )
        react_two = {}
        for key, vals in obj["react_two"].items():
            a, b = (int(x) for x in key.split(","))
            react_two[(a, b)] = read_st(vals, f"react_two[{key}]")
        want = {(a, b) for a in range(K + 1) for b in range(K + 1)}
        if set(react_two) != want:
            raise ParseError("react_two must cover every observation pair")
        return StrategyOrder3(
            seat=int(obj["seat"]),
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
