"""JSON round-trip for game specs, strategy profiles, and solver reports.

Rationals are serialized as "p/q" strings, so parse(emit(x)) reproduces x and
reports can be re-verified bit for bit.  On input the accepted grammar is
exactly ``Fraction(str)``'s (decimals are converted exactly).  A payoff tensor
is read into its field's integer ``PayoffField.rows`` on one of two paths: in
bulk, with no ``Fraction``, when its shape checks a level at a time and its
distinct values are all ASCII integer and "p/q" strings (one
``str.translate``, then ``int`` per numerator and per distinct denominator
text); else depth first through ``rat`` (a string once), raising the first
bad node or value in tuple order.  Then one lcm L of the denominators and one
g = gcd(L, every numerator) give den = L // g.  Payoff tensors are dense
nested lists indexed by time indices then outcome, written as text from the
same integer rows; profiles are explicit tables, their times written and read
through the grid's canonical texts, built once per document, and each
distinct row read once per profile, so that a report's profile can be
re-checked without access to solver internals.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii
from operator import mul

from .errors import ParseError, ValidationError
from .payoff import PayoffField, check_adapted
from .space import FilteredSpace, StoppingTime, TimeGrid, is_stopping_time, rat, validate_space
from .strategy import StrategyOrder2, StrategyOrder3

SCHEMA = "stopgame-game-v1"


def _f2s(x: Fraction | int) -> str:
    """A ``Fraction`` or ``int`` as "p/q", or "p" when it is an integer; a
    ``Fraction`` is already in lowest terms, so it is read, not rebuilt."""
    p, q = x.numerator, x.denominator
    return f"{p}/{q}" if q != 1 else str(p)


def _ratio_text(p: int, q: int) -> str:
    """p/q (q > 0) in lowest terms: "p/q", or "p" when it is an integer."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}" if q != g else str(p // g)


def _time_texts(grid: TimeGrid) -> list[str]:
    """The canonical text of each grid time, by index."""
    return [_f2s(p) for p in grid.points]


def _s2f(x, where: str, *args) -> Fraction:
    """x read as ``rat`` reads it; the error label ``where.format(*args)`` is
    formatted only on failure."""
    try:
        return rat(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where.format(*args)}: not a rational: {x!r}") from exc


def _int(x, where: str) -> int:
    """A JSON integer; a float, string or boolean is an input error."""
    if type(x) is not int:
        raise ParseError(f"{where}: need a JSON integer, got {x!r}")
    return x


def _object(x, what: str) -> dict:
    """``x`` when it is a JSON object; any other JSON value is an input error."""
    if type(x) is not dict:
        kind = "null" if x is None else type(x).__name__
        raise ParseError(f"{what}: expected a JSON object, got {kind}")
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


def _block(items: list[str], depth: int) -> str:
    """A JSON list of rendered items, laid out as ``json.dumps(indent=1)``
    lays out a list at nesting depth ``depth``."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _tensor_text(field: PayoffField, depth: int) -> str:
    """A field's payoff tensor as ``json.dumps(indent=1)`` writes it at
    nesting depth ``depth``, each distinct numerator's text quoted once."""
    rows, den, size = field.rows, field.den, len(field.space.grid)
    nums = set(chain.from_iterable(rows.values()))
    quoted = {n: encode_basestring_ascii(_ratio_text(n, den)) for n in nums}
    level = depth + field.arity
    items = [
        _block(list(map(quoted.__getitem__, rows[ks])), level)
        for ks in product(range(size), repeat=field.arity)
    ]
    while level > depth:
        level -= 1
        items = [_block(items[i : i + size], level) for i in range(0, len(items), size)]
    return items[0]


def emit_game(doc: GameDoc) -> str:
    space = doc.space
    times = _time_texts(space.grid)
    obj = {
        "schema": SCHEMA,
        "grid": times,
        "outcomes": [
            {"label": f"w{w}", "weight": _f2s(space.weights[w])}
            for w in range(space.n_outcomes)
        ],
        "partitions": [[list(block) for block in part] for part in space.partitions],
        "players": len(doc.fields),
        "payoffs": "<payoffs>",  # spliced in below as text
        "start": [times[i] for i in doc.theta.idx],
        "epsilon": _f2s(doc.epsilon),
    }
    if doc.h is not None:
        obj["h"] = _f2s(doc.h)
    payoffs = _block([_tensor_text(f, 2) for f in doc.fields], 1)
    return json.dumps(obj, sort_keys=True, indent=1).replace('"<payoffs>"', payoffs, 1) + "\n"


def parse_game(text: str) -> GameDoc:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _object(obj, "game")
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
        fields = tuple(
            _read_payoffs(space, node, p, n_players) for p, node in enumerate(obj["payoffs"])
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


def _read_payoffs(space: FilteredSpace, node, player: int, arity: int) -> PayoffField:
    """One payoff tensor as a field born from its integer rows, read as the
    module docstring says: in bulk (``_ratios``), or by ``_walk``, which
    raises the first bad node or value in tuple order."""
    n = space.n_outcomes
    sizes, level = (len(space.grid),) * arity + (n,), [node]
    try:
        for size in sizes:
            if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
                raise ValueError("a node that is no list of the right size")
            level = list(chain.from_iterable(level))
        keys = list(set(level))  # TypeError for a list or dict among the values
        nums, dens = _ratios(keys)
    except (TypeError, ValueError):
        level, read = [], {}
        _walk(node, (), sizes, player, level, read)
        keys = list(read)
        nums, dens = [x.numerator for x in read.values()], [x.denominator for x in read.values()]
    L = math.lcm(*set(dens))
    factor = {q: L // q for q in set(dens)}
    scaled = list(map(mul, nums, map(factor.__getitem__, dens)))
    g = math.gcd(L, *scaled)
    numerator = dict(zip(keys, [s // g for s in scaled] if g > 1 else scaled))
    # n numerators at a time make each tuple's row, in tuple order
    rows = zip(*[map(numerator.__getitem__, level)] * n)
    tuples = product(range(len(space.grid)), repeat=arity)
    return PayoffField.from_rows(space, arity, dict(zip(tuples, rows)), L // g)


_RATIO_CHARS = dict.fromkeys(map(ord, "0123456789/-"))  # what ``str.translate`` drops


def _ratios(keys: list) -> tuple[list, list]:
    """The numerators and denominators of ``keys`` if all are strings
    -?[0-9]+(/0*[1-9][0-9]*)? (characters in [0-9/-], ``int`` texts, a "/"
    only before an ``int`` > 0, read once per text), else TypeError or
    ValueError."""
    joined = "".join(keys)
    if joined.translate(_RATIO_CHARS):
        raise ValueError("a character outside [0-9/-]")
    ps, _, qs = zip(*map(str.partition, keys, repeat("/")))
    nums = list(map(int, ps))
    den_of = {q: int(q or 1) for q in set(qs)}
    if min(den_of.values()) < 1 or joined.count("/") != len(qs) - qs.count(""):
        raise ValueError("a denominator not positive, or missing after a '/'")
    return nums, list(map(den_of.__getitem__, qs))


def _walk(node, prefix: tuple, sizes: tuple, player: int, values: list, read: dict) -> None:
    """Depth first, in tuple order: check that a tensor node is a list of
    ``sizes[len(prefix)]`` entries, then walk its children, or append its
    values to ``values``, each read by ``_s2f`` into ``read``: a string
    once, any other value each time, since ``True == 1``."""
    inner = len(prefix) + 1 < len(sizes)
    if not isinstance(node, list) or len(node) != sizes[len(prefix)]:
        if inner:
            raise ParseError(f"payoff[{player}] missing entries under times {prefix}")
        raise ParseError(f"payoff[{player}] at times {prefix}: need one value per outcome")
    if inner:
        for k, child in enumerate(node):
            _walk(child, prefix + (k,), sizes, player, values, read)
        return
    for v in node:
        if type(v) is not str or v not in read:
            read[v] = _s2f(v, "payoff[{}]{}", player, prefix)
    values.extend(node)


def strategy_to_obj(times: list[str], strat) -> dict:
    def st_vals(st: StoppingTime):
        return [times[i] for i in st.idx]

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


def strategy_from_obj(space: FilteredSpace, obj: dict, rows: dict, indices: dict):
    """``indices``: grid time text -> index; ``rows``: each canonical row read."""
    grid = space.grid
    K = grid.terminal_index

    def read_st(vals, where, *args):
        if len(vals) != space.n_outcomes:
            raise ParseError(f"{where.format(*args)}: need one time per outcome")
        key = tuple(vals)
        try:
            try:
                if key not in rows:  # TypeError for a list or dict among the times
                    rows[key] = StoppingTime(tuple(map(indices.__getitem__, key)))
                return rows[key]
            except (KeyError, TypeError):  # a time not written canonically: read each
                return StoppingTime(tuple([grid.index(_s2f(v, where, *args)) for v in key]))
        except ValueError as exc:
            raise ParseError(f"{where.format(*args)}: {exc}") from exc

    def key_ints(table, key, n, want):
        parts = key.split(",")
        try:
            if len(parts) == n:
                return tuple(map(int, parts))
        except ValueError:
            pass
        raise ParseError(f"{table} key {key!r}: expected {want}")

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
            (seat,) = key_ints("react_one", q, 1, "a seat index")
            if seat in react_one:
                raise ParseError(f"react_one[{q}]: a second key for seat {seat}")
            react_one[seat] = tuple(
                read_st(r, "react_one[{}][{}]", q, s) for s, r in enumerate(table)
            )
        react_two = {}
        for key, vals in obj["react_two"].items():
            a, b = key_ints("react_two", key, 2, 'two grid indices "a,b"')
            if (a, b) in react_two:
                raise ParseError(f"react_two[{key}]: a second key for observation pair {(a, b)}")
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
    times = _time_texts(space.grid)
    return {"players": len(profile), "strategies": [strategy_to_obj(times, s) for s in profile]}


def profile_from_obj(space: FilteredSpace, obj: dict):
    with _malformed("profile"):
        if "profile" in _object(obj, "profile"):  # accept a whole solve output
            obj = _object(obj["profile"], "profile")
        strategies = obj.get("strategies")
        if not isinstance(strategies, list):
            raise ParseError("profile needs a 'strategies' list")
        rows: dict = {}  # the stopping time of each canonical row read, by tuple
        # only strings are keys, so a bool or a number never matches a time
        indices = {t: k for k, t in enumerate(_time_texts(space.grid))}
        return [strategy_from_obj(space, _object(s, f"profile: strategy {i}"), rows, indices)
                for i, s in enumerate(strategies)]


def atoms_obj(times: list[str], values: dict) -> list:
    return [
        {"time": times[k], "outcomes": list(members), "value": _f2s(v)}
        for (k, members), v in sorted(values.items())
    ]


def dump_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
