"""Span tracer that times stopgame's layers from outside the package.

``Tracer.installed()`` replaces each function named in ``LAYERS`` with a
wrapper in every ``stopgame`` module namespace that holds it by name (and
``PayoffField.pin`` on its class), and puts the originals back on exit.  Each
wrapped call records a span ``(name, start, end, parent, op)`` in memory;
``write`` saves them once, when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.

``space.cond_exp`` is only counted, because it is called too often for a span.
For the functions in ``REPEAT_KEYED`` the tracer also counts calls whose
arguments equal, by value, an earlier call's within the same op.  Building
those keys is itself a span, ``trace.fingerprint``, so its cost lands in the
trace's own bucket and not in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

LAYERS = {
    "payoff": ("estimate_modulus", "modulus_max", "select_h", "PayoffField.pin"),
    "classic": (
        "joint_inf_value",
        "snell",
        "joint_inf_pair",
        "dynkin_value",
        "dynkin_hitting_pair",
        "dynkin_convention_gap",
    ),
    "zerosum": ("reaction_game_value",),
    "nash2": (
        "solve_2p_nash",
        "build_pair_family",
        "build_coop_family",
        "build_single_family",
    ),
    "coalition": ("build_components", "assemble_saddle"),
    "nash3": (
        "build_context",
        "build_overline_families",
        "build_player_processes",
        "select_delta",
        "assemble_profile",
        "certify_nash",
    ),
    "verify": ("exact_best_response", "on_path_value", "nash_gap"),
    "strategy": ("validate_strategy", "resolve2", "resolve3", "patch_pair"),
    "gamefile": ("parse_game", "profile_from_obj", "dump_report", "emit_game"),
    "generator": ("generate_instance",),
}
COUNTED = ("space.cond_exp",)
REPEAT_KEYED = ("classic.joint_inf_value", "classic.snell", "nash2.build_single_family")


def fingerprint(x, memo):
    """Hashable key that is equal for arguments equal by value.

    A ``Fraction`` becomes its integer pair, which hashes much faster.
    ``memo`` maps id -> (object, key) for dataclass instances; it holds each
    object, so an id cannot be reused while the memo lives (one op).
    """
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(v, memo) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, fingerprint(v, memo)) for k, v in x.items()))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        hit = memo.get(id(x))
        if hit is None:
            key = (type(x).__name__,) + tuple(
                fingerprint(getattr(x, f.name), memo) for f in dataclasses.fields(x)
            )
            hit = memo[id(x)] = (x, key)
        return hit[1]
    return x


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict = defaultdict(int)
        self.repeats: dict = defaultdict(int)
        self.op_kinds: dict = {}  # op id -> "solve" | "verify" | ...
        self._stack: list = []
        self._op = None
        self._seen: dict = defaultdict(set)
        self._memo: dict = {}

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)

    def op(self, op_id, kind, fn, *args):
        """Run one user operation as a root span named ``cli.<kind>``."""
        self._op = op_id
        self.op_kinds[op_id] = kind
        self._seen = defaultdict(set)
        self._memo = {}
        try:
            return self.span(f"cli.{kind}", fn, *args)
        finally:
            self._op = None
            self._memo = {}

    def _note_repeat(self, name, args, kwargs):
        key = fingerprint((args, kwargs), self._memo)
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _wrap(self, name, fn):
        if name in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        keyed = name in REPEAT_KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                self.span("trace.fingerprint", self._note_repeat, name, args, kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        importlib.import_module("stopgame.cli")
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "stopgame" or n.startswith("stopgame.")
        ]
        undo = []
        targets = [f"{layer}.{q}" for layer, qs in LAYERS.items() for q in qs]
        try:
            for name in targets + list(COUNTED):
                layer, _, qual = name.partition(".")
                owner = importlib.import_module(f"stopgame.{layer}")
                if "." in qual:  # a method: patch it on its class
                    cls_name, attr = qual.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                else:
                    attr = qual
                    holders = modules
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                for holder in holders:
                    if holder.__dict__.get(attr) is orig:
                        setattr(holder, attr, wrapped)
                        undo.append((holder, attr, orig))
            yield self
        finally:
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)

    def layer_stats(self, kinds=None):
        """name -> [self seconds, inclusive seconds, calls], for spans whose
        op kind is in ``kinds`` (all spans when ``kinds`` is None)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if kinds is not None and self.op_kinds.get(op) not in kinds:
                continue
            row = stats[name]
            row[0] += end - start - child[i]
            row[1] += end - start
            row[2] += 1
        return stats

    def covered(self, modules, kinds):
        """Seconds spent inside any span of ``modules`` (outermost spans only,
        so nested ones are not counted twice), for ops of ``kinds``."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            outer = parent is not None and inside[parent]
            inside[i] = outer or name.split(".")[0] in modules
            if inside[i] and not outer and self.op_kinds.get(op) in kinds:
                total += end - start
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "op_kinds": self.op_kinds,
                    "counts": self.counts,
                    "repeats": self.repeats,
                },
                fh,
            )
