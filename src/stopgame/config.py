"""Desk-scale guards for enumeration and dynamic programming.

The caps keep brute-force oracles honest about instance size.  They can be
raised through the ``STOPGAME_GUARD_OVERRIDE`` environment variable, either
as a bare integer applied to both caps or as ``enum=N,dp=M``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError

ENV_OVERRIDE = "STOPGAME_GUARD_OVERRIDE"

DEFAULT_ENUMERATION_CAP = 10**6
DEFAULT_DP_STATE_CAP = 10**7
_OVERRIDE_KEYS = {"enum": "enumeration_cap", "enumeration": "enumeration_cap",
                  "dp": "dp_state_cap", "dp_states": "dp_state_cap"}


@dataclass(frozen=True)
class Guards:
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    dp_state_cap: int = DEFAULT_DP_STATE_CAP


def current_guards() -> Guards:
    """Guards in effect, honoring the environment override; a malformed
    override raises ``ValidationError``."""
    raw = os.environ.get(ENV_OVERRIDE, "").strip()
    if not raw:
        return Guards()
    if raw.isdigit():
        return Guards(enumeration_cap=int(raw), dp_state_cap=int(raw))
    caps = {}
    for part in raw.split(","):
        key, _, val = part.partition("=")
        field = _OVERRIDE_KEYS.get(key.strip().lower())
        if field is None or not val.strip().isdigit():
            raise ValidationError(f"{ENV_OVERRIDE}={raw!r}: expected N or enum=N,dp=M")
        caps[field] = int(val)
    return Guards(**caps)
