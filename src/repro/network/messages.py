"""Message envelopes and defensive payload accessors.

A party program's per-round *outbox* is one of:

* ``Broadcast(payload)`` — the same payload to every party (self included;
  the paper's protocols all say "send to all parties");
* a ``dict`` mapping recipient id to payload — point-to-point, possibly
  equivocating (only the adversary has a reason to equivocate, but the type
  is shared);
* ``None`` — silence this round.

The per-round *inbox* is a ``dict`` mapping sender id to the payload that
sender addressed to us.  Channels are authenticated: sender ids are
simulator-assigned and unforgeable.  Payload *contents*, however, may be
arbitrary Byzantine garbage, which is why honest code goes through
:func:`get_field` below instead of trusting shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

__all__ = [
    "Broadcast",
    "Outbox",
    "Inbox",
    "normalize_outbox",
    "get_field",
]


@dataclass(frozen=True)
class Broadcast:
    """Same payload to all ``n`` parties (including the sender)."""

    payload: Any


Outbox = Union[Broadcast, Dict[int, Any], None]
Inbox = Dict[int, Any]

PARALLEL_KEY = "__par__"


def normalize_outbox(outbox: Outbox, num_parties: int) -> Dict[int, Any]:
    """Expand an outbox into an explicit recipient → payload map."""
    if isinstance(outbox, Broadcast):
        return dict.fromkeys(range(num_parties), outbox.payload)
    if outbox is None:
        return {}
    if isinstance(outbox, dict):
        return {
            recipient: payload
            for recipient, payload in outbox.items()
            if isinstance(recipient, int) and 0 <= recipient < num_parties
        }
    raise TypeError(f"invalid outbox type {type(outbox).__name__}")


def get_field(payload: Any, key: str) -> Optional[Any]:
    """``payload[key]`` if payload is a dict holding it, else ``None``."""
    if isinstance(payload, dict):
        return payload.get(key)
    return None
