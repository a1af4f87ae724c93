"""Objects that cross the simulated network, and the event trace that records them.

Raw datasets never appear here by design: institutions emit ClientUpdate or
MaskedUpdate objects only, and trace events tag every message with its
payload type so tests can assert that boundary. A MaskedUpdate's words are
uint64, elements of the ring Z_2^64 (see ``secure_agg``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tasks import ensure_vector

PAYLOAD_GLOBAL_MODEL = "global-model"
PAYLOAD_CLIENT_UPDATE = "client-update"
PAYLOAD_MASKED_UPDATE = "masked-update"
NETWORK_PAYLOADS = (PAYLOAD_GLOBAL_MODEL, PAYLOAD_CLIENT_UPDATE, PAYLOAD_MASKED_UPDATE)

COORDINATOR = "coordinator"


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """One institution's local weights for a round, with its sample count."""

    institution_id: str
    weights: np.ndarray
    n_i: int
    round_index: int

    def __post_init__(self):
        object.__setattr__(self, "weights", ensure_vector(self.weights, name="weights"))
        if self.n_i < 1:
            raise ShapeError("n_i must be >= 1")
        if self.round_index < 0:
            raise ShapeError("round_index must be >= 0")

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True, eq=False)
class MaskedUpdate:
    """A masked fixed-point vector of uint64 words, as long as the plaintext."""

    institution_id: str
    masked_weights: np.ndarray
    n_i: int
    round_index: int

    def __post_init__(self):
        w = self.masked_weights
        if not isinstance(w, np.ndarray) or w.dtype != np.uint64 or w.ndim != 1:
            raise ShapeError("masked_weights must be a 1-D uint64 array")

    @property
    def dimension(self) -> int:
        return int(self.masked_weights.shape[0])


@dataclass(frozen=True)
class TraceEvent:
    """One structured record in the simulation event trace."""

    index: int
    t_ms: float
    kind: str  # broadcast | local-train | dp-apply | mask | send | receive | drop | aggregate | round-result
    round_index: int
    source: str
    target: str
    payload: str = ""
    note: str = ""


class EventTrace:
    """Append-only ordered trace with a monotone index."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def record(self, t_ms: float, kind: str, round_index: int, source: str,
               target: str, payload: str = "", note: str = "") -> TraceEvent:
        ev = TraceEvent(len(self.events), float(t_ms), kind, round_index,
                        source, target, payload, note)
        self.events.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
