"""Communication contexts for distributed matching (paper Fig. 3).

A message is the triple ``(context, x, y)``: ``x`` is a vertex owned by
the *receiver*, ``y`` the vertex owned by the sender that the message is
about.

* ``REQUEST`` — "y points at x" (a matching proposal). Mutual pointing
  means a match, detected independently on both sides.
* ``REJECT``  — "y is matched to someone else; deactivate the edge".
* ``INVALID`` — "y can never be matched; deactivate the edge".
* ``ACK``     — MatchBox-P-style per-message acknowledgment (only the MBP
  baseline emits these; carries no algorithmic content).

For Send-Recv the context travels in the MPI tag; for RMA and
neighborhood collectives it is the first word of the 3-word payload —
exactly the paper's encoding split (§IV-B).
"""

from __future__ import annotations

from enum import IntEnum


class Ctx(IntEnum):
    REQUEST = 1
    REJECT = 2
    INVALID = 3
    ACK = 4


#: ``CTX_NAME[c] == Ctx(c).name`` for a context's int value (slot 0 is
#: unused). Wire decodes hand plain ints to the state machine, which
#: names them through this tuple: building an enum member per message
#: costs more than handling it.
CTX_NAME: tuple[str, ...] = ("",) + tuple(c.name for c in Ctx)
assert all(CTX_NAME[c] == c.name for c in Ctx)


#: wire size of one (context, x, y) triple: three 64-bit words
TRIPLE_BYTES = 24
