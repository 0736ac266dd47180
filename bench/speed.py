"""A speed probe for the CPU the timed processes run on.

On a shared host the same work can take 1.3-1.7 times longer from one
minute to the next, as other tenants load the physical core; our own CPU
time grows with it, so it is not the scheduler and no run length averages
it away.  The probe times a fixed kernel made of the library's hot-loop
shapes (a character sum into a dict of Fractions, index-tuple moves and a
Bareiss elimination), sampled on the same CPU while an operation runs.
A time scaled by REFERENCE_S / (median probe time) is then what the
operation would take at the reference speed.  The kernel is frozen: it
must not follow the library, or a library speed-up would cancel itself.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the probe's time at the reference speed (its fast state on a 2-core Xeon
# guest at 2.0 GHz); it sets the unit of the scaled times and nothing else
REFERENCE_S = 0.0005

_TABLE = [(i * 37 + 11) % 128 for i in range(128)]
_VALUES = [Fraction(i % 7 - 3, i % 4 + 1) for i in range(24)]
_INDICES = [tuple((i >> k) % 3 + 1 for k in range(7)) for i in range(40)]
_IMAGES = (3, 1, 2, 5, 4, 7, 6)
_ROWS = [[(i * 7 + j * 13) % 23 - 11 for j in range(6)] for i in range(6)]


def _kernel() -> None:
    acc: dict = {}
    for chi in (1, -1, 2):
        for code, value in enumerate(_VALUES):
            moved = _TABLE[code]
            acc[moved] = acc.get(moved, 0) + chi * value
    moves: dict = {}
    for idx in _INDICES:
        moved = tuple(idx[_IMAGES[k] - 1] for k in range(7))
        moves[moved] = moves.get(moved, 0) + 1
    rows = [r[:] for r in _ROWS]
    prev = 1
    for c in range(6):
        pivot = rows[c][c] or 1
        for i in range(c + 1, 6):
            factor = rows[i][c]
            for j in range(c + 1, 6):
                rows[i][j] = (rows[i][j] * pivot - factor * rows[c][j]) // prev
        prev = pivot


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
