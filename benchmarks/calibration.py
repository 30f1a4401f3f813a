"""How fast this process runs right now, against the reference host.

On a shared host, other tenants slow this process down by 1.1 to 2.1 times
in phases that last from under a second to many minutes, in CPU time as
much as in wall time (they compete for the core, they do not deschedule
us).  A phase that covers a whole run moves every in-run statistic with it.
So the benchmark times a fixed piece of its own work, a *burst*, next to
every stage it measures, and divides the stage's time by the burst's
slowdown against the reference host.  The burst is code of the benchmark,
not of the library, so a change of the library moves the stage and not the
burst.

The tenants slow different kinds of code by different amounts: in one
measured phase array arithmetic slowed 1.65 times and interpreter-bound
code 1.40 times, and a batch forecast slowed about half as much as a
streamed one.  So the burst has three parts, timed apart, one of each kind
the library runs:

- array arithmetic: a Mahalanobis-style distance over a (3000, 3, 4)
  difference array, like one step of fuzzy clustering;
- streaming over memory: elementwise arithmetic and a row sum over a
  (12000, 8) array, like a batch forecast over a long event;
- the interpreter: 1 800 numpy calls on 4-element vectors, like a streamed
  single-row forecast.

The slowdown is the geometric mean of the three parts' ratios to their
reference times.  Each part is run twice and its faster time kept, so
neither one interrupt nor caches the library left cold make a burst read
slow, and the array parts work in preallocated buffers, so they do not
depend on how much memory the library has just freed.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest times of the three parts on the reference host (two shared vCPUs
# of an Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4 with OpenBLAS, one
# BLAS thread), so that calibrated times read in seconds on that host.
REFERENCE_S = {"array": 0.65e-3, "memory": 0.38e-3, "interp": 0.87e-3}

_Z = np.linspace(-1.0, 1.0, 3000 * 4).reshape(3000, 4)
_V = _Z[::1000].copy()
_A = np.eye(4) + 0.1
_D = np.empty((3000, 3, 4))
_E = np.empty((3000, 3))
_M = np.linspace(-1.0, 1.0, 12000 * 8).reshape(12000, 8)
_F = np.empty((12000, 8))
_ROWS = list(_Z[:600])


def _array() -> None:
    np.subtract(_Z[:, None, :], _V[None, :, :], out=_D)
    np.einsum("nci,ij,ncj->nc", _D, _A, _D, out=_E, optimize=False).sum()


def _memory() -> None:
    np.exp(_M, out=_F)
    np.multiply(_F, _M, out=_F)
    _F.sum(axis=1)


def _interp() -> None:
    x = _ROWS[0]
    for row in _ROWS:
        diff = row - x
        float(np.exp(-np.dot(diff, diff)))


PARTS = {"array": _array, "memory": _memory, "interp": _interp}


def _timed(part) -> float:
    t0 = time.perf_counter()
    part()
    return time.perf_counter() - t0


def burst() -> dict:
    """Seconds of each part, the faster of two tries."""
    return {name: min(_timed(part), _timed(part)) for name, part in PARTS.items()}


def slowdown() -> float:
    """This process's slowdown against the reference host, measured now."""
    ratios = [seconds / REFERENCE_S[name] for name, seconds in burst().items()]
    return float(np.prod(ratios) ** (1.0 / len(ratios)))
