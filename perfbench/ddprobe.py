"""Accuracy and latency probe of ``divdiff.dd_phase`` against mpmath.

Three node regimes, each for 2 to 12 nodes at t = 1:

* ``spaced``: evenly spaced with gap 0.11, where ``dd_phase`` takes the
  direct partial-fraction sum and its cancellation grows with the count;
* ``clustered``: evenly spread within a total width of 1e-9;
* ``confluent``: coincident pairs (each value twice) with gap 0.11.

The reference is the Newton divided-difference tableau in mpmath with 60
significant digits beyond the digits the tableau itself cancels, so the
oracle stays exact to well past double precision in every regime.
"""

from __future__ import annotations

import math
import statistics
import time

REGIMES = ("spaced", "clustered", "confluent")
NODE_COUNTS = tuple(range(2, 13))
GAP = 0.11
CLUSTER_WIDTH = 1e-9
T = 1.0
_DIGITS = 60


def probe_nodes(regime: str, n: int) -> list:
    """The ``n`` probe nodes of a regime, starting at 0 as in the ROADMAP's
    direct-sum error table."""
    if regime == "spaced":
        return [GAP * k for k in range(n)]
    if regime == "clustered":
        return [CLUSTER_WIDTH * k / (n - 1) for k in range(n)]
    if regime == "confluent":
        return [GAP * (k // 2) for k in range(n)]
    raise ValueError(f"unknown regime {regime!r}")


def mp_dd_phase(nodes, t: float) -> complex:
    """Divided difference of e^{-iEt} over real ``nodes`` by the Newton
    tableau in mpmath; runs of equal nodes take the derivative limit."""
    import mpmath

    xs = sorted(mpmath.mpf(x) for x in nodes)
    gaps = [float(b - a) for a, b in zip(xs, xs[1:]) if b != a]
    lost = len(xs) * max(0, math.ceil(-math.log10(min(gaps)))) if gaps else 0
    with mpmath.workdps(_DIGITS + lost):
        tt = mpmath.mpf(t)
        col = [mpmath.exp(-1j * x * tt) for x in xs]
        for k in range(1, len(xs)):
            col = [
                (-1j * tt) ** k * mpmath.exp(-1j * xs[i] * tt) / mpmath.factorial(k)
                if xs[i + k] == xs[i]
                else (col[i + 1] - col[i]) / (xs[i + k] - xs[i])
                for i in range(len(xs) - k)
            ]
        return complex(col[0])


def latency_us(dd_phase, nodes) -> float:
    """Median over 5 batches of the mean time of 200 ``dd_phase`` calls, in µs."""
    per_call = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(200):
            dd_phase(nodes, T)
        per_call.append((time.perf_counter() - start) / 200 * 1e6)
    return statistics.median(per_call)


def run_probe(dd_phase) -> dict:
    """Relative error of ``dd_phase`` for every regime and node count, and
    the call latency at 4 and 12 nodes for the spaced and confluent regimes.

    Keys are ``rel_err.<regime>.n<count>`` and ``us.<regime>.n<count>``.
    """
    out = {}
    for regime in REGIMES:
        for n in NODE_COUNTS:
            nodes = probe_nodes(regime, n)
            ref = mp_dd_phase(nodes, T)
            out[f"rel_err.{regime}.n{n}"] = abs(dd_phase(nodes, T) - ref) / abs(ref)
    for regime in ("spaced", "confluent"):
        for n in (4, 12):
            out[f"us.{regime}.n{n}"] = latency_us(dd_phase, probe_nodes(regime, n))
    return out
