"""Classical degree-sequence realization: feasibility test and constructive builder."""

from __future__ import annotations

from .model import SimpleGraph, _integer


def erdos_gallai(degrees) -> bool:
    """True iff the sequence is realizable by a simple graph.

    Checks the even-sum condition and, over the non-increasing reordering,
    sum(d_1..d_k) <= k(k-1) + sum_{i>k} min(d_i, k) for every 1 <= k <= n.
    """
    d = sorted((_integer(x, "degree") for x in degrees), reverse=True)
    if any(x < 0 for x in d):
        raise ValueError("degrees must be nonnegative")
    if sum(d) % 2:
        return False
    n = len(d)
    lhs = 0
    for k in range(1, n + 1):
        lhs += d[k - 1]
        rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def havel_hakimi(degrees) -> SimpleGraph | None:
    """Build a realization by repeatedly satisfying the largest remaining demand.

    The current highest-degree vertex is wired to the next-highest ones, ties
    broken by smallest original index, so the witness is deterministic and
    vertex i keeps degree degrees[i] under the original labeling.  Returns
    None when the sequence is not graphic.
    """
    degrees = [_integer(x, "degree") for x in degrees]
    if any(x < 0 for x in degrees):
        raise ValueError("degrees must be nonnegative")
    n = len(degrees)
    remaining = [[d, i] for i, d in enumerate(degrees)]
    edges: list[tuple[int, int]] = []
    while remaining:
        remaining.sort(key=lambda item: (-item[0], item[1]))
        need, u = remaining.pop(0)
        if need == 0:
            break
        if need > len(remaining):
            return None
        for slot in remaining[:need]:
            if slot[0] == 0:
                return None
            slot[0] -= 1
            edges.append((u, slot[1]) if u < slot[1] else (slot[1], u))
    return SimpleGraph(n, frozenset(edges))
