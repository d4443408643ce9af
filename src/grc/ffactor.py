"""Exact-degree spanning subgraphs via perfect matching.

A degree-target question on a host graph expands into a matching question:
each host vertex v becomes one "external" vertex per incident host edge plus
deg(v) - f(v) "core" vertices joined to all of v's externals; each host edge
becomes a single edge between the corresponding externals.  Perfect matchings
of the expansion correspond exactly to subgraphs of the host in which every
vertex v has degree f(v).

``solve_f_factor`` builds that expansion only for what is left undecided.  It
first prunes the host: a vertex with f(v) = 0 drops its edges, and one with
f(v) = deg(v) takes them all, lowering its neighbours' targets, until neither
rule applies (a contradiction on the way means no factor).  On the rest r it
uses that F is an f-factor exactly when r - F is a (deg_r - f)-factor, and
expands whichever side has the smaller sum of deg(v) times core count.
``solve_on_host`` decides both the tree route and the width-2 route this
way; on a forest the pruning alone settles every edge.

The matching engine is an augmenting-path search with blossom shrinking,
deterministic by fixed ascending scan order.  Each blossom base keeps the
list of its vertices, so a contraction relabels only the vertices of the
bases it absorbs.  One engine call uses internal mutable state; independent
solves can run in parallel on separate calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import mul

from .model import Contradiction, GrcInstance, SimpleGraph, SolveOutcome, _integer, cut_size
from .preprocess import Core, as_core, possibility_graph, realized
from .reduce3 import lift_realization

# perfbench/tracing.py wraps these names in this module.
from .preprocess import eliminate_fixed_edges, verify_realization  # noqa: F401

# Degree targets, one entry per host vertex.
FactorFunction = tuple[int, ...]


def max_matching(g: SimpleGraph) -> frozenset[tuple[int, int]]:
    """Maximum-cardinality matching of a general graph."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
        adj[v].append(u)
    match = [-1] * n
    for u in range(n):  # greedy seed
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    for root in range(n):
        if match[root] == -1:
            _augment_from(root, adj, match, n)
    return frozenset((u, match[u]) for u in range(n) if match[u] > u)


def _augment_from(root: int, adj, match, n) -> bool:
    parent = [-1] * n
    base = list(range(n))
    members: dict[int, list[int]] = {}  # base -> its vertices, for blossoms of two or more
    used = [False] * n
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                stem = _lowest_common_base(v, to, match, parent, base)
                marked: set[int] = set()
                _mark_blossom_path(v, stem, to, match, parent, base, marked)
                _mark_blossom_path(to, stem, v, match, parent, base, marked)
                # Relabel exactly the vertices whose base is marked, and queue
                # the new ones in ascending order, as a scan over all would.
                blossom = [] if stem in marked else members.pop(stem, [stem])
                fresh = []
                for b in marked:
                    for i in members.pop(b, (b,)):
                        base[i] = stem
                        blossom.append(i)
                        if not used[i]:
                            used[i] = True
                            fresh.append(i)
                fresh.sort()
                queue.extend(fresh)
                members[stem] = blossom
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    _flip_augmenting_path(to, match, parent)
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _lowest_common_base(a: int, b: int, match, parent, base) -> int:
    seen = set()
    x = base[a]
    while True:
        seen.add(x)
        if match[x] == -1:
            break
        x = base[parent[match[x]]]
    y = base[b]
    while y not in seen:
        y = base[parent[match[y]]]
    return y


def _mark_blossom_path(v: int, stem: int, child: int, match, parent, base, marked: set[int]) -> None:
    while base[v] != stem:
        marked.add(base[v])
        marked.add(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _flip_augmenting_path(v: int, match, parent) -> None:
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt


@dataclass(frozen=True)
class GadgetMatchingGraph:
    """Expansion of (host, targets) whose perfect matchings are the host's
    degree-exact subgraphs."""

    graph: SimpleGraph
    edge_reps: dict  # host edge (u, v) -> representative expansion edge


def _check_targets(host: SimpleGraph, f) -> tuple[int, ...]:
    targets = tuple(x if type(x) is int else _integer(x, "degree target") for x in f)
    if len(targets) != host.vertex_count:
        raise ValueError(
            f"need one degree target per vertex: got {len(targets)} for n={host.vertex_count}")
    if any(x < 0 for x in targets):
        raise ValueError("degree targets must be nonnegative")
    return targets


def tutte_gadget(host: SimpleGraph, f) -> GadgetMatchingGraph | None:
    """Build the matching expansion, or None when some target exceeds a host degree."""
    targets = _check_targets(host, f)
    host_edges = sorted(host.edges)
    incident: list[list[int]] = [[] for _ in range(host.vertex_count)]
    for idx, (u, v) in enumerate(host_edges):
        incident[u].append(idx)
        incident[v].append(idx)
    ext_of: dict[tuple[int, int], int] = {}
    gadget_edges: list[tuple[int, int]] = []
    nxt = 0
    for v in range(host.vertex_count):
        if targets[v] > len(incident[v]):
            return None
        ext = []
        for e in incident[v]:
            ext_of[(v, e)] = nxt
            ext.append(nxt)
            nxt += 1
        spare = len(incident[v]) - targets[v]  # core vertices of v
        gadget_edges.extend((x, c) for c in range(nxt, nxt + spare) for x in ext)
        nxt += spare
    edge_reps: dict[tuple[int, int], tuple[int, int]] = {}
    for idx, (u, v) in enumerate(host_edges):
        a, b = ext_of[(u, idx)], ext_of[(v, idx)]
        if a > b:
            a, b = b, a
        gadget_edges.append((a, b))
        edge_reps[(u, v)] = (a, b)
    return GadgetMatchingGraph(SimpleGraph(nxt, frozenset(gadget_edges)), edge_reps)


def _prune(host: SimpleGraph, targets: FactorFunction
           ) -> tuple[list[tuple[int, int]], SimpleGraph, list[int]] | None:
    """Settle the host edges that every f-factor takes or leaves.

    A vertex with target 0 keeps none of its edges, and one whose target is
    its degree keeps all of them; each rule lowers its neighbours' degrees or
    targets, so both repeat until neither applies.  Returns the taken edges,
    the undecided rest of the host and the targets left on it, or None when
    the rules show that no f-factor exists.
    """
    n = host.vertex_count
    need = list(targets)
    adj = host.adjacency()
    taken: list[tuple[int, int]] = []
    work = [v for v in range(n) if need[v] in (0, len(adj[v]))]
    while work:
        v = work.pop()
        if not adj[v] or need[v] not in (0, len(adj[v])):
            continue  # settled already, or no longer at either bound
        take = need[v] > 0
        for w in adj[v]:
            adj[w].discard(v)
            if take:
                if need[w] == 0:
                    return None
                need[w] -= 1
                taken.append((v, w) if v < w else (w, v))
            if need[w] in (0, len(adj[w])):
                work.append(w)
        adj[v] = set()
        need[v] = 0
    if any(need[v] > len(adj[v]) for v in range(n)):
        return None
    rest = SimpleGraph(n, frozenset((v, w) for v in range(n) for w in adj[v] if v < w))
    return taken, rest, need


def solve_f_factor(host: SimpleGraph, f) -> SimpleGraph | None:
    """Spanning subgraph of ``host`` where vertex v has degree exactly f[v], or None.

    Forced edges are settled first (``_prune``).  On the rest r, F is an
    f-factor exactly when r - F is a (deg_r - f)-factor, so the expansion is
    built for whichever targets give it fewer edges.
    """
    targets = _check_targets(host, f)
    pruned = _prune(host, targets)
    if pruned is None:
        return None
    taken, rest, need = pruned
    degs = rest.degree_sequence()
    spare = [d - x for d, x in zip(degs, need)]
    complement = sum(map(mul, degs, need)) < sum(map(mul, degs, spare))
    gadget = tutte_gadget(rest, spare if complement else need)
    matching = max_matching(gadget.graph)
    if 2 * len(matching) != gadget.graph.vertex_count:
        return None
    chosen = {edge for edge, rep in gadget.edge_reps.items() if rep in matching}
    if complement:
        chosen = rest.edges - chosen
    result = SimpleGraph(host.vertex_count, chosen.union(taken))
    if result.degree_sequence() != targets:
        raise RuntimeError("perfect matching of the expansion does not map to the targets")
    return result


def solve_on_host(core: Core, host: SimpleGraph, source: GrcInstance | Core,
                  method: str) -> SolveOutcome:
    """Decide ``core`` through a degree-exact subgraph of ``host``, its
    possibility graph.

    The factor meets the degrees and the pair verdicts by construction, so
    only the Core's other cuts are checked on it.  The tree route relies on
    the factor of a forest being unique: two f-factors differ by a nonempty
    even-degree subgraph, which contains a cycle.  A width-2 Core keeps only
    singleton cuts, which any factor meets when their demand is the degree.
    The witness is lifted through the Core's trace and verified against
    ``source`` as in ``realized``.
    """
    factor = solve_f_factor(host, core.degrees)
    if factor is None:
        return SolveOutcome.infeasible(
            "possibility graph has no degree-exact spanning subgraph", method=method)
    violations = [f"cut {s}: size {size} != required {ell}"
                  for s, ell in core.cuts.items() if (size := cut_size(factor, s)) != ell]
    if violations:
        return SolveOutcome.infeasible(
            "the unique degree-exact subgraph violates constraints: "
            + "; ".join(violations), method=method)
    return realized(lift_realization(core.trace, factor), source, method)


def solve_width2(inst: GrcInstance | Core) -> SolveOutcome:
    """Decide an instance (or Core) whose cut sets all have size <= 2.

    Forced edges are eliminated, the survivors must form a degree-exact
    subgraph of the possibility graph (``solve_on_host``), and the witness is
    lifted back through the Core's trace.
    """
    try:
        core = as_core(inst)
    except Contradiction as exc:
        return SolveOutcome.infeasible(str(exc), method="ffactor")
    if any(len(s) > 2 for s in core.cuts):
        raise ValueError("solve_width2 needs all cut sets of size <= 2")
    return solve_on_host(core, possibility_graph(core), inst, "ffactor")
