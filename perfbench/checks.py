"""Answer checks that share no code with the solver.

Every function here works on plain JSON documents and tuples, recounting from
first principles, so that a fault in ``grc`` cannot hide itself by being used
to check its own output.
"""

from __future__ import annotations


def witness_problems(inst_doc: dict, graph_doc: dict) -> list[str]:
    """Reasons ``graph_doc`` does not realize ``inst_doc``; empty when it does.

    Recounts every degree and every cut size from the edge list.
    """
    n = len(inst_doc["degrees"])
    if graph_doc.get("n") != n:
        return [f"witness has n={graph_doc.get('n')}, instance has {n}"]
    adj: list[set[int]] = [set() for _ in range(n)]
    for edge in graph_doc["edges"]:
        if len(edge) != 2:
            return [f"malformed edge {edge}"]
        u, v = edge
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return [f"edge {edge} is a loop or out of range"]
        if v in adj[u]:
            return [f"edge {edge} listed twice"]
        adj[u].add(v)
        adj[v].add(u)
    problems = []
    for v, want in enumerate(inst_doc["degrees"]):
        if len(adj[v]) != want:
            problems.append(f"vertex {v}: degree {len(adj[v])}, wanted {want}")
    for cut in inst_doc["cuts"]:
        members = cut["set"]
        inside = set(members)
        # Cut size = degree sum of S minus twice the edges inside S.
        internal = sum(len(adj[u] & inside) for u in inside) // 2
        size = sum(len(adj[v]) for v in inside) - 2 * internal
        if size != cut["ell"]:
            problems.append(f"cut {members}: size {size}, wanted {cut['ell']}")
    return problems


def erdos_gallai(degrees) -> bool:
    """True iff the sequence is the degree sequence of a simple graph."""
    d = sorted(degrees, reverse=True)
    if sum(d) % 2 or (d and d[-1] < 0):
        return False
    n = len(d)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def gale_ryser(left, right) -> bool:
    """True iff some simple bipartite graph has these two degree sequences."""
    if sum(left) != sum(right) or min(left, default=0) < 0 or min(right, default=0) < 0:
        return False
    a = sorted(left, reverse=True)
    prefix = 0
    for k in range(1, len(a) + 1):
        prefix += a[k - 1]
        if prefix > sum(min(b, k) for b in right):
            return False
    return True


def exactly_one_counts(variable_count: int, clauses, weights) -> set[int]:
    """Weighted true-counts over all assignments giving every all-positive
    clause exactly one true variable; variable i weighs ``weights[i]``."""
    counts = set()
    for mask in range(1 << variable_count):
        if all(sum(mask >> (v - 1) & 1 for v in clause) == 1 for clause in clauses):
            counts.add(sum(w for i, w in enumerate(weights) if mask >> i & 1))
    return counts


def assignment_problems(variable_count: int, clauses, weights, k: int, assignment) -> list[str]:
    """Why a decoded assignment, read on the source variables, is not an
    exactly-one assignment of weighted true-count ``k``."""
    if len(assignment) < variable_count:
        return [f"assignment covers {len(assignment)} of {variable_count} variables"]
    source = assignment[:variable_count]
    problems = [f"clause {clause} has {hits} true variables"
                for clause in clauses
                if (hits := sum(1 for v in clause if source[v - 1])) != 1]
    weight = sum(w for w, value in zip(weights, source) if value)
    if weight != k:
        problems.append(f"weighted true-count {weight}, wanted {k}")
    return problems


def has_perfect_triple_matching(n: int, triples) -> bool:
    """True iff ``n`` disjoint triples cover all three coordinate sets."""
    by_first: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, y, z in triples:
        by_first[x].append((y, z))
    used_y, used_z = [False] * n, [False] * n

    def cover(x: int) -> bool:
        if x == n:
            return True
        for y, z in by_first[x]:
            if not used_y[y] and not used_z[z]:
                used_y[y] = used_z[z] = True
                if cover(x + 1):
                    return True
                used_y[y] = used_z[z] = False
        return False

    return cover(0)


def matching_problems(n: int, triples, chosen) -> list[str]:
    """Why ``chosen`` is not a perfect matching drawn from ``triples``."""
    allowed = set(map(tuple, triples))
    problems = [f"triple {t} is not in the system" for t in chosen if tuple(t) not in allowed]
    for axis in range(3):
        if sorted(t[axis] for t in chosen) != list(range(n)):
            problems.append(f"coordinate {axis} is not covered exactly once")
    return problems
