"""Independent reference implementations used to cross-check the package.

Everything here works on plain tuples and sets, straight from the
definitions, sharing no code with the library under test.  Slow and
obviously correct beats fast and clever for an oracle.
"""

from __future__ import annotations

from itertools import combinations


def bits_from_positions(positions, n):
    bits = [0] * n
    for p in positions:
        bits[p] = 1
    return tuple(bits)


def shift_overlap(xbits, ybits, m):
    n = len(xbits)
    return sum(xbits[t] * ybits[(t + m) % n] for t in range(n))


def auto_profile(bits):
    return tuple(shift_overlap(bits, bits, m) for m in range(1, len(bits)))


def cross_profile(xbits, ybits):
    return tuple(shift_overlap(xbits, ybits, m) for m in range(len(xbits)))


def max_auto(positions, n):
    return max(auto_profile(bits_from_positions(positions, n)))


def max_cross(xpos, ypos, n):
    return max(
        cross_profile(bits_from_positions(xpos, n), bits_from_positions(ypos, n))
    )


def gaps_of(positions, n):
    """Cyclic gaps between consecutive one-positions, in position order."""
    ordered = sorted(positions)
    w = len(ordered)
    if w == 1:
        return (n,)
    out = [ordered[i + 1] - ordered[i] for i in range(w - 1)]
    out.append(n - ordered[-1] + ordered[0])
    return tuple(out)


def anchored_difference_table(gaps):
    """Row j holds the partial sums of the gaps starting after anchor j."""
    w = len(gaps)
    rows = []
    for j in range(w):
        acc = 0
        row = []
        for k in range(w - 1):
            acc += gaps[(j + k) % w]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def table_cross(xpos, xn, ypos, yn):
    """One more than the most entries a row of x's table shares with a row
    of y's, entries compared as plain integers; lengths may differ."""
    xrows = anchored_difference_table(gaps_of(xpos, xn))
    yrows = anchored_difference_table(gaps_of(ypos, yn))
    return 1 + max(len(set(rx) & set(ry)) for rx in xrows for ry in yrows)


def canonical_gaps(gaps):
    """The rotation of ``gaps`` with the largest last gap, then the
    lexicographically smallest among those."""
    rotations = [tuple(gaps[i:]) + tuple(gaps[:i]) for i in range(len(gaps))]
    return min(rotations, key=lambda r: (-r[-1], r))


def all_subsets(n, w):
    return combinations(range(n), w)


def rotation_classes(n, w):
    """One representative position tuple per cyclic shift class."""
    seen = set()
    out = []
    for subset in combinations(range(n), w):
        key = min(
            tuple(sorted((p - s) % n for p in subset)) for s in subset
        )
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def unit_auto_classes(n, w):
    """Rotation classes whose shift auto-correlation peak is exactly 1."""
    return [
        key for key in rotation_classes(n, w) if max_auto(key, n) <= 1
    ]


def max_clique(adjacency, cap=None):
    """Members of a maximum clique, ascending, by depth-first extension.

    ``adjacency`` maps node -> set of neighbors.  ``cap`` stops growth at
    a known ceiling, which also prunes the search.
    """
    best = ()

    def grow(base, cand):
        nonlocal best
        if len(base) > len(best):
            best = base
        if cap is not None and len(base) >= cap:
            return
        for k, v in enumerate(cand):
            if len(base) + len(cand) - k <= len(best):
                return
            grow(base + (v,), [u for u in cand[k + 1 :] if u in adjacency[v]])

    grow((), sorted(adjacency))
    return best


def max_clique_size(adjacency, cap=None):
    """Size of `max_clique`."""
    return len(max_clique(adjacency, cap))


def greedy_walk(adjacency, start=None):
    """Degree-greedy clique walk, as nodes in selection order.

    ``adjacency`` maps node -> set of neighbors.  Each step picks the node
    with the most neighbors among the still-active nodes (ties to the
    smallest), or ``start`` first, then keeps only its neighbors active.
    """
    active = set(adjacency)
    chosen = []
    while active:
        if not chosen and start is not None:
            pick = start
        else:
            pick = min(active, key=lambda v: (-len(adjacency[v] & active), v))
        chosen.append(pick)
        active &= adjacency[pick]
    return tuple(chosen)


def greedy_walks(adjacency):
    """One `greedy_walk` per highest-degree start, in ascending start order.

    Only the first walk to reach each member set is kept.
    """
    top = max(map(len, adjacency.values()), default=0)
    found = []
    seen = set()
    for v in sorted(adjacency):
        if len(adjacency[v]) != top:
            continue
        walk = greedy_walk(adjacency, v)
        if frozenset(walk) not in seen:
            seen.add(frozenset(walk))
            found.append(walk)
    return tuple(found)


def nested_floor_bound(n, w, lam):
    """Size ceiling by repeated floor division, innermost first."""
    acc = 1
    for i in range(lam, 0, -1):
        acc = (n - i) * acc // (w - i)
    return acc // w


def companion_positions(dops):
    """One-bit positions of a prefix's closed companion, anchored at 0."""
    positions = [0]
    for d in dops:
        positions.append(positions[-1] + d)
    return tuple(positions)


def shift_peak(positions, n):
    """Largest overlap of a position set with its shifts 1..n-1.

    Only a shift that moves some one-bit p onto another one-bit q, that
    is m = q - p, can overlap at all, so only those shifts are tried;
    the others overlap 0.  At least two positions are needed.
    """
    ones = set(positions)
    shifts = {(q - p) % n for p in ones for q in ones if p != q}
    return max(len(ones & {(p + m) % n for p in ones}) for m in shifts)


def extend_prefixes(prefixes, n, w, lambda_a):
    """The designer's extension step, one candidate code at a time.

    Each prefix of u differences grows by every e up to its slot's cap
    (floor((n-w+1)/2) for the leading floor((w-1)/2) slots, floor((n-w+2)/2)
    after them) that still leaves one unit for each later position.  e is
    skipped unjudged when it equals the last difference and it would be the
    second difference or the ceiling is 1.  A candidate is kept when its
    closed companion's self-correlation peak is at most ``lambda_a``; the
    kept tuples come in order, each once.
    """
    out = {}  # insertion-ordered, so each kept tuple once, in order
    for dops in prefixes:
        u = len(dops)
        slot = (n - w + 1) // 2 if u + 1 <= (w - 1) // 2 else (n - w + 2) // 2
        cap = min(slot, n - (w - u - 1) - sum(dops))
        for e in range(1, cap + 1):
            if e == dops[-1] and (u == 1 or lambda_a == 1):
                continue
            cand = tuple(dops) + (e,)
            if shift_peak(companion_positions(cand), n) <= lambda_a:
                out.setdefault(cand)
    return list(out)


def close_prefixes(prefixes, n):
    """Each prefix one difference short, closed by the difference its length
    forces and put in canonical rotation; the first tuple of each rotation
    class is kept, in order."""
    return list(dict.fromkeys(canonical_gaps(c + (n - sum(c),)) for c in prefixes))


def reference_design(tuples, max_sets=None):
    """The paper's staged designer, from the definitions above.

    ``tuples`` lists (n, w, lambda_a, lambda_c) tuples.  One tuple is
    designed alone; for several, each distinct tuple is designed in
    first-seen order and one family is selected again over all their sets.
    Returns the emitted sets, each as (tuple, member differences, bound,
    self level, in-set cross level), and the family level.
    """
    families = [_design_tuple(t, max_sets) for t in dict.fromkeys(tuples)]
    if len(tuples) == 1:
        return families[0]
    return _select([s[:2] for sets, _ in families for s in sets], max_sets)


def _design_tuple(params, max_sets):
    """Grow codes stage by stage, then select a family of the last cliques.

    Pools are processed first in, first out.  A stage joins two codes when
    their closed companions' ``table_cross`` is at most lambda_c, walks
    ``greedy_walks``, keeps the largest ``max_sets`` walks (earliest first
    on ties, in found order) and extends each walk's members in ascending
    order.  The last stage closes each code, keeps the first of each
    rotation class, and keys each candidate by its sorted members.
    """
    n, w, lambda_a, lambda_c = params
    singles = [(d,) for d in range(1, (n - w + 1) // 2 + 1)]
    pools = [extend_prefixes(singles, n, w, lambda_a)]
    candidates = {}
    for pool in pools:  # the loop reaches the pools appended below
        if not pool:
            continue
        final = len(pool[0]) == w - 1
        if final:
            pool = close_prefixes(pool, n)
        ones = [companion_positions(c[:-1] if final else c) for c in pool]
        graph = _graph(
            len(pool), lambda i, j: table_cross(ones[i], n, ones[j], n) <= lambda_c
        )
        walks = greedy_walks(graph)
        if max_sets is not None and len(walks) > max_sets:
            ranked = sorted(range(len(walks)), key=lambda i: (-len(walks[i]), i))
            walks = [walks[i] for i in sorted(ranked[:max_sets])]
        for walk in walks:
            members = sorted(pool[i] for i in walk)
            if final:
                candidates.setdefault(tuple(members))
            else:
                pools.append(extend_prefixes(members, n, w, lambda_a))
    return _select([(params, members) for members in candidates], max_sets)


def _graph(size, joined):
    """Adjacency over nodes 0..size-1, joining each pair ``joined`` accepts."""
    adjacency = {i: set() for i in range(size)}
    for i, j in combinations(range(size), 2):
        if joined(i, j):
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency


def _select(sets, max_sets):
    """One greedy walk over the sets' separation graph, sorted and capped.

    Two (tuple, members) sets are joined when their largest cross-set
    ``table_cross`` is at most the smaller of their lambda_c plus one.
    """

    def cross(a, b):
        (an, *_), (bn, *_) = a[0], b[0]
        ones = [companion_positions(x[:-1]) for x in a[1]]
        return max(
            table_cross(p, an, companion_positions(y[:-1]), bn)
            for p in ones
            for y in b[1]
        )

    def separated(i, j):
        return cross(sets[i], sets[j]) <= min(sets[i][0][3], sets[j][0][3]) + 1

    chosen = sorted(
        greedy_walk(_graph(len(sets), separated)),
        key=lambda i: (*sets[i][0][:2], sets[i][1], i),
    )[:max_sets]
    kept = [sets[i] for i in chosen]
    level = max((cross(a, b) for a, b in combinations(kept, 2)), default=0)
    return [_emitted(*s) for s in kept], level


def _emitted(params, members):
    """A set as emitted: its bound and its verified self and cross levels."""
    n, w, lambda_a, lambda_c = params
    ones = [companion_positions(m[:-1]) for m in members]
    self_level = max(shift_peak(p, n) for p in ones)
    cross_level = max(
        (table_cross(p, n, q, n) for p, q in combinations(ones, 2)), default=0
    )
    bound = nested_floor_bound(n, w, max(lambda_a, lambda_c))
    return params, members, bound, self_level, cross_level
