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


def max_clique_size(adjacency, cap=None):
    """Exact maximum clique size by depth-first extension.

    ``adjacency`` maps node -> set of neighbors.  ``cap`` stops growth at
    a known ceiling, which also prunes the search.
    """
    nodes = sorted(adjacency)
    best = 0

    def grow(base_len, cand):
        nonlocal best
        if base_len > best:
            best = base_len
        if cap is not None and base_len >= cap:
            return
        for k, v in enumerate(cand):
            if base_len + len(cand) - k <= best:
                return
            grow(base_len + 1, [u for u in cand[k + 1 :] if u in adjacency[v]])

    grow(0, nodes)
    return best


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


def nested_floor_bound(n, w, lam):
    """Size ceiling by repeated floor division, innermost first."""
    acc = 1
    for i in range(lam, 0, -1):
        acc = (n - i) * acc // (w - i)
    return acc // w
