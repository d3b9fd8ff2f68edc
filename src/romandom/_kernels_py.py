"""The subset-scan and canonicalization hot loops, in pure Python.

This is the one implementation of the kernels; `romandom.kernels` re-exports
its entry points.  Every routine works on bitmask adjacency rows
(``rows[v]`` has bit ``u`` set when ``uv`` is an edge).  Vertex-set
arguments and results are encoded as int bitmasks over vertex ids
``0..n-1``; mask lists are ascending.

The scans visit subsets by size (`_levels`) rather than all ``2^n`` of
them, and each scan stops at the first size that cannot change its answer.
A k-subset S has Roman weight ``2k + |V - N[S]| >= 2k`` and differential
``|B(S)| - k <= n - 2k``, so:

- `min_weight_cover` stops once ``2k >= best`` and `min_cover_masks` once
  ``2k > best`` (ties still count);
- `max_differential` stops once ``n - 2k <= best`` and
  `max_differential_masks` once ``n - 2k < best``;
- the dominating-set scans stop at the first size with a dominating set;
- `efficient_dominating_masks` grows a set only by a closed neighborhood
  disjoint from the ones it has.

``tests/test_kernels_py.py`` checks every scan against a full ``2^n`` scan.
"""

_MAX_SCAN_ORDER = 24


def _check_scan_order(n):
    if n > _MAX_SCAN_ORDER:
        raise ValueError(f"subset scan limited to {_MAX_SCAN_ORDER} vertices, got {n}")


def _levels(rows, disjoint=False):
    """Yield, for k = 0, 1, ..., the ``(mask, union)`` pairs of all k-subsets
    S, where union is the OR of ``rows[v]`` over v in S.

    Level k is built from level k - 1, only when the caller asks for it, by
    adding each vertex above a mask's highest bit, so every subset appears
    once.  With ``disjoint``, a vertex is added only when its row misses the
    union.
    """
    n = len(rows)
    _check_scan_order(n)
    pairs = [(1 << v, row) for v, row in enumerate(rows)]
    tails = [pairs[i:] for i in range(n + 1)]
    level = [(0, 0)]
    while level:
        yield level
        if disjoint:
            level = [(m | b, u | r) for m, u in level for b, r in tails[m.bit_length()]
                     if not u & r]
        else:
            level = [(m | b, u | r) for m, u in level for b, r in tails[m.bit_length()]]


def min_weight_cover(closed):
    """min over S of 2|S| + |V - N[S]| with N[S] taken from closed rows.

    This equals the Roman domination number of the graph whose closed
    neighborhoods are ``closed``.
    """
    n = len(closed)
    full = (1 << n) - 1
    best = n  # S = empty: every vertex pays 1
    for k, level in enumerate(_levels(closed)):
        best = min(best, 2 * k + min([(full & ~u).bit_count() for _, u in level]))
        if 2 * k + 2 >= best:
            break
    return best


def min_cover_masks(closed):
    """All subsets attaining min_weight_cover."""
    n = len(closed)
    full = (1 << n) - 1
    best, out = n, []
    for k, level in enumerate(_levels(closed)):
        weights = [2 * k + (full & ~u).bit_count() for _, u in level]
        low = min(weights)
        if low < best:
            best, out = low, []
        if low == best:
            out += [m for (m, _), w in zip(level, weights) if w == best]
        if 2 * k + 2 > best:
            break
    return sorted(out)


def min_dominating_size(closed):
    full = (1 << len(closed)) - 1
    for k, level in enumerate(_levels(closed)):
        if any(u == full for _, u in level):
            return k
    return len(closed)  # only for rows that no subset covers


def min_dominating_masks(closed):
    full = (1 << len(closed)) - 1
    for level in _levels(closed):
        out = [m for m, u in level if u == full]
        if out:
            return sorted(out)
    return []


def max_differential(open_rows):
    """max over S of |B(S)| - |S| where B(S) are outside vertices with a
    neighbor in S.  Uses open neighborhoods only, and a stop rule that does
    not depend on the Roman weight; deliberately a separate code path from
    min_weight_cover so the two can cross-check each other.
    """
    n = len(open_rows)
    best = 0  # S = empty
    for k, level in enumerate(_levels(open_rows)):
        best = max(best, max([(u & ~m).bit_count() for m, u in level]) - k)
        if n - 2 * k - 2 <= best:
            break
    return best


def max_differential_masks(open_rows):
    n = len(open_rows)
    best, out = 0, []
    for k, level in enumerate(_levels(open_rows)):
        gains = [(u & ~m).bit_count() - k for m, u in level]
        top = max(gains)
        if top > best:
            best, out = top, []
        if top == best:
            out += [m for (m, _), d in zip(level, gains) if d == best]
        if n - 2 * k - 2 < best:
            break
    return sorted(out)


def efficient_dominating_masks(closed):
    """All S whose closed neighborhoods partition the vertex set."""
    full = (1 << len(closed)) - 1
    return sorted(m for level in _levels(closed, disjoint=True) for m, u in level if u == full)


def _position_degrees(rows):
    return sorted((r.bit_count() for r in rows), reverse=True)


def canonical_permutation(rows):
    """Permutation (position -> vertex) giving the lexicographically smallest
    upper-triangle adjacency bitstring among all placements that list vertex
    degrees in nonincreasing order.

    The restriction to degree-sorted placements is isomorphism-invariant, so
    equal canonical strings still characterize isomorphism; it just prunes
    the search.
    """
    n = len(rows)
    if n <= 1:
        return list(range(n))
    deg = [r.bit_count() for r in rows]
    posdeg = _position_degrees(rows)

    perm = [0] * n
    cur = [0] * n
    best_cols = None
    best_perm = None

    def descend(pos, used, tight):
        # tight: best exists and cur[0..pos-1] equals its prefix
        nonlocal best_cols, best_perm
        if pos == n:
            if best_cols is None or cur < best_cols:
                best_cols = cur.copy()
                best_perm = perm.copy()
                return True
            return False
        want = posdeg[pos]
        cands = []
        for v in range(n):
            if used >> v & 1 or deg[v] != want:
                continue
            col = 0
            row = rows[v]
            for i in range(pos):
                col = (col << 1) | (row >> perm[i] & 1)
            cands.append((col, v))
        cands.sort()
        improved = False
        for col, v in cands:
            if tight:
                b = best_cols[pos]
                if col > b:
                    break  # candidates are sorted; the rest are worse
                child_tight = col == b
            else:
                child_tight = False
            perm[pos] = v
            cur[pos] = col
            if descend(pos + 1, used | (1 << v), child_tight):
                # best now runs through the current prefix; re-tighten so
                # the remaining sorted candidates prune against it
                improved = True
                tight = True
        return improved

    descend(0, 0, False)
    return best_perm


def _triangle_code(cols, n):
    """Pack per-position column codes into the graph6 bit order.

    Bit index of pair (i, j), i < j, is j(j-1)/2 + i; column j stores bit i
    at position j-1-i (MSB first).
    """
    code = 0
    idx = 0
    for j in range(1, n):
        col = cols[j]
        for i in range(j):
            bit = (col >> (j - 1 - i)) & 1
            code |= bit << idx
            idx += 1
    return code


def canonical_signature(rows):
    """Canonical upper-triangle bit code of the graph, order implicit."""
    n = len(rows)
    if n <= 1:
        return 0
    perm = canonical_permutation(rows)
    cols = [0] * n
    for j in range(1, n):
        col = 0
        rowj = rows[perm[j]]
        for i in range(j):
            col = (col << 1) | (rowj >> perm[i] & 1)
        cols[j] = col
    return _triangle_code(cols, n)


def connected_canonical_signatures(n):
    """Canonical signatures of all connected graphs on n vertices, one per
    isomorphism class, ascending.

    Built by vertex extension (the simple form of McKay's canonical
    augmentation): every connected graph on k + 1 vertices has a vertex
    whose deletion leaves it connected, such as a leaf of a spanning tree.
    So the classes on k + 1 vertices are exactly the canonical forms of a
    class on k vertices plus a new vertex joined to a nonempty subset of
    its vertices.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 7:
        raise ValueError("connected generation limited to 7 vertices")
    level = {0: [0]}  # signature -> rows of one graph in the class
    for k in range(1, n):
        grown = {}
        for rows in level.values():
            for nbrs in range(1, 1 << k):
                ext = [r | (nbrs >> v & 1) << k for v, r in enumerate(rows)] + [nbrs]
                grown.setdefault(canonical_signature(ext), ext)
        level = grown
    return sorted(level)
