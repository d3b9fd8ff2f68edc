"""The hot kernels, in pure Python: the searches and forest programmes
behind the solvers, and the canonical search behind isomorphism classes.

Every routine works on bitmask adjacency rows (``rows[v]`` has bit ``u``
set when ``uv`` is an edge).  Vertex-set arguments and results are encoded
as int bitmasks over vertex ids ``0..n-1``; mask lists are ascending
unless a function says otherwise.

On the symmetric rows of a forest, four kernels run programmes over the
whole forest.  `min_weight_cover` keeps four Roman states per vertex
(labelled 2; labelled 1; labelled 0 with a child labelled 2; labelled 0
and waiting for its parent), after Cockayne, Dreyer, Hedetniemi and
Hedetniemi (Discrete Math. 278, 2004).  `min_cover_masks` and
`min_dominating_masks` run the same programme, the second with members
that cost 1 and no label 1, and keep each state's ties: the masks of the
subtree that attain its value (`_cover_ties`).  `max_differential` keeps
three open-row states of its own (in S; outside S with a child in S;
outside S with no child in S), so the two programmes still check each
other.  On other rows the Roman kernels read `cover_scan` and the
differential ones `differential_scan`, each one level scan over subsets by
size (`_levels`), never all ``2^n`` of them; `max_differential_masks` and
`efficient_dominating_masks` always scan, and `min_dominating_size` always
branches.

Each search stops at the first point that cannot change its answer.  A
k-subset S has Roman weight ``2k + |V - N[S]| >= 2k`` and differential
``|B(S)| - k <= n - 2k``, so after level k no later level offers G a weight
below ``2k + 2`` or a differential above ``n - 2k - 2``.  A scan stops once
the rule of everything asked of it holds:

- G's value: the Roman scan stops once ``2k + 2 >= best``, the differential
  scan once ``n - 2k - 2 <= best``.  A caller that asks for the value alone
  keeps this rule and builds no offers;
- its ties: once ``2k + 2 > best``, or ``n - 2k - 2 < best``, since a
  subset of a later level may still tie;
- the G - v values: once every one within one of the class test's value is
  proven, ``best - 1`` to ``best + 1`` for the Roman weight and ``best - 2``
  to ``best`` for the differential (a G - v has order n - 1).  A G - v
  value is proven once no later level can beat it, at most ``2k + 2`` or at
  least ``n - 2k - 3``; one not proven by then comes back None;
- when that rule would hold after the next level even with the current
  values, the next level is the last, and `_levels` builds only those of
  its subsets whose union is wide enough to change a value or a tie (the
  boundary B(S) lies within the union);
- `efficient_dominating_masks` grows a set only by a closed neighborhood
  disjoint from the ones it has;
- the dominating-set searches branch on the lowest uncovered vertex, trying
  each vertex whose row holds it in ascending order; later siblings never
  take an earlier one, so each set is reached once.  The size bound
  deepens k = 0, 1, ..., and a branch stops when its room times the widest
  row is less than what is left to cover;
- `private_dominating_masks` grows sets in ascending vertex order.  A
  branch stops once a member keeps too few private neighbours, which only
  shrink as the set grows, or once no vertex still allowed covers the
  lowest uncovered one.

The tests check every kernel against a full ``2^n`` scan
(``oracles.full_scan_kernel``), and each forest programme against the
scans and the ``3^n`` labelling oracle.

The one canonical encoding of a graph is `canonical_signature`: the tuple
of adjacency rows after relabelling by `canonical_permutation`.  It is a
hashable dedupe key, and ``Graph(n, signature)`` is the canonical graph
itself, so nothing decodes it.
"""

from .errors import GraphError, LimitExceededError

BACKEND = "pure"
_MAX_SCAN_ORDER = 24


def _check_scan_order(n):
    if n > _MAX_SCAN_ORDER:
        raise LimitExceededError(f"subset scan limited to {_MAX_SCAN_ORDER} vertices, got {n}")


def _levels(rows, disjoint=False, last=None):
    """Yield, for k = 0, 1, ..., the ``(mask, union)`` pairs of all k-subsets
    S, where union is the OR of ``rows[v]`` over v in S.

    Level k is built from level k - 1, only when the caller asks for it, by
    adding each vertex above a mask's highest bit, so every subset appears
    once.  With ``disjoint``, a vertex is added only when its row misses the
    union.  A caller that puts a count in ``last`` (a one-item list) before
    asking for the next level gets it as the last one, holding only the
    subsets whose union has more bits than that count, perhaps none.
    """
    n = len(rows)
    _check_scan_order(n)
    pairs = [(1 << v, row) for v, row in enumerate(rows)]
    tails = [pairs[i:] for i in range(n + 1)]
    level = [(0, 0)]
    while level:
        yield level
        if last and last[0] is not None:
            yield [(m | b, u | r) for m, u in level for b, r in tails[m.bit_length()]
                   if (u | r).bit_count() > last[0]]
            return
        if disjoint:
            level = [(m | b, u | r) for m, u in level for b, r in tails[m.bit_length()]
                     if not u & r]
        else:
            level = [(m | b, u | r) for m, u in level for b, r in tails[m.bit_length()]]


def bits(mask):
    """The vertices of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# A weight no assignment reaches; its negative is a differential none reaches.
_NEVER = 1 << 30
# The Roman states of a vertex before any child is folded in, so those of
# a leaf: labelled 2, labelled 1, labelled 0 with a child labelled 2,
# labelled 0 and waiting for its parent.
_ROMAN_LEAF = (2, 1, _NEVER, 0)
# The open-row states of a leaf: in S (it pays 1), outside S with a child
# in S, outside S with no child in S.
_OPEN_LEAF = (-1, -_NEVER, 0)
# A dominating set is a Roman V2 whose members cost 1 and that leaves no
# vertex to label 1: `min_weight_cover`'s programme with these leaf states.
_DOMINATING_LEAF = (1, _NEVER, _NEVER, 0)


def _forest(rows, loops):
    """Parent links (-1 at a root) and a breadth-first order, parents before
    children, of the forest whose adjacency rows are ``rows``, each holding
    its own vertex when ``loops``; None when the rows are not the symmetric
    rows of a forest.

    A row's own bit and its parent's bit are flipped off; a missing one is
    flipped on instead, and like a cycle it then meets a vertex already
    seen.
    """
    n = len(rows)
    _check_scan_order(n)
    parent = [-1] * n
    order = []
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        tree = [root]
        for v in tree:  # the loop reaches the children it appends
            row = rows[v] ^ (loops << v)
            if parent[v] >= 0:
                row ^= 1 << parent[v]
            if row & seen or row >> n:
                return None
            seen |= row
            while row:
                low = row & -row
                u = low.bit_length() - 1
                parent[u] = v
                tree.append(u)
                row ^= low
        order += tree
    return parent, order


def _cover_ties(forest, leaf):
    """The masks of the sets S of least weight on a forest, ascending: S
    pays ``leaf[0]`` per member and ``leaf[1]`` per vertex outside N[S]
    (none may be outside when that is ``_NEVER``).

    The programme is `min_weight_cover`'s with the leaf states ``leaf``.
    Each vertex also keeps, per state, the masks of its subtree that attain
    the state's value: its ties.  A child is folded in by the transitions
    that attain the parent state's new value, and a root takes the states
    that need nothing from a parent.  A mask fixes the state of every
    vertex, so no mask is reached twice.
    """
    parent, order = forest
    n = len(parent)
    two, one, zero, wait = ([state] * n for state in leaf)
    twos, ones, zeros, waits = ([[1 << v] for v in range(n)], [[0] if leaf[1] < _NEVER else []] * n,
                                [[]] * n, [[0]] * n)
    out = [0]
    for v in reversed(order):  # children before parents
        t, o, z, w = two[v], one[v], zero[v], wait[v]
        done = t if t < o and t < z else o if o < z else z
        dones = twos[v] if t == done else []
        if o == done:
            dones = dones + ones[v]
        if z == done:
            dones = dones + zeros[v]
        p = parent[v]
        if p < 0:
            out = [a | b for a in out for b in dones]
            continue
        a, b = zero[p] + done, wait[p] + t  # p's child labelled 2 is an earlier one, or v
        zero[p] = a if a < b else b
        zeros[p] = ([x | y for x in zeros[p] for y in dones] if a <= b else []) + (
            [x | y for x in waits[p] for y in twos[v]] if b <= a else [])
        two[p] += done if done < w else w
        cover = dones if done < w else waits[v] if w < done else dones + waits[v]
        twos[p] = [x | y for x in twos[p] for y in cover]
        one[p] += done
        ones[p] = [x | y for x in ones[p] for y in dones]
        wait[p] += o if o < z else z
        cover = ones[v] if o < z else zeros[v] if z < o else ones[v] + zeros[v]
        waits[p] = [x | y for x in waits[p] for y in cover]
    return sorted(out)


def min_weight_cover(closed):
    """min over S of 2|S| + |V - N[S]| with N[S] taken from closed rows.

    This equals the Roman domination number of the graph whose closed
    neighborhoods are ``closed``.
    """
    forest = _forest(closed, True)
    if forest is not None:
        parent, order = forest
        two, one, zero, wait = ([state] * len(closed) for state in _ROMAN_LEAF)
        best = 0
        # the least of two or three values by comparisons: calls to min()
        # cost this loop a third of its time
        for v in reversed(order):  # children before parents
            t, o, z, w = two[v], one[v], zero[v], wait[v]
            done = t if t < o and t < z else o if o < z else z  # v needs nothing from its parent
            p = parent[v]
            if p < 0:
                best += done
                continue
            a, b = zero[p] + done, wait[p] + t
            zero[p] = a if a < b else b
            two[p] += done if done < w else w
            one[p] += done
            wait[p] += o if o < z else z
        return best
    return cover_scan(closed)[0]


def cover_scan(closed, ties=False, deletions=False):
    """``(value, masks, afters)`` from one level scan: `min_weight_cover`'s
    value, its ties when ``ties``, and when ``deletions`` the value of every
    G - v, None where the scan stopped before proving it.  What was not
    asked for is None.

    A k-subset S that avoids v weighs 2k + c in G - v (c = |V - N[S]|), one
    less when v lies outside N[S].  So the subsets of cost c offer
    2k + c - 1 to the vertices outside N[S] (the better offer) and 2k + c to
    those in N[S] - S, and a vertex keeps its least offer.  A cost group is
    read only while its better offer can lower some value and is at most
    ``best + 2``, so a value above ``best + 2`` may be too high and comes
    back None.
    """
    n = len(closed)
    full = (1 << n) - 1
    best, masks, after, last = n, [], [n - 1] * n, [None]  # S = empty: every vertex pays 1

    def done(floor):  # the stop rule of everything asked for
        stop = floor > best if ties else floor >= best
        return stop and (not deletions or floor >= min(max(after, default=0), best + 2))

    for k, level in enumerate(_levels(closed, last=last)):
        costs = [(full & ~u).bit_count() for _, u in level]
        low = min(costs, default=n + 1)
        if 2 * k + low < best:
            best, masks = 2 * k + low, []
        if ties and 2 * k + low == best:
            masks += [m for (m, _), c in zip(level, costs) if c == low]
        if deletions:
            top = min(max(after, default=0), best + 3) - 2 * k + 1  # read the costs below top
            outside, plain = [0] * (top - low), [0] * (top - low)
            for c, m, u in [(c, m, u) for (m, u), c in zip(level, costs) if c < top]:
                outside[c - low] |= ~u
                plain[c - low] |= u & ~m
            for c, o, p in zip(range(2 * k + low, 2 * k + top), outside, plain):
                o &= full
                for v in bits(o | p):
                    after[v] = min(after[v], c - (o >> v & 1))
        floor = 2 * k + 2  # the least a later level offers G or any G - v
        if done(floor):
            break
        if done(floor + 2):  # the next level is the last: keep what can lower a value or tie
            top = min(max(after, default=0), best + 3) - 2 * k - 1 if deletions else 0
            last[0] = n - max(best - 2 * k - 2 + ties, top)
    proven = min(floor, best + 2)
    return (best, sorted(masks) if ties else None,
            [a if a <= proven else None for a in after] if deletions else None)


def min_cover_masks(closed):
    """All subsets attaining min_weight_cover."""
    forest = _forest(closed, True)
    if forest is not None:
        return _cover_ties(forest, _ROMAN_LEAF)
    return cover_scan(closed, ties=True)[1]


def _holders(rows):
    """For each vertex u, the mask of the vertices whose row holds u."""
    _check_scan_order(len(rows))
    holders = [0] * len(rows)
    for v, row in enumerate(rows):
        while row:
            low = row & -row
            holders[low.bit_length() - 1] |= 1 << v
            row ^= low
    return holders


def _dominating(closed, first):
    """The least k such that k rows cover all n vertices, and the masks of
    the k-sets that do, ascending (only the first one found when
    ``first``); ``(n, [])`` when no set of rows covers them."""
    n = len(closed)
    full = (1 << n) - 1
    holders = _holders(closed)
    if not all(holders):
        return n, []
    widest = max((row.bit_count() for row in closed), default=0)
    for k in range(n + 1):
        found = []
        stack = [(0, 0, full, k)]  # chosen, covered, still allowed, room
        while stack:
            chosen, cover, allowed, room = stack.pop()
            if cover == full:
                found.append(chosen)
                if first:
                    break
                continue
            rest = full & ~cover
            if room * widest < rest.bit_count():
                continue
            options = holders[(rest & -rest).bit_length() - 1] & allowed
            while options:
                pick = options & -options
                stack.append((chosen | pick, cover | closed[pick.bit_length() - 1], allowed, room - 1))
                allowed ^= pick  # later siblings never take an earlier one
                options ^= pick
        if found:
            return k, sorted(found)


def min_dominating_size(closed):
    return _dominating(closed, True)[0]


def min_dominating_masks(closed):
    forest = _forest(closed, True)
    if forest is not None:
        return _cover_ties(forest, _DOMINATING_LEAF)
    return _dominating(closed, False)[1]


def private_dominating_masks(closed, k, need):
    """The k-sets S whose rows cover all n vertices and whose every member
    x keeps at least ``need`` private neighbours outside S: vertices
    outside S that the row of x alone covers.  In lexicographic order of
    their sorted vertex lists."""
    n = len(closed)
    full = (1 << n) - 1
    holders = _holders(closed)
    out = []
    stack = [(0, 0, 0, 0, k)]  # members, covered, covered twice, next vertex, room
    while stack:
        chosen, once, twice, start, room = stack.pop()
        if not room:
            if once == full:
                out.append(chosen)
            continue
        stop = n - room  # the highest vertex that leaves room for the rest
        rest = full & ~once
        if rest:  # and one that can still cover the lowest uncovered vertex
            stop = min(stop, holders[(rest & -rest).bit_length() - 1].bit_length() - 1)
        for w in range(stop, start - 1, -1):  # the lowest is taken first
            members = chosen | 1 << w
            many = twice | once & closed[w]
            private = ~members & ~many
            m = members
            while m:
                low = m & -m
                if (closed[low.bit_length() - 1] & private).bit_count() < need:
                    break
                m ^= low
            else:
                stack.append((members, once | closed[w], many, w + 1, room - 1))
    return out


def max_differential(open_rows):
    """max over S of |B(S)| - |S| where B(S) are outside vertices with a
    neighbor in S.  Uses open neighborhoods only, its own forest programme
    and a stop rule that does not depend on the Roman weight; deliberately a
    separate code path from min_weight_cover so the two can cross-check
    each other.
    """
    forest = _forest(open_rows, False)
    if forest is not None:
        parent, order = forest
        inside, reached, free = ([state] * len(open_rows) for state in _OPEN_LEAF)
        best = 0
        for v in reversed(order):  # children before parents, max() as above
            i, r, f = inside[v], reached[v], free[v]
            most = r if r > f else f  # v outside S
            done = i if i > most else most
            p = parent[v]
            if p < 0:
                best += done
                continue
            a, b = reached[p] + done, free[p] + 1 + i
            reached[p] = a if a > b else b
            inside[p] += done if done > f + 1 else f + 1
            free[p] += most
        return best
    return differential_scan(open_rows)[0]


def differential_scan(open_rows, ties=False, deletions=False):
    """``(value, masks, afters)`` from one level scan: `max_differential`'s
    value, its ties when ``ties``, and when ``deletions`` the value of every
    G - v, None where the scan stopped before proving it.  What was not
    asked for is None.

    Its own loop and bounds, not `cover_scan` mirrored.  A k-subset S that
    avoids v keeps its differential |B(S)| - k in G - v unless v is in
    B(S), where it loses one.  So the subsets of gain |B(S)| = g offer g - k
    to the vertices outside S and B(S) and g - k - 1 to those in B(S), and a
    vertex keeps its highest offer.  A gain group is read only while its
    offer g - k can raise some value and is at least ``best - 3``, so a
    value below ``best - 3`` may be too low and comes back None.
    """
    n = len(open_rows)
    full = (1 << n) - 1
    best, masks, after, last = 0, [], [0] * n, [None]  # S = empty

    def done(ceiling):  # the stop rule of everything asked for
        stop = ceiling < best - 1 if ties else ceiling <= best - 1
        return stop and (not deletions or ceiling <= max(min(after, default=0), best - 3))

    for k, level in enumerate(_levels(open_rows, last=last)):
        gains = [(u & ~m).bit_count() for m, u in level]
        high = max(gains, default=-1)
        if high - k > best:
            best, masks = high - k, []
        if ties and high - k == best:
            masks += [m for (m, _), g in zip(level, gains) if g == high]
        if deletions:
            floor = max(min(after, default=0), best - 4) + k  # read the gains above floor
            hits, missed = [0] * (high - floor), [0] * (high - floor)  # index: high - g
            for g, m, u in [(g, m, u) for (m, u), g in zip(level, gains) if g > floor]:
                hits[high - g] |= u & ~m
                missed[high - g] |= ~(u | m)
            for d, h, o in zip(range(high - k, floor - k, -1), hits, missed):
                o &= full
                for v in bits(o | h):
                    after[v] = max(after[v], d - 1 + (o >> v & 1))
        ceiling = n - 2 * k - 3  # the most a later level offers any G - v, and G one more
        if done(ceiling):
            break
        if done(ceiling - 2):  # the next level is the last: keep what can raise a value or tie
            least = max(min(after, default=0), best - 4) + k + 1 if deletions else n
            last[0] = min(best + k + 1 - ties, least)  # |B(S)| is at most the union
    proven = max(ceiling, best - 3)
    return (best, sorted(masks) if ties else None,
            [a if a >= proven else None for a in after] if deletions else None)


def max_differential_masks(open_rows):
    return differential_scan(open_rows, ties=True)[1]


def efficient_dominating_masks(closed):
    """All S whose closed neighborhoods partition the vertex set."""
    full = (1 << len(closed)) - 1
    return sorted(m for level in _levels(closed, disjoint=True) for m, u in level if u == full)


def canonical_permutation(rows):
    """Permutation (position -> vertex) giving the lexicographically smallest
    upper-triangle adjacency bitstring among all placements that list vertex
    degrees in nonincreasing order.

    The restriction to degree-sorted placements is isomorphism-invariant, so
    equal canonical strings still characterize isomorphism; it just prunes
    the search.

    Twins, vertices with the same open row or the same closed row, prune it
    further: a candidate v is skipped while a twin u < v is unused.  The
    swap of u and v is an automorphism that fixes the placed prefix, so v's
    subtree offers only the strings u's subtree, searched first, already
    did, and the strict ``<`` keeps the first permutation found.
    """
    n = len(rows)
    if n <= 1:
        return list(range(n))
    deg = [r.bit_count() for r in rows]
    posdeg = sorted(deg, reverse=True)
    twins = [0] * n  # twins[v]: the mask of v's twins below v
    first = {}
    for v, row in enumerate(rows):
        for key in ((row, 0), (row | 1 << v, 1)):
            twins[v] |= first.get(key, 0)
            first[key] = first.get(key, 0) | 1 << v

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
            if used >> v & 1 or deg[v] != want or twins[v] & ~used:
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


def canonical_signature(rows):
    """Adjacency rows of the canonically relabelled graph, as a tuple:
    position i holds vertex ``canonical_permutation(rows)[i]``.  Equal
    signatures characterize isomorphism, and the graph with these rows is
    its own canonical form."""
    perm = canonical_permutation(rows)
    return tuple(sum((rows[v] >> u & 1) << i for i, u in enumerate(perm)) for v in perm)


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
        raise GraphError("need n >= 1")
    if n > 7:
        raise LimitExceededError("connected generation limited to 7 vertices")
    level = {(0,)}
    for k in range(1, n):
        level = {
            canonical_signature([r | (nbrs >> v & 1) << k for v, r in enumerate(rows)] + [nbrs])
            for rows in level
            for nbrs in range(1, 1 << k)
        }
    return sorted(level)
