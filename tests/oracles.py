"""Independent brute-force oracles used to freeze expected values.

Everything here works from first definitions (label enumerations, subset
enumerations) and never calls the package solvers, so the tests can pit
the two against each other.
"""

from itertools import combinations, product


def brute_gamma_r(g):
    """Minimum weight over all 3^n labelings satisfying the 0-needs-a-2 rule."""
    n = g.order
    best = None
    for labels in product((0, 1, 2), repeat=n):
        ok = all(
            any(labels[u] == 2 for u in g.neighbors(v))
            for v in range(n)
            if labels[v] == 0
        )
        if not ok:
            continue
        w = sum(labels)
        if best is None or w < best:
            best = w
    return 0 if best is None else best


def brute_gamma_r_functions(g):
    """All optimal labelings as (V0, V1, V2) frozenset triples."""
    n = g.order
    best = None
    out = set()
    for labels in product((0, 1, 2), repeat=n):
        ok = all(
            any(labels[u] == 2 for u in g.neighbors(v))
            for v in range(n)
            if labels[v] == 0
        )
        if not ok:
            continue
        w = sum(labels)
        if best is None or w < best:
            best = w
            out = set()
        if w == best:
            out.add(
                tuple(
                    frozenset(v for v in range(n) if labels[v] == i)
                    for i in (0, 1, 2)
                )
            )
    return out


def brute_gamma(g):
    n = g.order
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            covered = set(sub)
            for v in sub:
                covered.update(g.neighbors(v))
            if len(covered) == n:
                return k
    return 0


def brute_min_dominating_sets(g):
    n = g.order
    gamma = brute_gamma(g)
    out = []
    for sub in combinations(range(n), gamma):
        covered = set(sub)
        for v in sub:
            covered.update(g.neighbors(v))
        if len(covered) == n:
            out.append(frozenset(sub))
    return out


def brute_differential(g):
    n = g.order
    best = 0
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            inside = set(sub)
            bnd = set()
            for v in sub:
                bnd.update(g.neighbors(v))
            bnd -= inside
            best = max(best, len(bnd) - k)
    return best


def brute_efficient_dominating_sets(g):
    n = g.order
    out = []
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            closed = [set(g.neighbors(v)) | {v} for v in sub]
            union = set().union(*closed) if closed else set()
            if len(union) == n and sum(len(c) for c in closed) == n:
                out.append(frozenset(sub))
    return out


def brute_bondage(g, brute_gamma_r_fn=brute_gamma_r, max_k=None):
    """First subset size whose deletion raises the Roman domination number."""
    from romandom.graphs import delete_edges

    base = brute_gamma_r_fn(g)
    edges = g.edges()
    top = max_k if max_k is not None else len(edges)
    for k in range(1, top + 1):
        for sub in combinations(edges, k):
            if brute_gamma_r_fn(delete_edges(g, sub)) > base:
                return k
    return None


def full_scan(rows, score):
    """Lowest ``score(S, union)`` over all 2^n subset masks S and the masks
    attaining it, ascending.  ``union`` is the OR of ``rows[v]`` over v in
    S; a score of None drops S.  Returns (None, []) when every S drops."""
    unions = [0] * (1 << len(rows))
    best, out = None, []
    for m in range(1 << len(rows)):
        if m:
            low = m & -m
            unions[m] = unions[m ^ low] | rows[low.bit_length() - 1]
        s = score(m, unions[m])
        if s is None or (best is not None and s > best):
            continue
        if best is None or s < best:
            best, out = s, []
        out.append(m)
    return best, out


def full_scan_kernel(name, rows):
    """What the scan kernel ``name`` of ``romandom.kernels`` returns on
    ``rows`` (closed rows, or open rows for the differential scans), found
    by a full 2^n scan."""
    n = len(rows)
    full = (1 << n) - 1
    if name in ("min_weight_cover", "min_cover_masks"):
        best, masks = full_scan(rows, lambda m, u: 2 * m.bit_count() + (full & ~u).bit_count())
    elif name in ("min_dominating_size", "min_dominating_masks"):
        best, masks = full_scan(rows, lambda m, u: m.bit_count() if u == full else None)
        best = n if best is None else best  # both backends' value when no S covers
    elif name in ("max_differential", "max_differential_masks"):
        best, masks = full_scan(rows, lambda m, u: m.bit_count() - (u & ~m).bit_count())
        best = -best
    elif name == "efficient_dominating_masks":
        def score(m, u):
            sizes = sum(rows[v].bit_count() for v in range(n) if m >> v & 1)
            return 0 if u == full and sizes == n else None
        best, masks = full_scan(rows, score)
    else:
        raise ValueError(f"not a scan kernel: {name}")
    return masks if name.endswith("_masks") else best
