"""Independent brute-force oracles, written straight from the definitions.

These avoid the library's optimized paths: subgroups are closed by
repeated multiplication to a fixpoint, normal subgroups come from the
join lattice of conjugacy-class closures, and primality scans every
pair of spans outside the candidate ideal.  Repeated closures of the
same generating set, and the full word index per context and length
bound, are memoized; nothing else is shared.
"""

import functools
import itertools

import numpy as np

from groupspec import freeprod as fp
from groupspec.fingroup import (
    GroupError,
    GroupTable,
    Homomorphism,
    Subgroup,
    _row_index,
    normal_subgroups,
)
from groupspec.sheaf import GluedScheme, SheafError
from groupspec.spectrum import radical, vanishing_set
from groupspec.variety import CLOSURE_CAP, VarietyError


def _all(G: GroupTable) -> np.ndarray:
    return np.arange(G.order, dtype=np.int64)


def conjugates_of(G: GroupTable, x: int, by: np.ndarray) -> np.ndarray:
    return np.unique(G.mul[G.mul[by, x], G.inv[by]])


def naive_generated(G: GroupTable, gens) -> frozenset:
    members = np.unique(np.asarray(sorted(set(gens) | {G.id}), dtype=np.int64))
    while True:
        if len(members) == G.order:
            return frozenset(range(G.order))
        prods = np.unique(
            np.concatenate(
                [members, G.inv[members], G.mul[np.ix_(members, members)].ravel()]
            )
        )
        if len(prods) == len(members):
            return frozenset(int(x) for x in members)
        members = prods


def naive_is_normal(G: GroupTable, S: frozenset) -> bool:
    arr = np.fromiter(sorted(S), dtype=np.int64)
    g = _all(G)
    conj = G.mul[G.mul[g[:, None], arr[None, :]], G.inv[g][:, None]]
    return set(int(x) for x in np.unique(conj)) == S


def naive_is_associative(mul) -> bool:
    """(a*b)*c == a*(b*c) for every triple, the full cubic check."""
    m = np.asarray(mul, dtype=np.int64)
    return bool(np.array_equal(m[m, :], m[:, m]))


def swapped_cyclic(n: int, a: int, b: int) -> np.ndarray:
    """The table of Z_n (n even) with the intercalate on rows a, a+n/2 and
    columns b, b+n/2 swapped: still a Latin square, and for 0 < a, b the
    identity row and column are untouched."""
    h = n // 2
    m = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    for r in (a, a + h):
        m[r, [b, b + h]] = m[r, [b + h, b]]
    return m


def naive_normal_subgroups(G: GroupTable) -> list[frozenset]:
    """Join lattice of the normal closures of single conjugacy classes."""
    classes = {frozenset(int(c) for c in conjugates_of(G, x, _all(G))) for x in range(G.order)}
    atoms = [naive_generated(G, c) for c in classes]
    found = {frozenset({G.id})}
    frontier = [frozenset({G.id})]
    while frontier:
        N = frontier.pop()
        for A in atoms:
            join = naive_generated(G, N | A)
            if join not in found:
                found.add(join)
                frontier.append(join)
    for N in found:
        assert naive_is_normal(G, N)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def commutator_closure(G: GroupTable, Sx: frozenset, Sy: frozenset) -> frozenset:
    """<[a,b] : a in Sx, b in Sy>, accumulated in row blocks.  Stops as
    soon as the closure is the whole group: further generators cannot
    enlarge it."""
    A = np.fromiter(sorted(Sx), dtype=np.int64)
    B = np.fromiter(sorted(Sy), dtype=np.int64)
    gens: set[int] = {G.id}
    closure: frozenset = frozenset({G.id})
    for start in range(0, len(A), 64):
        a = A[start : start + 64]
        ab = G.mul[a[:, None], B[None, :]]
        comms = G.mul[G.mul[ab, G.inv[a][:, None]], G.inv[B][None, :]]
        before = len(gens)
        gens.update(int(c) for c in np.unique(comms))
        if len(gens) != before:
            closure = naive_generated(G, gens)
            if len(closure) == G.order:
                return closure
    return closure


class SpanOracle:
    """Spans and pair conditions with memoized closures."""

    def __init__(self, structure):
        self.structure = structure
        self.images = np.asarray(structure.image, dtype=np.int64)
        self._closures: dict[bytes, frozenset] = {}
        self._conditions: dict[tuple, frozenset] = {}

    def span(self, x: int) -> frozenset:
        H = self.structure.target
        gens = conjugates_of(H, x, self.images)
        key = gens.tobytes()
        if key not in self._closures:
            self._closures[key] = naive_generated(H, (int(c) for c in gens))
        return self._closures[key]

    def condition(self, Sx: frozenset, Sy: frozenset, variant: str) -> frozenset:
        if variant == "t2":
            return Sx & Sy
        key = (id(Sx), id(Sy))
        if key not in self._conditions:
            self._conditions[key] = commutator_closure(self.structure.target, Sx, Sy)
        return self._conditions[key]


def naive_is_prime(structure, I: frozenset, variant: str, oracle=None) -> bool:
    """Elementwise definition: no pair outside I may have its divisor
    condition land inside I."""
    H = structure.target
    if len(I) == H.order:
        return False
    if oracle is None:
        oracle = SpanOracle(structure)
    spans = {id(S): S for x in range(H.order) if x not in I for S in [oracle.span(x)]}
    for Sx in spans.values():
        for Sy in spans.values():
            if oracle.condition(Sx, Sy, variant) <= I:
                return False
    return True


def naive_quotient_prime(structure, I: frozenset, variant: str) -> bool:
    """Quotient definition: the quotient object H/I, with its table built
    from least-member cosets and the composed structure map, has no divisor
    pair, i.e. its trivial ideal passes the elementwise scan."""
    H = structure.target
    if len(I) == H.order:
        return False
    index, reps = naive_cosets(H, sorted(I))
    Q = GroupTable([[index[int(H.mul[a, b])] for b in reps] for a in reps])
    images = [index[x] for x in structure.image]
    return naive_is_prime(Homomorphism(structure.source, Q, images), frozenset({Q.id}), variant)


def naive_object_witness(structure, x: int, variant: str, oracle=None):
    """First y != 1 whose span makes the divisor condition with the span
    of x trivial, scanning every y in index order."""
    H = structure.target
    if oracle is None:
        oracle = SpanOracle(structure)
    Sx = oracle.span(x)
    for y in range(H.order):
        if y != H.id and len(oracle.condition(Sx, oracle.span(y), variant)) == 1:
            return y
    return None


def naive_spectrum(structure, variant: str) -> list[frozenset]:
    G = structure.target
    candidates = [N for N in naive_normal_subgroups(G) if len(N) < G.order]
    oracle = SpanOracle(structure)
    return [N for N in candidates if naive_is_prime(structure, N, variant, oracle)]


@functools.lru_cache(maxsize=8)
def _naive_commute_index(ctx, max_len: int) -> dict:
    index: dict = {}
    for y in fp.enumerate_words(ctx, max_len):
        index.setdefault(fp._commute_key(y), []).append(y)
    return {key: tuple(words) for key, words in index.items()}


def naive_commute_bucket(ctx, key, max_len: int) -> tuple:
    """The words of length <= max_len whose commute key is `key`, in
    enumeration order, read from an index of every such word keyed by
    fp._commute_key."""
    return _naive_commute_index(ctx, max_len).get(key, ())


def naive_conjugates(G: GroupTable, s: tuple):
    """The reduced conjugates c_g * s * c_g^-1, g in index order, each
    built with two seam joins."""
    return (
        fp._join(G, fp._join(G, (("g", g),), s), (("g", G.inverse(g)),)) if g != G.id else s
        for g in range(G.order)
    )


def naive_span_generators(w) -> list:
    """Distinct conjugates c_g * w * c_g^-1 over every coefficient g, built
    with the public word operations and deduplicated by syllables."""
    ctx = w.context
    seen = {}
    for g in range(ctx.group.order):
        c = fp.conjugate(ctx.constant(g), w)
        seen.setdefault(c.syllables, c)
    return list(seen.values())


def _naive_word_order(w):
    """Order of w, or None if infinite: a torsion order divides |G|, so the
    powers up to |G| decide it."""
    p = w.context.identity()
    for k in range(1, w.context.group.order + 1):
        p = fp.concat(p, w)
        if p.is_identity():
            return k
    return None


def naive_recognize_cyclic(gens):
    """(root, order) if every generator is a power of the least nontrivial
    one, else None; powers built with concat, and for an infinite root up
    to 4 * (longest generator) + 8 steps."""
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return None
    root = min(gens, key=lambda w: w.sort_key())
    order = _naive_word_order(root)
    powers = {}
    if order is not None:
        p = root.context.identity()
        for k in range(order):
            powers[p.syllables] = k
            p = fp.concat(p, root)
    else:
        max_needed = max(g.length() for g in gens)
        p = root.context.identity()
        k = 0
        while True:
            powers[p.syllables] = k
            powers[fp.inverse(p).syllables] = -k
            if p.length() > max_needed:
                break
            p = fp.concat(p, root)
            k += 1
            if k > 4 * max_needed + 8:
                break
    for g in gens:
        if g.syllables not in powers:
            return None
    return root, order


def naive_cyclic_intersection_trivial(rx, ry) -> bool:
    """Whether the cyclic groups of two (root, order) pairs meet trivially:
    finite ones by comparing every power, a finite and an infinite one
    always, two infinite ones iff their roots do not commute."""
    (ux, ox), (uy, oy) = rx, ry
    if ox is not None and oy is not None:
        px, p = set(), ux.context.identity()
        for _ in range(ox):
            px.add(p.syllables)
            p = fp.concat(p, ux)
        p = uy.context.identity()
        for _ in range(oy):
            if p.syllables in px and not p.is_identity():
                return False
            p = fp.concat(p, uy)
        return True
    if (ox is None) != (oy is None):
        return True
    return not fp.commutator(ux, uy).is_identity()


def naive_divisor_witness(ctx, x, variant: str, max_len: int):
    """The full-scan bounded divisor search: every word of length <= max_len,
    in enumeration order; the first certified witness wins.  Same results,
    certificates and InconclusiveError messages as
    freeprod.bounded_divisor_witness."""
    x_gens = naive_span_generators(x)
    if variant == "t2":
        x_cyc = naive_recognize_cyclic(x_gens)
        if x_cyc is None:
            raise fp.InconclusiveError(
                "span of x not recognized cyclic; bounded T2 search unsupported"
            )
    for y in fp.enumerate_words(ctx, max_len):
        if variant == "t1":
            # x and y lie in their spans, so spans commute only if x, y do
            if fp.concat(x, y).syllables != fp.concat(y, x).syllables:
                continue
            y_gens = naive_span_generators(y)
            if all(fp.commutator(a, b).is_identity() for a in x_gens for b in y_gens):
                return y, {
                    "variant": "t1",
                    "x_generators": [str(g) for g in x_gens],
                    "y_generators": [str(g) for g in y_gens],
                    "checked_pairs": len(x_gens) * len(y_gens),
                }
        else:
            y_cyc = naive_recognize_cyclic(naive_span_generators(y))
            if y_cyc is None:
                raise fp.InconclusiveError(
                    f"span of candidate {y} not recognized cyclic; "
                    "canonical-first witness cannot be certified"
                )
            if naive_cyclic_intersection_trivial(x_cyc, y_cyc):
                return y, {
                    "variant": "t2",
                    "x_root": str(x_cyc[0]),
                    "x_order": x_cyc[1],
                    "y_root": str(y_cyc[0]),
                    "y_order": y_cyc[1],
                }
    return None


def naive_cosets(G: GroupTable, N) -> tuple[list[int], list[int]]:
    """(coset index of every element, least member of every coset) for
    G/N, cosets numbered by their least member."""
    least = [min(int(G.mul[g, n]) for n in N) for g in range(G.order)]
    reps = sorted(set(least))
    number = {r: i for i, r in enumerate(reps)}
    return [number[x] for x in least], reps


def naive_section_group(scheme, U) -> list[tuple]:
    """Sections over the open U as (values, certificates), in the library's
    element order.  Points, primes and opens come from the scheme; cosets,
    minimal opens and certificates are recomputed here.

    Affine: every value tuple in the full product over sorted(U) is tried;
    it is a section iff every point p has an element of its coset that
    realizes the tuple on minopen(p), and p's certificate is the first such
    element rep * m, m running over P_p's sorted members.  Glued (identity
    gluing): pairs of chart sections, left outer, that agree on the glued
    points; a certificate is {"left": ..., "right": ...} of the two charts'
    (values, certificates).
    """
    U = frozenset(U)
    if isinstance(scheme, GluedScheme):
        return _naive_glued_sections(scheme, U)
    H = scheme.spectrum.object.carrier
    primes = [P.members.members for P in scheme.spectrum.primes]
    cosets = {p: naive_cosets(H, primes[p]) for p in U}
    opens = scheme.space.opens
    minopen = {p: frozenset.intersection(*[V for V in opens if p in V]) for p in U}
    pts = sorted(U)
    out = []
    for combo in itertools.product(*[range(len(cosets[p][1])) for p in pts]):
        vals = dict(zip(pts, combo))
        certs = {}
        for p in pts:
            rep = cosets[p][1][vals[p]]
            realizers = (int(H.mul[rep, m]) for m in primes[p])
            hit = next(
                (h for h in realizers if all(cosets[r][0][h] == vals[r] for r in minopen[p])),
                None,
            )
            if hit is None:
                break
            certs[p] = hit
        else:
            out.append((tuple(sorted(vals.items(), key=lambda kv: repr(kv[0]))), certs))
    return out


def _naive_glued_sections(D, W: frozenset) -> list[tuple]:
    pm = {p: p for p in D.U}
    left = frozenset(p for side, p in W if side == "L")
    right = frozenset(q for side, q in W if side == "R") | {pm[p] for p in left if p in pm}
    out = []
    rights = naive_section_group(D.X2, right)
    for v1, c1 in naive_section_group(D.X1, left):
        a = dict(v1)
        for v2, c2 in rights:
            b = dict(v2)
            if any(a[p] != b[pm[p]] for p in left if p in pm):
                continue
            vals = {pt: (a if pt[0] == "L" else b)[pt[1]] for pt in W}
            out.append((
                tuple(sorted(vals.items(), key=lambda kv: repr(kv[0]))),
                {"left": (v1, c1), "right": (v2, c2)},
            ))
    return out


def _naive_coset_mul(scheme, point):
    """(a, b) -> the coset index of a*b in the quotient at a point, from
    least-member representatives; a glued point resolves to its chart."""
    if isinstance(scheme, GluedScheme):
        side, p = point
        return _naive_coset_mul(scheme.X1 if side == "L" else scheme.X2, p)
    H = scheme.spectrum.object.carrier
    index, reps = naive_cosets(H, scheme.spectrum.primes[point].members.members)
    return lambda a, b: index[int(H.mul[reps[a], reps[b]])]


def naive_section_table(scheme, U) -> list[list[int]]:
    """Multiplication table of the sections over U: the pointwise coset
    product of every pair, looked up in naive_section_group's list."""
    values = [v for v, _ in naive_section_group(scheme, U)]
    mul = {p: _naive_coset_mul(scheme, p) for p in U}
    where = {v: i for i, v in enumerate(values)}
    return [
        [where[tuple((p, mul[p](a, b)) for (p, a), (_, b) in zip(s, t))] for t in values]
        for s in values
    ]


def naive_function_table(F) -> list[list[int]]:
    """Multiplication table of a function group: pointwise products of value
    tuples, looked up in its element list."""
    G = F.variety.group
    elements = [tuple(row) for row in F.rows.tolist()]
    where = {v: i for i, v in enumerate(elements)}
    return [
        [where[tuple(int(G.mul[a, b]) for a, b in zip(s, t))] for t in elements]
        for s in elements
    ]


def naive_coordinate_group(V) -> tuple:
    """The function group of a variety by a breadth-first closure of the
    constants and coordinates, one pointwise product at a time; a new value
    tuple keeps the first word that reached it (frontier, then generator
    order), the frontier's word times the generator's.  Returns the sorted
    value tuples and the dict of their words."""
    G = V.group
    ctx = V.context()
    if not V.points:
        return ((),), {(): ctx.identity()}
    gens = [(tuple(g for _ in V.points), ctx.constant(g)) for g in range(G.order)]
    gens += [(tuple(p[i - 1] for p in V.points), ctx.letter(i)) for i in range(1, V.nvars + 1)]
    witnesses = {}
    for vals, w in gens:
        if vals not in witnesses or w.length() < witnesses[vals].length():
            witnesses[vals] = w
    frontier = list(witnesses)
    while frontier:
        new = []
        for vals in frontier:
            for gvals, gw in gens:
                prod = tuple(G.op(x, y) for x, y in zip(vals, gvals))
                if prod not in witnesses:
                    witnesses[prod] = fp.concat(witnesses[vals], gw)
                    new.append(prod)
                    if len(witnesses) > CLOSURE_CAP:
                        raise VarietyError(f"function-group closure exceeded cap {CLOSURE_CAP}")
        frontier = new
    return tuple(sorted(witnesses)), witnesses


def naive_greedy_generators(G: GroupTable) -> list[int]:
    """The greedy generating set: scan elements in order and keep each one
    outside the closure of those kept so far."""
    gens: list[int] = []
    span = frozenset({G.id})
    for x in range(G.order):
        if x not in span:
            gens.append(x)
            span = naive_generated(G, gens)
    return gens


def naive_is_homomorphism(f: Homomorphism) -> bool:
    """f(a*b) == f(a)*f(b) for every pair, the full n^2 check."""
    img = np.asarray(f.image, dtype=np.int64)
    return bool(np.array_equal(img[f.source.mul], f.target.mul[np.ix_(img, img)]))


def naive_cycle_label(p: tuple) -> str:
    """1-based cycle notation of a permutation image tuple, e for identity."""
    out, seen = [], set()
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [i], p[i]
        while j != i:
            cyc.append(j)
            j = p[j]
        seen.update(cyc)
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) or "e"


def naive_perm_closure(degree: int, gens) -> list[tuple]:
    """Every product of the generators, by breadth-first search from the
    identity; p*q sends k to p[q[k]]."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[k]] for k in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def naive_perm_table(perms) -> GroupTable:
    """Table of a set of permutations closed under composition, elements in
    sorted order, filled one cell at a time."""
    perms = sorted(set(perms))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
    return GroupTable(mul, labels=[naive_cycle_label(p) for p in perms], validate=False)


def block_perm_table(perms) -> GroupTable:
    """The former permutation-table builder: every product, composed a
    block of about 2**16 at a time (P[block][:, P]) and ranked among the
    sorted elements by its row key."""
    perms = sorted(set(perms))
    n = len(perms)
    P = np.array([p or (0,) for p in perms])  # () stands in as (0,)
    P = P.astype(np.min_scalar_type(P.shape[1]))
    find = _row_index(P)
    mul = np.empty((n, n), dtype=np.int16 if n < 2 ** 15 else np.int32)
    step = max(1, 2 ** 16 // n)
    for i in range(0, n, step):
        idx = find(P[i : i + step][:, P])
        if (idx < 0).any():
            raise GroupError("pointwise product is not a row")
        mul[i : i + step] = idx.reshape(-1, n)
    return GroupTable(mul, labels=[naive_cycle_label(p) for p in perms], validate=False)


def per_row_pointwise_table(factors, rows) -> np.ndarray:
    """The former pointwise-table builder: each of the n product rows looked
    up in turn, column c multiplied in factors[c] through one flattened
    array of the factor tables."""
    n, k = len(rows), len(factors)
    if k == 0:  # the one empty row
        return np.zeros((n, n), dtype=np.int16)
    R = np.asarray(rows, dtype=np.int64)
    distinct = {id(t): t for t in factors}
    start = dict(zip(distinct, np.cumsum([0] + [t.order ** 2 for t in distinct.values()])))
    flat = np.concatenate([t.mul.ravel() for t in distinct.values()]).astype(np.int64)
    off = np.asarray([start[id(t)] for t in factors])
    left = off + R * np.asarray([t.order for t in factors])  # a*b at flat[off + a*order + b]
    find = _row_index(R)
    table = np.empty((n, n), dtype=np.int16 if n < 2 ** 15 else np.int32)
    for i in range(n):
        idx = find(flat[left[i] + R])
        if (idx < 0).any():
            raise GroupError("pointwise product is not a row")
        table[i] = idx
    return table


def naive_quaternion8() -> GroupTable:
    """Q8 as the integer quaternions +-1, +-i, +-j, +-k, 4-tuples (w, x, y, z)
    under the Hamilton product, listed 1, -1, i, -i, j, -j, k, -k."""
    units = [tuple(int(a == b) for b in range(4)) for a in range(4)]
    elems = [tuple(sign * c for c in u) for u in units for sign in (1, -1)]

    def hamilton(p, q):
        (a1, b1, c1, d1), (a2, b2, c2, d2) = p, q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    index = {q: i for i, q in enumerate(elems)}
    table = [[index[hamilton(p, q)] for q in elems] for p in elems]
    return GroupTable(table, labels=["1", "-1", "i", "-i", "j", "-j", "k", "-k"], validate=False)


def naive_cyclic(n: int) -> GroupTable:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(mul, labels=[str(i) for i in range(n)], validate=False)


def naive_dihedral(n: int) -> GroupTable:
    """Order 2n; element (r, s) is rotation by r composed with s
    reflections, listed with all rotations first."""
    elems = [(r, s) for s in range(2) for r in range(n)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        (r1, s1), (r2, s2) = a, b
        return ((r1 + r2) % n, s2) if s1 == 0 else ((r1 - r2) % n, 1 - s2)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    labels = [("r%d" % r if s == 0 else "sr%d" % r) for r, s in elems]
    return GroupTable(table, labels=labels, validate=False)


def naive_direct_product(A: GroupTable, B: GroupTable) -> GroupTable:
    """Pairs (a, b) numbered a*|B| + b, multiplied componentwise, one row
    per pair."""
    m = B.order
    rows = [
        (A.mul[a].astype(np.int64)[:, None] * m + B.mul[b][None, :]).ravel()
        for a in range(A.order)
        for b in range(m)
    ]
    labels = [f"({x},{y})" for x in A.labels for y in B.labels]
    return GroupTable(np.array(rows), labels=labels, validate=False)


def naive_inverses(mul, e: int) -> np.ndarray:
    """Each row's first column b with a*b = e, from the full n x n mask, then
    b*a = e checked element by element; the least a that fails is named."""
    m = np.asarray(mul)
    inv = np.full(len(m), -1, dtype=np.int64)
    rows, cols = np.nonzero(m == e)
    for r, c in zip(rows, cols):
        if inv[r] == -1:
            inv[r] = c
    for a in range(len(m)):
        b = int(inv[a])
        if b < 0 or m[b, a] != e:
            raise GroupError(f"element {a} has no two-sided inverse")
    return inv


def _naive_id_coset(scheme, point) -> int:
    """The coset index of the identity in the quotient at a point."""
    if isinstance(scheme, GluedScheme):
        side, p = point
        return _naive_id_coset(scheme.X1 if side == "L" else scheme.X2, p)
    H = scheme.spectrum.object.carrier
    return naive_cosets(H, scheme.spectrum.primes[point].members.members)[0][H.id]


def naive_induced_point_map(f, specH, specHp) -> dict:
    """Prime #i of Spec(H') mapped to the prime of Spec(H) equal to f^-1(P'_i),
    found by scanning the carrier; raises induced_morphism's messages."""
    pm = {}
    for i, Pp in enumerate(specHp.primes):
        inside = set(Pp.members.members)
        K = tuple(h for h in range(f.source.carrier.order) if f(h) in inside)
        if len(K) == f.source.carrier.order:
            raise SheafError(f"preimage of prime #{i} is the whole carrier; no induced point")
        match = next((j for j, P in enumerate(specH.primes) if tuple(P.members.members) == K), None)
        if match is None:
            raise SheafError(
                f"preimage of prime #{i} fails the {specH.variant}/{specH.prime_def} primality test"
            )
        pm[i] = match
    return pm


def naive_induced_push(f, source):
    """push(p, h) for the morphism induced by f on the affine scheme
    ``source`` of f's target: the coset of f(h) at p."""
    Hp = source.spectrum.object.carrier
    index = {}

    def push(p, h):
        if p not in index:
            index[p] = naive_cosets(Hp, source.spectrum.primes[p].members.members)[0]
        return index[p][f(h)]

    return push


def naive_pullback(target, point_map: dict, push, s) -> tuple:
    """The pullback of the section s of the affine scheme ``target``: each
    source point p over s's open gets push(p, h), h the least member of s's
    coset at q = point_map[p].  Any member would do, as the map sends P_q
    into the prime at p.  The row runs over the sorted preimage of s's open."""
    H = target.spectrum.object.carrier
    W = sorted(p for p, q in point_map.items() if q in s.open_set)
    out = []
    for p in W:
        q = point_map[p]
        reps = naive_cosets(H, target.spectrum.primes[q].members.members)[1]
        out.append(push(p, reps[s.value_at(q)]))
    return tuple(out)


def naive_morphism_check(source, target, point_map: dict, push) -> None:
    """The per-section morphism check, raising the library's messages:
    continuity; for every open U, every section s of G(U) and every open
    V < U, pulling back s restricted to V equals restricting s's pullback;
    every pullback is a section of the source; and s has the identity value
    at point_map[p] iff its pullback has it at p.  The target is affine."""
    def pre(U):
        return frozenset(p for p, q in point_map.items() if q in U)

    opens = target.space.opens
    for U in opens:
        if not source.space.is_open(pre(U)):
            raise SheafError("geometric map is not continuous")
    for U in opens:
        GU = target.section_group(U)
        W = sorted(pre(U))
        GW = source.section_group(pre(U))
        pulled = [naive_pullback(target, point_map, push, s) for s in GU.elements]
        for V in opens:
            if not V < U:
                continue
            keep = [i for i, p in enumerate(W) if p in pre(V)]
            for s, t in zip(GU.elements, pulled):
                down = naive_pullback(target, point_map, push, target.restrict(s, V))
                if down != tuple(t[i] for i in keep):
                    raise SheafError("restriction square does not commute")
        for t in pulled:
            GW.index_of(t)
    local = True
    for p, q in point_map.items():
        mo = target.minimal_open(q)
        Gq = target.section_group(mo)
        at = sorted(pre(mo)).index(p)
        for s in Gq.elements:
            vanish_target = s.value_at(q) == _naive_id_coset(target, q)
            vanish_source = naive_pullback(target, point_map, push, s)[at] == _naive_id_coset(source, p)
            local = local and vanish_target == vanish_source
    if not local:
        raise SheafError("morphism is not local")


def _minimal_generators(obj) -> list[int]:
    """Generators of the carrier extending the structure image, greedily."""
    H = obj.carrier
    sub = H.generated_subgroup(set(obj.structure.image))
    gens = []
    while len(sub) < H.order:
        g = next(x for x in range(H.order) if x not in sub)
        gens.append(g)
        sub = H.generated_subgroup(list(sub.members) + gens)
    return gens


def _complete_map(A: GroupTable, B: GroupTable, seed: dict[int, int]):
    """Extend a partial map on generators to a full homomorphism, or None.

    Closes the domain under products while checking consistency on every
    pair, so a successful completion is a verified homomorphism.
    """
    mapping = {A.id: B.id}
    mapping.update(seed)
    elems = list(mapping)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(len(elems)):
            b = elems[j]
            for x, y in ((a, b), (b, a)):
                p = A.op(x, y)
                img = B.op(mapping[x], mapping[y])
                if p in mapping:
                    if mapping[p] != img:
                        return None
                else:
                    mapping[p] = img
                    elems.append(p)
        i += 1
    if len(mapping) != A.order:
        return None
    return [mapping[x] for x in range(A.order)]


def naive_g_morphisms(A, B) -> list[tuple]:
    """The images of all carrier homomorphisms A -> B commuting with the
    structure maps, sorted: a recursive search over generator images, each
    completed by pairwise closure."""
    if A.base is not B.base:
        raise GroupError("objects over different bases")
    HA, HB = A.carrier, B.carrier
    seed: dict[int, int] = {}
    for g in range(A.base.order):
        a, b = A.structure(g), B.structure(g)
        if a in seed and seed[a] != b:
            return []  # structure maps incompatible
        seed[a] = b
    gens = _minimal_generators(A)
    found = []

    def assign(k: int, partial: dict[int, int]):
        if k == len(gens):
            full = _complete_map(HA, HB, partial)
            if full is not None:
                found.append(full)
            return
        g = gens[k]
        order_g = HA.element_order(g)
        for h in range(HB.order):
            if order_g % HB.element_order(h) == 0:
                assign(k + 1, {**partial, g: h})

    assign(0, seed)
    return sorted(set(map(tuple, found)))


# -- the element-space lattice: the library's bodies before it moved to
# class masks, kept to check the class-space rows against

def sweep_conjugation_orbits(G: GroupTable, by) -> tuple[list[np.ndarray], np.ndarray]:
    """Orbits of conjugation by ``by`` (sorted arrays, by least member) and
    each element's orbit number; one sweep per orbit."""
    by = np.unique(np.asarray(list(by), dtype=np.int64))
    orbit_of = np.full(G.order, -1, dtype=np.int64)
    orbits = []
    for x in range(G.order):
        if orbit_of[x] >= 0:
            continue
        orb = np.unique(G.mul[G.mul[by, x], G.inv[by]])
        orbit_of[orb] = len(orbits)
        orbits.append(orb)
    return orbits, orbit_of


def product_set_normal_subgroups(G: GroupTable) -> list[tuple[int, ...]]:
    """All normal subgroups as member tuples, ordered by (size, members):
    joins of atoms, the closures of single classes, where the join of
    normal N and A is the product set NA."""
    classes, _ = sweep_conjugation_orbits(G, range(G.order))
    atoms = {A.members: A for A in (G.generated_subgroup(c) for c in classes)}
    trivial = Subgroup(G, [G.id])
    found = {trivial.members: trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for N in frontier:
            for A in atoms.values():
                if A.issubset(N):
                    continue
                M = Subgroup(G, np.unique(G.mul[np.ix_(N.members, A.members)]))
                if M.members not in found:
                    found[M.members] = M
                    nxt.append(M)
        frontier = nxt
    return sorted(found, key=lambda m: (len(m), m))


def closure_commutator_subgroup(G: GroupTable, L, Lp) -> tuple[int, ...]:
    """Members of the subgroup generated by every [l, l'], l in L, l' in L',
    the commutators taken 64 rows of L at a time."""
    a_all = np.asarray(L.members)
    b = np.asarray(Lp.members)
    comms = np.zeros(G.order, dtype=bool)
    for start in range(0, len(a_all), 64):
        a = a_all[start : start + 64]
        p = G.mul[np.ix_(a, b)]
        p = G.mul[p, G.inv[a][:, None]]
        comms[G.mul[p, G.inv[b][None, :]]] = True
    return G.generated_subgroup(np.flatnonzero(comms)).members


def per_normal_divisor_pairs(obj, N, variant: str, prime_def: str) -> np.ndarray:
    """Bool matrix over the f(G)-orbits for one normal subgroup N: (i, j) is
    set iff both orbits lie outside N and the spans of their images make a
    divisor pair modulo N.  Spans are closed once per orbit, normals come
    from ``product_set_normal_subgroups`` and t2 intersects with a bool
    product."""
    H = obj.carrier
    orbits, orbit_of = sweep_conjugation_orbits(H, obj.structure.image)
    outside = ~N.mask[[int(o[0]) for o in orbits]]
    if variant == "t1":
        normals = product_set_normal_subgroups(H)
        held_by = np.array([set(M) <= set(N.members) for M in normals])
        classes, class_of = sweep_conjugation_orbits(H, range(H.order))
        firsts = [int(c[0]) for c in classes]
        masks = np.array([[x in set(M) for x in firsts] for M in normals])
        every = np.arange(H.order)
        least = np.empty((len(orbits), len(orbits)), dtype=np.int32)
        for i, orbit in enumerate(orbits):
            a = int(orbit[0])
            comm = H.mul[H.mul[H.mul[a, every], H.inv[a]], H.inv[every]]
            met = np.zeros((len(orbits), len(classes)), dtype=bool)
            met[orbit_of, class_of[comm]] = True
            least[i] = np.argmin(met @ ~masks.T, axis=1)
        held = held_by[least]
    else:
        rows: dict = {}
        span_of = [
            rows.setdefault(H.generated_subgroup(o).members, len(rows)) for o in orbits
        ]
        spans = np.zeros((len(rows), H.order), dtype=bool)
        for members, r in rows.items():
            spans[r, list(members)] = True
        if prime_def == "elementwise":
            rest = spans & ~N.mask
        else:
            coset = H.mul[:, N.mask].min(axis=1)
            rest = np.zeros_like(spans)
            r, c = np.nonzero(spans)
            rest[r, coset[c]] = True
            rest[:, coset[H.id]] = False
        held = ~(rest @ rest.T)[np.ix_(span_of, span_of)]
    return held & outside[:, None] & outside[None, :]


# -- finite topologies: the bodies that FiniteSpace replaced ----------------


def naive_closed_sets(spec) -> list[frozenset]:
    """All distinct vanishing sets V(N), N normal in the carrier, small to
    large (the old ``Spectrum.closed_sets``)."""
    closed = {vanishing_set(spec, N) for N in normal_subgroups(spec.object.carrier)}
    return sorted(closed, key=lambda c: (len(c), sorted(c)))


def naive_open_sets(spec) -> list[frozenset]:
    """Complements of the closed sets, small to large."""
    allp = frozenset(range(len(spec.primes)))
    opens = {allp - c for c in naive_closed_sets(spec)}
    return sorted(opens, key=lambda u: (len(u), sorted(u)))


def naive_is_open(spec, U) -> bool:
    return frozenset(U) in frozenset(naive_open_sets(spec))


def naive_minimal_open(spec, p: int) -> frozenset:
    """Intersection of all opens containing prime #p."""
    acc = frozenset(range(len(spec.primes)))
    for U in naive_open_sets(spec):
        if p in U:
            acc &= U
    return acc


def naive_closure(closed: list, points, S) -> frozenset:
    """Intersection of the closed sets containing S."""
    S = frozenset(S)
    acc = frozenset(points)
    for c in closed:
        if S <= c:
            acc &= c
    return acc


def naive_specialization_edges(spec) -> list[tuple[int, int]]:
    """Pairs (i, j) with prime_i contained in prime_j (i generizes j)."""
    return [
        (i, j)
        for i, P in enumerate(spec.primes)
        for j, Q in enumerate(spec.primes)
        if i != j and P.members.issubset(Q.members)
    ]


def naive_is_irreducible_closed(closed: list, C: frozenset) -> bool:
    """Nonempty and not a union of two proper closed subsets."""
    if not C:
        return False
    traces = [c & C for c in closed]
    proper = {c for c in traces if c != C}
    return not any(A | B == C for A in proper for B in proper)


def naive_irreducible_closed(closed: list) -> list[frozenset]:
    """The maximal irreducible closed sets, in the order of closed."""
    irr = [c for c in closed if naive_is_irreducible_closed(closed, c)]
    return [c for c in irr if not any(c < d for d in irr)]


def naive_irreducible_components(spec) -> list[tuple[frozenset, object]]:
    """Maximal irreducible closed sets with their generic primes, if any."""
    out = []
    for c in naive_irreducible_closed(naive_closed_sets(spec)):
        rad = radical(spec, c)
        out.append((c, next((i for i in sorted(c) if spec.primes[i].members == rad), None)))
    out.sort(key=lambda t: sorted(t[0]))
    return out


def naive_glued_opens(D) -> list[frozenset]:
    """Each open glues an open O1 of X1 and an open O2 of X2 with the same
    trace on U, listed by size and then repr order."""
    by_trace: dict = {}
    for O2 in naive_open_sets(D.X2.spectrum):
        by_trace.setdefault(O2 & D.U, []).append(O2)
    out = []
    for O1 in naive_open_sets(D.X1.spectrum):
        left = [("L", p) for p in O1]
        for O2 in by_trace.get(O1 & D.U, ()):
            out.append(frozenset(left + [("R", q) for q in O2 - D.U]))
    return sorted(out, key=lambda w: (len(w), repr(sorted(w, key=repr))))


def naive_glued_minimal_opens(D) -> dict:
    """Each point's minimal open: the meet of the opens around it."""
    out = dict.fromkeys(D.points, frozenset(D.points))
    for W in naive_glued_opens(D):
        for point in W:
            out[point] &= W
    return out
