"""Seeded inputs for the benchmark workloads.

Nothing here imports groupspec: every input is plain text built from the
seed alone, so the same seed gives byte-identical inputs on every commit.

* ``audit-large``, ``audit-small``: audit suite ids, in sorted order (seed
  ignored).
* ``schemes``: a ``groupspec run`` program.  Its shape and statement order
  are fixed; the seed picks structure-map images inside a fixed conjugacy
  class and the stalk points.  Every choice yields an isomorphic instance,
  so each seed costs about the same and no statement fails.
* ``words``: bounded divisor-of-zero searches, one per line
  ``<group> <variant> <max_len> <word>``, a fixed number per stratum.
"""

from __future__ import annotations

import itertools
import random

# -- audit -------------------------------------------------------------------

# workload -> (catalog, suites left out).  ``audit-large`` is
# ``groupspec check all --catalog large``.  ``audit-small`` is
# ``groupspec check all`` (the small catalog) without the two suites that
# ignore the catalog and take 35 of its 36 s on a 2-vCPU Xeon:
# ``thm2.1-bounded`` (about 30 s; ``words`` runs a sample of its searches)
# and ``thm5.1`` (3-4 s, sheaf work on S5).  With them a pass would take
# 4-5 s, too few passes for steady timings.
AUDITS = {
    "audit-large": ("large", ()),
    "audit-small": ("small", ("thm2.1-bounded", "thm5.1")),
}


def audit_suites(workload: str, all_suites) -> list[str]:
    left_out = AUDITS[workload][1]
    return [s for s in sorted(all_suites) if s not in left_out]


# -- words -------------------------------------------------------------------

WORD_GROUPS = ("Z2", "Z3", "Z4", "S3", "Q8")
GROUP_ORDER = {"Z2": 2, "Z3": 3, "Z4": 4, "S3": 6, "Q8": 8}
# ``checks.suite_thm2_1_bounded`` searches at max_len 5, and so does every
# stratum but the suite's one Z2 witness search.
SEARCH_MAX_LEN = 5
# t1 searches per group.  The suite runs one t1 search for each of the 274
# non-constant Z3 words and the 1660 non-constant S3 words of length <= 5;
# Z3 and S3 draw a 5% sample of those, without replacement.  No caller in
# groupspec searches over Z2, Z4 or Q8; Z2 and Z4 get as many t1 searches as
# Z3, Q8 half as many.  Q8's scans are the longest (20-60 ms); with 14 of
# them the p99 search fell among Q8's draws and, over the seeds alone,
# spread 0.14 (IQR/median of 10 seeds); with 7 it spreads 0.04.
T1_PER_GROUP = {"Z2": 14, "Z3": 14, "Z4": 14, "S3": 83, "Q8": 7}
# No caller in groupspec runs t2 searches.  They end in InconclusiveError
# after about 0.1 ms, so they measure per-call overhead; 180 per group bring
# the pass to over 1,000 jobs at about 5% of its time.
T2_PER_GROUP = 180
# the suite's Z2 search, which finds a witness; run once per pass, as there
SUITE_WITNESS_JOB = "Z2 t1 4 g1 * X1 * g1 * X1^-1"


def word_pool(group: str, max_len: int = SEARCH_MAX_LEN) -> list[str]:
    """Every non-constant reduced one-variable word of length <= max_len,
    sorted; the same set as the non-constant words of
    ``freeprod.enumerate_words``.

    Coefficients are the non-identity element indices 1..n-1 (index 0 is the
    identity of every group in WORD_GROUPS); letters are X1^e, e != 0.  A
    coefficient counts 1 towards the length and X1^e counts |e|.
    """
    coeffs = range(1, GROUP_ORDER[group])
    out = []

    def extend(prefix, budget, last_kind):
        if prefix and any(p.startswith("X") for p in prefix):
            out.append(" * ".join(prefix))
        if last_kind != "g" and budget >= 1:
            for g in coeffs:
                extend(prefix + [f"g{g}"], budget - 1, "g")
        if last_kind != "x":
            for mag in range(1, budget + 1):
                for e in (mag, -mag):
                    extend(prefix + ["X1" if e == 1 else f"X1^{e}"], budget - mag, "x")

    extend([], max_len, None)
    return sorted(out)


def words_input(seed: int) -> str:
    rng = random.Random(f"words:{seed}")
    jobs = [SUITE_WITNESS_JOB]
    for group in WORD_GROUPS:
        pool = word_pool(group)
        head = f"{group} t1 {SEARCH_MAX_LEN}"
        jobs.extend(f"{head} {w}" for w in rng.sample(pool, T1_PER_GROUP[group]))
        head = f"{group} t2 {SEARCH_MAX_LEN}"
        jobs.extend(f"{head} {rng.choice(pool)}" for _ in range(T2_PER_GROUP))
    rng.shuffle(jobs)
    return "\n".join(jobs) + "\n"


# -- schemes -----------------------------------------------------------------


def _compose(p, q):
    """p after q, as groupspec multiplies permutation tuples."""
    return tuple(p[k] for k in q)


def _perm_from_cycles(cycles, degree):
    img = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            img[a - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def _conjugate(sigma, p):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return _compose(_compose(sigma, p), tuple(inv))


def _powers(elements, g, n):
    """Indices of g^0..g^(n-1) in the sorted element list of a perm group."""
    index = {p: i for i, p in enumerate(elements)}
    out, x = [], tuple(range(len(g)))
    for _ in range(n):
        out.append(index[x])
        x = _compose(x, g)
    if x != tuple(range(len(g))):
        raise ValueError("image order does not divide the base order")
    return out


def _sym(n):
    return sorted(itertools.permutations(range(n)))


def _class_member(rng, cycles, degree):
    """A random conjugate, in S_degree, of the permutation with the given cycles."""
    sigma = tuple(rng.sample(range(degree), degree))
    return _conjugate(sigma, _perm_from_cycles(cycles, degree))


def schemes_input(seed: int) -> str:
    rng = random.Random(f"schemes:{seed}")
    S3, S4, S5 = _sym(3), _sym(4), _sym(5)
    decls = [
        "group Z2 = cyclic(2)",
        "group Z3 = cyclic(3)",
        "group Z4 = cyclic(4)",
        "group Z6 = cyclic(6)",
        "group S3 = sym(3)",
        "group S4 = sym(4)",
        "group S5 = sym(5)",
        "group A4 = alt(4)",
        "group A5 = alt(5)",
        "group D = dihedral(12)",
        # F20; relabeling its generators would change its element order, and
        # with it the cost of every F statement from seed to seed
        "group F = perm 5: (1 2 3 4 5); (2 3 5 4)",
        "group S3xZ3 = product(S3, Z3)",
        "group S4xZ3 = product(S4, Z3)",
        "group A5xZ2 = product(A5, Z2)",
        "group S4xS3 = product(S4, S3)",
        "group A4xS3 = product(A4, S3)",
    ]

    def perm_images(elements, degree, cycles, n):
        return _powers(elements, _class_member(rng, cycles, degree), n)

    # structure maps from small cyclic bases; images stay in one conjugacy
    # class, so every seed builds an isomorphic object
    r = rng.choice((2, 10))  # the rotations of order 6 in D12
    s3 = _class_member(rng, [[1, 2, 3]], 3)
    ggroups = {
        "X1": ("Z2", "S5", perm_images(S5, 5, [[1, 2]], 2)),
        "X2": ("Z3", "S4", perm_images(S4, 4, [[1, 2, 3]], 3)),
        "X3": ("Z4", "S4", perm_images(S4, 4, [[1, 2, 3, 4]], 4)),
        "X4": ("Z3", "S3xZ3", [S3.index(p) * 3 for p in (tuple(range(3)), s3, _compose(s3, s3))]),
        "X5": ("Z6", "D", [(k * r) % 12 for k in range(6)]),
        "X6": ("Z2", "S4xS3", [0, S4.index(_class_member(rng, [[1, 2]], 4)) * 6]),
    }
    decls += [
        f"ggroup {name} = ({base} -> {carrier}) via [{', '.join(map(str, imgs))}]"
        for name, (base, carrier, imgs) in ggroups.items()
    ]

    def pt(n):
        return rng.randrange(n)

    # (object, statements); {o} is the object, spectra are named {o}_<tag>.
    # Point counts are facts of the seed commit, the same for every seed.
    # The block order is fixed: blocks share carriers, and so the module-level
    # caches, so reordering them moves cost between statements.
    blocks = [
        ("S4xS3", [
            "spec S4xS3 --variant t1 as S4xS3_a",
            "spec S4xS3 --variant t2 as S4xS3_b",
            "sections S4xS3_b whole",
            f"stalk S4xS3_b {pt(3)}",
            "morphism (S4xS3 -> S4xS3) via id --variant t2 as S4xS3_m",
            "glue S4xS3_b whole S4xS3_b whole as S4xS3_g",
            "export S4xS3_g --format json",
            "export S4xS3_b --format dot",
        ]),
        ("A4xS3", [
            "spec A4xS3 --variant t2 as A4xS3_a",
            "sections A4xS3_a whole",
            f"stalk A4xS3_a {pt(4)}",
            "morphism (A4xS3 -> A4xS3) via id --variant t2 as A4xS3_m",
            "glue A4xS3_a whole A4xS3_a whole as A4xS3_g",
            "export A4xS3_g --format json",
        ]),
        ("S5", [
            "spec S5 --variant t1 as S5_a",
            "spec S5 --variant t2 as S5_b",
            "spec S5 --variant t2 --prime-def quotient as S5_c",
            "sections S5_b whole",
            f"stalk S5_b {pt(2)}",
            "morphism (S5 -> S5) via id --variant t2 as S5_m",
            "glue S5_b whole S5_c whole as S5_g",
            "export S5_g --format json",
            "export S5_c --format dot",
        ]),
        ("S4xZ3", [
            "spec S4xZ3 --variant t1 as S4xZ3_a",
            "spec S4xZ3 --variant t2 as S4xZ3_b",
            "sections S4xZ3_b whole",
            f"stalk S4xZ3_b {pt(4)}",
            "morphism (S4xZ3 -> S4xZ3) via id --variant t2 as S4xZ3_m",
            "glue S4xZ3_b whole S4xZ3_b whole as S4xZ3_g",
            "export S4xZ3_g --format json",
        ]),
        ("A5xZ2", [
            "spec A5xZ2 --variant t1 as A5xZ2_a",
            "spec A5xZ2 --variant t2 as A5xZ2_b",
            "sections A5xZ2_a whole",
            "sections A5xZ2_b whole",
            f"stalk A5xZ2_b {pt(2)}",
            "morphism (A5xZ2 -> A5xZ2) via id --variant t2 as A5xZ2_m",
            "export A5xZ2_b --format json",
        ]),
        ("F", [
            "spec F --variant t1 as F_a",
            "spec F --variant t2 as F_b",
            "spec F --variant t2 --prime-def quotient as F_c",
            "sections F_b whole",
            f"stalk F_b {pt(3)}",
            "morphism (F -> F) via id --variant t2 as F_m",
            "glue F_b whole F_b whole as F_g",
            "export F_g --format json",
            "export F_b --format dot",
        ]),
        ("X1", [
            "spec X1 --variant t1 as X1_a",
            "spec X1 --variant t2 as X1_b",
            "spec X1 --variant t1 --prime-def quotient as X1_c",
            "spec X1 --variant t2 --prime-def quotient as X1_d",
            "sections X1_d whole",
            "stalk X1_d 0",
            "morphism (X1 -> X1) via id --variant t2 --prime-def quotient as X1_m",
            "export X1_d --format json",
        ]),
        ("A4", [
            "spec A4 --variant t2 as A4_a",
            "sections A4_a whole",
            f"stalk A4_a {pt(2)}",
            "export A4_a --format dot",
        ]),
        ("X2", [
            "spec X2 --variant t1 as X2_a",
            "spec X2 --variant t2 as X2_b",
            "spec X2 --variant t2 --prime-def quotient as X2_c",
            "sections X2_b whole",
            f"stalk X2_b {pt(2)}",
            "morphism (X2 -> X2) via id --variant t2 as X2_m",
            "glue X2_b whole X2_c whole as X2_g",
            "export X2_g --format json",
        ]),
        ("X3", [
            "spec X3 --variant t2 as X3_a",
            "spec X3 --variant t2 --prime-def quotient as X3_b",
            "sections X3_b whole",
            f"stalk X3_b {pt(2)}",
            "morphism (X3 -> X3) via id --variant t2 --prime-def quotient as X3_m",
            "export X3_b --format dot",
        ]),
        ("X4", [
            "spec X4 --variant t1 --prime-def quotient as X4_a",
            "spec X4 --variant t2 --prime-def quotient as X4_b",
            "sections X4_b whole",
            f"stalk X4_b {pt(3)}",
            "morphism (X4 -> X4) via id --variant t2 --prime-def quotient as X4_m",
            "glue X4_b whole X4_b whole as X4_g",
            "export X4_g --format json",
        ]),
        ("X5", [
            "spec X5 --variant t1 as X5_a",
            "spec X5 --variant t2 --prime-def quotient as X5_b",
            "sections X5_b whole",
            # the other points' minimal opens are not open at the seed commit
            "stalk X5_b 0",
            "export X5_b --format json",
        ]),
        ("X6", [
            "spec X6 --variant t2 as X6_a",
            "spec X6 --variant t2 --prime-def quotient as X6_b",
            "sections X6_b whole",
        ]),
    ]
    lines = decls + [st for _, sts in blocks for st in sts]
    return "\n".join(lines) + "\n"


def make_input(workload: str, seed: int) -> str:
    if workload == "schemes":
        return schemes_input(seed)
    if workload == "words":
        return words_input(seed)
    if workload in AUDITS:
        return ""
    raise ValueError(f"unknown workload {workload!r}")

