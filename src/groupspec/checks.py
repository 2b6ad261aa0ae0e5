"""Audit suites: each mechanically re-checks one claim on catalog instances.

A suite is an instance source and a check (``SUITES``).  The check runs on
every instance the source yields and yields verdicts ``(instance, status,
detail)`` with status "pass", "fail", "finding" or "skip"; ``run_suite``
turns them into records.  Findings are reproducible discrepancies between
the checked source claims and the computed facts; they are reported, never
patched, and do not fail a run.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterator, Optional

from . import freeprod
from .catalog import catalog, groups
from .fingroup import (
    Homomorphism,
    Subgroup,
    commutator_subgroup,
    is_simple,
    normal_closure,
    normal_subgroups,
    subgroup_product,
)
from .freeprod import Word, WordContext, bounded_divisor_witness, enumerate_words, parse_word
from .gobject import VARIANTS, GGroup, GMorphism, identity_object
from .sheaf import (
    SheafError,
    affine_scheme,
    check_sheaf_axioms,
    embed_quotient,
    global_sections_vs_quotient,
    glue,
    induced_morphism,
    noetherian_sections,
    point_vanishing_ideal,
    restrictions_are_isomorphisms,
    scheme_hom_correspondence,
)
from .spectrum import (
    Ideal,
    Spectrum,
    irreducible_components,
    is_prime,
    quotient_object,
    radical,
    spectrum,
    vanishing_set,
    whole_radical,
)
from .variety import (
    VarietySet,
    coordinate_group,
    hom_variety_correspondence,
    maximality_probe,
    variety_of,
    zariski_space,
)

__all__ = ["SUITES", "run_suite", "run_suites", "report_lines", "worst_status"]

Verdict = tuple[str, str, str]  # (instance, status, detail)


def _rec(suite: str, instance: str, status: str, detail: str = "", cat: str = "small") -> dict:
    return {
        "suite": suite,
        "instance": instance,
        "status": status,
        "detail": detail,
        "repro": f"groupspec check {suite} --catalog {cat}",
    }


def _verdict(instance: str, ok: bool, detail: str = "") -> Verdict:
    return instance, "pass" if ok else "fail", detail


def _unless(instance: str, bad: Optional[str], detail: str = "") -> Verdict:
    """Fail with the counterexample ``bad`` when a search found one, else
    pass with ``detail``."""
    return _verdict(instance, not bad, bad or detail)


def _sheaf_verdict(instance: str, check: Callable, *args) -> Verdict:
    """``check(*args)`` returns (ok, detail); a SheafError fails with its
    message."""
    try:
        return _verdict(instance, *check(*args))
    except SheafError as e:
        return instance, "fail", str(e)


# -- instance sources ---------------------------------------------------------


@lru_cache(maxsize=None)
def _spec(obj: GGroup, variant: str) -> Spectrum:
    return spectrum(obj, variant)


@lru_cache(maxsize=None)
def _scheme(spec: Spectrum):
    return affine_scheme(spec)


def _fixed(cat: str):
    """One instance, the catalog name: the suite picks its own groups."""
    yield (cat,)


def _spectra(cat: str):
    for name, obj in catalog(cat):
        for variant in VARIANTS:
            yield f"{name},{variant}", obj, variant, _spec(obj, variant)


def _schemes(cat: str):
    for instance, obj, variant, spec in _spectra(cat):
        yield instance, variant, _scheme(spec)


# -- section 2: topology algebra -------------------------------------------


def suite_prop2_1(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    H = obj.carrier
    normals = normal_subgroups(H)
    bad = None
    for I, J in itertools.combinations_with_replacement(normals, 2):
        combined = commutator_subgroup(H, I, J) if variant == "t1" else I.intersection(J)
        VI, VJ = vanishing_set(spec, I), vanishing_set(spec, J)
        if vanishing_set(spec, combined) != VI | VJ:
            bad = f"binary identity fails at |I|={len(I)}, |J|={len(J)}"
            break
        if vanishing_set(spec, subgroup_product(H, I, J)) != VI & VJ:
            bad = f"family identity fails at |I|={len(I)}, |J|={len(J)}"
            break
    if bad is None:
        # the full family at once
        whole_meet = frozenset(range(len(spec.primes)))
        for N in normals:
            whole_meet &= vanishing_set(spec, N)
        E = normal_closure(H, {x for N in normals for x in N.members})
        if vanishing_set(spec, E) != whole_meet:
            bad = "full-family identity fails"
    yield _unless(instance, bad)


def suite_prop2_2(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    if variant != "t1":
        return
    H = obj.carrier
    bad = None
    for I, J in itertools.combinations_with_replacement(normal_subgroups(H), 2):
        if vanishing_set(spec, I.intersection(J)) != vanishing_set(spec, commutator_subgroup(H, I, J)):
            bad = f"fails at |I|={len(I)}, |J|={len(J)}"
            break
    yield _unless(instance, bad)


def suite_prop2_3(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    H = obj.carrier
    # n(h) only depends on the conjugacy class of h, so one basic open
    # per class covers all of them
    basics = [
        frozenset(range(len(spec.primes))) - vanishing_set(spec, normal_closure(H, [int(cls[0])]))
        for cls in H.conjugacy_classes()
    ]
    bad = None
    for U in spec.space.opens:
        union = frozenset()
        for b in basics:
            if b <= U:
                union |= b
        if union != U:
            bad = f"open {sorted(U)} is not a union of basic opens"
            break
    yield _unless(instance, bad)


def suite_prop2_4(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    H = obj.carrier
    normals = [N for N in normal_subgroups(H) if not N.is_whole()]
    tested, bad = 0, None
    for I, J in itertools.combinations(normals, 2):
        if not I.intersection(J).is_trivial():
            continue
        if not subgroup_product(H, I, J).is_whole():
            continue
        tested += 1
        VI, VJ = vanishing_set(spec, I), vanishing_set(spec, J)
        if VI & VJ or VI | VJ != frozenset(range(len(spec.primes))):
            bad = f"not a disjoint cover for |I|={len(I)}, |J|={len(J)}"
            break
    yield _unless(instance, bad, f"{tested} hypothesis-satisfying pairs")


def suite_prop2_5(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    tested, bad = 0, None
    for I in normal_subgroups(obj.carrier):
        if I.is_whole():
            continue
        V = vanishing_set(spec, I)
        if not V or radical(spec, V) != I:
            continue  # hypothesis of the claim fails
        tested += 1
        irr = spec.space.is_irreducible(V)
        prime = is_prime(obj, Ideal(obj, I), variant, "elementwise")
        if irr != prime:
            bad = f"|I|={len(I)}: irreducible={irr} but prime={prime}"
            break
    yield _unless(instance, bad, f"{tested} ideals with rad(V(I))=I")


def suite_prop2_6(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    tested, bad = 0, None
    for comp, generic in irreducible_components(spec):
        if generic is None:
            continue
        tested += 1
        for q in comp:
            if generic not in spec.space.minimal_open(q):
                bad = f"open without the generic point around prime #{q}"
    yield _unless(instance, bad, f"{tested} components with generic points")


def suite_cor2_2(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    if not spec.primes:
        yield instance, "skip", "empty spectrum"
        return
    rad = whole_radical(spec)
    idx = next((i for i, P in enumerate(spec.primes) if P.members == rad), None)
    if idx is None:
        yield instance, "skip", "radical is not a member prime"
        return
    dense = spec.space.closure({idx}) == frozenset(range(len(spec.primes)))
    yield _verdict(instance, dense, "radical prime is dense" if dense else "radical prime is not dense")


# -- bounded zero-divisor audit over free-product words ----------------------

BOUNDED_MAX_LEN = 5  # the longest words the bounded search enumerates


def suite_thm2_1_bounded(cat: str) -> Iterator[Verdict]:
    g = groups()
    for gname in ("Z3", "S3"):
        ctx = WordContext(g[gname], 1)
        found = None
        words = [w for w in enumerate_words(ctx, BOUNDED_MAX_LEN) if not w.is_constant()]
        for x in words:
            hit = bounded_divisor_witness(ctx, x, "t1", BOUNDED_MAX_LEN)
            if hit is not None:
                found = f"x={x} has witness {hit[0]}"
                break
        detail = f"{len(words)} non-constant words, no witness up to length {BOUNDED_MAX_LEN}"
        yield _unless(f"{gname},t1,len<={BOUNDED_MAX_LEN}", found, detail)
    # the coefficient group of order two is the known exception
    ctx = WordContext(g["Z2"], 1)
    hit = bounded_divisor_witness(ctx, parse_word(ctx, "g1 * X1 * g1 * X1^-1"), "t1", 4)
    yield _verdict(
        "Z2,witness",
        hit is not None,
        f"witness {hit[0]} certified on {hit[1]['checked_pairs']} generator pairs" if hit else "expected witness not found",
    )


# -- section 3: varieties ---------------------------------------------------


def suite_prop3_1(cat: str) -> Iterator[Verdict]:
    g = groups()
    S3 = g["S3"]
    ident = Homomorphism.identity(S3)
    A3 = next(N for N in normal_subgroups(S3) if len(N) == 3)
    x = next(i for i in range(S3.order) if S3.element_order(i) == 3)
    cert = maximality_probe(S3, 1, (x,), A3)
    w_in, w_out = cert.data["in_IN_not_Ix"], cert.data["outside_IN"]
    ok = (
        cert.kind == "strictness"
        and freeprod.evaluate(w_in, ident, [x]) in A3
        and freeprod.evaluate(w_in, ident, [x]) != S3.id
        and freeprod.evaluate(w_out, ident, [x]) not in A3
    )
    yield _verdict("S3,A3,strictness", ok, f"{w_in} strictly between, {w_out} outside")

    cert0 = maximality_probe(S3, 1, (x,), Subgroup(S3, [S3.id]))
    yield _verdict("N=1,collapse", cert0.kind == "collapse")

    A5 = g["A5"]
    identA = Homomorphism.identity(A5)
    ctx = WordContext(A5, 1)
    pt = next(i for i in range(A5.order) if A5.element_order(i) == 2)
    for probe_text in ("X1", "g1 * X1"):
        probe = parse_word(ctx, probe_text)
        cert = maximality_probe(A5, 1, (pt,), Subgroup(A5, range(A5.order)), probe=probe)
        left = cert.data["left_in_Ix"]
        Q = cert.data["Q"]
        tgt = cert.data["target"]
        ok = (
            cert.kind == "factorization"
            and is_simple(A5)
            and freeprod.evaluate(left, identA, [pt]) == A5.id
            and freeprod.concat(left, Q).syllables == tgt.syllables
        )
        yield _verdict(f"A5,factorization,{probe_text}", ok,
                       f"target = (target*Q^-1)*Q with {len(cert.data['conjugators'])} conjugate factors")


def suite_prop3_2(name: str, obj: GGroup) -> Iterator[Verdict]:
    if not obj.structure.is_surjective() or obj.base is not obj.carrier:
        return
    G = obj.carrier
    # quotient check: regular functions at a single point form G itself
    V = VarietySet(G, 1, (), ((1 % G.order,),))
    for variant in VARIANTS:
        # value level: the point-ideal implication reduces to integrality
        if not obj.is_integral(variant):
            yield f"{name},{variant}", "skip", "G not integral"
            continue
        O = coordinate_group(V).as_ggroup()
        ok = len(O.carrier) == G.order and O.is_integral(variant)
        yield _verdict(f"{name},{variant}", ok, f"single-point function group order {len(O.carrier)}")


def _t1_variety_identity(G, n: int, A: list[Word], B: list[Word]) -> Optional[str]:
    """Check Var(I) u Var(J) = Var([I,J]) pointwise via evaluated closures."""
    ident = Homomorphism.identity(G)
    for coords in itertools.product(range(G.order), repeat=n):
        a_vals = [freeprod.evaluate(w, ident, coords) for w in A]
        b_vals = [freeprod.evaluate(w, ident, coords) for w in B]
        in_union = all(v == G.id for v in a_vals) or all(v == G.id for v in b_vals)
        SA = normal_closure(G, [v for v in a_vals if v != G.id])
        SB = normal_closure(G, [v for v in b_vals if v != G.id])
        in_comm = commutator_subgroup(G, SA, SB).is_trivial()
        if in_union != in_comm:
            return f"mismatch at {coords}: union={in_union} commutator-variety={in_comm}"
    return None


def _t2_variety_identity(G, n: int, A: list[Word], B: list[Word]) -> Optional[str]:
    """Check Var(I) u Var(J) = Var(I n J); only decisive instances allowed.

    Points outside the union are certified outside Var(I n J) when the
    evaluated spans intersect trivially is false and a bounded commutator
    witness (an element of [I,J], hence of I n J) does not vanish there.
    """
    ident = Homomorphism.identity(G)
    for coords in itertools.product(range(G.order), repeat=n):
        a_vals = [freeprod.evaluate(w, ident, coords) for w in A]
        b_vals = [freeprod.evaluate(w, ident, coords) for w in B]
        in_union = all(v == G.id for v in a_vals) or all(v == G.id for v in b_vals)
        if in_union:
            continue  # contained in Var(I n J) automatically
        SA = normal_closure(G, [v for v in a_vals if v != G.id])
        SB = normal_closure(G, [v for v in b_vals if v != G.id])
        if SA.intersection(SB).is_trivial():
            # every element of I n J evaluates into the trivial intersection
            return f"counterexample at {coords}: point in Var(I n J) but not in the union"
        ctx = A[0].context
        membersA = _bounded_closure_members(ctx, A)
        membersB = _bounded_closure_members(ctx, B)
        witness = any(
            freeprod.evaluate(freeprod.Word(ctx, syl), ident, coords) != G.id
            for syl in membersA & membersB
        )
        if not witness:
            # commutators of conjugates lie in [I, J], a subgroup of I n J
            for a, b in itertools.product(A, B):
                for u, v in itertools.product(range(G.order), repeat=2):
                    w = freeprod.commutator(
                        freeprod.conjugate(ctx.constant(u), a),
                        freeprod.conjugate(ctx.constant(v), b),
                    )
                    if freeprod.evaluate(w, ident, coords) != G.id:
                        witness = True
                        break
                if witness:
                    break
        if not witness:
            return f"inconclusive at {coords}: no bounded witness in I n J"
    return None


def _bounded_closure_members(ctx: WordContext, gens, factors: int = 2) -> set:
    """Reduced forms of short products of constant-conjugates of the generators."""
    base = []
    for a in gens:
        for u in range(ctx.group.order):
            for s in (a, freeprod.inverse(a)):
                base.append(freeprod.conjugate(ctx.constant(u), s))
    out = {w.syllables for w in base}
    cur = set(out)
    for _ in range(factors - 1):
        nxt = set()
        for syl in cur:
            w = freeprod.Word(ctx, syl)
            for b in base:
                nxt.add(freeprod.concat(w, b).syllables)
        out |= nxt
        cur = nxt
    return out


def suite_prop3_3(cat: str) -> Iterator[Verdict]:
    g = groups()
    Z2 = g["Z2"]
    c2 = WordContext(Z2, 1)
    z2_instances = [
        ("X1|g1*X1", [parse_word(c2, "X1")], [parse_word(c2, "g1 * X1")]),
        ("X1|X1", [parse_word(c2, "X1")], [parse_word(c2, "X1")]),
        ("X1^2|X1", [parse_word(c2, "X1^2")], [parse_word(c2, "X1")]),
    ]
    for label, A, B in z2_instances:
        yield _unless(f"Z2,t2,{label}", _t2_variety_identity(Z2, 1, A, B))

    A5 = g["A5"]
    cA = WordContext(A5, 1)
    inv = next(i for i in range(A5.order) if A5.element_order(i) == 2)
    a5_instances = [
        ("X1^2|c", [parse_word(cA, "X1^2")], [cA.constant(inv)]),
        ("X1^2|X1^3", [parse_word(cA, "X1^2")], [parse_word(cA, "X1^3")]),
    ]
    for label, A, B in a5_instances:
        yield _unless(f"A5,t1,{label}", _t1_variety_identity(A5, 1, A, B))

    # intersection part: Var of the closure of the union is the meet
    for G, (label, A, B) in ((Z2, z2_instances[0]), (A5, a5_instances[0])):
        ident = Homomorphism.identity(G)
        bad = None
        for coords in itertools.product(range(G.order), repeat=1):
            lhs = all(freeprod.evaluate(w, ident, coords) == G.id for w in A) and all(
                freeprod.evaluate(w, ident, coords) == G.id for w in B
            )
            rhs = all(
                freeprod.evaluate(w, ident, coords) == G.id for w in (*A, *B)
            )
            if lhs != rhs:
                bad = f"meet identity fails at {coords}"
                break
        yield _unless(f"{G.name},meet,{label}", bad)


def suite_prop3_4(cat: str) -> Iterator[Verdict]:
    Z2 = groups()["Z2"]
    c2 = WordContext(Z2, 1)
    line = variety_of(Z2, 1, [])
    corr = hom_variety_correspondence(line, line, "t2")
    ok = len(corr.variety_morphisms) == len(corr.g_morphisms) == 4
    yield _verdict("Z2,line/line", ok,
                   f"{len(corr.variety_morphisms)} variety vs {len(corr.g_morphisms)} algebra morphisms")
    pt = variety_of(Z2, 1, [parse_word(c2, "X1")])
    corr2 = hom_variety_correspondence(line, pt, "t2")
    ok2 = len(corr2.variety_morphisms) == len(corr2.g_morphisms) == 1
    yield _verdict("Z2,line/point", ok2, f"{len(corr2.variety_morphisms)} vs {len(corr2.g_morphisms)}")
    # identity morphism corresponds to the identity algebra morphism
    idx = corr.variety_morphisms.index(tuple(line.points))
    image = corr.g_morphisms[corr.a_table[idx]].map.image
    yield _verdict("identity pairing", list(image) == list(range(len(image))))


def suite_prop3_5(cat: str) -> Iterator[Verdict]:
    g = groups()
    # irreducible varieties of the order-2 line under its full topology
    Z2 = g["Z2"]
    space = zariski_space(Z2, 1, "t2")
    for C in filter(space.is_irreducible, space.closed_sets):
        V = VarietySet(Z2, 1, (), tuple(sorted(C)))
        O = coordinate_group(V).as_ggroup()
        ok = O.is_integral("t2")
        yield _verdict(f"Z2,t2,V={sorted(C)}", ok, f"I_V quotient of order {len(O.carrier)} integral={ok}")
    # singleton varieties are irreducible in any topology
    A5 = g["A5"]
    x = next(i for i in range(A5.order) if A5.element_order(i) == 5)
    V = VarietySet(A5, 1, (), ((x,),))
    O = coordinate_group(V).as_ggroup()
    yield _verdict("A5,t1,singleton", O.is_integral("t1"), f"order {len(O.carrier)}")


# -- sheaf suites -----------------------------------------------------------


def suite_prop4_1(instance: str, variant: str, X) -> Iterator[Verdict]:
    bad = None
    inj_all = True
    for p in X.points:
        _, rep = X.stalk(p)
        if not rep["surjective"]:
            bad = f"stalk at prime #{p} is not a quotient of H/rad(P)"
            break
        inj_all = inj_all and rep["injective"]
    yield _unless(instance, bad, f"{len(X.points)} stalks; comparison injective on all: {inj_all}")


def suite_thm4_1(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    rep = global_sections_vs_quotient(spec)
    if not rep["hypothesis"]:
        yield instance, "skip", "components have empty intersection"
    else:
        yield _verdict(instance, rep["isomorphic"], f"sections={rep['sections']} quotient={rep['quotient_order']}")


def suite_cor4_1(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    if not spec.space.is_irreducible(range(len(spec.primes))):
        yield instance, "skip", "spectrum not irreducible"
    else:
        yield _verdict(instance, restrictions_are_isomorphisms(spec))


def _sheaf_axioms(X) -> tuple[bool, str]:
    rep = check_sheaf_axioms(X)
    return True, f"pair covers {rep['pair_covers']}, minimal covers {rep['minimal_covers']}"


def suite_sheaf_axioms(instance: str, variant: str, X) -> Iterator[Verdict]:
    yield _sheaf_verdict(f"axioms,{instance}", _sheaf_axioms, X)


def suite_prop5_1(instance: str, variant: str, X) -> Iterator[Verdict]:
    bad, tested = None, 0
    for p in X.points:
        group, _ = X.stalk(p)
        try:
            I = point_vanishing_ideal(group, p)
        except SheafError as e:
            yield f"{instance},P#{p}", "skip", str(e)
            continue
        tested += 1
        if not is_prime(group.as_ggroup(), I, variant, "elementwise"):
            bad = f"I_P at prime #{p} is not {variant}-prime"
            break
    if bad or tested:
        yield _unless(instance, bad, f"{tested} points")


def _induced(f: GMorphism) -> tuple[bool, str]:
    m = induced_morphism(f, "t2")  # verified on construction
    return True, f"points {m.point_map}; continuity, squares, localness verified"


def suite_prop5_2(cat: str) -> Iterator[Verdict]:
    g = groups()
    S5 = g["S5"]
    oS5 = identity_object(S5, "S5")
    instances = [("S5,identity", GMorphism(oS5, oS5, Homomorphism.identity(S5)))]
    A5sub = next(N for N in normal_subgroups(S5) if len(N) == 60)
    qobj, q = quotient_object(oS5, A5sub)
    instances.append(("S5->S5/A5", GMorphism(oS5, qobj, q.projection)))
    Z4 = g["Z4"]
    oZ4 = identity_object(Z4, "Z4")
    two = next(N for N in normal_subgroups(Z4) if len(N) == 2)
    qz, qq = quotient_object(oZ4, two)
    instances.append(("Z4->Z2", GMorphism(oZ4, qz, qq.projection)))
    Z2 = g["Z2"]
    oZ2 = identity_object(Z2, "Z2")
    instances.append(("Z2,identity", GMorphism(oZ2, oZ2, Homomorphism.identity(Z2))))
    for label, f in instances:
        yield _sheaf_verdict(label, _induced, f)


def _embeds_onto(obj: GGroup, N: Subgroup, name: str) -> tuple[bool, str]:
    m, iso = embed_quotient(obj, Ideal(obj, N), "t2")
    return set(m.point_map.values()) == vanishing_set(m.target.spectrum, N) and not iso, f"image=V({name}), iso={iso}"


def _embeds_isomorphically(obj: GGroup, variant: str) -> tuple[bool, str]:
    m, iso = embed_quotient(obj, Ideal(obj, Subgroup(obj.carrier, [obj.carrier.id])), variant)
    return iso, f"iso={iso}"


def suite_cor5_1(cat: str) -> Iterator[Verdict]:
    S5 = groups()["S5"]
    oS5 = identity_object(S5, "S5")
    A5sub = next(N for N in normal_subgroups(S5) if len(N) == 60)
    yield _sheaf_verdict("S5,I=A5", _embeds_onto, oS5, A5sub, "A5")
    yield _sheaf_verdict("S5,I=1", _embeds_isomorphically, oS5, "t2")
    if cat == "large":
        AA = groups()["A5xA5"]
        yield _sheaf_verdict("A5xA5,I=rad=1", _embeds_isomorphically, identity_object(AA, "A5xA5"), "t1")


def _one_identity_hom(X, obj: GGroup) -> tuple[bool, str]:
    rep = scheme_hom_correspondence(X, obj, "t2")
    return rep["all_identity"] and rep["hom_count"] == 1, f"hom count {rep['hom_count']}"


def _doubled_point(X, obj: GGroup) -> tuple[bool, str]:
    gen = X.minimal_open(0)
    return _one_identity_hom(glue(X, X, gen, gen), obj)


def suite_thm5_1(cat: str) -> Iterator[Verdict]:
    g = groups()
    oS5 = identity_object(g["S5"], "S5")
    X = affine_scheme(spectrum(oS5, "t2"))
    yield _sheaf_verdict("Spec2(S5),H=S5", _one_identity_hom, X, oS5)
    yield _sheaf_verdict("doubled-point,H=S5", _doubled_point, X, oS5)
    oZ2 = identity_object(g["Z2"], "Z2")
    yield _sheaf_verdict("one-point,H=Z2", _one_identity_hom, affine_scheme(spectrum(oZ2, "t2")), oZ2)


def suite_thm5_2(instance: str, obj: GGroup, variant: str, spec: Spectrum) -> Iterator[Verdict]:
    try:
        rep = noetherian_sections(spec)
    except SheafError as e:
        yield instance, "skip", str(e)
        return
    yield _verdict(instance, rep["isomorphic_to_sections"], f"L order {rep['order']}")


# -- definition audits ------------------------------------------------------


def suite_t1_defs_agree(name: str, obj: GGroup) -> Iterator[Verdict]:
    bad = None
    for N in normal_subgroups(obj.carrier):
        if N.is_whole():
            continue
        I = Ideal(obj, N)
        if is_prime(obj, I, "t1", "quotient") != is_prime(obj, I, "t1", "elementwise"):
            bad = f"divergence at ideal of order {len(N)}"
            break
    yield _unless(name, bad)


def suite_t2_defs_diverge(cat: str) -> Iterator[Verdict]:
    g = groups()
    V4 = g["V4"]
    oV4 = identity_object(V4, "V4")
    diag = Subgroup(V4, [V4.id, 3])  # the diagonal element (1,1)
    I = Ideal(oV4, diag)
    qd = is_prime(oV4, I, "t2", "quotient")
    ed = is_prime(oV4, I, "t2", "elementwise")
    if qd and not ed:
        yield ("V4,I=<(1,1)>", "finding",
               "T2-prime under the quotient definition but not elementwise: "
               "x=(1,0), y=(0,1) have trivial span intersection inside I")
    else:
        yield ("V4,I=<(1,1)>", "fail",
               f"expected divergence missing (quotient={qd}, elementwise={ed})")
    Z2 = g["Z2"]
    oZ2 = identity_object(Z2, "Z2")
    triv = Ideal(oZ2, Subgroup(Z2, [Z2.id]))
    t2q = is_prime(oZ2, triv, "t2", "quotient")
    t2e = is_prime(oZ2, triv, "t2", "elementwise")
    t1q = is_prime(oZ2, triv, "t1", "quotient")
    t1e = is_prime(oZ2, triv, "t1", "elementwise")
    if t2q and t2e and not t1q and not t1e:
        yield ("Z2,I=1", "finding",
               "T2-prime but not T1-prime under both definitions; "
               "contradicts the claim that T2-prime implies T1-prime")
    else:
        yield ("Z2,I=1", "fail", f"unexpected statuses t2=({t2q},{t2e}) t1=({t1q},{t1e})")


# suite -> (instance source, check): the check runs on the fields of every
# instance the source yields, in order, and yields that instance's verdicts.
SUITES: dict[str, tuple[Callable, Callable]] = {
    "prop2.1": (_spectra, suite_prop2_1),
    "prop2.2": (_spectra, suite_prop2_2),
    "prop2.3": (_spectra, suite_prop2_3),
    "prop2.4": (_spectra, suite_prop2_4),
    "prop2.5": (_spectra, suite_prop2_5),
    "prop2.6": (_spectra, suite_prop2_6),
    "cor2.2": (_spectra, suite_cor2_2),
    "thm2.1-bounded": (_fixed, suite_thm2_1_bounded),
    "prop3.1": (_fixed, suite_prop3_1),
    "prop3.2": (catalog, suite_prop3_2),
    "prop3.3": (_fixed, suite_prop3_3),
    "prop3.4": (_fixed, suite_prop3_4),
    "prop3.5": (_fixed, suite_prop3_5),
    "prop4.1": (_schemes, suite_prop4_1),
    "sheaf-axioms": (_schemes, suite_sheaf_axioms),
    "thm4.1": (_spectra, suite_thm4_1),
    "cor4.1": (_spectra, suite_cor4_1),
    "prop5.1": (_schemes, suite_prop5_1),
    "prop5.2": (_fixed, suite_prop5_2),
    "cor5.1": (_fixed, suite_cor5_1),
    "thm5.1": (_fixed, suite_thm5_1),
    "thm5.2": (_spectra, suite_thm5_2),
    "t1-defs-agree": (catalog, suite_t1_defs_agree),
    "t2-defs-diverge": (_fixed, suite_t2_defs_diverge),
}


def run_suite(suite: str, cat: str = "small") -> list[dict]:
    """The records of one suite, one per verdict, in the order yielded."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    source, check = SUITES[suite]
    # sheaf-axioms records still carry the prop4.1 label (and so a repro
    # that does not rerun them) until ROADMAP item 9 relabels them
    label = "prop4.1" if suite == "sheaf-axioms" else suite
    return [_rec(label, *verdict, cat) for instance in source(cat) for verdict in check(*instance)]


def run_suites(suites, cat: str = "small") -> list[dict]:
    out = []
    for s in suites:
        out.extend(run_suite(s, cat))
    return out


def worst_status(records) -> str:
    order = {"pass": 0, "skip": 0, "finding": 1, "fail": 2}
    worst = "pass"
    for r in records:
        if order[r["status"]] > order[worst]:
            worst = r["status"]
    return worst


def report_lines(records) -> list[str]:
    lines = []
    for r in records:
        line = f"[{r['status'].upper():7}] {r['suite']:16} {r['instance']}"
        if r["detail"]:
            line += f" — {r['detail']}"
        lines.append(line)
    return lines
