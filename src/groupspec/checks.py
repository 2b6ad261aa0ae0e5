"""Audit suites: each mechanically re-checks one claim on catalog instances.

A suite returns per-instance records with status "pass", "fail", "finding"
or "skip".  Findings are reproducible discrepancies between the checked
source claims and the computed facts; they are reported, never patched,
and do not fail a run.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Optional

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
from .spectrum import (
    Ideal,
    Spectrum,
    irreducible_components,
    is_irreducible_closed,
    is_prime,
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
    zariski_closed_sets,
)

__all__ = ["SUITES", "run_suite", "run_suites", "report_lines", "worst_status"]


def _rec(suite: str, instance: str, status: str, detail: str = "", cat: str = "small") -> dict:
    return {
        "suite": suite,
        "instance": instance,
        "status": status,
        "detail": detail,
        "repro": f"groupspec check {suite} --catalog {cat}",
    }


@lru_cache(maxsize=None)
def _spec(obj: GGroup, variant: str) -> Spectrum:
    return spectrum(obj, variant)


@lru_cache(maxsize=None)
def _scheme(spec: Spectrum):
    from .sheaf import affine_scheme

    return affine_scheme(spec)


def _spectra(cat: str):
    for name, obj in catalog(cat):
        for variant in VARIANTS:
            yield name, obj, variant, _spec(obj, variant)


# -- section 2: topology algebra -------------------------------------------


def suite_prop2_1(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        H = obj.carrier
        normals = normal_subgroups(H)
        bad = None
        for I, J in itertools.combinations_with_replacement(normals, 2):
            if variant == "t1":
                combined = commutator_subgroup(H, I, J)
            else:
                combined = I.intersection(J)
            if vanishing_set(spec, combined) != vanishing_set(spec, I) | vanishing_set(spec, J):
                bad = f"binary identity fails at |I|={len(I)}, |J|={len(J)}"
                break
            E = H.generated_subgroup(set(I.members) | set(J.members))
            if vanishing_set(spec, E) != vanishing_set(spec, I) & vanishing_set(spec, J):
                bad = f"family identity fails at |I|={len(I)}, |J|={len(J)}"
                break
        if bad is None:
            # the full family at once
            E = H.generated_subgroup(
                set(itertools.chain.from_iterable(N.members for N in normals))
            )
            whole_meet = frozenset(range(len(spec.primes)))
            for N in normals:
                whole_meet &= vanishing_set(spec, N)
            if vanishing_set(spec, E) != whole_meet:
                bad = "full-family identity fails"
        out.append(
            _rec("prop2.1", f"{name},{variant}", "fail" if bad else "pass", bad or "", cat)
        )
    return out


def suite_prop2_2(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        if variant != "t1":
            continue
        H = obj.carrier
        bad = None
        for I, J in itertools.combinations_with_replacement(normal_subgroups(H), 2):
            if vanishing_set(spec, I.intersection(J)) != vanishing_set(spec, commutator_subgroup(H, I, J)):
                bad = f"fails at |I|={len(I)}, |J|={len(J)}"
                break
        out.append(_rec("prop2.2", f"{name},t1", "fail" if bad else "pass", bad or "", cat))
    return out


def suite_prop2_3(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        H = obj.carrier
        # n(h) only depends on the conjugacy class of h, so one basic open
        # per class covers all of them
        basics = [
            frozenset(range(len(spec.primes))) - vanishing_set(spec, normal_closure(H, [int(cls[0])]))
            for cls in H.conjugacy_classes()
        ]
        bad = None
        for U in spec.open_sets():
            union = frozenset()
            for b in basics:
                if b <= U:
                    union |= b
            if union != U:
                bad = f"open {sorted(U)} is not a union of basic opens"
                break
        out.append(_rec("prop2.3", f"{name},{variant}", "fail" if bad else "pass", bad or "", cat))
    return out


def suite_prop2_4(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
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
        detail = bad or f"{tested} hypothesis-satisfying pairs"
        out.append(_rec("prop2.4", f"{name},{variant}", "fail" if bad else "pass", detail, cat))
    return out


def suite_prop2_5(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        H = obj.carrier
        tested, bad = 0, None
        for I in normal_subgroups(H):
            if I.is_whole():
                continue
            V = vanishing_set(spec, I)
            if not V or radical(spec, V) != I:
                continue  # hypothesis of the claim fails
            tested += 1
            irr = is_irreducible_closed(spec, V)
            prime = is_prime(obj, Ideal(obj, I), variant, "elementwise")
            if irr != prime:
                bad = f"|I|={len(I)}: irreducible={irr} but prime={prime}"
                break
        detail = bad or f"{tested} ideals with rad(V(I))=I"
        out.append(_rec("prop2.5", f"{name},{variant}", "fail" if bad else "pass", detail, cat))
    return out


def suite_prop2_6(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        tested, bad = 0, None
        for comp, generic in irreducible_components(spec):
            if generic is None:
                continue
            tested += 1
            for q in comp:
                for U in spec.open_sets():
                    if q in U and generic not in U:
                        bad = f"open without the generic point around prime #{q}"
                        break
        detail = bad or f"{tested} components with generic points"
        out.append(_rec("prop2.6", f"{name},{variant}", "fail" if bad else "pass", detail, cat))
    return out


def suite_cor2_2(cat: str) -> list[dict]:
    out = []
    for name, obj, variant, spec in _spectra(cat):
        if not spec.primes:
            out.append(_rec("cor2.2", f"{name},{variant}", "skip", "empty spectrum", cat))
            continue
        rad = whole_radical(spec)
        idx = None
        for i, P in enumerate(spec.primes):
            if P.members == rad:
                idx = i
                break
        if idx is None:
            out.append(
                _rec("cor2.2", f"{name},{variant}", "skip", "radical is not a member prime", cat)
            )
            continue
        dense = spec.closure({idx}) == frozenset(range(len(spec.primes)))
        out.append(
            _rec("cor2.2", f"{name},{variant}", "pass" if dense else "fail",
                 "radical prime is dense" if dense else "radical prime is not dense", cat)
        )
    return out


# -- bounded zero-divisor audit over free-product words ----------------------


def suite_thm2_1_bounded(cat: str, max_len: int = 5) -> list[dict]:
    out = []
    g = groups()
    for gname in ("Z3", "S3"):
        G = g[gname]
        ctx = WordContext(G, 1)
        found = None
        words = [w for w in enumerate_words(ctx, max_len) if not w.is_constant()]
        for x in words:
            hit = bounded_divisor_witness(ctx, x, "t1", max_len)
            if hit is not None:
                found = f"x={x} has witness {hit[0]}"
                break
        status = "fail" if found else "pass"
        detail = found or f"{len(words)} non-constant words, no witness up to length {max_len}"
        out.append(_rec("thm2.1-bounded", f"{gname},t1,len<={max_len}", status, detail, cat))
    # the coefficient group of order two is the known exception
    Z2 = g["Z2"]
    ctx = WordContext(Z2, 1)
    u = parse_word(ctx, "g1 * X1 * g1 * X1^-1")
    hit = bounded_divisor_witness(ctx, u, "t1", 4)
    ok = hit is not None
    out.append(
        _rec(
            "thm2.1-bounded",
            "Z2,witness",
            "pass" if ok else "fail",
            f"witness {hit[0]} certified on {hit[1]['checked_pairs']} generator pairs" if ok else "expected witness not found",
            cat,
        )
    )
    return out


# -- section 3: varieties ---------------------------------------------------


def suite_prop3_1(cat: str) -> list[dict]:
    out = []
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
    out.append(_rec("prop3.1", "S3,A3,strictness", "pass" if ok else "fail",
                    f"{w_in} strictly between, {w_out} outside", cat))

    cert0 = maximality_probe(S3, 1, (x,), Subgroup(S3, [S3.id]))
    out.append(_rec("prop3.1", "N=1,collapse", "pass" if cert0.kind == "collapse" else "fail", "", cat))

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
        out.append(_rec("prop3.1", f"A5,factorization,{probe_text}", "pass" if ok else "fail",
                        f"target = (target*Q^-1)*Q with {len(cert.data['conjugators'])} conjugate factors", cat))
    return out


def suite_prop3_2(cat: str) -> list[dict]:
    out = []
    for name, obj in catalog(cat):
        if not obj.structure.is_surjective() or obj.base is not obj.carrier:
            continue
        G = obj.carrier
        for variant in VARIANTS:
            if not obj.is_integral(variant):
                out.append(_rec("prop3.2", f"{name},{variant}", "skip", "G not integral", cat))
                continue
            # value-level: the point-ideal implication reduces to integrality
            value_ok = obj.is_integral(variant)
            # quotient check: regular functions at a single point form G itself
            x = 1 % G.order if G.order > 1 else 0
            V = VarietySet(G, 1, (), ((x,),))
            O = coordinate_group(V).as_ggroup()
            quot_ok = len(O.carrier) == G.order and O.is_integral(variant)
            status = "pass" if (value_ok and quot_ok) else "fail"
            out.append(_rec("prop3.2", f"{name},{variant}", status,
                            f"single-point function group order {len(O.carrier)}", cat))
    return out


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


def suite_prop3_3(cat: str) -> list[dict]:
    out = []
    g = groups()
    Z2 = g["Z2"]
    c2 = WordContext(Z2, 1)
    z2_instances = [
        ("X1|g1*X1", [parse_word(c2, "X1")], [parse_word(c2, "g1 * X1")]),
        ("X1|X1", [parse_word(c2, "X1")], [parse_word(c2, "X1")]),
        ("X1^2|X1", [parse_word(c2, "X1^2")], [parse_word(c2, "X1")]),
    ]
    for label, A, B in z2_instances:
        bad = _t2_variety_identity(Z2, 1, A, B)
        status = "fail" if bad else "pass"
        out.append(_rec("prop3.3", f"Z2,t2,{label}", status, bad or "", cat))

    A5 = g["A5"]
    cA = WordContext(A5, 1)
    inv = next(i for i in range(A5.order) if A5.element_order(i) == 2)
    a5_instances = [
        ("X1^2|c", [parse_word(cA, "X1^2")], [cA.constant(inv)]),
        ("X1^2|X1^3", [parse_word(cA, "X1^2")], [parse_word(cA, "X1^3")]),
    ]
    for label, A, B in a5_instances:
        bad = _t1_variety_identity(A5, 1, A, B)
        out.append(_rec("prop3.3", f"A5,t1,{label}", "fail" if bad else "pass", bad or "", cat))

    # intersection part: Var of the closure of the union is the meet
    ident2 = Homomorphism.identity(Z2)
    identA = Homomorphism.identity(A5)
    for G, ident, ctx, (label, A, B) in (
        (Z2, ident2, c2, z2_instances[0]),
        (A5, identA, cA, a5_instances[0]),
    ):
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
        out.append(_rec("prop3.3", f"{G.name},meet,{label}", "fail" if bad else "pass", bad or "", cat))
    return out


def suite_prop3_4(cat: str) -> list[dict]:
    out = []
    g = groups()
    Z2 = g["Z2"]
    c2 = WordContext(Z2, 1)
    line = variety_of(Z2, 1, [])
    corr = hom_variety_correspondence(line, line, "t2")
    ok = len(corr.variety_morphisms) == len(corr.g_morphisms) == 4
    out.append(_rec("prop3.4", "Z2,line/line", "pass" if ok else "fail",
                    f"{len(corr.variety_morphisms)} variety vs {len(corr.g_morphisms)} algebra morphisms", cat))
    pt = variety_of(Z2, 1, [parse_word(c2, "X1")])
    corr2 = hom_variety_correspondence(line, pt, "t2")
    ok2 = len(corr2.variety_morphisms) == len(corr2.g_morphisms) == 1
    out.append(_rec("prop3.4", "Z2,line/point", "pass" if ok2 else "fail",
                    f"{len(corr2.variety_morphisms)} vs {len(corr2.g_morphisms)}", cat))
    # identity morphism corresponds to the identity algebra morphism
    idx = corr.variety_morphisms.index(tuple(line.points))
    ident_alg = corr.a_table[idx]
    ok3 = list(corr.g_morphisms[ident_alg].map.image) == list(range(len(corr.g_morphisms[ident_alg].map.image)))
    out.append(_rec("prop3.4", "identity pairing", "pass" if ok3 else "fail", "", cat))
    return out


def suite_prop3_5(cat: str) -> list[dict]:
    out = []
    g = groups()
    # irreducible varieties of the order-2 line under its full topology
    Z2 = g["Z2"]
    closed = zariski_closed_sets(Z2, 1, "t2")
    irr = [
        C for C in closed
        if C and not any(
            A | B == C for A in closed for B in closed
            if A != C and B != C and A <= C and B <= C
        )
    ]
    for C in irr:
        V = VarietySet(Z2, 1, (), tuple(sorted(C)))
        O = coordinate_group(V).as_ggroup()
        ok = O.is_integral("t2")
        out.append(_rec("prop3.5", f"Z2,t2,V={sorted(C)}", "pass" if ok else "fail",
                        f"I_V quotient of order {len(O.carrier)} integral={ok}", cat))
    # singleton varieties are irreducible in any topology
    A5 = g["A5"]
    x = next(i for i in range(A5.order) if A5.element_order(i) == 5)
    V = VarietySet(A5, 1, (), ((x,),))
    O = coordinate_group(V).as_ggroup()
    ok = O.is_integral("t1")
    out.append(_rec("prop3.5", "A5,t1,singleton", "pass" if ok else "fail",
                    f"order {len(O.carrier)}", cat))
    return out


# -- sheaf suites -----------------------------------------------------------


def _schemes(cat: str):
    for name, obj, variant, spec in _spectra(cat):
        yield name, variant, spec, _scheme(spec)


def suite_prop4_1(cat: str) -> list[dict]:
    out = []
    for name, variant, spec, X in _schemes(cat):
        bad = None
        inj_all = True
        for p in X.points:
            _, rep = X.stalk(p)
            if not rep["surjective"]:
                bad = f"stalk at prime #{p} is not a quotient of H/rad(P)"
                break
            inj_all = inj_all and rep["injective"]
        detail = bad or (f"{len(X.points)} stalks; comparison injective on all: {inj_all}")
        out.append(_rec("prop4.1", f"{name},{variant}", "fail" if bad else "pass", detail, cat))
    return out


def suite_thm4_1(cat: str) -> list[dict]:
    from .sheaf import global_sections_vs_quotient

    out = []
    for name, obj, variant, spec in _spectra(cat):
        rep = global_sections_vs_quotient(spec)
        if not rep["hypothesis"]:
            out.append(_rec("thm4.1", f"{name},{variant}", "skip",
                            "components have empty intersection", cat))
            continue
        ok = rep["isomorphic"]
        out.append(_rec("thm4.1", f"{name},{variant}", "pass" if ok else "fail",
                        f"sections={rep['sections']} quotient={rep['quotient_order']}", cat))
    return out


def suite_cor4_1(cat: str) -> list[dict]:
    from .sheaf import restrictions_are_isomorphisms

    out = []
    for name, obj, variant, spec in _spectra(cat):
        whole = frozenset(range(len(spec.primes)))
        if not spec.primes or not is_irreducible_closed(spec, whole):
            out.append(_rec("cor4.1", f"{name},{variant}", "skip", "spectrum not irreducible", cat))
            continue
        ok = restrictions_are_isomorphisms(spec)
        out.append(_rec("cor4.1", f"{name},{variant}", "pass" if ok else "fail", "", cat))
    return out


def suite_sheaf_axioms(cat: str) -> list[dict]:
    from .sheaf import SheafError, check_sheaf_axioms

    out = []
    for name, variant, spec, X in _schemes(cat):
        try:
            rep = check_sheaf_axioms(X)
            out.append(_rec("prop4.1", f"axioms,{name},{variant}", "pass",
                            f"pair covers {rep['pair_covers']}, minimal covers {rep['minimal_covers']}", cat))
        except SheafError as e:
            out.append(_rec("prop4.1", f"axioms,{name},{variant}", "fail", str(e), cat))
    return out


def suite_prop5_1(cat: str) -> list[dict]:
    from .sheaf import SheafError, point_vanishing_ideal

    out = []
    for name, variant, spec, X in _schemes(cat):
        bad, tested = None, 0
        for p in X.points:
            group, _ = X.stalk(p)
            try:
                I = point_vanishing_ideal(group, p)
            except SheafError as e:
                out.append(_rec("prop5.1", f"{name},{variant},P#{p}", "skip", str(e), cat))
                continue
            tested += 1
            if not is_prime(group.as_ggroup(), I, variant, "elementwise"):
                bad = f"I_P at prime #{p} is not {variant}-prime"
                break
        if bad:
            out.append(_rec("prop5.1", f"{name},{variant}", "fail", bad, cat))
        elif tested:
            out.append(_rec("prop5.1", f"{name},{variant}", "pass", f"{tested} points", cat))
    return out


def suite_prop5_2(cat: str) -> list[dict]:
    from .sheaf import SheafError, induced_morphism

    out = []
    g = groups()
    S5 = g["S5"]
    oS5 = identity_object(S5, "S5")
    instances = [("S5,identity", GMorphism(oS5, oS5, Homomorphism.identity(S5)), "t2")]
    from .spectrum import quotient_object

    A5sub = next(N for N in normal_subgroups(S5) if len(N) == 60)
    qobj, q = quotient_object(oS5, A5sub)
    instances.append(("S5->S5/A5", GMorphism(oS5, qobj, q.projection), "t2"))
    Z4 = g["Z4"]
    oZ4 = identity_object(Z4, "Z4")
    two = next(N for N in normal_subgroups(Z4) if len(N) == 2)
    qz, qq = quotient_object(oZ4, two)
    instances.append(("Z4->Z2", GMorphism(oZ4, qz, qq.projection), "t2"))
    Z2 = g["Z2"]
    oZ2 = identity_object(Z2, "Z2")
    instances.append(("Z2,identity", GMorphism(oZ2, oZ2, Homomorphism.identity(Z2)), "t2"))
    for label, f, variant in instances:
        try:
            m = induced_morphism(f, variant)  # verified on construction
            out.append(_rec("prop5.2", label, "pass",
                            f"points {m.point_map}; continuity, squares, localness verified", cat))
        except SheafError as e:
            out.append(_rec("prop5.2", label, "fail", str(e), cat))
    return out


def suite_cor5_1(cat: str) -> list[dict]:
    from .sheaf import SheafError, embed_quotient

    out = []
    g = groups()
    S5 = g["S5"]
    oS5 = identity_object(S5, "S5")
    A5sub = next(N for N in normal_subgroups(S5) if len(N) == 60)
    try:
        m, iso = embed_quotient(oS5, Ideal(oS5, A5sub), "t2")
        ok = set(m.point_map.values()) == vanishing_set(m.target.spectrum, A5sub)
        out.append(_rec("cor5.1", "S5,I=A5", "pass" if ok and not iso else "fail",
                        f"image=V(A5), iso={iso}", cat))
    except SheafError as e:
        out.append(_rec("cor5.1", "S5,I=A5", "fail", str(e), cat))
    try:
        m, iso = embed_quotient(oS5, Ideal(oS5, Subgroup(S5, [S5.id])), "t2")
        out.append(_rec("cor5.1", "S5,I=1", "pass" if iso else "fail", f"iso={iso}", cat))
    except SheafError as e:
        out.append(_rec("cor5.1", "S5,I=1", "fail", str(e), cat))
    if cat == "large":
        AA = groups()["A5xA5"]
        oAA = identity_object(AA, "A5xA5")
        try:
            m, iso = embed_quotient(oAA, Ideal(oAA, Subgroup(AA, [AA.id])), "t1")
            out.append(_rec("cor5.1", "A5xA5,I=rad=1", "pass" if iso else "fail", f"iso={iso}", cat))
        except SheafError as e:
            out.append(_rec("cor5.1", "A5xA5,I=rad=1", "fail", str(e), cat))
    return out


def suite_thm5_1(cat: str) -> list[dict]:
    from .sheaf import SheafError, affine_scheme, glue, scheme_hom_correspondence

    out = []
    g = groups()
    S5 = g["S5"]
    oS5 = identity_object(S5, "S5")
    sp = spectrum(oS5, "t2")
    X = affine_scheme(sp)
    try:
        rep = scheme_hom_correspondence(X, oS5, "t2")
        ok = rep["all_identity"] and rep["hom_count"] == 1
        out.append(_rec("thm5.1", "Spec2(S5),H=S5", "pass" if ok else "fail",
                        f"hom count {rep['hom_count']}", cat))
    except SheafError as e:
        out.append(_rec("thm5.1", "Spec2(S5),H=S5", "fail", str(e), cat))
    try:
        gen = X.minimal_open(0)
        D = glue(X, X, gen, gen)
        rep = scheme_hom_correspondence(D, oS5, "t2")
        ok = rep["all_identity"] and rep["hom_count"] == 1
        out.append(_rec("thm5.1", "doubled-point,H=S5", "pass" if ok else "fail",
                        f"hom count {rep['hom_count']}", cat))
    except SheafError as e:
        out.append(_rec("thm5.1", "doubled-point,H=S5", "fail", str(e), cat))
    Z2 = g["Z2"]
    oZ2 = identity_object(Z2, "Z2")
    spz = spectrum(oZ2, "t2")
    try:
        rep = scheme_hom_correspondence(affine_scheme(spz), oZ2, "t2")
        ok = rep["all_identity"] and rep["hom_count"] == 1
        out.append(_rec("thm5.1", "one-point,H=Z2", "pass" if ok else "fail",
                        f"hom count {rep['hom_count']}", cat))
    except SheafError as e:
        out.append(_rec("thm5.1", "one-point,H=Z2", "fail", str(e), cat))
    return out


def suite_thm5_2(cat: str) -> list[dict]:
    from .sheaf import SheafError, noetherian_sections

    out = []
    for name, obj, variant, spec in _spectra(cat):
        try:
            rep = noetherian_sections(spec)
        except SheafError as e:
            out.append(_rec("thm5.2", f"{name},{variant}", "skip", str(e), cat))
            continue
        ok = rep["isomorphic_to_sections"]
        out.append(_rec("thm5.2", f"{name},{variant}", "pass" if ok else "fail",
                        f"L order {rep['order']}", cat))
    return out


# -- definition audits ------------------------------------------------------


def suite_t1_defs_agree(cat: str) -> list[dict]:
    out = []
    for name, obj in catalog(cat):
        bad = None
        for N in normal_subgroups(obj.carrier):
            if N.is_whole():
                continue
            I = Ideal(obj, N)
            if is_prime(obj, I, "t1", "quotient") != is_prime(obj, I, "t1", "elementwise"):
                bad = f"divergence at ideal of order {len(N)}"
                break
        out.append(_rec("t1-defs-agree", name, "fail" if bad else "pass", bad or "", cat))
    return out


def suite_t2_defs_diverge(cat: str) -> list[dict]:
    out = []
    g = groups()
    V4 = g["V4"]
    oV4 = identity_object(V4, "V4")
    diag = Subgroup(V4, [V4.id, 3])  # the diagonal element (1,1)
    I = Ideal(oV4, diag)
    qd = is_prime(oV4, I, "t2", "quotient")
    ed = is_prime(oV4, I, "t2", "elementwise")
    if qd and not ed:
        out.append(_rec("t2-defs-diverge", "V4,I=<(1,1)>", "finding",
                        "T2-prime under the quotient definition but not elementwise: "
                        "x=(1,0), y=(0,1) have trivial span intersection inside I", cat))
    else:
        out.append(_rec("t2-defs-diverge", "V4,I=<(1,1)>", "fail",
                        f"expected divergence missing (quotient={qd}, elementwise={ed})", cat))
    Z2 = g["Z2"]
    oZ2 = identity_object(Z2, "Z2")
    triv = Ideal(oZ2, Subgroup(Z2, [Z2.id]))
    t2q = is_prime(oZ2, triv, "t2", "quotient")
    t2e = is_prime(oZ2, triv, "t2", "elementwise")
    t1q = is_prime(oZ2, triv, "t1", "quotient")
    t1e = is_prime(oZ2, triv, "t1", "elementwise")
    if t2q and t2e and not t1q and not t1e:
        out.append(_rec("t2-defs-diverge", "Z2,I=1", "finding",
                        "T2-prime but not T1-prime under both definitions; "
                        "contradicts the claim that T2-prime implies T1-prime", cat))
    else:
        out.append(_rec("t2-defs-diverge", "Z2,I=1", "fail",
                        f"unexpected statuses t2=({t2q},{t2e}) t1=({t1q},{t1e})", cat))
    return out


SUITES: dict[str, Callable[[str], list]] = {
    "prop2.1": suite_prop2_1,
    "prop2.2": suite_prop2_2,
    "prop2.3": suite_prop2_3,
    "prop2.4": suite_prop2_4,
    "prop2.5": suite_prop2_5,
    "prop2.6": suite_prop2_6,
    "cor2.2": suite_cor2_2,
    "thm2.1-bounded": suite_thm2_1_bounded,
    "prop3.1": suite_prop3_1,
    "prop3.2": suite_prop3_2,
    "prop3.3": suite_prop3_3,
    "prop3.4": suite_prop3_4,
    "prop3.5": suite_prop3_5,
    "prop4.1": suite_prop4_1,
    "sheaf-axioms": suite_sheaf_axioms,
    "thm4.1": suite_thm4_1,
    "cor4.1": suite_cor4_1,
    "prop5.1": suite_prop5_1,
    "prop5.2": suite_prop5_2,
    "cor5.1": suite_cor5_1,
    "thm5.1": suite_thm5_1,
    "thm5.2": suite_thm5_2,
    "t1-defs-agree": suite_t1_defs_agree,
    "t2-defs-diverge": suite_t2_defs_diverge,
}


def run_suite(suite: str, cat: str = "small") -> list[dict]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[suite](cat)


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
