import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from groupspec import freeprod
from groupspec.fingroup import Homomorphism, cyclic, quaternion8, symmetric
from groupspec.freeprod import (
    InconclusiveError,
    _commute_bucket,
    _commute_key,
    _commutes_with_orbit,
    _conjugates,
    _recognize_cyclic,
    _word_order,
    _words_upto,
    WordContext,
    WordError,
    bounded_divisor_witness,
    commutator,
    concat,
    conjugate,
    enumerate_words,
    evaluate,
    inverse,
    parse_word,
    power,
    reduce_syllables,
    span_generators,
    parse_word as _pw,
)
from oracles import (
    naive_commute_bucket,
    naive_conjugates,
    naive_divisor_witness,
    naive_recognize_cyclic,
    naive_span_generators,
)

S3 = symmetric(3)
CTX = WordContext(S3, 2)


def w(text):
    return parse_word(CTX, text)


def test_parse_and_print_roundtrip():
    for text in ["X1", "X1^-3", "g1 * X2^2 * g3", "g1", "X1 * X2 * X1^-1"]:
        assert str(w(text)) == str(parse_word(CTX, str(w(text))))


def test_parse_rejects_garbage():
    for text in ["X0", "X3", "g9", "X1^", "* X1", "h2"]:
        with pytest.raises(WordError):
            w(text)


def test_reduction_cancels():
    assert w("X1 * X1^-1").is_identity()
    assert concat(w("X1"), w("X1^-1")).is_identity()
    assert str(w("X1^2 * X1^-1")) == "X1"


def test_constants_multiply_in_group():
    a, b = 1, 2
    prod = S3.mul[a][b]
    word = concat(CTX.constant(a), CTX.constant(b))
    assert word.is_constant()
    if prod == S3.id:
        assert word.is_identity()
    else:
        assert str(word) == f"g{prod}"


def test_power_and_conjugate_and_commutator():
    x = w("X1")
    assert power(x, 3).length() == 3
    assert power(x, 0).is_identity()
    c = conjugate(x, w("X2"))
    assert str(c) == "X1 * X2 * X1^-1"
    k = commutator(x, w("X2"))
    assert str(k) == "X1 * X2 * X1^-1 * X2^-1"
    assert commutator(x, x).is_identity()


def test_evaluate_known():
    # X1^2 at a transposition is the identity, at a 3-cycle it is not
    word = w("X1^2")
    hom = Homomorphism.identity(S3)
    transposition = next(x for x in range(6) if x != 0 and S3.mul[x][x] == 0)
    three_cycle = next(x for x in range(6) if S3.mul[x][x] != 0)
    assert evaluate(word, hom, [transposition, 0]) == 0
    assert evaluate(word, hom, [three_cycle, 0]) != 0


def test_enumerate_words_order_and_uniqueness():
    ctx = WordContext(cyclic(2), 1)
    words = list(enumerate_words(ctx, 3))
    lengths = [x.length() for x in words]
    assert lengths == sorted(lengths)
    assert len({x.syllables for x in words}) == len(words)
    assert not any(x.is_identity() for x in words)


def test_enumerate_words_count_frozen():
    # words of length 1..2 over one variable and one nontrivial constant:
    # g, X, X^-1, gX, gX^-1, Xg, X^-1g, X^2, X^-2
    ctx = WordContext(cyclic(2), 1)
    assert len(list(enumerate_words(ctx, 2))) == 9


def test_witness_found_for_z2():
    # the order-two coefficient group admits a zero divisor: the word
    # gXgX^-1 commutes spanwise with itself
    ctx = WordContext(cyclic(2), 1)
    x = parse_word(ctx, "g1 * X1 * g1 * X1^-1")
    res = bounded_divisor_witness(ctx, x, "t1", 4)
    assert res is not None
    y, cert = res
    assert str(y) == "g1 * X1 * g1 * X1^-1"
    assert cert["variant"] == "t1"
    assert cert["checked_pairs"] == 4


def test_no_witness_for_s3_short_words():
    ctx = WordContext(S3, 1)
    assert bounded_divisor_witness(ctx, parse_word(ctx, "X1"), "t1", 3) is None


def test_t2_witness_on_coprime_constants():
    ctx = WordContext(cyclic(6), 1)
    res = bounded_divisor_witness(ctx, parse_word(ctx, "g2"), "t2", 1)
    assert res is not None
    y, cert = res
    assert str(y) == "g3"
    assert cert["x_order"] == 3 and cert["y_order"] == 2


X_NOT_CYCLIC = "span of x not recognized cyclic; bounded T2 search unsupported"


def test_t2_inconclusive_on_unrecognized_span():
    # the span of a bare variable is not cyclic, so the bounded T2 search
    # refuses rather than guessing; benchmarks/child.py parses both messages
    ctx = WordContext(cyclic(2), 1)
    with pytest.raises(InconclusiveError) as err:
        bounded_divisor_witness(ctx, parse_word(ctx, "X1"), "t2", 2)
    assert str(err.value) == X_NOT_CYCLIC
    # a 3-cycle spans a cyclic group, but the first candidate g1 is a
    # transposition, whose conjugates span all of S3
    ctx = WordContext(S3, 1)
    three_cycle = next(g for g in range(S3.order) if S3.element_order(g) == 3)
    assert S3.element_order(1) == 2
    with pytest.raises(InconclusiveError) as err:
        bounded_divisor_witness(ctx, ctx.constant(three_cycle), "t2", 5)
    assert str(err.value) == (
        "span of candidate g1 not recognized cyclic; canonical-first witness cannot be certified"
    )


def test_witness_rejects_identity_word():
    ctx = WordContext(cyclic(2), 1)
    with pytest.raises(WordError):
        bounded_divisor_witness(ctx, ctx.identity(), "t1", 3)


@st.composite
def raw_words(draw):
    n = draw(st.integers(0, 8))
    out = []
    for _ in range(n):
        if draw(st.booleans()):
            out.append(("c", draw(st.integers(1, 5))))
        else:
            out.append(("x", draw(st.integers(1, 2)), draw(st.integers(-3, 3))))
    return out


def _to_word(raw):
    word = CTX.identity()
    for s in raw:
        if s[0] == "c":
            word = concat(word, CTX.constant(s[1]))
        elif s[2] != 0:
            word = concat(word, CTX.letter(s[1], s[2]))
    return word


@given(raw_words(), raw_words())
@settings(max_examples=100, deadline=None)
def test_concat_associative_and_inverse(a_raw, b_raw):
    a, b = _to_word(a_raw), _to_word(b_raw)
    assert concat(a, inverse(a)).is_identity()
    assert inverse(inverse(a)).syllables == a.syllables
    assert inverse(concat(a, b)).syllables == concat(inverse(b), inverse(a)).syllables


@given(raw_words(), raw_words(), st.lists(st.integers(0, 5), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_evaluate_is_homomorphic(a_raw, b_raw, assignment):
    a, b = _to_word(a_raw), _to_word(b_raw)
    hom = Homomorphism.identity(S3)
    va, vb = evaluate(a, hom, assignment), evaluate(b, hom, assignment)
    assert evaluate(concat(a, b), hom, assignment) == S3.mul[va][vb]
    assert evaluate(inverse(a), hom, assignment) == S3.inv[va]


def _reduced(raw):
    return reduce_syllables(CTX, [("g", s[1]) if s[0] == "c" else s for s in raw])


@given(raw_words(), raw_words())
@settings(max_examples=200, deadline=None)
def test_concat_matches_full_reduction(a_raw, b_raw):
    a, b = _reduced(a_raw), _reduced(b_raw)
    assert concat(a, b).syllables == reduce_syllables(CTX, a.syllables + b.syllables).syllables


def _spans_commute_pairwise(x, y):
    """Every conjugate of x commutes with every conjugate of y."""
    return all(
        commutator(a, b).is_identity()
        for a in naive_span_generators(x)
        for b in naive_span_generators(y)
    )


@given(raw_words(), raw_words())
@settings(max_examples=200, deadline=None)
def test_one_orbit_test_is_the_all_pairs_commutator_test(x_raw, y_raw):
    x, y = _reduced(x_raw), _reduced(y_raw)
    # random words seldom commute, so also try powers of x
    for z in (y, power(x, 2), inverse(x)):
        assert _commutes_with_orbit(S3, x.syllables, z.syllables) == _spans_commute_pairwise(x, z)


@pytest.mark.parametrize("make", [lambda: S3, quaternion8], ids=["S3", "Q8"])
def test_one_orbit_test_on_every_pair_sharing_a_key(make):
    # words with different keys never commute, so these are all the pairs
    # whose spans can commute
    ctx = WordContext(make(), 1)
    buckets = {}
    for x in enumerate_words(ctx, 4):
        buckets.setdefault(_commute_key(x), []).append(x)
    hits = 0
    for words in buckets.values():
        for x in words:
            for y in words:
                got = _commutes_with_orbit(ctx.group, x.syllables, y.syllables)
                assert got == _spans_commute_pairwise(x, y), (str(x), str(y))
                hits += got
    assert hits


# Every word of length <= 5 in one variable and <= 3 in two, and the empty word.
@pytest.mark.parametrize("variables,top", [(1, 5), (2, 3)])
@pytest.mark.parametrize(
    "make",
    [lambda: cyclic(1), lambda: cyclic(2), lambda: cyclic(3), lambda: cyclic(4), lambda: S3, quaternion8],
    ids=["Z1", "Z2", "Z3", "Z4", "S3", "Q8"],
)
def test_conjugates_match_two_join_oracle(make, variables, top):
    ctx = WordContext(make(), variables)
    G = ctx.group
    for x in [ctx.identity(), *enumerate_words(ctx, top)]:
        s = x.syllables
        got = list(_conjugates(G, s))
        assert got == list(naive_conjugates(G, s)), str(x)
        if len(s) > 1 and s[0][0] == "g":
            # g = a^-1 cancels the coefficient a on the left
            assert got[G.inverse(s[0][1])][0] == s[1], str(x)
        if len(s) > 1 and s[-1][0] == "g":
            # g = b cancels the coefficient b on the right
            assert got[s[-1][1]][-1] == s[-2], str(x)


def test_span_generators_of_the_identity():
    assert span_generators(CTX.identity()) == [CTX.identity()]


@pytest.mark.parametrize("make", [lambda: S3, quaternion8], ids=["S3", "Q8"])
@pytest.mark.parametrize("variables", [1, 2])
def test_span_generators_match_oracle(make, variables):
    for x in enumerate_words(WordContext(make(), variables), 4):
        assert span_generators(x) == naive_span_generators(x), str(x)


@pytest.mark.parametrize(
    "make,variables,max_len",
    [(lambda: S3, 1, 4), (quaternion8, 1, 4), (lambda: cyclic(2), 2, 3), (lambda: S3, 2, 3)],
    ids=["S3-1-4", "Q8-1-4", "Z2-2-3", "S3-2-3"],
)
def test_commuting_words_share_a_key(make, variables, max_len):
    G = make()
    words = list(enumerate_words(WordContext(G, variables), max_len))
    keys = [_commute_key(x) for x in words]
    for i, x in enumerate(words):
        # torsion orders divide |G|, so powers up to |G| decide the order
        trivial = [power(x, k).is_identity() for k in range(1, G.order + 1)]
        order = trivial.index(True) + 1 if any(trivial) else None
        assert _word_order(x) == order, str(x)
        assert (order is None) == (keys[i][0] == "i"), str(x)
        for j in range(i + 1, len(words)):
            y = words[j]
            if concat(x, y).syllables == concat(y, x).syllables:
                assert keys[i] == keys[j], (str(x), str(y))
            elif keys[i][0] == "i":
                # an infinite-order word is keyed by its root, so the key is exact
                assert keys[i] != keys[j], (str(x), str(y))


# Every key of the words up to `extra` longer than the bound, at every bound
# up to `top`; S3 and Q8 in two variables take keys from words one longer
# only, which keeps each case within a few seconds.
@pytest.mark.parametrize(
    "make,variables,top,extra",
    [(lambda: cyclic(2), 1, 5, 2), (lambda: cyclic(3), 1, 5, 2), (lambda: cyclic(4), 1, 5, 2),
     (lambda: S3, 1, 5, 2), (quaternion8, 1, 5, 2),
     (lambda: cyclic(2), 2, 4, 2), (lambda: cyclic(3), 2, 4, 2), (lambda: cyclic(4), 2, 4, 2),
     (lambda: S3, 2, 4, 1), (quaternion8, 2, 4, 1)],
    ids=["Z2-1", "Z3-1", "Z4-1", "S3-1", "Q8-1", "Z2-2", "Z3-2", "Z4-2", "S3-2", "Q8-2"],
)
def test_commute_bucket_matches_full_index(make, variables, top, extra):
    ctx = WordContext(make(), variables)
    keys = {_commute_key(x) for x in enumerate_words(ctx, top + extra)}
    for max_len in range(1, top + 1):
        for key in keys:
            got = [y.syllables for y in _commute_bucket(ctx, key, max_len)]
            assert got == [y.syllables for y in naive_commute_bucket(ctx, key, max_len)], (key, max_len)


@pytest.mark.parametrize("make", [lambda: S3, quaternion8], ids=["S3", "Q8"])
def test_t1_search_never_enumerates(make, monkeypatch):
    # the words of length <= 12 would be millions; t1 reads one bucket
    ctx = WordContext(make(), 1)
    xs = list(enumerate_words(ctx, 3))
    misses = _words_upto.cache_info().misses

    def refuse(*args):
        raise AssertionError("t1 search enumerated words")

    monkeypatch.setattr(freeprod, "enumerate_words", refuse)
    start = time.perf_counter()
    for x in xs:
        bounded_divisor_witness(ctx, x, "t1", 12)
    assert _words_upto.cache_info().misses == misses
    assert time.perf_counter() - start < 2.0


def _outcome(search, ctx, x, variant, max_len):
    try:
        hit = search(ctx, x, variant, max_len)
    except InconclusiveError as e:
        return "inconclusive", str(e)
    return None if hit is None else (hit[0].syllables, hit[1])


@pytest.mark.parametrize("variant", ["t1", "t2"])
def test_bounded_search_matches_full_scan(variant):
    rng = random.Random(0)
    cases = []
    for G, max_len in ((cyclic(2), 4), (cyclic(3), 5), (cyclic(6), 2)):
        ctx = WordContext(G, 1)
        cases += [(ctx, x, max_len) for x in enumerate_words(ctx, max_len)]
    for G in (S3, quaternion8()):
        ctx = WordContext(G, 1)
        words = list(enumerate_words(ctx, 4))
        short = [x for x in words if x.length() <= 2]
        sample = short + rng.sample(words[len(short):], 30)
        cases += [(ctx, x, 4) for x in sample]
    for ctx, x, max_len in cases:
        assert _outcome(bounded_divisor_witness, ctx, x, variant, max_len) == _outcome(
            naive_divisor_witness, ctx, x, variant, max_len
        ), str(x)


# Every word of length <= 5 over Z2, Z3, Z4, S3 and Q8 in one variable
# (6,148 words), and of length <= 3 over Z2 and S3 in two variables, searched
# at max_len 5.  Over a nontrivial group the candidate X1 ends every search
# that gets past the constants, so only the trivial group, where words are
# free, reaches two infinite roots.
@pytest.mark.parametrize(
    "make,variables,top",
    [(lambda: cyclic(2), 1, 5), (lambda: cyclic(3), 1, 5), (lambda: cyclic(4), 1, 5),
     (lambda: S3, 1, 5), (quaternion8, 1, 5), (lambda: cyclic(2), 2, 3), (lambda: S3, 2, 3),
     (lambda: cyclic(1), 1, 5), (lambda: cyclic(1), 2, 3)],
    ids=["Z2-1", "Z3-1", "Z4-1", "S3-1", "Q8-1", "Z2-2", "S3-2", "Z1-1", "Z1-2"],
)
def test_t2_search_matches_oracle_exhaustively(make, variables, top):
    ctx = WordContext(make(), variables)
    for x in enumerate_words(ctx, top):
        assert _recognize_cyclic(x) == naive_recognize_cyclic(naive_span_generators(x)), str(x)
        assert _outcome(bounded_divisor_witness, ctx, x, "t2", 5) == _outcome(
            naive_divisor_witness, ctx, x, "t2", 5
        ), str(x)


@pytest.mark.parametrize("make", [lambda: S3, quaternion8], ids=["S3", "Q8"])
def test_t2_rejects_before_building_spans(make, monkeypatch):
    # a conjugate that does not commute with x rejects x before any span
    # or root is built
    ctx = WordContext(make(), 1)
    rejected = [
        x
        for x in enumerate_words(ctx, 4)
        if not all(commutator(c, x).is_identity() for c in naive_span_generators(x))
    ]
    assert rejected

    def refuse(*args):
        raise AssertionError("t2 search built a span or a root")

    monkeypatch.setattr(freeprod, "span_generators", refuse)
    monkeypatch.setattr(freeprod, "_word_order", refuse)
    for x in rejected:
        with pytest.raises(InconclusiveError) as err:
            bounded_divisor_witness(ctx, x, "t2", 5)
        assert str(err.value) == X_NOT_CYCLIC, str(x)
