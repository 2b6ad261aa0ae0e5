"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks its content exactly, and
enforces a wall-clock budget.  A one-line verdict per criterion is printed
in the terminal summary.
"""

import time
from contextlib import contextmanager

from groupspec.catalog import groups
from groupspec.checks import run_suite, run_suites, worst_status
from groupspec.cli import main as cli_main
from groupspec.freeprod import WordContext, parse_word
from groupspec.gobject import identity_object
from groupspec.spectrum import spectrum
from groupspec.variety import variety_of

from conftest import record_criterion
from oracles import naive_spectrum


@contextmanager
def criterion(num: int, label: str, budget: float):
    state = {"ok": False}
    t0 = time.monotonic()
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.monotonic() - t0
        record_criterion(num, label, state["ok"] and elapsed < budget, elapsed, budget)
        if state["ok"]:
            assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def _all_pass(records):
    assert records, "empty audit report"
    bad = [r for r in records if r["status"] not in ("pass", "skip")]
    assert not bad, bad


def test_criterion_1_topology_algebra():
    with criterion(1, "closed-set algebra identities", 120):
        _all_pass(run_suites(["prop2.1", "prop2.2"], "large"))


def test_criterion_2_spectra_against_brute_force():
    with criterion(2, "frozen spectra vs naive definition scan", 60):
        g = groups()

        def sets(obj, variant):
            return [frozenset(P.members.members) for P in spectrum(obj, variant).primes]

        cases = {
            ("Z2", "t1"): [],
            ("Z2", "t2"): [frozenset({0})],
            ("S3", "t1"): [],
            ("A5", "t1"): [frozenset({0})],
            ("S5", "t2"): None,
            ("A5xA5", "t1"): None,
        }
        for (name, variant), expected in cases.items():
            obj = identity_object(g[name], name)
            got = sets(obj, variant)
            assert got == naive_spectrum(obj.structure, variant), (name, variant)
            if expected is not None:
                assert got == expected, (name, variant)
        s5 = spectrum(identity_object(g["S5"], "S5"), "t2")
        assert [len(P.members) for P in s5.primes] == [1, 60]
        assert s5.space.specialization_edges() == [(0, 1)]
        prod = spectrum(identity_object(g["A5xA5"], "A5xA5"), "t1")
        assert sorted(len(P.members) for P in prod.primes) == [60, 60]
        assert prod.space.specialization_edges() == []


def test_criterion_3_bounded_no_divisor_audit():
    with criterion(3, "bounded zero-divisor search", 300):
        records = run_suite("thm2.1-bounded", "small")
        _all_pass(records)
        # the order-two coefficient exception is certified, not just absent
        z2 = [r for r in records if r["instance"] == "Z2,witness"]
        assert z2 and z2[0]["status"] == "pass"


def test_criterion_4_spectrum_structure_props():
    with criterion(4, "covers, radicals, irreducibility", 60):
        _all_pass(run_suites(["prop2.4", "prop2.5", "prop2.6", "cor2.2"], "large"))


def test_criterion_5_sheaf_suite():
    with criterion(5, "sheaf axioms and section comparisons", 120):
        _all_pass(run_suites(["sheaf-axioms", "thm4.1", "cor4.1", "thm5.2"], "large"))


def test_criterion_6_morphism_suite():
    with criterion(6, "induced morphisms and embeddings", 60):
        _all_pass(run_suites(["prop5.2", "cor5.1"], "large"))


def test_criterion_7_hom_roundtrip():
    with criterion(7, "scheme-hom correspondence roundtrip", 60):
        _all_pass(run_suite("thm5.1", "small"))


def test_criterion_8_variety_suite():
    with criterion(8, "varieties, certificates, correspondences", 180):
        g = groups()
        A5 = g["A5"]
        w = parse_word(WordContext(A5, 1), "X1^2")
        assert len(variety_of(A5, 1, [w])) == 16
        _all_pass(run_suites(["prop3.1", "prop3.2", "prop3.3", "prop3.4", "prop3.5"], "small"))


def test_criterion_9_definition_audit_findings():
    with criterion(9, "prime-definition divergence findings", 60):
        agree = run_suite("t1-defs-agree", "large")
        _all_pass(agree)
        diverge = run_suite("t2-defs-diverge", "small")
        assert worst_status(diverge) == "finding"
        findings = [r for r in diverge if r["status"] == "finding"]
        assert len(findings) == 2
        instances = {r["instance"] for r in findings}
        assert instances == {"V4,I=<(1,1)>", "Z2,I=1"}
        # findings must not fail the CLI
        assert cli_main(["check", "t2-defs-diverge"]) == 0
