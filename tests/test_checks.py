import pytest

from groupspec.checks import SUITES, report_lines, run_suite, worst_status


def test_registry_contents():
    assert len(SUITES) == 24
    assert "prop2.1" in SUITES and "t2-defs-diverge" in SUITES


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("prop9.9")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_records_are_well_formed(suite):
    recs = run_suite(suite, "small")
    assert recs
    for r in recs:
        assert set(r) == {"suite", "instance", "status", "detail", "repro"}
        assert r["status"] in ("pass", "fail", "finding", "skip")
        if suite == "sheaf-axioms":
            assert r["suite"] == "prop4.1"  # until ROADMAP item 5 relabels it
        else:
            assert r["suite"] == suite
        assert r["repro"] == f"groupspec check {r['suite']} --catalog small"
    assert worst_status(recs) == ("finding" if suite == "t2-defs-diverge" else "pass")
    lines = report_lines(recs)
    assert len(lines) == len(recs)
    assert all(line.startswith("[") for line in lines)


def test_worst_status_ordering():
    assert worst_status([{"status": "pass"}, {"status": "skip"}]) == "pass"
    assert worst_status([{"status": "pass"}, {"status": "finding"}]) == "finding"
    assert worst_status([{"status": "finding"}, {"status": "fail"}]) == "fail"
