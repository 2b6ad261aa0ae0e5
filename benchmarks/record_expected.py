"""Record the expected job outputs in benchmarks/expected.json.

Run from the root of a checkout, on the commit whose outputs are the
reference (outputs must stay byte-identical across later commits):

    python3 benchmarks/record_expected.py

It records the digest of every audit suite's JSON records, the outcome of
every possible words job (the word pools are finite, so every seed is
covered), and the per-statement transcript digests of the schemes program
for seeds 0..31 (one comma-separated string per seed), which include the
default and the held-out seed.  Words outcomes are stored per stratum
``<group> <variant> <max_len>`` as the usual outcome plus the words whose
outcome differs from it.  It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))

DEFAULT_SEED = 1
HELD_OUT_SEED = 29
SCHEMES_SEEDS = range(32)


def one_pass(workload: str, text: str, oracle: bool = False) -> dict:
    request = {"workload": workload, "input": text, "trace": False, "setup_only": False,
               "job_limit_s": run.JOB_LIMIT_S[workload], "oracle": oracle}
    report = run.spawn(request, 600)
    bad = [j for j in report["jobs"] if j[4] is not None] + report.get("oracle_mismatches", [])
    if bad:
        raise SystemExit(f"{workload}: failing jobs, nothing recorded: {bad[:5]}")
    return report


def check_pools(strata) -> None:
    """The word pools are the non-constant words of enumerate_words."""
    from groupspec.fingroup import cyclic, quaternion8, symmetric
    from groupspec.freeprod import WordContext, enumerate_words

    makers = {"Z2": lambda: cyclic(2), "Z3": lambda: cyclic(3), "Z4": lambda: cyclic(4),
              "S3": lambda: symmetric(3), "Q8": quaternion8}
    for group, _, max_len in strata:
        ctx = WordContext(makers[group](), 1)
        want = sorted(str(w) for w in enumerate_words(ctx, max_len) if not w.is_constant())
        if workloads.word_pool(group, max_len) != want:
            raise SystemExit(f"word pool of {group} up to length {max_len} differs "
                             "from freeprod.enumerate_words")


def record_words() -> dict:
    strata = sorted({tuple(line.split(" ", 3)[:3]) for seed in (0, DEFAULT_SEED, HELD_OUT_SEED)
                     for line in workloads.words_input(seed).splitlines()})
    strata = [(g, v, int(n)) for g, v, n in strata]
    check_pools(strata)
    out = {}
    for group, variant, max_len in strata:
        pool = workloads.word_pool(group, max_len)
        text = "".join(f"{group} {variant} {max_len} {w}\n" for w in pool)
        outcomes = [j[3] for j in one_pass("words", text)["jobs"]]
        usual = max(set(outcomes), key=outcomes.count)
        out[f"{group} {variant} {max_len}"] = {
            "pool_size": len(pool),
            "usual": usual,
            "other": {w: o for w, o in zip(pool, outcomes) if o != usual},
        }
        print(f"words {group} {variant} {max_len}: {len(pool)} words", file=sys.stderr)
    return out


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    audits = {w: one_pass(w, "") for w in workloads.AUDITS}
    words = record_words()
    schemes = {}
    for seed in SCHEMES_SEEDS:
        report = one_pass("schemes", workloads.schemes_input(seed), oracle=True)
        schemes[str(seed)] = ",".join(j[3] for j in report["jobs"])
        print(f"schemes seed {seed}: {len(report['jobs'])} statements, "
              f"{report['oracle_checked']} spectra checked by the oracle", file=sys.stderr)
    expected = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        **{w: {"suites": {j[1]: j[3] for j in r["jobs"]}} for w, r in audits.items()},
        "words": {"strata": words},
        "schemes": {"seeds": schemes},
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
