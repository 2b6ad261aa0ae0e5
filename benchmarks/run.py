"""groupspec benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {audit-large,audit-small,schemes,words} \
        --seed N --seconds S --trace {0,1}

A run generates the workload's input from the seed, then measures a fixed
number of whole passes, and more while S seconds last.  Each pass is a
fresh single-threaded Python process (benchmarks/child.py) that imports
groupspec, parses the input and runs every job back to back, one client in a
closed loop.  There is no warm-up pass: every ``groupspec`` command also
starts with cold module-level caches.

``--trace 0`` builds every end-to-end timing from each job's fastest time
over the first passes of the run, a fixed number per workload.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the median traced pass.  See benchmarks/README.md, also for why
``audit-large`` is run by hand and is not in BENCHMARK.json.

Every job's output is checked: against the digests in
benchmarks/expected.json where the seed has them, against the other passes
of the run, and, for ``schemes``, every spectrum against the brute-force
oracle of tests/oracles.py outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("audit-large", "audit-small", "schemes", "words")
JOB_LIMIT_S = {"audit-large": 60.0, "audit-small": 20.0, "schemes": 20.0, "words": 1.0}
# Passes an untraced run times.  The estimator takes each job's fastest time
# over them, so their number is fixed: a minimum over more passes would be
# lower, and a faster commit, which fits more passes into --seconds, would
# gain from that alone.  At this commit they take about 30-35 of the 36 s
# of BENCHMARK.json on a 2-vCPU Xeon.
TIMED_PASSES = {"audit-large": 1, "audit-small": 36, "schemes": 16, "words": 18}
# Runs of the workloads in BENCHMARK.json end within 180 s.  A traced
# audit-large run, which is run by hand, needs two passes of over a minute.
RUN_LIMIT_S = {"audit-large": 900.0}
RUN_LIMIT_DEFAULT_S = 170.0
SETUP_SAMPLES = 10
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
OUT_DIR = os.path.join(".bench_build", "groupspec-bench")

TABLE_BUILDERS = ("cyclic", "symmetric", "alternating", "dihedral", "quaternion8",
                  "direct_product", "from_permutations", "parse_cayley_text", "parse_perm_text")


class PassFailed(RuntimeError):
    pass


# -- running passes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(request: dict, timeout: float, cpu: int | None = None) -> dict:
    """Run one child process, pinned to ``cpu`` when given; its set-up time
    is measured from the spawn."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), text=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out)
    report["setup_s"] = report["ready"] - started
    return report


def run_passes(args, text: str, deadline: float) -> tuple[list, list, list, list]:
    """Measured passes (untraced, traced) and extra set-up samples.

    An untraced run takes TIMED_PASSES passes, and more while --seconds
    last; the extra passes are checked and give set-up and memory samples.
    A traced run alternates untraced and traced passes until --seconds have
    gone, with at least one of each.
    """
    untraced, traced, errors = [], [], []
    timed = TIMED_PASSES[args.workload]
    # Passes take the run's CPUs in turn.  On a shared 2-vCPU machine the
    # two vCPUs have their slow phases at different times, so each job's
    # fastest time more often comes from a fast phase.
    cpus = sorted(os.sched_getaffinity(0))
    begin = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        is_traced = bool(args.trace) and index % 2 == 1
        request = {
            "workload": args.workload, "input": text, "trace": is_traced,
            "setup_only": False, "job_limit_s": JOB_LIMIT_S[args.workload],
            "oracle": index == 0 and args.workload == "schemes",
            "trace_out": os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pass{index}.jsonl"
            ) if is_traced else None,
        }
        t0 = time.monotonic()
        try:
            report = spawn(request, deadline - t0, cpus[index % len(cpus)])
        except PassFailed as e:
            errors.append(str(e))
            break
        # the oracle check runs after the timed region; it is not a pass cost
        longest = max(longest, time.monotonic() - t0 - report.get("oracle_s", 0.0))
        (traced if is_traced else untraced).append(report)
        index += 1
        now = time.monotonic()
        if (traced if args.trace else index >= timed) and (
                now - begin + longest > args.seconds or now + longest > deadline):
            break
    setups = [r["setup_s"] for r in untraced]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 5 < deadline:
            request = {"workload": args.workload, "input": text, "trace": False,
                       "setup_only": True, "job_limit_s": 0, "oracle": False}
            try:
                cpu = cpus[len(setups) % len(cpus)]
                setups.append(spawn(request, deadline - time.monotonic(), cpu)["setup_s"])
            except PassFailed as e:
                errors.append(str(e))
                break
    return untraced, traced, setups, errors


# -- output checks ----------------------------------------------------------------


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_outputs(expected: dict, workload: str, seed: int, jobs: list):
    """Expected output per job, or None where this seed has no record."""
    if workload in workloads.AUDITS:
        table = expected[workload]["suites"]
        return [table.get(label) for _, label, *_ in jobs]
    if workload == "words":
        strata = expected["words"]["strata"]
        pools = {}
        out = []
        for _, label, *_ in jobs:
            group, variant, max_len, word = label.split(" ", 3)
            stratum = strata.get(f"{group} {variant} {max_len}")
            if stratum is None or word not in pools.setdefault(
                    (group, int(max_len)), set(workloads.word_pool(group, int(max_len)))):
                out.append(None)
            else:
                out.append(stratum["other"].get(word, stratum["usual"]))
        return out
    per_seed = expected["schemes"]["seeds"].get(str(seed), "").split(",")
    return per_seed if len(per_seed) == len(jobs) else [None] * len(jobs)


def check_passes(passes: list, expected: list, text: str) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every job of every pass."""
    attempted = failed = 0
    messages = []
    reference = passes[0]["jobs"] if passes else []
    oracle_bad = set()
    for report in passes:
        for desc in report.get("oracle_mismatches", []):
            name = desc.split()[1]
            oracle_bad.update(
                str(i) for i, line in enumerate(text.splitlines(), start=1)
                if line.startswith("spec ") and line.endswith(f" as {name}")
            )
            messages.append(desc)
    for report in passes:
        for i, (kind, label, _, out, error) in enumerate(report["jobs"]):
            attempted += 1
            problem = error
            if problem is None and expected[i] is not None and out != expected[i]:
                problem = f"output {out} differs from the recorded {expected[i]}"
            if problem is None and out != reference[i][3]:
                problem = "output differs between passes of one run"
            if problem is None and report is passes[0] and label in oracle_bad:
                problem = "spectrum differs from the brute-force oracle"
            if problem is not None:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"job {kind} {label}: {problem}")
    return attempted, failed, messages


# -- metrics --------------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median_pass(passes: list) -> dict:
    ordered = sorted(passes, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(passes: list, setups: list, timed: int) -> tuple[dict, dict]:
    """Metric values and, for the summary, how each was taken.

    Every pass runs the same jobs.  The machines this runs on are shared and
    their speed drifts by up to 2x over tens of seconds; interference only
    ever slows a job down.  So each job's time is its fastest over the first
    ``timed`` passes, a number fixed per workload, and the pass-level metrics
    are built from those job times: ``wall_s`` is their sum, the pass time
    with no job slowed by others.
    """
    n_jobs = len(passes[0]["jobs"])
    p = tail_rank(n_jobs)
    fastest = [min(r["jobs"][i][2] for r in passes[:timed]) for i in range(n_jobs)]
    values = {
        "wall_s": sum(fastest),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "job_p50_s": statistics.median(fastest),
        "job_tail_s": percentile(fastest, p),
    }
    per_job = f"each job's fastest of the first {timed} passes"
    how = {
        "wall_s": f"sum over {n_jobs} jobs of {per_job}",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "job_p50_s": f"p50 over {n_jobs} jobs of {per_job}",
        "job_tail_s": f"p{p} over {n_jobs} jobs of {per_job}",
    }
    return values, how


def per_layer(workload: str, untraced: list, traced: list) -> dict:
    """Per-layer metrics of the median traced pass, per-job walls of the
    median untraced pass."""
    t = median_pass(traced)
    u = median_pass(untraced)
    tr = t["trace"]
    stats = tr["stats"]
    counters = tr["counters"]

    def stat(name, field):
        return stats.get(name, [0, 0.0, 0.0])[field]

    layer_self = {}
    for name, (_, self_s, _) in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    caches = t["caches"]

    def hit_ratio(name):
        c = caches[name]
        return c["hits"] / (c["hits"] + c["misses"]) if c["hits"] + c["misses"] else 0.0

    tried = counters.get("sheaf.sections_tried", 0)
    accepted = counters.get("sheaf.sections_accepted", 0)
    m = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "fingroup.is_normal.calls": stat("fingroup.is_normal", 0),
        "fingroup.is_normal.self_s": stat("fingroup.is_normal", 1),
        "fingroup.normal_subgroups.self_s": stat("fingroup.normal_subgroups", 1),
        "fingroup.generated_subgroup.calls": stat("fingroup.generated_subgroup", 0),
        "fingroup.generated_subgroup.self_s": stat("fingroup.generated_subgroup", 1),
        "fingroup.table_build.self_s": sum(stat(f"fingroup.{b}", 1) for b in TABLE_BUILDERS),
        "fingroup.quotient.hit_ratio": hit_ratio("fingroup.quotient"),
        "fingroup.commutator_subgroup.hit_ratio": hit_ratio("fingroup.commutator_subgroup"),
        "gobject.g_span.calls": stat("gobject.g_span", 0),
        "gobject.enumerate_g_morphisms.self_s": stat("gobject.enumerate_g_morphisms", 1),
        "spectrum.is_prime.calls": stat("spectrum.is_prime", 0),
        "spectrum.vanishing_set.calls": stat("spectrum.vanishing_set", 0),
        "spectrum.minimal_open.calls": stat("spectrum.minimal_open", 0),
        "sheaf.section_group.calls": stat("sheaf.section_group", 0),
        "sheaf.section_group.self_s": stat("sheaf.section_group", 1),
        "sheaf.sections_tried": tried,
        "sheaf.sections_accepted": accepted,
        "sheaf.section_accept_ratio": accepted / tried if tried else 0.0,
        "sheaf.as_ggroup.self_s": stat("sheaf.as_ggroup", 1),
        "sheaf.as_ggroup.products": counters.get("sheaf.as_ggroup.products", 0),
        "sheaf.stalk.self_s": stat("sheaf.stalk", 1),
        "sheaf.glue.self_s": stat("sheaf.glue", 1),
        "sheaf.morphism_verify.self_s": stat("sheaf.verify", 1),
        "freeprod.searches": counters.get("freeprod.searches", 0),
        "freeprod.candidates_scanned": counters.get("freeprod.candidates_scanned", 0),
        "freeprod.concat.calls": stat("freeprod.concat", 0),
        "freeprod.inconclusive": counters.get("freeprod.inconclusive", 0),
        "variety.coordinate_group.calls": stat("variety.coordinate_group", 0),
        "export.bytes": counters.get("export.bytes", 0),
        "dsl.parse_s": tr["parse_s"],
        "trace.wall_s": t["wall_s"],
        "trace.overhead_s": t["wall_s"] - statistics.median(r["wall_s"] for r in untraced),
        "trace.unattributed_s": t["wall_s"] - tr["top_s"],
    })
    suite_walls = {j[1]: j[2] for j in u["jobs"]} if workload in workloads.AUDITS else {}
    for suite in SUITE_WALL_NAMES:
        m[f"checks.{suite}.wall_s"] = suite_walls.get(suite, 0)
    for suite, seconds in suite_walls.items():
        m[f"checks.{suite}.wall_s"] = seconds
    for kind in DSL_KINDS:
        m[f"dsl.{kind}.wall_s"] = sum(j[2] for j in u["jobs"] if workload == "schemes" and j[0] == kind)
    for name, c in caches.items():
        for field in ("hits", "misses", "size"):
            m[f"cache.{name}.{field}"] = c[field]
    return m


# Statement kinds of the schemes program; fixed so that every workload
# reports the same metric names.
DSL_KINDS = ("group", "ggroup", "spec", "sections", "stalk", "morphism", "glue", "export")
DSL_WALLS = {f"dsl.{kind}.wall_s" for kind in DSL_KINDS}
# Suites of audit-small; every workload reports their wall times, 0 where
# they are not run, so that every workload has the same metric names.
SUITE_WALL_NAMES = (
    "cor2.2", "cor4.1", "cor5.1", "prop2.1", "prop2.2", "prop2.3", "prop2.4", "prop2.5",
    "prop2.6", "prop3.1", "prop3.2", "prop3.3", "prop3.4", "prop3.5", "prop4.1", "prop5.1",
    "prop5.2", "sheaf-axioms", "t1-defs-agree", "t2-defs-diverge", "thm4.1", "thm5.2",
)

UNITS = {"_s": "s", ".calls": "count", "_ratio": "ratio", ".hit_ratio": "ratio", "_mb": "MB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name == "export.bytes":
        return "bytes"
    return "count"


# -- run record -------------------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S.get(args.workload, RUN_LIMIT_DEFAULT_S)

    if not os.path.isfile(os.path.join("src", "groupspec", "__init__.py")):
        print("error: run from the root of a groupspec checkout (src/groupspec is missing)",
              file=sys.stderr)
        return 2
    expected = load_expected()
    text = workloads.make_input(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "loadavg_before": read_text("/proc/loadavg").strip(),
        "thread_env": THREAD_ENV, "python_hash_seed": "0",
    }
    untraced, traced, setups, errors = run_passes(args, text, deadline)
    record["loadavg_after"] = read_text("/proc/loadavg").strip()

    passes = untraced + traced
    if len(untraced) < (1 if args.trace else TIMED_PASSES[args.workload]) or (args.trace and not traced):
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    record["python"] = untraced[0]["python"]
    record["numpy"] = untraced[0]["numpy"]
    exp = expected_outputs(expected, args.workload, args.seed, untraced[0]["jobs"])
    attempted, failed, messages = check_passes(passes, exp, text)
    record.update({"pass_wall_s": [r["wall_s"] for r in untraced],
                   "traced_pass_wall_s": [r["wall_s"] for r in traced],
                   "setup_samples_s": setups,
                   "passes_untraced": len(untraced), "passes_traced": len(traced),
                   "expected_outputs_recorded": any(e is not None for e in exp),
                   "problems": errors + messages})
    for r in traced:
        record.setdefault("spans_recorded", []).append(r["trace"]["spans"])
        record.setdefault("spans_dropped", []).append(r["trace"]["spans_dropped"])

    if args.trace:
        metrics = per_layer(args.workload, untraced, traced)
        how = {name: "median untraced pass"
               if name in DSL_WALLS or (name.startswith("checks.") and name.endswith(".wall_s"))
               else "median traced pass" for name in metrics}
    else:
        metrics, how = end_to_end(untraced, setups, TIMED_PASSES[args.workload])
        record["timed_passes"] = TIMED_PASSES[args.workload]
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"groupspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:44} {value:>16.6f} {unit_of(name):6} ({how[name]})")
    print(f"  {'error_rate':44} {failed / attempted:>16.6f} {'ratio':6} "
          f"({failed} failed of {attempted} jobs)")
    for message in errors + messages:
        print(f"  problem: {message}")
    print("run record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"},
                                      sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
