"""One measured pass of a workload, run as a fresh single-threaded process.

Reads a JSON request on stdin, imports groupspec, parses the workload input,
runs every job back to back and writes one JSON report on stdout.  The parent
(run.py) spawns one of these per pass, so each pass starts with cold
module-level caches, as every ``groupspec`` command does.

Set-up ends when the first job is ready; ``ready`` is reported on the
CLOCK_MONOTONIC time line that the parent also reads, so the parent can
count interpreter start-up into set-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- workload set-up: returns (jobs, context); a job is (kind, label, thunk) --


def setup_audit(workload, suites_all):
    import workloads
    from groupspec.checks import run_suites

    catalog = workloads.AUDITS[workload][0]

    def job(suite):
        def run():
            records = run_suites([suite], catalog)
            # byte for byte what `groupspec check <suite> --format json` prints
            return json.dumps(records, indent=2, sort_keys=True) + "\n"
        return run

    return [("suite", s, job(s)) for s in workloads.audit_suites(workload, suites_all)], None


def setup_schemes(text):
    from groupspec.dsl import Interpreter, Program, parse_program

    program = parse_program(text)
    interp = Interpreter()

    def job(st):
        def run():
            start = len(interp.outputs)
            interp.run(Program([st], program.source))
            return "\n".join(interp.outputs[start:])
        return run

    return [(st.kind, str(st.lineno), job(st)) for st in program.statements], interp


def setup_words(text):
    from groupspec.fingroup import cyclic, quaternion8, symmetric
    from groupspec.freeprod import InconclusiveError, WordContext, bounded_divisor_witness, parse_word

    makers = {"Z2": lambda: cyclic(2), "Z3": lambda: cyclic(3), "Z4": lambda: cyclic(4),
              "S3": lambda: symmetric(3), "Q8": quaternion8}
    contexts = {name: WordContext(make(), 1) for name, make in makers.items()}

    def job(ctx, x, variant, max_len):
        def run():
            try:
                hit = bounded_divisor_witness(ctx, x, variant, max_len)
            except InconclusiveError:
                return "inconclusive"
            return "none" if hit is None else f"witness {hit[0]}"
        return run

    jobs = []
    for line in text.splitlines():
        group, variant, max_len, literal = line.split(" ", 3)
        ctx = contexts[group]
        jobs.append((f"{group}.{variant}", line,
                     job(ctx, parse_word(ctx, literal), variant, int(max_len))))
    return jobs, None


# -- hooks for counters measured from outside ----------------------------------


def make_hooks():
    from groupspec import freeprod
    from tracer import TracerError

    sections_seen = {}
    tables_seen = {}
    word_positions = {}

    def section_group(tracer, args, kwargs, result, exc, boundary):
        scheme, U = args[0], frozenset(args[1] if len(args) > 1 else kwargs["U"])
        key = (id(scheme), U)
        if exc is not None or key in sections_seen:
            return
        sections_seen[key] = scheme  # pinned, so the id stays unique
        tried = 1
        for p in U:
            tried *= scheme.point_quotient(p).table.order
        tracer.count("sheaf.sections_tried", tried)
        tracer.count("sheaf.sections_accepted", len(result))

    def as_ggroup(tracer, args, kwargs, result, exc, boundary):
        group = args[0]
        if exc is None and id(group) not in tables_seen:
            tables_seen[id(group)] = group
            tracer.count("sheaf.as_ggroup.products", len(group) ** 2)

    def search(tracer, args, kwargs, result, exc, boundary):
        ctx = args[0] if args else kwargs["ctx"]
        max_len = args[3] if len(args) > 3 else kwargs["max_len"]
        tracer.count("freeprod.searches")
        key = (ctx, max_len)
        if key not in word_positions:
            enum = tracer.original(freeprod.enumerate_words)
            word_positions[key] = {str(w): i for i, w in enumerate(enum(ctx, max_len))}
        pos = word_positions[key]
        if exc is None:
            scanned = len(pos) if result is None else pos[str(result[0])] + 1
        elif isinstance(exc, freeprod.InconclusiveError):
            # the failing candidate is known only from the message; a message
            # of another form fails the traced pass rather than count 0
            tracer.count("freeprod.inconclusive")
            msg = str(exc)
            head, tail = "span of candidate ", " not recognized cyclic"
            if msg.startswith("span of x not recognized cyclic"):
                scanned = 0
            elif msg.startswith(head) and tail in msg and msg[len(head):].split(tail, 1)[0] in pos:
                scanned = pos[msg[len(head):].split(tail, 1)[0]] + 1
            else:
                raise TracerError(f"cannot read the candidate from InconclusiveError: {msg!r}")
        else:
            scanned = 0
        tracer.count("freeprod.candidates_scanned", scanned)

    def export_bytes(tracer, args, kwargs, result, exc, boundary):
        if boundary and isinstance(result, bytes):
            tracer.count("export.bytes", len(result))

    return {
        "sheaf.AffineScheme.section_group": section_group,
        "sheaf.SectionGroup.as_ggroup": as_ggroup,
        "freeprod.bounded_divisor_witness": search,
        "export.spectrum_to_json": export_bytes,
        "export.spectrum_to_dot": export_bytes,
        "export.to_json_bytes": export_bytes,
    }


# Module-level caches read from outside at the end of a pass.
CACHES = (
    ("fingroup", "quotient"),
    ("fingroup", "commutator_subgroup"),
    ("fingroup", "normal_subgroups"),
    ("checks", "_spec"),
    ("checks", "_scheme"),
    ("freeprod", "_words_upto"),
)


def cache_counters(tracer):
    out = {}
    for mod_name, attr in CACHES:
        fn = getattr(sys.modules[f"groupspec.{mod_name}"], attr)
        if tracer is not None:
            fn = tracer.original(fn)
        info = fn.cache_info()
        out[f"{mod_name}.{attr}"] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def oracle_check(interp):
    """Every elementwise spectrum the program built, and every t1 spectrum
    (the two prime definitions agree for t1), against the brute-force oracle
    in tests/oracles.py.  Returns a list of mismatch descriptions."""
    import importlib.util

    from groupspec.spectrum import Spectrum

    spec = importlib.util.spec_from_file_location(
        "groupspec_bench_oracles", os.path.join("tests", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    bad, checked = [], 0
    for name, value in interp.env.items():
        if not isinstance(value, Spectrum):
            continue
        if value.prime_def == "quotient" and value.variant == "t2":
            continue  # no independent oracle for quotient-defined T2 primes
        got = [frozenset(P.members.members) for P in value.primes]
        want = oracles.naive_spectrum(value.object.structure, value.variant)
        checked += 1
        if sorted(got, key=lambda s: (len(s), sorted(s))) != want:
            bad.append(f"spectrum {name} differs from naive_spectrum")
    return bad, checked


def main() -> int:
    request = json.load(sys.stdin)
    workload = request["workload"]
    sys.path.insert(0, HERE)
    import numpy

    import groupspec
    from groupspec import checks, dsl, export, sheaf, variety  # noqa: F401  (load every layer)

    from tracer import TracerError

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(groupspec, make_hooks())
        tracer.active = True

    text = request["input"]
    if workload.startswith("audit-"):
        jobs, interp = setup_audit(workload, checks.SUITES)
    elif workload == "schemes":
        jobs, interp = setup_schemes(text)
    else:
        jobs, interp = setup_words(text)
    parse_s = 0.0
    if tracer is not None:
        parse_s = tracer.stats.get("dsl.parse_program", [0, 0.0, 0.0])[2]
        tracer.reset()
    ready = time.monotonic()
    report = {"ready": ready, "python": sys.version.split()[0], "numpy": numpy.__version__}
    if request["setup_only"]:
        json.dump(report, sys.stdout)
        return 0

    limit = request["job_limit_s"]
    results = []
    clock = time.perf_counter
    first = clock()
    for i, (kind, label, run) in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        out = error = None
        try:
            out = run()
        except TracerError:
            raise  # the trace is incomplete: the traced pass fails
        except Exception as e:  # a failed job is reported, the pass goes on
            error = f"{type(e).__name__}: {e}"
        t1 = clock()
        if out is not None and workload != "words":
            out = digest(out)
        if error is None and t1 - t0 > limit:
            error = f"over the per-job limit of {limit} s"
        results.append([kind, label, t1 - t0, out, error])
    wall = clock() - first
    if tracer is not None:
        tracer.active = False

    report.update({
        "wall_s": wall,
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "caches": cache_counters(tracer),
    })
    if tracer is not None:
        report["trace"] = {
            "stats": tracer.stats,
            "counters": tracer.counters,
            "top_s": tracer.top_s,
            "parse_s": parse_s,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
        }
        if request.get("trace_out"):
            tracer.dump(request["trace_out"])
    if request["oracle"] and interp is not None:
        t = clock()
        report["oracle_mismatches"], report["oracle_checked"] = oracle_check(interp)
        report["oracle_s"] = clock() - t
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
