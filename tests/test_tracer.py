"""The benchmark's outside-in tracer still fits the library: it installs
without leftover aliases, a traced program runs without TracerError, and
every function the benchmark hooks or reads cache counters from exists."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """\
group S4 = sym(4)
ggroup X = (S4 -> S4) via id
spec X --variant t2 as S
sections S whole
stalk S 0
morphism (X -> X) via id --variant t2 as M
glue S whole S whole as D
sections D whole
export D --format json
export S --format dot
check prop5.1
"""

SCRIPT = """\
import json, sys
sys.path.insert(0, "benchmarks")
import groupspec
from groupspec import checks, dsl, export, sheaf, variety
import child, tracer

t = tracer.Tracer()
hooks = child.make_hooks()
t.install(groupspec, hooks)
t.active = True
dsl.run_program(sys.stdin.read())
t.active = False
missing = []
for name in hooks:
    layer, *path = name.split(".")
    obj = sys.modules["groupspec." + layer]
    for part in path:
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(name)
caches = child.cache_counters(t)
calls = {k: v[0] for k, v in t.stats.items()}
print(json.dumps({"missing": missing, "caches": caches, "calls": calls, "counters": t.counters}))
"""


def test_tracer_runs_a_program_and_finds_every_hooked_name():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], input=PROGRAM, cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "TracerError" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["caches"]["fingroup.quotient"]["misses"] > 0
    calls, counters = report["calls"], report["counters"]
    for name in ("sheaf.section_group", "sheaf.as_ggroup", "sheaf.verify", "sheaf.glue",
                 "sheaf.stalk", "export.spectrum_to_dot", "spectrum.minimal_open"):
        assert calls.get(name, 0) > 0, name
    assert counters["sheaf.sections_tried"] >= counters["sheaf.sections_accepted"] > 0
    assert counters["sheaf.as_ggroup.products"] > 0
