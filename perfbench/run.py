#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

It builds the benchmark program from the checkout's sources into
.bench_build/ (Go caches included, so nothing is written outside the
checkout), then runs the benchmark with the given arguments. The last line
of standard output is the JSON result. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

root = os.getcwd()
bench = os.path.dirname(os.path.abspath(__file__))
out = os.path.join(root, ".bench_build")
tmp = os.path.join(out, "tmp")
os.makedirs(tmp, exist_ok=True)

env = dict(os.environ)
env.update({
    "GOCACHE": os.path.join(out, "gocache"),
    "GOMODCACHE": os.path.join(out, "gomodcache"),
    "GOTMPDIR": tmp,
    "TMPDIR": tmp,
    "GOFLAGS": "",
    "GOPROXY": "off",
    "GOTOOLCHAIN": "local",
    "GOWORK": "off",
})

prog = os.path.join(out, "perfbench")
built = subprocess.run(["go", "build", "-o", prog, "."], cwd=bench, env=env,
                       stdout=sys.stderr)
if built.returncode != 0:
    sys.exit(2)

sys.stdout.flush()
run = subprocess.run([prog] + sys.argv[1:], env=env)
sys.exit(run.returncode)
