"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, with a handful of ops per pass:
  * an untraced run is correct and prints every end-to-end metric of
    BENCHMARK.json, with its unit, in the report and in the JSON line;
  * a traced run prints every per-layer metric of BENCHMARK.json;
  * a run whose reference has one verdict flipped reports a nonzero
    error_rate and "correct": false.
Finally the runner must fail, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from plan import WORKLOADS  # noqa: E402

TINY = ["--seed", "7", "--seconds", "0.1", "--max-ops", "6"]


def _run(root: str, args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py")] + args,
                          cwd=root, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed(report: str, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[-1] == unit
               for line in report.splitlines())


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        base = ["--workload", workload] + TINY
        proc = _run(ROOT, base + ["--trace", "0"])
        res = _result(proc)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{workload}: tiny run is correct")
        for m in bench["end_to_end"]:
            got = res["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"] and got["value"] > 0
                   and _printed(proc.stdout, m["name"], m["unit"]),
                   f"{workload}: {m['name']} printed in {m['unit']}")
        expect(_printed(proc.stdout, "error_rate", "ratio"), f"{workload}: error_rate printed")

        proc = _run(ROOT, base + ["--trace", "1"])
        res = _result(proc)
        absent = [m["name"] for m in bench["per_layer"]
                  if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                  or not _printed(proc.stdout, m["name"], m["unit"])]
        expect(not absent, f"{workload}: every per-layer metric in the traced output {absent[:3]}")
        expect("tracing overhead:" in proc.stdout, f"{workload}: tracing overhead printed")

        proc = _run(ROOT, base + ["--trace", "0", "--corrupt"])
        res = _result(proc)
        rate = next((float(line.split()[1]) for line in proc.stdout.splitlines()
                     if line.split()[:1] == ["error_rate"]), 0.0)
        expect(not res["correct"] and res["failed"] >= 1 and rate > 0,
               f"{workload}: a flipped reference verdict makes error_rate nonzero ({rate:g})")

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, ["--workload", "certify"] + TINY + ["--trace", "0"])
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "without the program's sources the runner fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "passed" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
