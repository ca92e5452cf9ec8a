"""Self-check of the benchmark at a tiny size.

    python3 bench/smoke.py

Run from the root of a checkout.  For every workload it runs
``bench/run.py --scale tiny`` and checks that

* every metric ``BENCHMARK.json`` names is printed, with its unit, both in
  a ``metric`` line and in the final JSON line (end-to-end metrics with
  ``--trace 0``, per-layer metrics with ``--trace 1``);
* two runs with one seed give identical input and output digests, and
  identical per-layer counts;
* another seed changes the inputs;

and that the benchmark, copied without the program's sources, exits
nonzero without printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _parse(proc):
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            printed[name] = rest.split()[1]
    return report, printed, json.loads(lines[-1])


def main() -> int:
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)
            print(f"FAIL {what}")

    for spec in SPEC["workloads"]:
        name = spec["name"]
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            runs = []
            for seed in (1, 1, 2):
                proc = _run(name, seed, trace)
                expect(proc.returncode == 0, f"{name} trace={trace} seed={seed} exit {proc.returncode}: {proc.stderr[-500:]}")
                if proc.returncode != 0:
                    break
                runs.append(_parse(proc))
            if len(runs) < 3:
                continue
            (rep_a, printed, result), (rep_b, _, result_b), (rep_c, _, _) = runs
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{name} trace={trace}: outputs not correct")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"], f"{name} trace={trace}: {m['name']} missing or unit")
                expect(printed.get(m["name"]) == m["unit"], f"{name} trace={trace}: {m['name']} not printed with unit")
            expect(set(result["metrics"]) == {m["name"] for m in wanted}, f"{name} trace={trace}: unexpected metrics")
            expect(rep_a["outputs_sha256"] == rep_b["outputs_sha256"], f"{name} trace={trace}: output digest differs for one seed")
            if trace == 0:
                expect(rep_a["inputs_sha256"] == rep_b["inputs_sha256"], f"{name}: input digest differs for one seed")
                expect(rep_a["setup_deterministic"], f"{name}: repeated set-ups disagree")
                expect(rep_a["inputs_sha256"] != rep_c["inputs_sha256"], f"{name}: another seed gave the same inputs")
            else:
                counts_a = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}
                counts_b = {k: v["value"] for k, v in result_b["metrics"].items() if v["unit"] in COUNT_UNITS}
                expect(counts_a == counts_b, f"{name}: per-layer counts differ for one seed")
                expect(not rep_a["absent_layers"], f"{name}: absent layers {rep_a['absent_layers']}")
        print(f"ok   {name}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and '"correct"' not in last[0], "without sources: must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: " + ("PASS" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
