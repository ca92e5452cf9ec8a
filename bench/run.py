"""Seeded, single-process benchmark of normaltori.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): normalize-ladder, perturb-roundtrip,
confluence-exhaust, cli-files.

Each run builds its inputs from ``--seed`` (three times or more, reporting
the median set-up time and checking that the first and last builds
agree), then drives the ops as a closed loop with one caller issuing them
back to back, in passes over the inputs, until ``--seconds`` have
elapsed, one pass is done and the tail percentile has at least ten
samples beyond it.
Latencies are reported at a reference CPU speed, read off a probe run
before every op (see ``_run_ops``); the raw figures are printed in the
report.  Every op is checked against ground truth from the generator;
the first pass feeds a SHA-256 digest of the outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
reports per-layer metrics: it traces one set-up (reported under
``setup.``), runs the untraced loop, then one traced pass, whose exact
call counts, self times and tracing overhead it reports.  Spans of the
traced pass are written to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have gone by (at most SETUP_MAX_REPEATS times), so that a set-up of tens
# of milliseconds still yields a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 30
# Time of ``_probe`` at full CPU speed on the reference machine (a 2-vCPU
# 2.1 GHz VM, where it takes 0.21-0.34 ms as the shared CPU speeds up and
# slows down).  Latencies are reported at this probe speed.
PROBE_NOMINAL_S = 0.2e-3
PROBE_WINDOW = 5

SETUP_LAYERS = (
    "position.validate_position",
    "position.side_of_region",
    "graphs.validate_graph",
    "oracle.random_normal_torus",
    "oracle.perturb",
    "moves.normalize",
    "normal_graph.canonicalize",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _import_program():
    """Import normaltori from this checkout's sources, never from elsewhere."""
    if not (SRC / "normaltori" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC / 'normaltori'}")
    sys.path.insert(0, str(SRC))
    import normaltori

    if Path(normaltori.__file__).resolve().parent != (SRC / "normaltori").resolve():
        raise SystemExit(f"bench: imported normaltori from {normaltori.__file__}, not {SRC}")


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _sources_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "normaltori").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _fingerprint(value, workdir: Path):
    """A deterministic, JSON-able rendering of set-up output."""
    import normaltori as N
    from normaltori import serialize

    if isinstance(value, N.TorusPosition):
        return serialize.position_to_json(value)
    if isinstance(value, N.DecoratedGraph):
        return N.canonicalize(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _fingerprint(getattr(value, f.name), workdir) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v, workdir) for v in value]
    if isinstance(value, dict):
        return {str(k): _fingerprint(v, workdir) for k, v in sorted(value.items())}
    if isinstance(value, (bytes, bytearray)):
        return hashlib.sha256(value).hexdigest()
    if callable(value):
        return "<check>"
    return str(value).replace(str(workdir), "<work>")


def _inputs_sha256(items, ladder, workdir: Path) -> str:
    text = json.dumps([_fingerprint(items, workdir), ladder], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _probe() -> float:
    """Seconds for a fixed ~0.2 ms pure-Python loop: the CPU's speed right now."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(600):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
    sum(k * v for k, v in sorted(table.items()))
    return perf_counter() - t0


@dataclasses.dataclass
class Phase:
    """What one loop over the ops measured."""

    latencies: list  # seconds of every op, in order
    scaled: list  # the same at the reference CPU speed
    probes: list  # the probe time each op was scaled by
    per_input: list  # scaled latencies of each input, one per visit
    pass_seconds: list  # scaled busy time of each completed pass
    failed: int = 0
    correct: bool = True
    digest: str = ""

    def pass_at_median(self) -> float:
        """Scaled seconds of one pass with every input at its median latency."""
        return sum(statistics.median(lat) for lat in self.per_input)


def _run_ops(workload, items, seconds: float, min_ops: int, tracer=None) -> Phase:
    """Closed loop, one caller, passes over the inputs in their seeded order.

    Runs at least one whole pass (the one the output digest covers), then
    stops at the first op boundary where both ``seconds`` and ``min_ops``
    are reached.  With a tracer exactly one pass runs, so counts are exact.

    Before each op a probe reads the CPU's current speed; the op's latency
    is scaled by ``PROBE_NOMINAL_S`` over the median of the last
    ``PROBE_WINDOW`` probes.  On shared machines the CPU speed swings by up
    to 2x for seconds at a time, and ops slow down with the probe (their
    ratio stays within about 5 %), so the scaled figures hold still where
    the raw ones do not.
    """
    phase = Phase([], [], [], [[] for _ in items], [])
    digest = hashlib.sha256()
    recent: deque = deque(maxlen=PROBE_WINDOW)
    start = perf_counter()
    while not (tracer is not None and phase.pass_seconds):
        busy = 0.0
        for i, item in enumerate(items):
            if phase.pass_seconds and perf_counter() - start >= seconds and len(phase.latencies) >= min_ops:
                return phase
            if tracer is not None:
                tracer.op = len(phase.latencies)
            recent.append(_probe())
            t0 = perf_counter()
            try:
                result, exc = workload.op(item), None
            except Exception as e:  # an op that raises is a failed op; keep measuring
                result, exc = None, e
            dt = perf_counter() - t0
            speed = statistics.median(recent)
            scaled = dt * PROBE_NOMINAL_S / speed
            phase.latencies.append(dt)
            phase.scaled.append(scaled)
            phase.probes.append(speed)
            phase.per_input[i].append(scaled)
            busy += scaled
            ok, right, material = workload.check(item, result, exc)
            if exc is not None and workload.name != "cli-files":
                traceback.print_exception(exc, file=sys.stderr)
            phase.failed += not ok
            phase.correct = phase.correct and right
            if not phase.pass_seconds:
                digest.update(material)
        phase.pass_seconds.append(busy)
        phase.digest = digest.hexdigest()
    return phase


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail_pct(n: int, wanted: float) -> float:
    """``wanted``, or the highest lower standard percentile with ten samples beyond it."""
    for pct in (wanted, 99, 95, 90, 75, 50):
        if pct <= wanted and n * (1 - pct / 100) >= 10:
            return pct
    return 50


def _min_ops(pct: float) -> int:
    """Ops needed for ten samples beyond ``pct``."""
    return math.ceil(10 / (1 - pct / 100))


def _probe_median() -> float:
    return statistics.median(_probe() for _ in range(PROBE_WINDOW))


def _setup(workload, seed, scale, workdir):
    """One set-up: its inputs, ladder, seconds, and seconds at reference CPU speed."""
    gc.collect()
    before = _probe_median()
    t0 = perf_counter()
    items, ladder = workload.setup(seed, scale, workdir)
    seconds = perf_counter() - t0
    speed = statistics.median([before, _probe_median()])
    return items, ladder, seconds, seconds * PROBE_NOMINAL_S / speed


def _settle() -> None:
    """Collect set-up garbage and keep the inputs out of later collections."""
    gc.collect()
    gc.freeze()


def _emit(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = WORK / args.workload
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _sources_sha256(),
        "loop": "closed, one caller, repeated passes over the inputs",
    }
    print(f"# bench {workload.name} seed={args.seed} trace={args.trace} scale={args.scale} "
          f"python={meta['python']} nproc={meta['nproc']} commit={meta['commit']}")
    print(f"# why: {workload.why}")
    try:
        if args.trace:
            report, metrics, phase = _traced_run(workload, args, workdir, tracing)
            notes = {}
        else:
            report, metrics, notes, phase = _plain_run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(report)
    print("report " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        _emit(name, value, unit, notes.get(name, ""))
    if not args.trace:
        # failed_share is 0 on most workloads, so it is printed but kept out of the result line
        _emit("failed_share", phase.failed / len(phase.latencies), "ratio",
              f"{phase.failed} of {len(phase.latencies)} ops")
    result = {
        "correct": meta["outputs_correct"] and meta["setup_deterministic"],
        "attempted": len(phase.latencies),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _phase_report(workload, phase: Phase) -> dict:
    n = len(phase.latencies)
    report = {
        "outputs_correct": phase.correct,
        "ops": n,
        "passes": len(phase.pass_seconds),
        "pass_seconds": phase.pass_seconds,
        "outputs_sha256": phase.digest,
        "failed": phase.failed,
        "failed_share": phase.failed / n,
    }
    outcomes = getattr(workload, "outcomes", None)
    if outcomes is not None:
        report["cli_outcomes"] = {
            c: {"ops": outcomes.ops[c], "rejected": outcomes.rejected[c], "uncaught": outcomes.uncaught[c]}
            for c in outcomes.ops
        }
    return report


def _plain_run(workload, args, workdir):
    setups, scaled_setups = [], []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS):
        items, ladder, seconds, scaled_seconds = _setup(workload, args.seed, args.scale, workdir)
        setups.append(seconds)
        scaled_setups.append(scaled_seconds)
        if len(setups) == 1:
            first_digest = _inputs_sha256(items, ladder, workdir)
    last_digest = _inputs_sha256(items, ladder, workdir)
    _settle()
    phase = _run_ops(workload, items, args.seconds, _min_ops(workload.tail_pct))
    scaled, raw = sorted(phase.scaled), sorted(phase.latencies)
    n = len(scaled)
    tail = _tail_pct(n, workload.tail_pct)
    beyond = n - math.ceil(tail / 100 * n)
    report = {
        "ladder": ladder,
        "inputs_sha256": first_digest,
        "setup_deterministic": first_digest == last_digest,  # the first and the last build agree
        "setup_s_each": setups,
        "raw_setup_s": statistics.median(setups),
        "op_p50_samples": n,
        "op_tail_percentile": tail,
        "op_tail_samples_beyond": beyond,
        "probe_ms": {"nominal": PROBE_NOMINAL_S * 1e3, "min": min(phase.probes) * 1e3,
                     "median": statistics.median(phase.probes) * 1e3, "max": max(phase.probes) * 1e3},
        "raw_ops_per_s": n / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": _percentile(raw, tail) * 1e3,
        **_phase_report(workload, phase),
    }
    print(f"# ladder: {json.dumps(ladder)}")
    print(f"# ops={n} passes={len(phase.pass_seconds)} outputs_sha256={phase.digest}")
    print(f"# raw, unscaled: ops_per_s={report['raw_ops_per_s']:.4f} op_p50_ms={report['raw_op_p50_ms']:.4f} "
          f"op_tail_ms={report['raw_op_tail_ms']:.4f}; probe ms median {report['probe_ms']['median']:.4f}")
    notes = {
        "ops_per_s": f"{len(items)} inputs, each at its median latency; at reference CPU speed",
        "op_p50_ms": f"n={n}; at reference CPU speed",
        "op_tail_ms": f"p{tail:g}, n={n}, {beyond} beyond; at reference CPU speed",
        "setup_s": f"median of {len(setups)}; at reference CPU speed",
    }
    metrics = {
        "ops_per_s": (len(items) / phase.pass_at_median(), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (_percentile(scaled, tail) * 1e3, "ms"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return report, metrics, notes, phase


def _traced_run(workload, args, workdir, tracing):
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        items, ladder, setup_seconds, _ = _setup(workload, args.seed, args.scale, workdir)
    finally:
        setup_tracer.uninstall()
    _settle()
    plain = _run_ops(workload, items, args.seconds, _min_ops(workload.tail_pct))
    plain_report = _phase_report(workload, plain)
    if hasattr(workload, "outcomes"):
        workload.outcomes = type(workload.outcomes)()  # the traced pass counts afresh
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = _run_ops(workload, items, 0.0, 0, tracer=tr)
    finally:
        tr.uninstall()

    metrics = tracing.layer_metrics(tr)
    setup_metrics = tracing.layer_metrics(setup_tracer, "setup.")
    for layer in SETUP_LAYERS:
        for key in (f"setup.{layer}.calls", f"setup.{layer}.self_s"):
            if key in setup_metrics:
                metrics[key] = setup_metrics[key]
    for key in ("setup.oracle.perturb.inverse_moves", "setup.oracle.perturb.validations_per_inverse_move"):
        metrics[key] = setup_metrics[key]
    metrics["setup.traced_s"] = (setup_seconds, "s")

    outcomes = getattr(workload, "outcomes", None)
    metrics["cli.rejected"] = (sum(outcomes.rejected.values()) if outcomes else 0, "count")
    metrics["cli.uncaught"] = (sum(outcomes.uncaught.values()) if outcomes else 0, "count")
    from workloads import COMMANDS

    for command in COMMANDS:
        metrics[f"cli.{command}.rejected"] = (outcomes.rejected[command] if outcomes else 0, "count")
        metrics[f"cli.{command}.uncaught"] = (outcomes.uncaught[command] if outcomes else 0, "count")

    untraced_pass = plain.pass_at_median()
    traced_pass = traced.pass_seconds[0]
    n_pass = len(items)
    metrics["trace.ops_per_s_untraced"] = (n_pass / untraced_pass, "1/s")
    metrics["trace.ops_per_s_traced"] = (n_pass / traced_pass, "1/s")
    metrics["trace.overhead_share"] = (traced_pass / untraced_pass - 1, "ratio")

    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with span_file.open("w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    report = {
        "ladder": ladder,
        "setup_deterministic": True,
        "absent_layers": tr.absent,
        "spans": len(tr.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        **plain_report,
    }
    report["outputs_correct"] = plain.correct and traced.correct
    print(f"# ladder: {json.dumps(ladder)}")
    if tr.absent:
        print(f"# absent layers (reported as 0): {', '.join(tr.absent)}")
    return report, metrics, plain


if __name__ == "__main__":
    sys.exit(main())
