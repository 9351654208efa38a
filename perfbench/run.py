"""Benchmark for p1moduli: a closed-loop, single-thread CLI client.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client sends one CLI request at a time through
``p1moduli.cli.run`` (in-process, payload on stdin, report captured from
stdout), waits for it and sends the next, until ``--seconds`` have passed
and the current cycle of input kinds is complete; every report is then
checked (check.py).  Workloads and their reasons are listed in
BENCHMARK.json; the payloads come from gen.py and depend only on the seed.

Every timing behind an end-to-end metric is in reference seconds: its
wall time, corrected for the shared host's speed at that moment by the
probe of hostspeed.py, which explains why and how.  The wall-clock
figures are printed and recorded beside them.

Set-up time is the median, over seven repeats, of a fresh import of the
package and one warm-up request; it is measured in-process, so
interpreter start-up is left out.  The generation of the op pool comes
first and is recorded apart: it is the benchmark's own work, and its
cost moves with the seed (generators redraw until an input qualifies).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
requests with the outside-in tracer of tracer.py installed for the first
half of the time, replays them untraced to measure the tracing overhead
(in reference seconds), and prints the per-layer metrics; span times are
wall times and hold the host probes that ran inside them, about 1%.
Every run also prints a host record and saves it, with all per-op
timings, under ``--out``; compare.py reads those records.  The last line
of stdout is the JSON result.

``--record-golden N`` stores digests of the first N reports of the
default seed in golden.json; later runs of that seed must reproduce them
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
OP_LIMIT_S = 60

sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (stdlib only; safe before the program is found)
from hostspeed import HostSpeed, probe  # noqa: E402

# Ops generated before set-up, about one run's worth; a run that outruns
# the pool extends it outside the op timer.
POOL = {"counterexample": 5, "analyze": 64, "equivalence": 108, "conic": 60}

# A fixed tail percentile per workload, leaving at least ten ops beyond
# it in a run of whole cycles (48, 54-90 and 36-48 ops on analyze,
# equivalence and conic).  Each sits inside a tier of like-priced kinds,
# so run-to-run jitter of single ops moves it least.  A counterexample run
# holds three to five ops, too few for a tail, so its slowest op is
# reported.
TAIL_PCT = {"counterexample": 100, "analyze": 78, "equivalence": 75,
            "conic": 70}

# a small request that runs the whole CLI path, used as warm-up
WARMUP = ("analyze", {"tower": [], "points": [["0"], ["1"], ["2"], ["5"]]})


def calib_s() -> float:
    """The host probe at 100 times its length, for the host record."""
    return probe(20000)


def host_record() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def call_cli(cli, command: str, payload) -> tuple[int, str]:
    """One request through cli.run; returns exit code and stdout."""
    text = json.dumps(payload, sort_keys=True)
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run([command, "--input", "-"])
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


class OpTimeout(BaseException):
    """Raised by the alarm in a request that ran past OP_LIMIT_S; a
    BaseException, so no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def guarded_call(cli, command: str, payload):
    """call_cli under an alarm, so a runaway request fails the op instead
    of holding the run past its deadline."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(OP_LIMIT_S)
    try:
        return call_cli(cli, command, payload)
    except OpTimeout:
        return None, ""
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def import_cli():
    """A fresh import of the package (module bodies re-executed from the
    bytecode cache); returns the new cli module and the seconds it took."""
    for name in [m for m in sys.modules
                 if m == "p1moduli" or m.startswith("p1moduli.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("p1moduli.cli")
    return cli, time.perf_counter() - start


def setup_once(parts: dict):
    """Import the program and warm it up; appends the wall seconds of each
    part to `parts` and returns the cli module."""
    cli, elapsed = import_cli()
    parts["import_s"].append(elapsed)
    start = time.perf_counter()
    call_cli(cli, *WARMUP)
    parts["warmup_s"].append(time.perf_counter() - start)
    return cli


def setup(workload: str, seed: int, speed: HostSpeed):
    """Generate the op pool, then set the program up SETUP_REPEATS times.
    Returns the cli module of the last import, the pool, and the set-up's
    median reference seconds, median wall seconds and the wall seconds of
    each part (generation once, the others as medians)."""
    start = time.perf_counter()
    ops = gen.take(workload, seed, POOL[workload])
    generate_s = time.perf_counter() - start
    parts = {"import_s": [], "warmup_s": []}
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        cli, w, r = speed.timed(setup_once, parts)
        wall.append(w)
        ref.append(r)
    medians = {k: statistics.median(v) for k, v in parts.items()}
    medians["generate_s"] = generate_s
    return cli, ops, statistics.median(ref), statistics.median(wall), medians


def load_golden(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return []
    return json.loads(GOLDEN.read_text()).get(workload, [])


class Loop:
    """The closed loop: ops in order, each checked after the timed phase."""

    def __init__(self, cli, workload: str, seed: int, ops: list):
        self.cli, self.workload = cli, workload
        self.ops = ops
        self.stream = gen.payloads(workload, seed)
        for _ in ops:
            next(self.stream)
        self.golden = load_golden(workload, seed)

    def op(self, i: int):
        while i >= len(self.ops):
            self.ops.append(next(self.stream))
        return self.ops[i]

    def run(self, speed: HostSpeed, seconds: float, count: int | None = None,
            before_op=None) -> tuple[list, float]:
        """Run ops 0, 1, ... until `seconds` pass and a cycle of the stream
        is complete, or until `count` ops ran.  Each result holds the op's
        wall and reference seconds."""
        cycle = gen.CYCLE[self.workload]
        results = []
        start = time.perf_counter()
        i = 0
        while (count is None and (time.perf_counter() - start < seconds
                                  or i % cycle)) \
                or (count is not None and i < count):
            op = self.op(i)
            if before_op is not None:
                before_op(i)
            (code, stdout), elapsed, ref = speed.timed(
                guarded_call, self.cli, op.command, op.payload)
            results.append((i, code, stdout, elapsed, ref))
            i += 1
        return results, time.perf_counter() - start

    def verify(self, results) -> list[dict]:
        from check import check
        rows = []
        for i, code, stdout, elapsed, ref in results:
            op = self.ops[i]
            reason = check(op, code, stdout)
            if reason is None and i < len(self.golden) \
                    and digest(code, stdout) != self.golden[i]:
                reason = "report differs from the recorded digest"
            rows.append({"i": i, "kind": op.kind, "code": code,
                         "seconds": elapsed, "ref_seconds": ref,
                         "error": reason})
        return rows


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks, pct in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_metrics(workload, lat, setup_s) -> dict:
    pct = TAIL_PCT[workload]
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": percentile(lat, pct),
            "setup_s": setup_s}


def end_to_end(workload, rows, wall, setup) -> tuple[dict, dict]:
    """The bounded metrics, from reference seconds, and notes holding the
    same figures from wall seconds."""
    setup_ref, setup_wall, _ = setup
    lat = [r["ref_seconds"] for r in rows]
    ref = latency_metrics(workload, lat, setup_ref)
    units = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s"}
    metrics = {k: (v, units[k]) for k, v in ref.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    beyond = sum(1 for x in lat if x > ref["op_tail_s"])
    wall_figures = latency_metrics(workload, [r["seconds"] for r in rows],
                                   setup_wall)
    wall_figures["ops_per_s"] = len(rows) / wall
    notes = {"op_tail_s": f"p{TAIL_PCT[workload]}, {beyond} of {len(lat)} "
                          "ops beyond it",
             "failed_frac": sum(1 for r in rows if r["error"]) / len(rows),
             "wall": wall_figures}
    return metrics, notes


def traced_phases(loop, seconds, speed):
    """The traced half of the time, then the same ops untraced.  Returns
    the tracer and both phases' results."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        def mark(i):
            tracer.op_id = i
        traced_results, _ = loop.run(speed, seconds / 2, before_op=mark)
    finally:
        tracer.uninstall()
    plain_results, _ = loop.run(speed, 0, count=len(traced_results))
    return tracer, traced_results, plain_results


def layer_metrics(tracer, traced_results, plain_results, seed, stem
                  ) -> tuple[dict, dict]:
    """Per-layer metrics per op; the tracing overhead compares the two
    phases in reference seconds, so a change of host speed between them
    does not read as overhead."""
    count = len(traced_results)
    metrics, bases = tracer.metrics(count)
    units, sources = tracer.unit_costs(seed)
    metrics.update(units)
    traced_ref = sum(r[4] for r in traced_results)
    plain_ref = sum(r[4] for r in plain_results)
    metrics["trace.overhead_frac"] = (traced_ref / plain_ref - 1, "ratio")
    tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    notes = {"bases": bases, "unit_cost_operands": sources,
             "traced_ref_s": traced_ref, "untraced_ref_s": plain_ref,
             "spans": len(tracer.spans)}
    return metrics, notes


def record_golden(cli, count: int, workload: str) -> None:
    ops = gen.take(workload, DEFAULT_SEED, count)
    digests = [digest(*call_cli(cli, op.command, op.payload))
               for op in ops]
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data[workload] = digests
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "runs",
                   help="directory for run records and spans")
    p.add_argument("--record-golden", type=int, metavar="N", default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "p1moduli" / "cli.py").is_file():
        print(f"p1moduli sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.record_golden:
        record_golden(import_cli()[0], args.record_golden, args.workload)
        return 0

    host = host_record()
    calib = statistics.median(calib_s() for _ in range(3))
    speed = HostSpeed()
    speed.start()
    try:
        cli, ops, *set_up = setup(args.workload, args.seed, speed)
        loop = Loop(cli, args.workload, args.seed, ops)
        if args.trace:
            phases = traced_phases(loop, args.seconds, speed)
        else:
            results, wall = loop.run(speed, args.seconds)
    finally:
        speed.stop()
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.out / (f"{args.workload}-s{args.seed}-t{args.trace}-"
                       f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")

    if args.trace:
        metrics, notes = layer_metrics(*phases, args.seed, stem)
        metrics["host.calib_s"] = (calib, "s")
        rows = loop.verify(phases[1] + phases[2])
    else:
        rows = loop.verify(results)
        metrics, notes = end_to_end(args.workload, rows, wall, set_up)
    failed = sum(1 for r in rows if r["error"])
    host.update({"calib_s": calib, "loadavg_end": list(os.getloadavg())})
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "setup": set_up[2], "probes": len(speed.samples),
              "notes": notes, "ops": rows,
              "metrics": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"host python={host['python']} nproc={host['nproc']} "
          f"load={host['loadavg'][0]:.2f}->{host['loadavg_end'][0]:.2f} "
          f"calib_s={calib:.4f}")
    print(f"workload={args.workload} seed={args.seed} ops={len(rows)} "
          f"failed={failed} record={stem.with_suffix('.json').name}")
    for r in rows:
        if r["error"]:
            print(f"FAILED op {r['i']} ({r['kind']}): {r['error']}")
    annotations = {**notes.get("bases", {}),
                   **notes.get("unit_cost_operands", {}),
                   "op_tail_s": notes.get("op_tail_s", "")}
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u} {annotations.get(k, '')}".rstrip())
    if not args.trace:
        print(f"failed_frac {notes['failed_frac']:.6g} ratio")
        for k, v in notes["wall"].items():
            print(f"wall {k} {v:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(rows),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
