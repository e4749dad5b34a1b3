"""g2kit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload family_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, one table
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B      # two result sets

A run measures one workload for about --seconds of op time (whole cycles of
its op mix), checks every op's output, writes its record to --out (default perfbench/results) and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Workload names, metric names, units and
bounds come from BENCHMARK.json; perfbench/layer_map.json says which
end-to-end metric each per-layer metric should move, on which workload.

Times are on the host-speed-normalized clock of hostclock.py: a shared
host's speed can drift by up to 2x within seconds, and each timed interval
is scaled by a fixed reference loop timed around it.  Raw wall-clock figures
are kept in each result record.  A run pins itself and its children to one
CPU, so that the loop samples the CPU the timed work runs on.

The program is run from the source tree (src/ on sys.path and PYTHONPATH);
nothing needs building.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

from hostclock import REFERENCE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYER_MAP_PATH = HERE / "layer_map.json"
SETUP_PROBES = 3
# op_tail_ms is the highest of these percentiles with at least TAIL_BEYOND samples beyond it.
# Nothing above p95: on a shared 2-vCPU VM about 1% of short ops are stretched
# by host interrupts, and p99 of family_float moved 7-29% between runs of the
# same code there, against 4% for p95.
TAIL_PERCENTILES = (95, 90, 75, 50)
TAIL_BEYOND = 10
RAW_CAP = 1.5


def load_spec() -> dict:
    spec = json.loads(SPEC_PATH.read_text())
    layer_map = json.loads(LAYER_MAP_PATH.read_text())
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(layer_map) != sorted(names):
        raise SystemExit("layer_map.json and BENCHMARK.json list different per-layer metrics")
    spec["layer_map"] = layer_map
    return spec


# -- the clock and the closed loop ---------------------------------------------


class Phase:
    """Latency (normalized and raw) and verdict of every op of one timed phase."""

    def __init__(self):
        self.latency = []
        self.raw = []
        self.status = []
        self.errors = Counter()

    @property
    def op_s(self) -> float:
        return sum(self.latency)

    def count(self, status) -> int:
        return self.status.count(status)


def as_steps(run):
    """`run` as a generator function: its own steps if it yields between them,
    else the whole op as one step."""
    if inspect.isgeneratorfunction(run):
        return run

    def one_step(op):
        return run(op)
        yield  # never reached; it makes one_step a generator function

    return one_step


def run_steps(steps, clock: HostClock, parts: list):
    """Run an op's steps, appending (wall seconds, clock sample before it) per
    step to `parts`, and return the op's output.  The clock samples between
    steps once SAMPLE_EVERY_S of them has run, so a long op is normalized
    piece by piece; sampling is off the clock."""
    while True:
        k = clock.mark()
        t0 = perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
        finally:
            dt = perf_counter() - t0
            clock.add(dt)
            parts.append((dt, k))


def drive(wl, rng, clock: HostClock, seconds: float, tracer=None,
          cycles: int | None = None) -> Phase:
    """Run `cycles` whole cycles of ops, or as many as bring the normalized op
    time nearest to `seconds`.

    Rounding to the nearest cycle count keeps the op mix of a run fixed when
    a cycle is long (cli_mix).  Raw op time past RAW_CAP times `seconds` also
    ends the run, which bounds its wall time on a very slow host.  Only the
    op itself is on the clock; the cycle's inputs are generated before it,
    the reference loop runs between its steps, and its output is checked after it.
    """
    from workloads import ERROR, OK, WRONG

    phase = Phase()
    ops_parts = []
    elapsed = 0.0  # running estimate from the sample before each step, for the stop rule
    steps_of = as_steps(wl.run)

    def more(done: int) -> bool:
        if cycles is not None:
            return done < cycles
        if done and sum(phase.raw) >= RAW_CAP * seconds:
            return False
        return elapsed < seconds - (elapsed / done / 2 if done else 0.0)

    done = 0
    while more(done):
        for op in wl.cycle(rng):
            if tracer is not None:
                tracer.op = len(phase.raw)
            parts = []
            try:
                out = run_steps(steps_of(op), clock, parts)
                status = None
            except Exception as exc:  # a raising op is a failed op, kept and counted
                status = ERROR
                phase.errors[type(exc).__name__] += 1
            if tracer is not None:
                tracer.op = None
            if status is None:
                status = wl.check(op, out)
                if status != OK:
                    phase.errors[f"check:{status}"] += 1
            if status not in (OK, ERROR, WRONG):
                raise SystemExit(f"op {len(phase.raw)} has no oracle verdict")
            phase.raw.append(sum(dt for dt, _ in parts))
            phase.status.append(status)
            ops_parts.append(parts)
            elapsed += sum(dt * REFERENCE_S / clock.samples[k] for dt, k in parts)
        done += 1
    clock.sample()
    phase.latency = [sum(dt * clock.factor(k) for dt, k in parts) for parts in ops_parts]
    return phase


def latency_stats(lat) -> dict:
    """Median and tail latency in ms.  With fewer than 2 * TAIL_BEYOND samples
    no listed percentile qualifies and the tail falls back to the median."""
    s = sorted(lat)
    n = len(s)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50)
    tail = statistics.quantiles(s, n=100, method="inclusive")[pct - 1] if n > 1 else s[0]
    return {"op_p50_ms": 1000.0 * statistics.median(s), "op_tail_ms": 1000.0 * tail,
            "tail_percentile": pct, "samples": n, "beyond_tail": sum(1 for x in s if x > tail)}


# -- set-up and environment ---------------------------------------------------


def setup_seconds(name: str, clock: HostClock) -> list:
    """Fresh interpreter to first op, once per probe: (normalized, raw) seconds."""
    from workloads import child_env

    env = child_env()
    if name == "cli_mix":
        argv = [sys.executable, "-m", "g2kit", "--version"]
    else:
        argv = [sys.executable, str(HERE / "probe.py"), name]
    marks, raw = [], []
    for _ in range(SETUP_PROBES):
        marks.append(clock.sample())
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        t1 = time.monotonic()
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr[-500:]}")
        ready = t1 if name == "cli_mix" else float(proc.stdout.strip().splitlines()[-1])
        raw.append(ready - t0)
    clock.sample()
    return [(r * clock.factor(k), r) for r, k in zip(raw, marks)]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# -- one run -------------------------------------------------------------------


def untraced(name: str, seed: int, seconds: float) -> dict:
    import workloads

    clock = HostClock()
    setups = setup_seconds(name, clock)
    wl = workloads.make(name)
    wl.setup()
    rng = random.Random(seed)
    warm = drive(wl, rng, clock, 0, cycles=wl.warmup_cycles)
    phase = drive(wl, rng, clock, seconds)
    lat = latency_stats(phase.latency)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": phase.count(workloads.OK) / phase.op_s,
        "op_p50_ms": lat["op_p50_ms"],
        "op_tail_ms": lat["op_tail_ms"],
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    defects = wl.known_defects()  # after peak_rss_mb, which it must not move
    raw = latency_stats(phase.raw)
    return {"phase": phase, "warm": warm, "metrics": metrics, "latency": lat, "defects": defects,
            "detail": {"setup_s_all": setups,
                       "op_ms": [round(1000 * x, 4) for x in phase.latency],
                       "op_raw_ms": [round(1000 * x, 4) for x in phase.raw], "raw_wall": {
                "setup_s": statistics.median(r for _, r in setups),
                "ops_per_s": phase.count(workloads.OK) / sum(phase.raw),
                "op_p50_ms": raw["op_p50_ms"], "op_tail_ms": raw["op_tail_ms"]}}}


def traced(name: str, seed: int, seconds: float, spans_path: Path) -> dict:
    """Untraced, then traced, phase of equal length; then cProfile and import timing."""
    import tracing
    import workloads

    wl = workloads.make(name, in_process=True)
    wl.setup()
    rng = random.Random(seed)
    clock = HostClock()
    warm = drive(wl, rng, clock, 0, cycles=wl.warmup_cycles)
    base = drive(wl, rng, clock, seconds)
    tracer = tracing.Tracer()
    hits0, misses0, _ = tracing.cache_totals()
    tracer.install(workloads)
    try:
        phase = drive(wl, rng, clock, seconds, tracer)
    finally:
        tracer.restore()
    hits1, misses1, entries = tracing.cache_totals()
    tracer.write(spans_path)
    defects = wl.known_defects()
    sweep_failed, sweep_attempted = workloads.equator_sweep()

    # Fraction counts on a fixed op list from a fresh instance, so they repeat exactly.
    prof_wl = workloads.make(name, in_process=True)
    prof_wl.setup()
    prof_rng = random.Random(f"{seed}:profile")
    prof_ops = [op for _ in range(prof_wl.profile_cycles) for op in prof_wl.cycle(prof_rng)]

    def run_ops(prof):
        for op in prof_ops:
            prof.enable()
            try:
                for _ in as_steps(prof_wl.run)(op):
                    pass
            except Exception:  # failures are counted by the timed phases
                pass
            finally:
                prof.disable()

    new, arith = tracing.fraction_calls(run_ops)
    first = len(clock.samples)
    imports = tracing.import_times(workloads.child_env(), ROOT, clock.sample)
    clock.sample()
    factors = [clock.factor(first + i) for i in range(len(imports))]
    g2kit_s = statistics.median(g * f for (g, _), f in zip(imports, factors))
    scipy_s = statistics.median(sc * f for (_, sc), f in zip(imports, factors))

    ok = workloads.OK
    n = len(phase.latency)
    scale = phase.op_s / sum(phase.raw)  # span times onto the normalized clock
    lookups = hits1 - hits0 + misses1 - misses0
    special = {
        "fraction.new_per_op": new / len(prof_ops),
        "fraction.arith_per_op": arith / len(prof_ops),
        "bryant.recover.fail_ratio": sweep_failed / sweep_attempted,
        "exterior.metric_cache.entries": entries,
        "exterior.metric_cache.hit_ratio": (hits1 - hits0) / lookups if lookups else 0.0,
        "import.g2kit_s": g2kit_s,
        "import.scipy_s": scipy_s,
        "trace.overhead_ratio": (phase.count(ok) / phase.op_s) / (base.count(ok) / base.op_s),
    }
    metrics = {}
    for m in SPEC["per_layer"]:
        metrics[m["name"]] = special[m["name"]] if m["name"] in special else \
            layer_metric(m["name"], tracer, n, scale)
    return {"phase": phase, "warm": warm, "metrics": metrics, "defects": defects,
            "latency": latency_stats(phase.latency),
            "detail": {"untraced_ops": len(base.latency), "untraced_failed": len(base.latency) - base.count(ok),
                       "profiled_ops": len(prof_ops), "spans_kept": len(tracer.spans),
                       "spans_dropped": tracer.dropped}}


def layer_metric(name: str, tracer, n_ops: int, scale: float) -> float:
    """`<layer>.self_ms_per_op`, `<layer>[.<fn>].calls_per_op` or
    `<layer>.<fn>.ms_per_call`, read from the tracer's counters; times are
    multiplied by `scale`."""
    target, stat = name.rsplit(".", 1)
    if stat == "self_ms_per_op":
        return 1000.0 * scale * tracer.layer_self_s(target) / n_ops
    if stat == "calls_per_op":
        calls = tracer.layer_calls(target) if "." not in target else tracer.calls.get(target, 0)
        return calls / n_ops
    if stat == "ms_per_call":
        return scale * tracer.ms_per_call(target)
    raise SystemExit(f"no rule computes per-layer metric {name!r}")


def run_one(name: str, seed: int, seconds: float, trace: int, out_dir: Path) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the children it spawns, so the reference
        # loop samples the speed of the CPU that the timed work runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    if trace:
        res = traced(name, seed, seconds, out_dir / f"spans-{name}-seed{seed}.jsonl.gz")
        listed = SPEC["per_layer"]
    else:
        res = untraced(name, seed, seconds)
        listed = SPEC["end_to_end"]
    phase = res["phase"]
    statuses = res["warm"].status + phase.status
    attempted = len(phase.latency)
    failed = attempted - phase.count(workloads.OK)
    correct = workloads.WRONG not in statuses
    lat = res["latency"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "ops": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "errors": dict(phase.errors), "op_time_s": phase.op_s,
        "known_defects": {k: {"failed": f, "attempted": a} for k, (f, a) in res["defects"].items()},
        "tail_percentile": lat["tail_percentile"], "beyond_tail": lat["beyond_tail"],
        "correct": correct,
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
        **res["detail"],
    }
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {name} seed={seed} trace={trace} ops={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4f} errors={dict(phase.errors)} correct={correct}")
    for k, (f, a) in res["defects"].items():
        print(f"# known defect {k}: {f} of {a} fixed inputs fail (not timed, not in failed)")
    print(f"# git {env['git_sha']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} scipy {env['scipy']} cpus {env['cpu_count']}")
    print(f"# op_tail_ms is p{lat['tail_percentile']:g} of {lat['samples']} ops, "
          f"{lat['beyond_tail']} beyond it")
    for m in listed:
        moves = SPEC["layer_map"].get(m["name"])
        note = f"  moves: {'; '.join(moves)}" if moves else ""
        print(f"{m['name']:40s} {res['metrics'][m['name']]:14.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


# -- every workload, and comparing result sets -------------------------------------


def run_all(seed: int, seconds: float, trace: int, out_dir: Path) -> int:
    rows, status = [], 0
    for w in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(out_dir)],
            capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        rows.append((w["name"], json.loads(proc.stdout.strip().splitlines()[-1])))
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    print(f"\n{'metric':34s} {'unit':6s}" + "".join(f"{name:>18s}" for name, _ in rows))
    for m in listed:
        print(f"{m['name']:34s} {m['unit']:6s}"
              + "".join(f"{res['metrics'][m['name']]['value']:18.6g}" for _, res in rows))
    print(f"{'failed/attempted':41s}"
          + "".join(f"{res['failed']:>11d}/{res['attempted']:<6d}" for _, res in rows))
    return status


def load_results(directory: Path) -> list:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict, b: dict, bound: float, higher_is_better: bool) -> str:
    """better / worse / unresolved for side B against side A, both {seed: value}."""
    sign = 1.0 if higher_is_better else -1.0
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    change = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if change < -bound:
        return "worse"
    pairs = [(a[s], b[s]) for s in a if s in b]
    if pairs:
        won = sum(1 for x, y in pairs if sign * (y - x) > 0) >= 0.9 * len(pairs)
    else:
        won = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if change > 0 and won and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    return "unresolved"


def compare(dir_a: Path, dir_b: Path) -> int:
    sides = [load_results(dir_a), load_results(dir_b)]
    if not all(sides):
        raise SystemExit("each side needs at least one result file")
    print(f"A = {dir_a}\nB = {dir_b}")
    print(f"{'workload':17s} {'metric':34s} {'unit':6s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict")
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            a, b = ({r["seed"]: r["metrics"][m["name"]]["value"] for r in side
                     if r["workload"] == w["name"] and m["name"] in r["metrics"]} for side in sides)
            if not a or not b:
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            v = verdict(a, b, m["bound"], m["better"] == "higher") if "bound" in m else "-"
            print(f"{w['name']:17s} {m['name']:34s} {m['unit']:6s} "
                  f"{qa[1]:12.5g} [{qa[0]:8.5g}, {qa[2]:8.5g}] "
                  f"{qb[1]:12.5g} [{qb[0]:8.5g}, {qb[2]:8.5g}] {100 * change:+7.1f}%  {v}")
    return 0


def main(argv=None) -> int:
    global SPEC
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result records and span files")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("RESULTS_A", "RESULTS_B"))
    args = parser.parse_args(argv)
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH.name} not found next to the benchmark", file=sys.stderr)
        return 2
    SPEC = load_spec()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "g2kit" / "__init__.py").is_file():
        print("error: no g2kit source tree at src/g2kit; run from a g2kit checkout",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace, args.out)
    return run_one(args.workload, args.seed, seconds, args.trace, args.out)


SPEC: dict = {}

if __name__ == "__main__":
    sys.exit(main())
