"""symknot benchmark.

    python3 perfbench/run.py --workload kh-f2-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py        # every workload, each in a fresh process

Run from the repository root; the package is imported from ``src``.  One
workload runs in one process as a closed loop: one caller, ``jobs=1``, no
threads.  The workload's inputs are drawn from ``--seed``; whole passes over
them are timed until ``--seconds`` would be exceeded, and the outputs of every
pass are checked afterwards.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer ones: one untraced pass, then two
traced passes whose exact counters must agree.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 170
PROBE_INTERVAL_S = 0.01
# the machine speed times are scaled to: one probe loop in 100 microseconds
PROBE_REFERENCE_NS = 100_000
PROBE_MIN_SAMPLES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def _probe_loop() -> int:
    """Fixed pure-Python work in the style of the package's hot loops."""
    seen: dict = {}
    acc = 0
    for i in range(300):
        key = (i & 31, i >> 2)
        hit = seen.get(key)
        if hit is None:
            seen[key] = [i]
        else:
            hit.append(i)
        acc ^= (i * 2654435761) & 0xFFFF
    return acc


class SpeedProbe:
    """Times ``_probe_loop`` on a timer signal while entered.

    The machine is shared: the same call can take 1.5x longer while a
    neighbour is busy, for minutes at a time.  Every 10 ms the signal handler
    runs the probe loop twice inside the measured process and times the
    second run, so the sample sees the machine rather than the caches the
    interrupted code left cold.  A measured interval less the handler's own
    time, times the probe's mean speed over that interval against
    ``PROBE_REFERENCE_NS``, is the interval in seconds at a fixed reference
    speed.
    """

    def __init__(self):
        self.samples: list[int] = []  # ns of one warm probe loop
        self.costs: list[int] = []  # ns of the whole handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        _probe_loop()  # warm the caches the interrupted code cooled
        t1 = time.perf_counter_ns()
        _probe_loop()
        t2 = time.perf_counter_ns()
        self.samples.append(t2 - t1)
        self.costs.append(t2 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, window: list[int], fallback: list[int]) -> float:
        """Mean speed against the reference over ``window`` (``fallback`` if too short).

        Samples are evenly spaced in time, so the mean of per-sample speeds,
        not their median, converts an interval that spans busy and quiet
        phases.
        """
        if len(window) < PROBE_MIN_SAMPLES:
            window = fallback
        return statistics.fmean(PROBE_REFERENCE_NS / ns for ns in window)


def setup_once(args, probe: SpeedProbe) -> tuple[float, float]:
    """Seconds, raw and scaled, from spawning a fresh interpreter until it has its inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    first = len(probe.samples)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        window = probe.samples[first:]
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    word, _, report = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    # the child probes its own core; fall back to this process's samples
    child = json.loads(report)
    net = elapsed - sum(child["costs"]) / 1e9
    return elapsed, net * probe.speed(child["samples"], window or probe.samples)


def run_pass(items, probe: SpeedProbe, tracer=None) -> list[tuple]:
    """One timed pass: (raw seconds, scaled seconds, outputs, error) per item."""
    timed = []
    for item in items:
        d = item.make()
        out: dict = {}
        err = None
        first = len(probe.samples)
        t0 = time.perf_counter()
        try:
            with tracer.span(item.name) if tracer else nullcontext():
                item.run(d, out)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            err = exc
        raw = time.perf_counter() - t0
        net = raw - sum(probe.costs[first:]) / 1e9
        timed.append((raw, net, probe.samples[first:], out, err))
    window = [s for *_, w, _, _ in timed for s in w]
    return [(raw, net * probe.speed(w, window), out, err)
            for raw, net, w, out, err in timed]


def pass_seconds(results, scaled: bool = True) -> float:
    return sum(r[1] if scaled else r[0] for r in results)


def count_failures(items, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every pass, plus the untimed references."""
    attempted = failed = 0
    notes = []
    refs = {}
    for i, item in enumerate(items):
        if item.reference is None:
            continue
        attempted += item.reference_calls
        try:
            refs[i], bad = item.reference(item.make())
        except Exception as exc:  # noqa: BLE001 - counted as failed, like a timed call
            refs[i], bad = None, set()
            failed += item.reference_calls
            notes.append(f"{item.name}: reference raised {exc!r}")
        failed += len(bad)
        notes += [f"{item.name}: {b} disagrees" for b in sorted(bad)]
    for results in passes:
        for i, (item, (_, _, out, err)) in enumerate(zip(items, results)):
            attempted += len(item.calls)
            if err is None:
                try:
                    bad = item.check(out, refs.get(i))
                except Exception as exc:  # noqa: BLE001
                    err = exc
            if err is not None:
                bad = set(item.calls)
                notes.append(f"{item.name}: {err!r}")
            else:
                notes += [f"{item.name}: wrong {b}" for b in sorted(bad)]
            failed += len(bad)
    return attempted, failed, notes


def measure(args, spec: dict) -> int:
    sys.path.insert(0, SRC)
    import workloads

    items = workloads.build(args.workload, args.seed)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    passes = []
    attempted = failed = 0
    lines = []
    with SpeedProbe() as probe:
        if not args.trace:
            # set-up is an end-to-end metric, so only the untraced run samples it
            setup = [setup_once(args, probe) for _ in range(SETUP_SAMPLES)]
            start = time.perf_counter()
            while True:
                passes.append(run_pass(items, probe))
                longest = max(pass_seconds(p, scaled=False) for p in passes)
                if time.perf_counter() - start + longest > args.seconds:
                    break
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            import spans

            passes.append(run_pass(items, probe))
            tracer = spans.Tracer(workloads.api)
            layers = []
            try:
                for k in range(1, TRACED_PASSES + 1):
                    tracer.pass_no, tracer.active = k, True
                    try:
                        passes.append(run_pass(items, probe, tracer))
                    finally:
                        tracer.active = False
                    replay = spans.replay_complexes([c for c in tracer.kh_calls if c[0] == k])
                    layers.append(spans.layer_metrics(
                        [s for s in tracer.spans if s[5] == k], replay))
            finally:
                tracer.restore()
        speed = probe.speed(probe.samples, probe.samples)
    lines.append(f"probe: {len(probe.samples)} samples, mean speed {speed:.3f} "
                 f"of the reference speed")

    if not args.trace:
        walls = [pass_seconds(p) for p in passes]
        per_item = [statistics.median(p[i][1] for p in passes) for i in range(len(items))]
        slowest = max(range(len(items)), key=per_item.__getitem__)
        metrics = {"wall_s": statistics.median(walls), "slowest_item_s": per_item[slowest],
                   "peak_rss_mb": peak_mb, "setup_s": statistics.median(s for _, s in setup)}
        lines.append(f"wall_s median of {len(walls)} passes: {walls}")
        lines.append(f"raw pass seconds: {[pass_seconds(p, scaled=False) for p in passes]}")
        lines.append(f"slowest_item_s from {items[slowest].name}")
        lines.append(f"setup_s median of {len(setup)} fresh interpreters: "
                     f"{[s for _, s in setup]}, raw {[r for r, _ in setup]}")
    else:
        untraced = pass_seconds(passes[0])
        traced = [pass_seconds(p) for p in passes[1:]]
        exact = [k for k, unit in units.items() if unit == "count"]
        drift = [k for k in exact if any(m[k] != layers[0][k] for m in layers)]
        attempted += len(exact)
        failed += len(drift)
        lines += [f"counter {k} differs between traced passes: {[m[k] for m in layers]}"
                  for k in drift]
        metrics = {k: (layers[0][k] if k in exact else statistics.median(m[k] for m in layers))
                   for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - untraced
        lines.append(f"untraced pass {untraced} s, traced passes {traced} s (scaled)")
        path = os.path.join(HERE, "out", f"trace-{args.workload}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "env": environment()})
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")

    tried, bad, notes = count_failures(items, passes)
    attempted += tried
    failed += bad
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"env {json.dumps(environment())}")
    for line in lines + notes:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]} {unit}")
    print(f"# error_rate = {failed / attempted} ({failed} of {attempted} operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh interpreter, one table at the end."""
    summary = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + 10)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        summary[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("# workload            metric                                   value")
    for name, res in summary.items():
        rate = res["failed"] / res["attempted"]
        print(f"# {name:19} {'error_rate':40} {rate:.4g} ({res['attempted']} operations)")
        for metric, v in res["metrics"].items():
            print(f"# {name:19} {metric:40} {v['value']:.6g} {v['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; default: every workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symknot", "__init__.py")):
        print(f"perfbench: no symknot package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        sys.path.insert(0, SRC)
        import workloads

        with SpeedProbe() as probe:
            for item in workloads.build(args.workload, args.seed):
                item.make()
        print("ready", json.dumps({"samples": probe.samples, "costs": probe.costs}), flush=True)
        return 0
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; pick from {names}")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
