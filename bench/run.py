"""dcmesh benchmark: one process, no threads, public API only.

    python3 bench/run.py --workload narrow_poll --seed 1 --seconds 15 --trace 0

Builds nothing: it imports dcmesh from ``src/`` next to this directory.
With ``--trace 0`` it times ``sim.run_scenario`` (plus ``to_text``) and
``Transcript.from_text`` plus ``sim.verify_transcript`` in whole passes
over the workload's scenarios until ``--seconds`` have passed,
drift-normalising every sample (see kernels.py).  With ``--trace 1`` it runs a fixed pass of
scenarios untraced, then the same pass with every layer's public calls
wrapped (see tracer.py), and reports per-layer calls and self time.
Every transcript goes through the correctness gate (see checks.py).
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import Counts, check_outcome
from kernels import DriftClock, median_sample
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"


class Api:
    """The dcmesh entry points the benchmark drives."""

    def __init__(self):
        self.dcmesh = importlib.import_module("dcmesh")
        self.sim = importlib.import_module("dcmesh.sim")

    def run(self, scenario) -> str:
        return self.sim.run_scenario(scenario).to_text()

    def verify(self, text: str):
        parsed = self.dcmesh.Transcript.from_text(text)
        return parsed, self.sim.verify_transcript(parsed)


def set_up(workload, seed: int, count: int):
    """Fresh import of dcmesh, group derivation with validation, and
    generation of the first ``count`` scenarios."""
    for name in [m for m in sys.modules if m == "dcmesh" or m.startswith("dcmesh.")]:
        del sys.modules[name]
    api = Api()
    api.dcmesh.derive_params(workload.group, api.sim.DOMAIN_TAG)
    return api, [workload.scenario(api.sim, seed, i) for i in range(count)]


class Pass:
    """Runs scenarios through the API and the gate, keeping the tallies.

    ``failed`` counts scenarios that raised or failed any gate check;
    ``incorrect`` counts those whose output itself was wrong: a
    transcript that does not round-trip or replay, or a rerun (or
    traced run) that is not byte-identical.
    """

    def __init__(self, api, clock):
        self.api, self.clock = api, clock
        self.run_samples, self.verify_samples = [], []
        self.attempted = self.failed = self.incorrect = 0
        self.counts = Counts()          # first run of each scenario
        self.honest_delivered = 0       # over every timed run
        self.digests = {}               # scenario index -> sha256 of its first text

    def one(self, index, scenario, gate=True):
        """Run, time and verify one scenario.  Its transcript must replay
        clean and match earlier runs of the scenario; with ``gate`` it
        must also round-trip and serve honest senders."""
        self.attempted += 1
        try:
            text, run = self.clock.time(self.api.run, scenario)
            (parsed, report), verify = self.clock.time(self.api.verify, text)
        except Exception as exc:  # an escaped exception fails the scenario, not the run
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self._record(index, [f"{type(exc).__name__}: {exc}"], [])
            self.clock.refresh()
            return
        self.run_samples.append(run)
        self.verify_samples.append(verify)
        is_first = index not in self.digests
        wrong = self._compare(index, text)
        if not report.clean:
            wrong.append(f"replay diverges: {report.divergences[:3]}")
        unmet = []
        if gate:
            if parsed.to_text() != text:
                wrong.append("transcript does not round-trip through from_text/to_text")
            unmet, counts = check_outcome(scenario, parsed, len(text.encode()))
            self.honest_delivered += counts.honest_delivered
            if is_first:
                self.counts += counts
        self._record(index, unmet, wrong)

    def rerun_first(self, scenario):
        """Untimed rerun of scenario 0, which must repeat byte for byte."""
        self.attempted += 1
        try:
            text = self.api.run(scenario)
        except Exception as exc:  # an escaped exception fails the scenario, not the run
            self._record(0, [f"{type(exc).__name__}: {exc}"], [])
            return
        self._record(0, [], self._compare(0, text))

    def _compare(self, index, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            return ["transcript differs from the first run of this scenario"]
        return []

    def _record(self, index, unmet, wrong):
        if unmet or wrong:
            self.failed += 1
            self.incorrect += bool(wrong)
        for problem in unmet + wrong:
            print(f"FAILED scenario {index}: {problem}")


def fmt(value, unit):
    return f"{value:.6g} {unit}"


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    values = sorted(s.norm_s for s in samples)
    if len(values) < 11:
        return None
    return 100 * (len(values) - 10) / len(values), values[-11], len(values)


def timed_run(workload, args, api, scenarios, clock, setup):
    bench = Pass(api, clock)
    deadline = perf_counter() + args.seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        clock.refresh()
        for i, scenario in enumerate(scenarios):
            bench.one(i, scenario)
        passes += 1
    if passes == 1:
        bench.rerun_first(scenarios[0])
    if not bench.run_samples:
        sys.exit("no scenario completed; nothing to report")

    run, verify = median_sample(bench.run_samples), median_sample(bench.verify_samples)
    ratios = bench.counts.ratios()
    metrics = {
        "setup_s": (setup.norm_s, "s"),
        "run_p50_s": (run.norm_s, "s"),
        "verify_p50_s": (verify.norm_s, "s"),
        "delivered_msgs_per_s": (
            bench.honest_delivered / sum(s.norm_s for s in bench.run_samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {fmt(value, unit)}")
    t = tail(bench.run_samples)
    if t is None:
        print(f"{'run_tail_s':24s} undefined ({len(bench.run_samples)} samples, need 11)")
    else:
        print(f"{'run_tail_s':24s} {fmt(t[1], 's')} at p{t[0]:.1f} ({t[2]} samples, 10 beyond)")
    print(f"{'fail_share':24s} {fmt(bench.failed / bench.attempted, 'share')} "
          f"({bench.failed} of {bench.attempted} scenario runs)")
    for name, unit in (("rounds_per_msg", "ratio"), ("transcript_kb_per_msg", "kB")):
        print(f"{name:24s} {fmt(ratios[name], unit)}")
    if bench.counts.disruptors:
        print(f"{'caught_share':24s} {fmt(ratios['caught_share'], 'share')} "
              f"({bench.counts.caught} of {bench.counts.disruptors} scripted disruptors)")
    print(f"diagnostics: kernel {clock.kernel_name}, K_nominal {clock.nominal_s} s; "
          f"setup raw {setup.raw_s:.6g} s kernel {setup.kernel_s:.6g} s; "
          f"run raw {run.raw_s:.6g} s kernel {run.kernel_s:.6g} s; "
          f"verify raw {verify.raw_s:.6g} s kernel {verify.kernel_s:.6g} s; "
          f"{len(bench.run_samples)} samples in {passes} passes over {len(scenarios)} scenarios")
    return bench, metrics


def traced_run(workload, args, api, scenarios, clock):
    untraced = Pass(api, clock)
    clock.refresh()
    for i, scenario in enumerate(scenarios):
        untraced.one(i, scenario)

    traced = Pass(api, clock)
    traced.digests = dict(untraced.digests)  # traced text must match byte for byte
    tracer = Tracer()
    tracer.install()
    try:
        clock.refresh()
        for i, scenario in enumerate(scenarios):
            traced.one(i, scenario, gate=False)
    finally:
        tracer.uninstall()
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
    tracer.write(span_file)

    per_name, traced_s = tracer.totals()
    samples = traced.run_samples + traced.verify_samples
    kernel = statistics.median(s.kernel_s for s in samples) if samples else clock.nominal_s
    untraced_norm = sum(s.norm_s for s in untraced.run_samples + untraced.verify_samples)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = per_name[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_share"] = (self_s / traced_s if traced_s else 0.0, "share")
        metrics[f"{name}.self_s"] = (self_s * clock.nominal_s / kernel, "s")
    ratios = untraced.counts.ratios()
    for name in ("keysetup.slots_used_ratio", "zkp.proofs_ok_ratio",
                 "sim.sessions_per_scenario", "rounds_per_msg"):
        metrics[name] = (ratios[name], "ratio")
    metrics["transcript_kb_per_msg"] = (ratios["transcript_kb_per_msg"], "kB")
    overhead = sum(s.norm_s for s in samples) / untraced_norm if untraced_norm else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    print(f"traced pass: {len(scenarios)} scenarios, {len(tracer.ids)} spans "
          f"written to {span_file.relative_to(ROOT)}; tracing overhead {overhead:.3f}x "
          f"(normalised traced / untraced time)")
    if tracer.missing:
        print(f"not found in dcmesh, reported as zero: {', '.join(tracer.missing)}")
    print(f"{'span':44s} {'calls':>9s} {'self_share':>10s} {'self_s':>10s}")
    for name in sorted(SPAN_NAMES, key=lambda n: -per_name[n][1]):
        print(f"{name:44s} {metrics[name + '.calls'][0]:9d} "
              f"{metrics[name + '.self_share'][0]:10.4f} {metrics[name + '.self_s'][0]:10.4f}")
    for name in ("keysetup.slots_used_ratio", "zkp.proofs_ok_ratio", "sim.sessions_per_scenario",
                 "rounds_per_msg", "transcript_kb_per_msg"):
        print(f"{name:44s} {fmt(*metrics[name])}")

    for tally in ("attempted", "failed", "incorrect"):
        setattr(untraced, tally, getattr(untraced, tally) + getattr(traced, tally))
    return untraced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dcmesh" / "__init__.py").is_file():
        print(f"error: dcmesh sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}; loads {workload.loads}")

    clock = DriftClock(workload.kernel)
    count = workload.trace_pass if args.trace else workload.pool
    setups = []
    for _ in range(1 if args.trace else workload.setup_reps):
        clock.refresh()
        (api, scenarios), sample = clock.time(set_up, workload, args.seed, count)
        setups.append(sample)

    if args.trace:
        bench, metrics = traced_run(workload, args, api, scenarios, clock)
    else:
        bench, metrics = timed_run(workload, args, api, scenarios, clock, median_sample(setups))
    result = {
        "correct": bench.incorrect == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
