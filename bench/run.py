"""guidelab benchmark: time the CLI end to end, or trace it per layer.

    python3 bench/run.py --workload compare-2d --seed 1 --seconds 30 --trace 0

Each repetition runs the real CLI in a fresh subprocess with ``--jobs 1``
on inputs generated from ``--seed``. Each is followed by a set-up probe
(a fresh interpreter that imports ``guidelab.cli`` and loads the
workload config) and a calibration probe (``bench/calibrate.py``), and
these cycles repeat until ``--seconds`` have passed, so all three sample
the same stretch of machine time. Every figure is the median over the
run; times are scaled to the reference machine speed by the run's median
calibration time. With ``--trace 1`` untraced and traced repetitions
alternate instead, and the per-layer metrics come from the traced ones
(``bench/tracer.py``).

Every repetition's outputs are checked: exit status, manifest sha256
of every artifact, byte-identical artifacts across repeats of the same
seed (par records compared without their timestamps), finite numbers,
and the workload's own checks in ``bench/workloads.py``. The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics. ``--workload all`` runs every workload both ways and
prints every metric in one table.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("oracle", "schedule", "guidance", "sampler", "diagnostics", "experiment", "cli", "par")
CHILD_TIMEOUT_S = 120.0
COMBINE_RULES = tuple(f"guidance.{n}_combine" for n in ("cfg", "np", "sdn", "sdg", "tdd_only"))
PAR_STATUSES = ("ok", "format_violation", "validation_failure", "transport_error")

# Rows of the baseline table in ROADMAP.md: (row, value, unit, workload, metric that reproduces it).
BASELINE = (
    ("one epsilon_oracle call (2-D, K=2)", 62.0, "us", "compare-2d", "oracle.us_per_call"),
    ("branch_guided_eps", 130.0, "us", "compare-2d", "guidance.branch_eps_us"),
    ("sample, 64 seeds, SDG", 1.0, "s", None, None),
    ("strategy_comparison, 5x64", 3.0, "s", "compare-2d", "experiment.strategy_comparison_s"),
    ("diagnose-lag, NP, 64 seeds", 2.0, "s", "diagnose-np", "wall_s"),
    ("tier-1 suite", 11.0, "s", None, None),
)
BASELINE_BAND = 1.5
# Median calibration-probe time (bench/calibrate.py) on the reference machine, a 2-vCPU Xeon VM
# with python 3.11.7 and numpy 2.4.6. End-to-end times are reported at this speed.
CALIBRATION_REF_S = 0.21


class Child:
    """One finished CLI subprocess: wall time, its own rusage, and its output."""

    def __init__(self, argv, run_dir, tag, env):
        out, err = run_dir / f"{tag}.stdout", run_dir / f"{tag}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fo, stderr=fe)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps only this child, so its rusage (and ru_maxrss) is its own.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.t0 = t0
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout = out.read_text()
        self.stderr = err.read_text()


class Run:
    """All repetitions of one workload at one seed, plus their checks."""

    def __init__(self, name, seed, run_dir):
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.workload = workloads.prepare(name, seed, run_dir, ROOT)
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.problems = []
        self.digests = None

    def probe(self, argv):
        """Seconds from spawning a probe process until the instant it prints on the monotonic clock."""
        child = Child([sys.executable] + argv, self.run_dir, "probe", self.env)
        if child.exit != 0:
            self.problems.append(f"probe {argv[0]} exited {child.exit}: {child.stderr[-300:]}")
            return child.wall_s
        return float(child.stdout.split()[-1]) - child.t0

    def setup_probe(self):
        """Set-up time: until guidelab.cli is imported and the workload config is loaded."""
        return self.probe(["-c", "import sys, time; import guidelab.cli; from guidelab.experiment import load_config; "
                                 "load_config(sys.argv[1]); print(time.perf_counter())", self.workload.config_path])

    def calibration_probe(self):
        """Machine-speed gauge: start-up and imports with no guidelab code (bench/calibrate.py)."""
        return self.probe([str(ROOT / "bench" / "calibrate.py")])

    def rep(self, traced=False, keep=False):
        """Run the workload once, check its outputs, and return the Child."""
        self.reps += 1
        tag = f"rep{self.reps}"
        out = self.run_dir / tag
        argv = self.workload.argv(out)
        if traced:
            argv = [str(ROOT / "bench" / "tracer.py"), str(self.run_dir / f"{tag}.spans.npz"), "--"] + argv
        else:
            argv = ["-m", "guidelab.cli"] + argv
        child = Child([sys.executable] + argv, self.run_dir, tag, self.env)
        child.out_dir = out
        failed, problems = self.check(child)
        self.attempted += self.workload.items
        self.failed += failed
        self.ok += self.workload.ok_items(child.stdout, failed)
        self.problems += [f"{tag}: {p}" for p in problems]
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return child

    def check(self, child):
        w = self.workload
        if child.exit != w.expected_exit:
            return w.items, [f"exit status {child.exit}, expected {w.expected_exit}: {child.stderr[-300:]}"]
        try:
            manifest = json.loads((child.out_dir / "manifest.json").read_text())
            listed = manifest["artifacts"]
            if sorted(listed) != sorted(w.artifacts):
                return w.items, [f"manifest lists {sorted(listed)}, expected {sorted(w.artifacts)}"]
            bad = [n for n, sha in listed.items() if workloads.sha256(child.out_dir / n) != sha]
            if bad:
                return w.items, [f"sha256 differs from manifest.json for {bad}"]
            digests = {n: w.digest(child.out_dir, n) for n in listed}
            if self.digests is None:
                self.digests = digests
                nan = {n: workloads.non_finite(child.out_dir / n) for n in listed}
                if any(nan.values()):
                    return w.items, [f"non-finite numbers in {nan}"]
            elif digests != self.digests:
                changed = sorted(n for n in digests if digests[n] != self.digests[n])
                return w.items, [f"artifacts differ from the first repeat of this seed: {changed}"]
            return w.check(child.out_dir, child.stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return w.items, [f"unreadable output: {exc!r}"]


def summary(values):
    """(median, q1, q3) of the values, as statistics.quantiles gives the quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def cycles(seconds):
    """Yield once per measurement cycle while another cycle of average length still fits in seconds."""
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start) * (n + 1) / n <= seconds:
        yield n
        n += 1


def measure_end_to_end(run, seconds):
    # Warm-up: fills the page cache (and the bytecode cache, where enabled) before anything is timed.
    run.setup_probe()
    run.calibration_probe()
    walls, cpus, rss, setups, gauges = [], [], [], [], []
    for _ in cycles(seconds):
        child = run.rep()
        walls.append(child.wall_s)
        cpus.append(min(child.cpu_s, child.wall_s))
        rss.append(child.rss_mb)
        setups.append(run.setup_probe())
        gauges.append(run.calibration_probe())
    # The machine's speed drifts over minutes by more than the bounds allow; the calibration
    # probe, interleaved with the repetitions, tracks that drift, so on-CPU time is scaled to
    # the reference speed. Time off the CPU (the par retry backoff, I/O waits) stays as measured.
    scale = CALIBRATION_REF_S / statistics.median(gauges)
    scaled = [w - c + c * scale for w, c in zip(walls, cpus)]
    for name, values in (("measured wall_s", walls), ("measured setup_s", setups), ("calibration_s", gauges)):
        med, q1, q3 = summary(values)
        print(f"{run.workload.name:<12} {name:<30} {med:>14.6g} s        q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    print(f"{run.workload.name:<12} {'time scale':<30} {scale:>14.6g} (reference calibration {CALIBRATION_REF_S} s)")
    return {"setup_s": [s * scale for s in setups], "wall_s": scaled,
            "items_per_s": [run.workload.items / w for w in scaled], "peak_rss_mb": rss,
            "ok_frac": [run.ok / run.attempted]}


def layer_metrics(run, child):
    """Per-layer metrics of one traced repetition, from its spans and outputs."""
    data = np.load(child.spans_path)
    names = json.loads(str(data["names"]))
    name_of, parent = data["name_of"], data["parent"]
    dur = data["end"] - data["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)[name_of] if names else name_of
    layer_self = np.bincount(layer_of, weights=self_time, minlength=len(LAYERS))
    count = dict(zip(names, np.bincount(name_of, minlength=len(names)).tolist()))
    total = dict(zip(names, np.bincount(name_of, weights=dur, minlength=len(names)).tolist()))

    def n(name):
        return count.get(name, 0)

    def mean_us(name):
        return 1e6 * total[name] / count[name] if n(name) else 0.0

    combine_ids = [names.index(c) for c in COMBINE_RULES if c in names]
    is_combine = np.isin(name_of, combine_ids)
    top = is_combine & ~(nested & np.isin(name_of[np.maximum(parent, 0)], combine_ids))
    trajectories = n("sampler.run_single_branch") + n("sampler.run_dual_branch")
    statuses = [line.partition(" ")[0] for line in child.stdout.splitlines()]
    status = {s: statuses.count(s) for s in PAR_STATUSES}
    prompts = n("par.build_instruction")
    out = child.out_dir
    manifest = json.loads((out / "manifest.json").read_text())
    m = {
        "oracle.calls": n("oracle.epsilon_oracle"),
        "oracle.us_per_call": mean_us("oracle.epsilon_oracle"),
        "schedule.calls": sum(c for k, c in count.items() if k.startswith("schedule.")),
        "guidance.combine_calls": int(top.sum()),
        "guidance.combine_us_per_call": 1e6 * float(dur[top].mean()) if top.any() else 0.0,
        "guidance.branch_eps_calls": n("guidance.branch_guided_eps"),
        "sampler.trajectories": trajectories,
        "sampler.steps": n("sampler.ancestral_coeffs"),
        "sampler.useful_frac": int(data["distinct_runs"]) / trajectories if trajectories else 1.0,
        "diagnostics.jacobian_us": mean_us("diagnostics.jacobian_fd"),
        "diagnostics.eigen_us": mean_us("diagnostics.leading_eigen"),
        "diagnostics.bias_probe_s": total.get("diagnostics.trajectory_bias_probe", 0.0),
        "diagnostics.warnings": int(data["runtime_warnings"]),
        "experiment.load_config_ms": 1e3 * total.get("experiment.load_config", 0.0),
        "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "cli.artifacts": len(manifest["artifacts"]),
        "par.prompts": prompts,
        "par.transport_calls": n("par.MockTransport.__call__") + n("par.HttpTransport.__call__"),
        **{f"par.status.{s}": status[s] for s in PAR_STATUSES},
        "par.parse_us": mean_us("par.parse_response"),
        "par.validate_us": mean_us("par.validate_record"),
        "par.ok_frac": status["ok"] / prompts if prompts else 1.0,
        # Not benchmark metrics: used only for the ROADMAP baseline rows.
        "guidance.branch_eps_us": mean_us("guidance.branch_guided_eps"),
        "experiment.strategy_comparison_s": total.get("experiment.strategy_comparison", 0.0),
    }
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = float(layer_self[i])
    return m


def rerun_dup_lines(run, child):
    """Run par-mock again into the same output directory; count corpus lines for prompts already there."""
    again = Child([sys.executable, "-m", "guidelab.cli"] + run.workload.argv(child.out_dir),
                  run.run_dir, "rerun", run.env)
    if again.exit != run.workload.expected_exit:
        run.problems.append(f"rerun exited {again.exit}, expected {run.workload.expected_exit}")
    seen, dups = set(), 0
    for line in (child.out_dir / "corpus.jsonl").read_text().splitlines():
        prompt = json.loads(line)["user_prompt"]
        dups += prompt in seen
        seen.add(prompt)
    return dups


def measure_per_layer(run, seconds, exact):
    run.setup_probe()  # warm-up: fills the page cache (and the bytecode cache, where enabled)
    plain, traced = [], []
    for _ in cycles(seconds):
        plain.append(run.rep().wall_s)
        child = run.rep(traced=True, keep=True)
        child.spans_path = run.run_dir / f"rep{run.reps}.spans.npz"
        if child.exit == run.workload.expected_exit:
            metrics = layer_metrics(run, child)
            metrics["trace.wall_s"] = child.wall_s
            if run.workload.name == "par-mock" and not traced:
                metrics["par.rerun_dup_lines"] = rerun_dup_lines(run, child)
            traced.append(metrics)
        shutil.rmtree(child.out_dir, ignore_errors=True)
        child.spans_path.unlink(missing_ok=True)
    if not traced:
        return {}
    samples = {k: [t[k] for t in traced if k in t] for k in traced[0]}
    for k in exact & samples.keys():
        if len(set(samples[k])) > 1:
            run.problems.append(f"{k} differs between traced repeats: {samples[k]}")
    samples["par.rerun_dup_lines"] = samples.get("par.rerun_dup_lines", [0])
    samples["trace.overhead_s"] = [summary(samples.pop("trace.wall_s"))[0] - summary(plain)[0]]
    samples["wall_s"] = plain
    return samples


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "seed": seed}


def measure(name, seed, seconds, trace, exact):
    run_dir = ROOT / ".bench_runs" / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Run(name, seed, run_dir)
        samples = measure_per_layer(run, seconds, exact) if trace else measure_end_to_end(run, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    return run, samples


def report(name, run, samples, units):
    """Print one line per metric and return {metric: {value, unit}} of the medians."""
    metrics = {}
    for metric, unit in units.items():
        values = samples.get(metric)
        if not values:
            run.problems.append(f"no value for {metric}")
            continue
        med, q1, q3 = summary(values)
        metrics[metric] = {"value": med, "unit": unit}
        print(f"{name:<12} {metric:<30} {med:>14.6g} {unit:<8} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        if len(values) > 1 and unit == "s":
            print(f"{'':<12} {'':<30} samples " + " ".join(f"{v:.4g}" for v in values))
    return metrics


def baseline_rows(results):
    """Compare the ROADMAP baseline table with this run's figures."""
    for row, value, unit, workload, metric in BASELINE:
        got = results.get(workload, {}).get(metric)
        if got is None:
            where = "no workload reproduces this row" if workload is None else f"needs --workload {workload}"
            print(f"baseline  {row:<36} roadmap {value:g} {unit}: not measured ({where})")
            continue
        ratio = got / value
        verdict = "agrees" if 1 / BASELINE_BAND <= ratio <= BASELINE_BAND else "DISAGREES"
        print(f"baseline  {row:<36} roadmap {value:g} {unit}, measured {got:.4g} {unit} as {workload} {metric} "
              f"(x{ratio:.2f}, {verdict} within x{BASELINE_BAND})")


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the running child is killed and reaped
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    units = [{m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")]
    # Per-layer counts and ratios of counts must repeat exactly between traced repetitions.
    exact = {m for m, u in units[1].items() if u in ("count", "fraction")}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/guidelab/cli.py", str(workloads.TWO_WELL)) if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: error: {ROOT} is not a guidelab checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.workload != "all":
        names = (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    metrics, problems, attempted, failed, figures = {}, [], 0, 0, {}
    for name in names:
        for trace in modes:
            run, samples = measure(name, args.seed, args.seconds, trace, exact)
            got = report(name, run, samples, units[trace])
            figures.setdefault(name, {}).update({k: summary(v)[0] for k, v in samples.items()})
            for k, v in got.items():
                metrics[k if len(names) == 1 else f"{name}/{k}"] = v
            attempted += run.attempted
            failed += run.failed
            problems += [f"{name}: {p}" for p in run.problems]
    if args.trace or args.workload == "all":
        baseline_rows(figures)
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
