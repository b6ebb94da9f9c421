"""Benchmark of the readout-opt CLI; see README.md in this directory.

    python3 perfbench/run.py --workload optimize_dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Commands run closed-loop, one at a time,
in this process, until --seconds have passed.  The last line of standard
output is a JSON object with keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a JSON report with the sample counts, the
environment and any failed checks.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("optimize_dense", "sweep_band", "montecarlo_d5")

#: set-up is repeated in this many fresh interpreters; setup_s is their median
SETUP_REPEATS = 3


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for a run with this --trace."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def use_checkout_source() -> None:
    """Import readout_opt from this checkout's src/, never from elsewhere."""
    if not (SRC / "readout_opt" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'readout_opt'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import readout_opt

    if Path(readout_opt.__file__).resolve().parent != SRC / "readout_opt":
        raise SystemExit(f"error: readout_opt imported from {readout_opt.__file__}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "readout_opt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(workload: str, seed: int, work: Path, sampler) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up.

    The interpreter runs on this process's core, so that the sampler
    samples the core it runs on; returns them at the reference speed.
    """
    with hostspeed.pinned(), sampler.span() as span:
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(work)],
            check=True, stdout=subprocess.DEVNULL,
        )
    return span.ref_s


def quiet():
    """Keep the CLI's own stdout lines off the benchmark's stdout."""
    return contextlib.redirect_stdout(io.StringIO())


class Runner:
    """Closed-loop command loop over one workload's plan.

    With a hostspeed.Sampler, each command's span also gets its time at the
    reference speed; without one, only its wall time.
    """

    def __init__(self, wl, plan, out: Path, sampler=None):
        self.wl, self.plan, self.out = wl, plan, out
        self.timer = sampler.span if sampler else hostspeed.unsampled
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_one(self, cmd, check, tracer=None, counts=None) -> hostspeed.Span:
        """Run one command and check its outputs; returns its timed span.

        check(cmd, out) lists problems; with check None only the exit code
        counts.  With a tracer the command runs inside a cli.main span and
        the step-cache deltas and output counts are added to counts.
        """
        from readout_opt import cli
        from tracing import step_cache_info

        shutil.rmtree(self.out, ignore_errors=True)
        argv = [*cmd.argv, "--out", str(self.out)]
        before = step_cache_info() if tracer else None
        with quiet(), self.timer() as span:
            try:
                code = (tracer.timed("cli.main", cli.main, argv) if tracer
                        else cli.main(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        self.attempted += 1
        if code != 0:
            problems = [f"{cmd.ref}: exit code {code}"]
        else:
            problems = check(cmd, self.out) if check else []
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if tracer:
            after = step_cache_info()
            if before and after:
                counts["step_hits"] += after[0] - before[0]
                counts["step_misses"] += after[1] - before[1]
            counts.update(output_counts(self.out))
        return span

    def loop(self, seconds: float, tracer=None, counts=None) -> list[hostspeed.Span]:
        """Run the plan until seconds have passed, at least one command."""
        spans = []
        deadline = perf_counter() + seconds
        while not spans or perf_counter() < deadline:
            cmd = next(self.plan)
            spans.append(self.run_one(cmd, self.wl.check, tracer, counts))
            self.items += cmd.items
            if counts is not None:
                counts["items"] += cmd.items
        return spans


def output_counts(out: Path) -> Counter:
    """Work counts read from a command's outputs."""
    import yaml

    counts = Counter()
    counts["bytes_out"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    results = out / "results.yaml"
    if results.is_file():
        counts["evaluations"] = int(yaml.safe_load(results.read_text())["evaluations"])
    errors = out / "per_qubit_errors.csv"
    if errors.is_file():
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        n_qubits = len(errors.read_text().splitlines()) - 1
        counts["shots"] = manifest["n_states"] * manifest["n_shots"] * n_qubits
    return counts


def has_threads_flag() -> bool:
    from readout_opt import cli

    with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        args = cli.build_parser().parse_args(
            ["optimize", "--device", "d", "--out", "o", "--threads", "2"])
        return getattr(args, "threads", None) == 2
    return False


def pool_speedups(runner: Runner, work: Path, seed: int) -> dict:
    """--threads 1 time over --threads 2 time on optimize_dense and the small grid.

    Measured only in the traced optimize_dense run, and only while the CLI
    still has the flag.
    """
    from workloads import Command, OptimizeDense, d3_raw, write_yaml

    dense = runner.wl
    if not isinstance(dense, OptimizeDense) or not has_threads_flag():
        return {}
    cases = {"dense": (dense.command(seed % dense.VARIANTS), dense.check)}
    small_config = ROOT / "configs" / "optimizer_small.yaml"
    if small_config.is_file():
        device = write_yaml(work / "pool_d3.yaml", d3_raw())
        argv = ("optimize", "--device", device, "--opt-config", str(small_config),
                "--strategy", "all")
        cases["small"] = (Command(argv, 0, "small"), None)  # no stored reference
    speedups = {}
    for name, (cmd, check) in cases.items():
        t1, t2 = (runner.run_one(replace(cmd, argv=cmd.argv + ("--threads", n)), check).wall_s
                  for n in ("1", "2"))
        speedups[f"snake.pool_speedup.{name}"] = t1 / t2
    return speedups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="generate the inputs into WORKDIR and exit")
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    wl_class = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with quiet():
            wl_class(Path(args.setup_only))
        return 0

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, wl_class, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl_class, work: Path) -> int:
    import tracing

    with quiet():
        wl = wl_class(work / "inputs")
    sampler = None if args.trace else hostspeed.Sampler()
    runner = Runner(wl, wl.commands(args.seed), work / "out", sampler)
    # one checked but untimed command first, so that first-call costs
    # (lazy imports, allocator growth) stay out of the timed commands
    runner.run_one(next(runner.plan), wl.check)
    report = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}

    if args.trace:
        untraced = [s.wall_s for s in runner.loop(args.seconds / 2)]
        tracer, counts = tracing.Tracer(), Counter()
        tracer.install()
        try:
            traced = [s.wall_s for s in runner.loop(args.seconds / 2, tracer, counts)]
        finally:
            tracer.uninstall()
        extra = {"trace.wall_s": statistics.median(traced),
                 "trace.overhead": statistics.median(traced) / statistics.median(untraced)}
        extra.update(pool_speedups(runner, work, args.seed))
        values = tracing.layer_metrics(tracer, len(traced), counts, extra)
        report["absent"] = tracer.absent
        if tracing.step_cache_info() is None:
            report["absent"].append(".".join(tracing.STEP_CACHE))
        report["traced_commands"] = len(traced)
        report["shares"] = tracing.shares(values, counts["items"] / len(traced))
        walls = untraced
    else:
        setups = [setup_probe(args.workload, args.seed, work / f"probe{i}", sampler)
                  for i in range(SETUP_REPEATS)]
        spans = runner.loop(args.seconds)
        refs = [s.ref_s for s in spans]
        values = {
            "setup_s": statistics.median(setups),
            "ref_wall_s": statistics.median(refs),
            "ref_items_per_s": runner.items / sum(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["setup_s_samples"] = setups
        walls = [s.wall_s for s in spans]

    report["wall_s"] = {"median": statistics.median(walls), "n": len(walls)}
    if len(walls) >= 100:
        report["wall_s"]["p90"] = statistics.quantiles(walls, n=10)[-1]
    report["failed_frac"] = runner.failed / runner.attempted
    report["problems"] = runner.problems[:20]
    print(json.dumps(report))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
