"""conhoch benchmark: one workload through the real CLI, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload hh-grid --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  Every command runs in a
fresh interpreter (``python -m conhoch ... --jobs 1``, CONHOCH_JOBS
removed), one after the other, so each pays start-up and the cached slot
enumeration as a user does.  A pass runs every command of the workload
once; passes repeat while the next one fits in --seconds (at least one
pass).  Every output is checked (see gen.py).

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of a fresh ``import conhoch.cli`` (11 samples)
  wall_s       median over passes of the summed command times
  cmd_p50_s    median time of one command over all passes
  peak_rss_mb  largest peak RSS of any command (os.wait4 rusage)
  ops_ok_frac  commands with correct output / commands attempted

Each command's wall time is scaled to a nominal machine speed before
wall_s and cmd_p50_s are formed (see SpeedGauge): on a shared host the
speed drifts by up to 40 % within minutes, and the scaling cancels that
drift while leaving every change in the program's own speed in the
figures.  setup_s is not scaled, as import time does not follow the
reference loop's speed.  The run record keeps both the wall and the scaled
time of every command.

--trace 1 runs one untraced pass and one pass under tracer.py and
prints the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; a fuller
record with the environment and every failure is written to
.bench_work/results/.  ``correct`` is false when any command fails,
except a failure listed as a known defect of the program (gen.py marks
it), which is still counted in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 11
#: time of the reference loop that SpeedGauge scales times to; about what
#: the loop takes on a 2-vCPU Intel Xeon VM with Python 3.11
GAUGE_NOMINAL_S = 0.001
#: the reference loop runs once per this many seconds while a command runs
GAUGE_PERIOD_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s",
                    "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}

#: per-layer metric -> unit; self_s is span time minus time of child spans
PER_LAYER_UNITS = {
    "linalg.rank.count": "count", "linalg.rank.self_s": "s", "linalg.rank.cells": "count",
    "linalg.rank.nnz": "count", "linalg.rank.density": "ratio",
    "linalg.rank.max_cells": "count",
    "linalg.solve.count": "count", "linalg.solve.self_s": "s", "linalg.solve.cells": "count",
    "linalg.solve.density": "ratio", "linalg.solve.inconsistent": "count",
    "linalg.matrix_build.self_s": "s",
    "cohomology.enumerate.self_s": "s", "cohomology.enumerate.cache_hit_ratio": "ratio",
    "cohomology.image_columns.self_s": "s", "cohomology.image_columns.columns": "count",
    "cohomology.blocks.count": "count", "cohomology.solve_d.self_s": "s",
    "symbols.differential_d.count": "count", "symbols.differential_d.self_s": "s",
    "symbols.monomial_member.count": "count", "symbols.monomial_member.kept_ratio": "ratio",
    "symbols.chain_membership.self_s": "s",
    "poly.construct.count": "count", "poly.mul.count": "count",
    "diffops.apply.count": "count", "diffops.apply.self_s": "s",
    "starprod.check_associativity.count": "count",
    "starprod.check_associativity.self_s": "s", "starprod.triples": "count",
    "serialize.decode.self_s": "s", "serialize.encode.self_s": "s",
    "serialize.bytes_in": "bytes", "serialize.bytes_out": "bytes",
    "cli.emit.self_s": "s", "cli.process_s": "s",
    "repo.src_loc": "lines", "trace.overhead_ratio": "ratio",
}


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "jobs": "--jobs 1 forced on every command",
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "CONHOCH_JOBS": "cleared" + (f" (was {os.environ['CONHOCH_JOBS']!r})"
                                         if "CONHOCH_JOBS" in os.environ else "")}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CONHOCH_JOBS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv, cwd, env, stdout=subprocess.PIPE):
    """Run argv to completion; returns (exit code, stdout bytes, wall s, peak RSS MB)."""
    start = time.perf_counter()
    with open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=err)
        out = b""
        if proc.stdout is not None:
            out = proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def _reference_loop() -> float:
    """Time one run of a fixed pure-Python loop (about 1 ms): Fraction
    arithmetic and dict updates, the operations the program itself spends
    its time on."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 250):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class SpeedGauge:
    """Tracks the machine's speed while the timed commands run.

    On a shared host a vCPU switches between a fast and a slow state,
    about 1.7x apart, every few seconds.  While a command runs, a thread
    of the benchmark process times the reference loop every
    GAUGE_PERIOD_S, which takes about 2 % of the CPU from the command.
    The benchmark and its commands are pinned to one CPU, so the loop runs
    where the command runs and sees the same state.  ``scale_last()``
    turns the command's wall time into time at nominal speed: a host
    slowdown stretches the loop as much as the command and cancels out,
    while the loop runs no program code, so a change to the program moves
    the scaled times fully.  Work done per second is the reciprocal of the
    loop time, so the samples are combined by their harmonic mean."""

    def __init__(self):
        self.samples = []
        #: the samples taken while the last watched command ran
        self.last = []
        self._on = threading.Event()
        threading.Thread(target=self._probe, daemon=True).start()

    def _probe(self) -> None:
        while True:
            self._on.wait()
            time.sleep(GAUGE_PERIOD_S)
            if self._on.is_set():
                self.samples.append(_reference_loop())

    @contextlib.contextmanager
    def watching(self):
        first = len(self.samples)
        self._on.set()
        try:
            yield
        finally:
            self._on.clear()
            self.last = self.samples[first:]

    def scale_last(self) -> float:
        """Factor that scales the last watched command to nominal speed.  A
        command too short for a sample takes the samples of the run so far."""
        samples = self.last or self.samples or [GAUGE_NOMINAL_S]
        return GAUGE_NOMINAL_S / statistics.harmonic_mean(samples)


def measure_setup(env) -> float:
    argv = [sys.executable, "-c", "import conhoch.cli"]
    _spawn(argv, ROOT, env, stdout=subprocess.DEVNULL)  # writes bytecode once
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, _, wall, _ = _spawn(argv, ROOT, env, stdout=subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("import conhoch.cli failed")
        samples.append(wall)
    return statistics.median(samples)


def _file_arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def run_pass(gen, cmds, workdir, env, gauge, trace_dir=None) -> dict:
    """Run every command once; with trace_dir, under the tracer.  The
    pass's times are sums over its commands, so the output checks do not
    count in them."""
    records = []
    for n, cmd in enumerate(cmds):
        argv = cmd.argv + ["--jobs", "1"]
        if trace_dir is None:
            full = [sys.executable, "-m", "conhoch"] + argv
        else:
            spans = os.path.join(trace_dir, f"cmd{n:03d}.json")
            full = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--"] + argv
        with gauge.watching():
            code, out, wall, rss = _spawn(full, workdir, env)
        scaled = wall * gauge.scale_last()
        text = out.decode("utf-8", errors="replace")
        try:
            reason = cmd.check(gen.Result(code, text, workdir))
        except (KeyError, TypeError, ValueError, OSError) as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        bytes_out = len(out)
        out_file = _file_arg(cmd.argv, "--out")
        if out_file and os.path.exists(os.path.join(workdir, out_file)):
            bytes_out += os.path.getsize(os.path.join(workdir, out_file))
        in_file = _file_arg(cmd.argv, "--in")
        bytes_in = os.path.getsize(os.path.join(workdir, in_file)) if in_file else 0
        records.append({"n": n, "label": cmd.label, "argv": cmd.argv, "code": code,
                        "wall_s": wall, "scaled_s": scaled, "rss_mb": rss, "ok": reason is None,
                        "reason": reason, "known_defect": cmd.known_defect,
                        "bytes_in": bytes_in, "bytes_out": bytes_out})
    return {"wall_s": sum(r["wall_s"] for r in records),
            "scaled_s": sum(r["scaled_s"] for r in records), "commands": records}


def layer_metrics(trace_dir, traced: dict, untraced: dict) -> dict:
    self_s = defaultdict(float)
    counts = defaultdict(int)
    process_s = 0.0
    for rec in traced["commands"]:
        with open(os.path.join(trace_dir, f"cmd{rec['n']:03d}.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self_s[name] += end - start - child
        main = sum(end - start for name, start, end, _ in spans if name == "cli.main")
        process_s += rec["wall_s"] - main
        for key, value in data["counts"].items():
            if key.endswith("max_cells"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    src_loc = 0
    for path in glob.glob(os.path.join(SRC, "conhoch", "*.py")):
        with open(path, encoding="utf-8") as fh:
            src_loc += sum(1 for _ in fh)
    hits = counts["cohomology.enumerate.hits"]
    calls = hits + counts["cohomology.enumerate.misses"]
    values = {
        "linalg.rank.density": ratio("linalg.rank.nnz", "linalg.rank.cells"),
        "linalg.solve.density": ratio("linalg.solve.nnz", "linalg.solve.cells"),
        "cohomology.enumerate.cache_hit_ratio": hits / calls if calls else 0.0,
        "symbols.monomial_member.kept_ratio": ratio("symbols.monomial_member.kept",
                                                    "symbols.monomial_member.count"),
        "serialize.bytes_in": sum(r["bytes_in"] for r in traced["commands"]),
        "serialize.bytes_out": sum(r["bytes_out"] for r in traced["commands"]),
        "cli.process_s": process_s,
        "repo.src_loc": src_loc,
        "trace.overhead_ratio": traced["scaled_s"] / untraced["scaled_s"],
    }
    for name in PER_LAYER_UNITS:
        if name not in values:
            if name.endswith(".self_s"):
                values[name] = self_s[name[: -len(".self_s")]]
            else:
                values[name] = counts[name]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conhoch", "cli.py")):
        sys.stderr.write(f"error: no conhoch sources under {SRC}; "
                         "run from the repository root\n")
        return 2
    sys.path.insert(0, SRC)
    import gen

    if args.workload not in gen.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(gen.WORKLOADS)}\n")
        return 2
    cmds = gen.generate(args.workload, args.seed)
    if gen.fingerprint(cmds) != gen.fingerprint(gen.generate(args.workload, args.seed)):
        sys.stderr.write("error: the generator is not deterministic\n")
        return 3

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for cmd in cmds:
        for name, text in cmd.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    env = _child_env()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by commands
    gauge = SpeedGauge()
    setup_s = measure_setup(env)

    if args.trace:
        trace_dir = os.path.join(workdir, "spans")
        os.makedirs(trace_dir)
        untraced = run_pass(gen, cmds, workdir, env, gauge)
        traced = run_pass(gen, cmds, workdir, env, gauge, trace_dir)
        passes = [untraced, traced]
        values = layer_metrics(trace_dir, traced, untraced)
        units = PER_LAYER_UNITS
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(gen, cmds, workdir, env, gauge))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        units = END_TO_END_UNITS

    records = [r for p in passes for r in p["commands"]]
    failed = [r for r in records if not r["ok"]]
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["scaled_s"] for p in passes),
            "cmd_p50_s": statistics.median(r["scaled_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "ops_ok_frac": 1.0 - len(failed) / len(records),
        }
    result = {
        "correct": all(r["known_defect"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }

    env_record = _environment()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record_path = os.path.join(WORK, "results",
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env_record, "passes": len(passes),
                   "gauge_samples": len(gauge.samples),
                   "commands_per_pass": len(cmds), "result": result,
                   "failures": failed, "commands": records}, fh, indent=1)

    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(cmds)} commands, {len(records)} commands attempted, {len(failed)} failed")
    for r in failed:
        tag = " [known defect]" if r["known_defect"] else ""
        print(f"  FAILED{tag} {' '.join(r['argv'])}: {r['reason']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
