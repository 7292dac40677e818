"""graphdyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(worker.py) that imports graphdyn from ./src, with the BLAS/OpenMP thread
settings capped at the number of usable cores.  With --trace 0 a second
child runs the same workload on the baseline copy of graphdyn in
perfbench/baseline, the sources the benchmark was defined against.  The two
take turns part by part, so a slowdown of the shared host hits both, and the
end-to-end times are reported as the program's time over the baseline's.
Set-up is timed several times, in separate processes, and reported as a
median.  With --trace 1 the result carries the per-layer metrics of the
median traced repetition and the tracing overhead.  The line before the
result records the environment.  Outputs, logs and spans go to
.perfbench_out/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline"
WORKLOADS = ("chain", "diffusion", "metrics", "ensemble")
SETUP_PROBES = 4  # set-up-only processes, besides the measuring one
MIN_REPS = 3  # a run always reports at least three repetitions
TRIM = 0.2  # the share of per-repetition ratios dropped at each end before averaging
DEADLINE_S = 170.0  # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders in every run
    for var in THREAD_VARS:
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(cap, 1))
    return env


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Worker:
    """A worker process on graphdyn from `src`; set-up is timed up to its first line."""

    def __init__(self, args, src: Path, work: Path, env: dict, deadline: float,
                 setup_only: bool = False) -> None:
        env = dict(env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work), "--src", str(src)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.labels = self._read()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self):
        left = max(self.deadline - time.monotonic(), 0)
        ready, _, _ = select.select([self.proc.stdout], [], [], left)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RunError(f"worker stopped answering (exit code {self.proc.poll()})")
        try:
            return json.loads(line)
        except ValueError:
            raise RunError(f"worker answered {line.strip()!r}") from None

    def ask(self, command: str):
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise RunError(f"worker exited early (exit code {self.proc.poll()})") from None
        return self._read()

    def finish(self) -> None:
        """Let the worker write its result and exit; raises if it fails to."""
        try:
            try:
                self.proc.stdin.write("done\n")
                self.proc.stdin.close()
            except BrokenPipeError:  # a set-up-only worker may be gone already
                pass
            self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            raise RunError("worker ran past the deadline") from None
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RunError(f"worker exited with code {self.proc.returncode}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                try:
                    pipe.close()
                except OSError:
                    pass


def repeat(workers: list[Worker], budget_s: float, min_reps: int) -> list[list[dict]]:
    """Repeat the work while another repetition fits in budget_s, and at least
    min_reps times.  Within a repetition the workers take turns on each part,
    the first of them swapping every repetition.  Returns, per repetition and
    worker, {part label: [wall_s, cpu_s]}."""
    reps: list[list[dict]] = []
    start = time.perf_counter()
    while len(reps) < min_reps or (
            budget_s > 0 and (time.perf_counter() - start) * (len(reps) + 1) / len(reps) < budget_s):
        order = list(range(len(workers)))
        if len(reps) % 2:
            order.reverse()
        times: list[dict] = [{} for _ in workers]
        for w in workers:
            w.ask("begin")
        for i, label in enumerate(workers[0].labels):
            for k in order:
                times[k][label] = workers[k].ask(f"part {i}")
        for w in workers:
            w.ask("end")
        reps.append(times)
    return reps


def total(times: dict, k: int) -> float:
    """Wall (k = 0) or CPU (k = 1) seconds of one repetition, all parts."""
    return sum(v[k] for v in times.values())


def trimmed_mean(values: list[float]) -> float:
    """The mean of the values left once the lowest and the highest TRIM of them
    are dropped: steadier than the median when the noise is even on both sides,
    and still blind to a rare stall."""
    xs = sorted(values)
    k = int(len(xs) * TRIM)
    return statistics.fmean(xs[k:len(xs) - k])


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "baseline").mkdir(parents=True)
    nproc = usable_cores()
    env = child_env(nproc)
    src = ROOT / "src"

    setups = []
    for _ in range(SETUP_PROBES):
        probe = Worker(args, src, work, env, deadline, setup_only=True)
        probe.finish()
        setups.append(probe.setup_s)
    workers = []
    try:
        workers.append(Worker(args, src, work, env, deadline))
        setups.append(workers[0].setup_s)
        if args.trace:
            untraced = repeat(workers, args.seconds / 2, 1)
            workers[0].ask("trace")
            traced = repeat(workers, 0.0, len(untraced))
        else:
            workers.append(Worker(args, BASELINE, work / "baseline", env, deadline))
            # the first repetition warms both workers up and is left out
            reps = repeat(workers, args.seconds, MIN_REPS + 1)[1:]
        for w in workers:
            w.finish()
    finally:
        for w in workers:
            w.stop()
    res = json.loads((work / "worker_result.json").read_text())

    if args.trace:
        layers = res["layers"]
        # one whole repetition, the median one, so its layers' self times add up
        values = dict(sorted(layers, key=lambda v: v["trace.wall_s"])[(len(layers) - 1) // 2])
        values["trace.overhead_frac"] = (statistics.median(total(r[0], 0) for r in traced)
                                         / statistics.median(total(r[0], 0) for r in untraced)
                                         - 1.0)
        samples = {"untraced_wall_s": [total(r[0], 0) for r in untraced]}
    else:
        values = {
            "wall_rel": trimmed_mean([total(p, 0) / total(b, 0) for p, b in reps]),
            "cpu_rel": trimmed_mean([total(p, 1) / total(b, 1) for p, b in reps]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        }
        samples = {"program_wall_s": [total(p, 0) for p, _ in reps],
                   "baseline_wall_s": [total(b, 0) for _, b in reps]}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RunError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    env_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "git_sha": git_sha(),
        "threads": {v: env[v] for v in THREAD_VARS}, **res["env"],
        **samples, "setup_samples_s": setups,
        "check_failures": res["messages"],
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"env": env_record, "result": result, "parts": None if args.trace else reps}, indent=1))
    for msg in res["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"env": env_record, "result": result}


def declared_units(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "graphdyn" / "__init__.py").is_file():
        print(f"error: no graphdyn sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        out = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
