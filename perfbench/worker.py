"""One workload in its own process: set-up, then timed parts on command.

Started by run.py, never by hand.  Once set-up (interpreter, imports, input
generation) is done it writes the labels of the work's parts, as a JSON list,
on its standard output; that line is where run.py stops the set-up clock.
Then it reads one command a line from its standard input and answers each
with one line of JSON:

    begin        start a repetition                     -> ok
    part <i>     run part i of the work, timed          -> [wall_s, cpu_s]
    end          check the outputs (and collect the
                 layers of a traced repetition)         -> ok
    trace        wrap graphdyn's entry points           -> ok
    done         write worker_result.json and exit

run.py drives the program and the baseline copy (see run.py) part by part,
so the two run side by side in time.  Everything graphdyn itself prints goes
to a log file in the work directory, so the protocol pipe stays clean.
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0


def _bytes_in(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.iterdir() if p.is_file())


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def serve(wl, ck, ref, work: Path, proto_in, proto_out) -> dict:
    parts = wl.parts()
    tracer = None
    layers = []  # per traced repetition
    rep_wall = 0.0

    def reply(obj) -> None:
        print(json.dumps(obj), file=proto_out, flush=True)

    for line in proto_in:
        cmd = line.split()
        if cmd[0] == "begin":
            gc.collect()
            if tracer is not None:
                tracer.clear()
            rep_wall = 0.0
            reply("ok")
        elif cmd[0] == "part":
            fn = parts[int(cmd[1])][1]
            c0, t0 = time.process_time(), time.perf_counter()
            fn()
            t1, c1 = time.perf_counter(), time.process_time()
            rep_wall += t1 - t0
            reply([t1 - t0, c1 - c0])
        elif cmd[0] == "end":
            if tracer is not None:
                layers.append(tracer.collect(rep_wall, _bytes_in(wl.outputs())))
            wl.check(ck, ref)
            reply("ok")
        elif cmd[0] == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            reply("ok")
        elif cmd[0] == "done":
            break
        else:
            raise ValueError(f"unknown command {line!r}")
    if tracer is not None:
        tracer.write(work / "spans.csv")
    return {"layers": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--src", type=Path, required=True, help="where graphdyn must come from")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    proto = sys.stdout
    sys.stdout = open(args.work / "program_stdout.log", "a")
    # chain-regime and step-size warnings repeat on every repetition; they
    # carry no information for a benchmark whose configs are fixed
    warnings.simplefilter("ignore")

    import graphdyn

    if args.src.resolve() not in Path(graphdyn.__file__).resolve().parents:
        print(f"error: graphdyn imported from {graphdyn.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.work)
    ref = json.loads(REFERENCE.read_text())[args.workload] if args.seed == DEFAULT_SEED else None
    print(json.dumps([label for label, _ in wl.parts()]), file=proto, flush=True)
    if args.setup_only:
        return 0

    from checks import Checker

    ck = Checker()
    result = serve(wl, ck, ref, args.work, sys.stdin, proto)
    result.update({
        "attempted": ck.attempted,
        "failed": ck.failed,
        "messages": ck.messages[:20],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    })
    (args.work / "worker_result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
