"""Regenerate reference.json: each workload's outputs at the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark compares every run at the default seed against these values,
so regenerate them only in a change that says why the outputs move.
"""
from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

from checks import Checker
from worker import DEFAULT_SEED, REFERENCE
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    warnings.simplefilter("ignore")
    ref = {}
    for name, cls in WORKLOADS.items():
        work = ROOT / ".perfbench_out" / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = cls(DEFAULT_SEED, work)
        wl.run()
        ck = Checker()
        wl.check(ck, None)
        if ck.failed:
            print(f"{name}: invariant checks failed: {ck.messages}", file=sys.stderr)
            return 1
        ref[name] = wl.summary()
        print(f"{name}: {ck.attempted} checks passed")
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
