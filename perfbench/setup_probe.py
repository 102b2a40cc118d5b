"""Time one benchmark set-up in a fresh process: imports, then the job list.

Prints the seconds taken; run.py starts several of these, each next to a
reference import, and reports the median ratio, scaled to seconds, as ``setup_s``.
"""

import time

_START = time.perf_counter()

import argparse
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--small", action="store_true")
args = parser.parse_args()
with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / ".work") as work:
    wl.build(wl.load_program(ROOT), args.workload, args.seed, args.small, work=Path(work))
    print(time.perf_counter() - _START)
