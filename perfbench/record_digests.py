"""Record the per-job output digests that run.py checks at its default seed.

    python3 perfbench/record_digests.py

Runs one untraced pass of every workload at the default seed and rewrites
``perfbench/digests.json``. Only run this when a change of outputs is
intended; any job that breaks an invariant stops the recording.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def record() -> dict:
    digests = {}
    (run.HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.HERE / ".work"))
    try:
        lc = wl.load_program(run.ROOT)
        for name in wl.WORKLOADS:
            workload = wl.build(lc, name, run.DEFAULT_SEED, workers=run.workers(), work=work)
            runs = run.run_pass(lc, workload, work)
            broken = [(r.job, r.outcome.problems) for r in runs if r.outcome.problems]
            if broken:
                sys.exit(f"{name}: jobs broke invariants, nothing recorded: {broken}")
            digests[name] = {r.job: r.outcome.digest for r in runs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return digests


def main() -> None:
    stored = {"seed": run.DEFAULT_SEED, "workloads": record()}
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in stored['workloads'].values())} digests in {path}")


if __name__ == "__main__":
    main()
