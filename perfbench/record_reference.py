"""Record the reference outputs the benchmark compares jobs against.

    python3 perfbench/record_reference.py [workload ...]

Runs every job of each workload once with the default seed and stores, per
job key, the exit code, stdout, "wrote N boxes" line and output-file
digests in ``perfbench/reference/<workload>.json``.  Record them at a
commit whose outputs are known good; a later commit must reproduce them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCES.mkdir(exist_ok=True)
    for name in argv or sorted(workloads.WORKLOADS):
        tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
        try:
            jobs = workloads.setup(name, workloads.DEFAULT_SEED, run.ROOT, tmp)
            from spongedim import cli

            refs = {}
            for job in jobs:
                result, seconds = run.run_job(cli, job, tmp)
                refs[job.key] = result
                print(f"{seconds:8.3f}s exit={result['exit']} {job.key}", file=sys.stderr)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        path = run.REFERENCES / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
