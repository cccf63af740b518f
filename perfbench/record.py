"""Record the reference output digests that ``worker.py`` checks at the default seed.

    python3 perfbench/record.py

Runs one pass of every workload at both scales on the default seed and
writes ``perfbench/references.json``.  Only run it on a commit whose outputs
are known to be right: it refuses to record when an output fails its
self-checks or a golden hash, and operations that raise are left out (they
are counted as failures on every run).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import HERE, ROOT, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, SCALES  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SUMSETLAB_PRECISION_CAP", None)
    references: dict = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                    "--seed", str(DEFAULT_SEED), "--seconds", "0", "--scale", scale, "--ignore-references"]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            if record["wrong"]:
                print(f"{scale} {workload}: wrong outputs, not recording:", *record["errors"], sep="\n  ")
                return 1
            references.setdefault(scale, {})[workload] = dict(sorted(record["digests"].items()))
            print(f"{scale} {workload}: {len(record['digests'])} digests, {record['failed']} failed", *record["errors"],
                  sep="\n  ")
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
