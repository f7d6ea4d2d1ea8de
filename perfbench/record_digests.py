"""Record each workload's reference output digest for a range of seeds.

    python3 perfbench/record_digests.py FIRST LAST

Writes ``perfbench/digests.json``. A later run on a recorded seed fails its
correctness gate when its output tree differs from the recorded one; on
other seeds the timed runs are checked against their own reference run.
Record only from a commit whose output is known to be right, and only
after every other check passes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[1]), int(argv[2])
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for name, prepare in run.WORKLOADS.items():
        for seed in range(first, last + 1):
            work = run.WORK / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                prepared = prepare(work, seed)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if prepared.problems:
                print(f"{name} seed {seed}: {'; '.join(prepared.problems)}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = prepared.digest
            print(f"{name} {seed} {prepared.digest}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
