"""Record the benchmark's correctness references from the library as it is.

    python3 bench/record_references.py

Runs one pass of every workload at ``REFERENCE_SEED`` (plus the paper
workload's thread-count sweeps) with checking replaced by recording, and
writes ``bench/references.json``.  Run it only on a commit whose outputs are
trusted: every later run of the benchmark is checked against this file.
"""
from __future__ import annotations

import json
import sys

from spans import NullRecorder
from workloads import REFERENCE_SEED, REFERENCES, WORKLOADS


def main() -> int:
    refs = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.recording = {}
        workload.setup(REFERENCE_SEED, NullRecorder())
        for _label, _group, fn in workload.tasks + workload.extra_tasks:
            fn(NullRecorder())
        refs[name] = workload.recording
        print(f"{name}: {len(workload.recording)} references")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
