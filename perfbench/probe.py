"""Set-up probe: time one cold start of a review in a fresh interpreter.

    python3 perfbench/probe.py .perfbench_work/<workload>-s<seed>/inputs.json

run.py starts this from the checkout root after preparing the inputs. The
timed span is ``import sgcr``, then, for a workload with a prebuilt index,
building and saving the index as ``sgcr specs index`` does, then the first
(cold) review. It prints one JSON line: the seconds and the report's
sha256, which run.py compares with its own report, and the CPU seconds,
which run.py scales to the reference host speed (see speed.py).
"""

import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    cpu_start = time.process_time()
    import sgcr  # noqa: F401  (the import is part of what is timed)

    import hashlib
    import json
    import logging
    from pathlib import Path

    import harness
    import workloads

    logging.getLogger("sgcr").setLevel(logging.ERROR)
    inputs = workloads.Inputs.load(Path(sys.argv[1]))
    reviewer = harness.Reviewer(inputs)
    if inputs.workload.prebuilt_index:
        reviewer.build_index()
    text, _, _, _ = reviewer.review()
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(json.dumps({"setup_s": elapsed, "cpu_s": cpu, "sha256": digest}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main())
