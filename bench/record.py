"""Record the reference outputs of every pool entry of every workload.

    python3 bench/record.py [--workload NAME ...]

The benchmark fails any operation whose output drifts from these
references, so re-record only when a change is meant to alter the
program's results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

from run import NAMES, WORK_ROOT, pin_threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", choices=NAMES,
                        default=list(NAMES))
    args = parser.parse_args(argv)
    pin_threads(1)
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    for name in args.workload:
        w = workloads.WORKLOADS[name]
        work = workloads.Path(tempfile.mkdtemp(prefix="record-",
                                               dir=WORK_ROOT))
        try:
            entries = list(range(w.pool))
            workloads.prepare(w, work, entries)
            for task in w.tasks:
                recorded = {}
                for entry in entries:
                    cmd = workloads.run_command(task, work, entry)
                    if cmd.failed or set(cmd.outputs) != set(task.files):
                        raise SystemExit(f"{task.name}: entry {entry} failed")
                    recorded[str(entry)] = cmd.outputs
                workloads.save_reference(task, recorded)
                print(f"{task.name}: {len(recorded)} entries -> "
                      f"{workloads.reference_path(task)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
