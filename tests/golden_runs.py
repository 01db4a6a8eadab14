"""Run every golden command through an entry command and compare its
machine report with the golden file: stdout byte for byte, and the exit
code the golden records.  The entry command is given as the arguments,
for example

    python tests/golden_runs.py gpdkit
    PYTHONPATH=src python tests/golden_runs.py python -m gpdkit

Each command runs from the repository root, as ``test_golden`` runs it in
process.  Prints one line per mismatch and a total, and exits 1 on any
mismatch.
"""

import json
import subprocess
import sys

from test_golden import COMMANDS, GOLDEN, ROOT, _name


def main(entry):
    failed = 0
    for argv in COMMANDS:
        want = (GOLDEN / f"{_name(argv)}.json").read_bytes()
        run = subprocess.run([*entry, *argv, "--machine"], cwd=ROOT, capture_output=True)
        if run.stdout != want or run.returncode != json.loads(want)["exit_code"]:
            failed += 1
            print(f"mismatch: {' '.join([*entry, *argv])} (exit {run.returncode})")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} golden runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: golden_runs.py ENTRY-COMMAND...")
    sys.exit(main(sys.argv[1:]))
