"""Re-record ``expected.json``: the reference output the benchmark checks against.

It holds the sha256 of ``readduo run all --quick`` stdout.

Run from the root of a checkout: ``python3 perfbench/record_expected.py``.
Only re-record when simulation semantics change on purpose, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys

from common import EXPECTED, Sandbox, run_child, timed_native_build


def main() -> int:
    sandbox = Sandbox()
    try:
        _child, native, _facts = timed_native_build(sandbox)
        child = run_child(
            [sys.executable, "-m", "repro", "run", "all", "--quick"],
            sandbox.env(sandbox.fresh("sweep"), native),
            cwd=sandbox.fresh("work"),
            timeout=900.0,
        )
        if child.code != 0:
            sys.stderr.write(child.stderr.decode(errors="replace"))
            return 1
        expected = {"run_all": {"stdout_sha256": hashlib.sha256(child.stdout).hexdigest()}}
    finally:
        sandbox.close()
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
