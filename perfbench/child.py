"""``readduo`` with the benchmark's layer spans installed; spans written at exit.

Usage: ``python3 perfbench/child.py SPANS_JSON <readduo arguments...>``
(with ``src`` on ``PYTHONPATH``). The import of ``repro.cli`` is timed
here, since it happens before any wrapper can be installed.
"""

import sys
import time

from layers import install_run_all_layers
from spans import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli

    rec = Recorder()
    rec.counters["import.repro_cli_s"] = time.perf_counter() - start
    install_run_all_layers(rec)
    try:
        return repro.cli.main(argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
