"""Run ``repro serve`` with the ledger's wrappers installed.

    python3 perfbench/serve_traced.py SPANS.jsonl serve --port 0 ...

Everything after the span path is passed to the ``repro`` command line.
The wrappers' spans are written to SPANS.jsonl when the server exits
(SIGTERM drains it first).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Ledger, install  # noqa: E402


def main() -> int:
    ledger = Ledger()
    install(ledger)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        ledger.tracer.to_jsonl(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
