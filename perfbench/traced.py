"""Run one textboost CLI command in this process with the tracer installed.

    python perfbench/traced.py --src SRC --spans OUT.json -- <textboost args>

Imports textboost from SRC, wraps its public functions, calls
``textboost.cli.main(args)``, removes every wrapper, writes the recorded
spans to OUT.json and exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    import textboost.cli

    tracer = tracing.Tracer()
    with tracer:
        code = textboost.cli.main(command)
    left = tracing.installed_wrappers()
    Path(args.spans).write_text(
        json.dumps({"exit_code": code, "wrappers_left": left,
                    "spans": tracing.to_rows(tracer.spans)}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
