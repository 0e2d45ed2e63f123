"""Run one damped-eb CLI command in this process, optionally traced.

    python3 perfbench/child.py [--spans FILE] -- <damped-eb arguments>

Without ``--spans`` this is the ``damped-eb`` console entry point.  With it,
the package's public functions are wrapped before the command runs and the
spans are written to FILE once the command has returned.  The exit status
is the command's.
"""
from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1 :]
    tracer = None
    if opts[:1] == ["--spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from damped_eb.cli import main as cli_main

    status = cli_main(cli_args)
    if tracer is not None:
        tracer.dump(opts[1])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
