"""Run the zariski CLI once under the tracer and write the span summary.

    python -m zbench.cli_shim --summary OUT.json -- lattice leq "D(x)" "D(x,y)" --ring "QQ[x,y]"

The traced twin of ``python -c "from zariski.cli import main; main()"``:
same arguments, same exit code, plus a ``Tracer.summary()`` in OUT.json.
The whole click invocation is one ``cli.main`` span.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--summary" or argv[2] != "--":
        print("usage: cli_shim --summary OUT.json -- ARGS...", file=sys.stderr)
        return 2
    out, args = argv[1], argv[3:]
    from zariski.cli import main as cli_main

    from .tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 0
    with tracer.span("cli.main"):
        try:
            cli_main(args, prog_name="zariski")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
