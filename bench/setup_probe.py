"""Set-up probe: run `vlsym.cli.main` until Engine.init_state returns.

bench/run.py starts this in a fresh process, with src/ on PYTHONPATH and
the corpus directory as the working directory:

    python3 bench/setup_probe.py verify ARGS...

It prints "ready" the moment the first Engine.init_state call returns and
exits without exploring, so the parent's clock from launch to "ready"
covers what `vlsym verify` does before the search: interpreter start,
imports, reading the sources, load_program and building the Engine.
"""

import os
import sys

from vlsym import cli, engine


def main(argv: list[str]) -> int:
    init_state = engine.Engine.init_state

    def ready(self, *args, **kwargs):
        init_state(self, *args, **kwargs)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    engine.Engine.init_state = ready
    cli.main(argv)
    return 1  # main returned, so init_state never did


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
