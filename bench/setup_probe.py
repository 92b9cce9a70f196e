"""One setup_s sample, taken in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <scale> <work-dir>

Times `import jmdp` plus what the CLI does before its first solver call:
generating and loading the workload's configs and building their envs and
policies. Prints {"setup_s": seconds} as its last line.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    name, seed, scale, work = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    sys.path.insert(0, str(SRC))
    import jmdp.cli as cli

    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "jmdp":
        print(f"jmdp imported from {cli.__file__}, not {SRC / 'jmdp'}", file=sys.stderr)
        return 2
    wl = workloads.build(name, seed, scale)
    wl.write_configs(work)
    workloads.build_inputs(cli, wl, work)
    print(f'{{"setup_s": {time.perf_counter() - START!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
