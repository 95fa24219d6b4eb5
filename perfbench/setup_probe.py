"""Set-up of one workload, timed in a fresh process.

    python3 perfbench/setup_probe.py <mode> <input file>...
    python3 perfbench/setup_probe.py reference

Times `import elvis` plus loading and validating the workload's shared
inputs, which is everything a run does before its first timed op, and prints
the seconds taken.  `load_shared` is also how the benchmark itself loads the
inputs, so the timed set-up and the real one are the same code.

Mode `reference` times only the imports of elvis's dependencies (numpy and
mpmath), the yardstick that setup_s is calibrated against.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def load_shared(mode, paths):
    """Load the shared inputs of one workload.

    texts:    problem texts, parsed by each op itself;
    problems: problem texts parsed and validated once, up front;
    sweeps:   sweep files loaded and validated once, up front.
    """
    from elvis.probfile import load_sweep, parse_problem

    if mode == "sweeps":
        return [load_sweep(p) for p in paths]
    with open(paths[0], encoding="utf-8") as fh:
        texts = json.load(fh)
    if mode == "texts":
        return texts
    if mode == "problems":
        return [parse_problem(t) for t in texts]
    raise ValueError(f"unknown set-up mode {mode!r}")


def main(argv):
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    if argv[0] != "reference":
        sys.path.insert(0, str(SRC))
        import elvis  # noqa: F401
        import elvis.cli  # noqa: F401

        load_shared(argv[0], argv[1:])
    print(repr(time.perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
