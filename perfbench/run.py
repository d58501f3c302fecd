"""Benchmark of the oil laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/oil``; nothing needs to be
installed or built.  Workloads: window-identities, lemma-trials,
dilation-batch, cli-readme (see workloads.py for what each one exercises).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks attempted and failed, so
failed/attempted is the failed ratio) and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give the environment block and a summary.
Each run also writes ``.perfbench-out/<workload>-seed<N>-trace<T>.json``
(environment, schedule, sample counts, failures) and, with ``--trace 1``, the
spans as ``.spans.jsonl`` beside it.

BLAS runs on one thread: the variables below are pinned before numpy is
imported, since numpy reads them only then.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("window-identities", "lemma-trials", "dilation-batch", "cli-readme")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oil", "__init__.py")):
        print(f"perfbench: no oil sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import oil

    if os.path.dirname(os.path.dirname(os.path.abspath(oil.__file__))) != src:
        print(f"perfbench: imported oil from {oil.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return harness.run(args, ROOT, out_dir, T_START, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
