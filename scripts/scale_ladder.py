"""Scale ladder of the oil CLI: wall time, peak RSS and report hash per window size.

    python3 scripts/scale_ladder.py

Runs `oil spectrum --op hankel|commutator`, `defect`, `inverse-check` and
`deformation-check` on mix.json (z + 1/z + z^2/2 + z^-3/4) at d = 2^k + 1
for k = 10 ... 16: the window [-2^(k-1), 2^(k-1)], or 2^k modes for
`deformation-check`, whose defect window adds 16 negative modes;
`defect-wide`, `defect` at the same windows on the pair wide32.json and
wide8.json of bandwidths 32 and 8, whose corner blocks are wider; and
`sweep --family paper --steps 2` at --max-index 2^(k+8) = 2^18 ... 2^24.
Each rung runs in a child process whose address space is capped at 3 GiB,
so a rung that needs more ends in the CLI's out-of-memory exit (1).  A child
still running after 30 s is killed, and its command climbs no further.  The oil
sources are this checkout's `src`; BLAS runs on OPENBLAS_NUM_THREADS
threads, 1 when it is unset.  Prints one JSON object: the environment and,
per rung, the exit code, the last output line, the wall time, the child's
ru_maxrss and the sha256 of its report.
"""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIX = "[[1, 1, 0], [-1, 1, 0], [2, 0.5, 0], [-3, 0.25, 0]]\n"
WIDE32 = "[[-32, 0.25, 0.5], [-9, 1, -0.5], [0, 2, 0], [4, -0.75, 0.25], [17, 0.5, 0], [32, 0.125, -0.25]]\n"
WIDE8 = "[[-8, 0.5, 0], [-1, 1, 0.25], [1, -1, 0], [3, 0.25, -0.5], [8, 0.75, 0.125]]\n"
SYMBOL_FILES = {"mix.json": MIX, "wide32.json": WIDE32, "wide8.json": WIDE8}
ADDRESS_SPACE = 3 << 30
LIMIT_S = 30.0
RUNGS = range(10, 17)
COMMANDS = {  # argv after `oil`, at rung k
    "spectrum-hankel": lambda k: ["spectrum", "--symbol", "mix.json", "--op", "hankel", *_window(k)],
    "spectrum-commutator": lambda k: ["spectrum", "--symbol", "mix.json", "--op", "commutator", *_window(k)],
    "defect": lambda k: ["defect", "--symbol-a", "mix.json", *_window(k)],
    "defect-wide": lambda k: ["defect", "--symbol-a", "wide32.json", "--symbol-b", "wide8.json", *_window(k)],
    "inverse-check": lambda k: ["inverse-check", "--symbol", "mix.json", *_window(k)],
    "deformation-check": lambda k: ["deformation-check", "--eps", "0.4", "--modes", str(2**k)],
    "sweep": lambda k: ["sweep", "--p", "2", "--eps-min", "0.3", "--eps-max", "0.8", "--steps", "2",
                        "--family", "paper", "--max-index", str(2 ** (k + 8))],
}


def _window(k: int) -> list[str]:
    return ["--lo", str(-(2 ** (k - 1))), "--hi", str(2 ** (k - 1))]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_rung(name: str, k: int, workdir: str) -> dict:
    """Run one command at rung k in workdir, in a capped child process."""
    argv = COMMANDS[name](k) + ["--out", "report.json"]
    for filename, text in SYMBOL_FILES.items():
        with open(os.path.join(workdir, filename), "w") as fh:
            fh.write(text)
    report = os.path.join(workdir, "report.json")
    if os.path.exists(report):
        os.remove(report)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    with open(os.path.join(workdir, "output.txt"), "w+") as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "oil.cli", *argv],
            cwd=workdir, env=env, stdout=out, stderr=subprocess.STDOUT, preexec_fn=_cap_address_space,
        )
        timer = threading.Timer(LIMIT_S, child.kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
        out.seek(0)
        lines = out.read().splitlines()
    digest = None
    if os.path.exists(report):
        with open(report, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": name,
        "k": k,
        "argv": argv,
        "exit": child.returncode,
        "last_line": lines[-1] if lines else "",
        "wall_s": round(wall, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),  # kilobytes on Linux
        "sha256": digest,
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "nproc": os.cpu_count(),
        "address_space_gib": ADDRESS_SPACE >> 30,
        "limit_s": LIMIT_S,
    }


def main() -> int:
    rungs = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            for k in RUNGS:
                rung = run_rung(name, k, workdir)
                rungs.append(rung)
                print(json.dumps(rung), file=sys.stderr)
                if rung["wall_s"] >= LIMIT_S:
                    break
    print(json.dumps({"environment": environment(), "rungs": rungs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
