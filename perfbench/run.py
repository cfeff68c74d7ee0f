"""rxtract benchmark: python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1], run from the repository root.

NAME is train, pipeline_batch, pipeline_stream, or all (each in turn, in a
fresh process). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics. The lines before
it give the machine, prediction and parameter digests, exact work counts,
any failed check, and every metric with its unit. See perfbench/README.md.
"""

import os
import sys

# BLAS threads must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _value = os.environ.setdefault(_var, "1")
    if _value != "1":
        sys.exit(f"refusing to run with {_var}={_value}: the benchmark pins it to 1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "pipeline_batch", "pipeline_stream")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        ok = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        print(f"[{name}] {'OK' if ok else 'FAILED'} (exit {proc.returncode})", flush=True)
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rxtract" / "__init__.py").is_file():
        print(f"benchmark: no rxtract sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import rxtract

    if Path(rxtract.__file__).resolve().parent != SRC / "rxtract":
        print(f"benchmark: imported rxtract from {rxtract.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import run_workload
    from workloads import FULL

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               FULL, workdir, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in outcome.report:
        print(line)
    print(json.dumps(outcome.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
