"""Determinism self-check of the benchmark's simulated results.

    python3 perfbench/determinism.py [--workload NAME ...] [--seed N]

For each workload it runs one round (set-up + drive) at ``--seed`` in
two fresh interpreters with different string-hash seeds, and one round
at the held-out seed.  The two same-seed rounds must give byte-identical
simulated metrics and layer counts; the held-out seed must change them.
Exits 1 if either fails.

:data:`HELD_OUT_SEED` is never used while tuning the benchmark or a
change: a claimed gain must also hold at this seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

HELD_OUT_SEED = 7_654_321

#: A child round must finish within this many seconds.
ROUND_TIMEOUT_S = 170


def one_round(workload: str, seed: int) -> dict:
    """Digest and simulated figures of one round (child side)."""
    sys.path.insert(0, str(HERE))
    import run

    if not run.use_sources():
        raise SystemExit(2)
    result = run.Round(workload, seed, "plain")
    return {"digest": result.digest, "problems": result.problems,
            "sim": {name: value for name, (value, _n)
                    in run.sim_metrics(result.drive).items()},
            "counts": result.counts}


def _child(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", workload, str(seed)],
        capture_output=True, text=True, env=env, timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("round %s seed %d failed:\n%s"
                           % (workload, seed, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(one_round(args.child[0], int(args.child[1]))))
        return 0
    if args.seed == HELD_OUT_SEED:
        parser.error("--seed must differ from the held-out seed")
    sys.path.insert(0, str(HERE))
    import run

    if not run.use_sources():
        return 2
    from workloads import WORKLOADS

    failures = []
    for workload in args.workload or sorted(WORKLOADS):
        first = _child(workload, args.seed, "1")
        again = _child(workload, args.seed, "2")
        held_out = _child(workload, HELD_OUT_SEED, "1")
        same = (first["digest"] == again["digest"]
                and first["sim"] == again["sim"]
                and first["counts"] == again["counts"])
        differs = (held_out["digest"] != first["digest"]
                   and held_out["sim"] != first["sim"])
        problems = first["problems"] + again["problems"] \
            + held_out["problems"]
        print("%-12s seed %d twice: %s; held-out seed %d: %s%s"
              % (workload, args.seed,
                 "byte-identical" if same else "DIFFERENT",
                 HELD_OUT_SEED, "differs" if differs else "SAME",
                 "; check failures: %s" % problems if problems else ""))
        if not same or not differs or problems:
            failures.append(workload)
    if failures:
        print("determinism self-check FAILED for: %s" % ", ".join(failures))
        return 1
    print("determinism self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
