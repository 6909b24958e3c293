"""Benchmark of the dysonprop library, measured from outside the package.

    python3 perfbench/run.py --workload fourier --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The seed draws the workload's
inputs, which are written to a scratch directory under ``.perfbench_run/``.
Every pass then runs in a fresh single-threaded process (``worker.py``, BLAS
pinned to one thread) until ``--seconds`` is spent, with at least
``MIN_PASSES`` passes.  ``--trace 0`` reports the end-to-end metrics as
medians over the passes; ``--trace 1`` runs ``MIN_PASSES`` plain passes and
one traced pass and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from worker import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"

WORKLOADS = ("fourier", "series", "lattice", "resolvent")
MIN_PASSES = 3
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 150
#: Deviations below this read as this: the machine epsilon, one rounding of
#: unit-size entries.  Below it an identity's deviation is 0 or ~1e-16
#: depending on the seed, which would only add noise to the digit metrics;
#: it also keeps them finite when a deviation is exactly 0.
DEV_FLOOR = 2.220446049250313e-16
#: Time of ``worker.reference_s`` on a nominal host (about its median on the
#: 2-vCPU Xeon baseline).  ``setup_s`` is set-up time in units of the loop
#: timed just after it, given in seconds of this host.
REF_NOMINAL_S = 0.1

END_TO_END = {
    "wall_ref": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_digits": "digits",
    "identity_digits": "digits",
    "pass_share": "share",
}
BLAS_THREADS = "1"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded parameters of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fourier":
        return {"seed": seed, "omega": rng.uniform(0.9, 1.1), "v": rng.uniform(0.25, 0.35),
                "green_ft_args": ["--eps", "0.3", "--quad-domain", "80", "--quad-points", "250",
                                  "--fwd-points", "800"]}
    if workload == "series":
        dims = [6, 8, 10]
        return {"dims": dims, "model_seeds": [rng.randrange(2**31) for _ in dims],
                "lams": [0.2, 0.1], "order": 3, "term_dim": 6, "term_orders": [1, 2],
                "quad_points": 64, "eps_dim": 8, "confluent_dim": 6,
                "confluent_seed": rng.randrange(2**31)}
    if workload == "lattice":
        m, lam = 6, 0.1
        center, width, depth = rng.uniform(1.5, 3.5), rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.2)
        well = [-depth * math.exp(-0.5 * ((k - center) / width) ** 2) for k in range(m)]

        def lattice(scale):
            return {"M": m, "x0": 0.0, "h": 0.5, "mass": 1.0, "v0": [0.0] * m,
                    "v1": [scale * x for x in well]}

        lams = [lam, lam / 2]
        return {"lams": lams, "lattices": [lattice(x) for x in lams + [0.0]], "order": 2, "t": 1.0}
    if workload == "resolvent":
        return {"dim": 24, "model_seed": rng.randrange(2**31), "lam": 1.0, "level_scale": 0.5,
                "eps": 0.05, "order": 60, "gap": 2.0, "step": 0.25, "energies_per_side": 8,
                "window": 40.0, "ft_eps": 0.3, "ft_points": 800, "t": 1.5}
    raise ValueError(f"unknown workload {workload!r}")


def summarize(values) -> dict:
    """Median, first and third quartile (``statistics.quantiles``, n=4) and
    sample count."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def digits(devs) -> float:
    """-log10 of the worst finite deviation (0 when there is none)."""
    finite = [d for d in devs if math.isfinite(d)]
    return -math.log10(max(max(finite), DEV_FLOOR)) if finite else 0.0


def counted(checks):
    return [c for c in checks if c["kind"] != "known"]


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, work: Path, mode: str) -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in THREAD_ENV})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(work), "--t0", repr(t0), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS)}


def print_checks(checks):
    for c in checks:
        tag = "KNOWN" if c["kind"] == "known" else ("PASS" if c["passed"] else "FAIL")
        if c["expected"]:
            detail = f"measured {c['value']:.4g}, expected {c['expected']:g} within {c['tol']:.0%}"
        else:
            detail = f"{c['value']:.3e} <= {c['tol']:.1e}"
        note = f"  ({c['note']})" if c["note"] else ""
        print(f"[{tag}] {c['kind']:8s} {c['name']}: {detail}{note}")


def measure(workload: str, work: Path, seconds: float):
    """Untraced passes until ``seconds`` is spent, then set-up-only
    processes until there are ``MIN_SETUPS`` set-up samples."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, work, "pass"))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, work, "setup"))
    stats = {
        "wall_ref": summarize(p["wall_s"] / p["ref_s"] for p in passes),
        "setup_s": summarize(REF_NOMINAL_S * p["setup_s"] / p["ref_before_s"] for p in setups),
        "peak_rss_mb": summarize(p["peak_rss_mb"] for p in passes),
        "oracle_digits": summarize(
            digits(c["value"] for c in p["checks"] if c["kind"] == "oracle") for p in passes),
        "identity_digits": summarize(
            digits(c["value"] for c in p["checks"] if c["kind"] == "identity") for p in passes),
    }
    checks = [c for p in passes for c in counted(p["checks"])]
    failed = sum(not c["passed"] for c in checks)
    share = (len(checks) - failed) / len(checks)
    stats["pass_share"] = {"median": share, "q1": share, "q3": share, "n": len(checks)}
    metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    units = dict(END_TO_END, wall_s="s", ref_s="s", raw_setup_s="s")
    stats["wall_s"] = summarize(p["wall_s"] for p in passes)
    stats["ref_s"] = summarize(p["ref_s"] for p in passes)
    stats["raw_setup_s"] = summarize(p["setup_s"] for p in setups)
    for k, s in stats.items():
        print(f"{k}: median {s['median']:.6g} {units[k]} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    return passes, len(checks), failed, metrics


def measure_traced(workload: str, work: Path):
    plain = [spawn(workload, work, "pass") for _ in range(MIN_PASSES)]
    traced = spawn(workload, work, "traced")
    layers = dict(traced["layers"])
    layers["pass.wall_s"] = statistics.median(p["wall_s"] for p in plain)
    # in reference-loop units, so that a change of host speed between the
    # plain and the traced passes does not read as overhead
    plain_ref = statistics.median(p["wall_s"] / p["ref_s"] for p in plain)
    layers["trace.overhead_s"] = ((traced["wall_s"] / traced["ref_s"] - plain_ref)
                                  * statistics.median(p["ref_s"] for p in plain))
    metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    checks = [c for p in plain + [traced] for c in counted(p["checks"])]
    failed = sum(not c["passed"] for c in checks)
    return plain + [traced], len(checks), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # a SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "dysonprop" / "__init__.py").is_file():
        print(f"perfbench: no dysonprop sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RUN_DIR))
    try:
        (work / "inputs.json").write_text(json.dumps(inputs, indent=1))
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print("environment " + json.dumps(environment()))
        if args.trace:
            passes, attempted, failed, metrics = measure_traced(args.workload, work)
            if (work / "spans.json").exists():
                shutil.move(work / "spans.json", RUN_DIR / f"{args.workload}-spans.json")
        else:
            passes, attempted, failed, metrics = measure(args.workload, work, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_checks(passes[0]["checks"])
    (RUN_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "inputs": inputs, "passes": passes}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
