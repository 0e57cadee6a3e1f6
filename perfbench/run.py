#!/usr/bin/env python3
"""The repository benchmark: builds pamr_perfbench from this checkout, runs
one workload and checks its result files.

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 10 --trace 0

The first run in a checkout configures and builds into .bench_build/ (the
library through the top-level CMakeLists.txt, then perfbench/src). The last
line of standard output is the result,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1; the line before it is the run's provenance. `attempted` and
`failed` count work units; their ratio is the error rate. See
perfbench/README.md for the workloads and metrics.

Result digests are recorded for one seed, the binary's reference seed, in
perfbench/digests.json; a run on any other seed also runs one round on the
reference seed so that every run checks them. A run whose workload has no
recorded digests is not correct. --record-digests stores the
reference-seed digests of a correct run in place of the recorded ones.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pamr_perfbench"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("paper8", "sim_probe", "campaign_mix")
RESULT_SUFFIXES = ("_norm_inv_power.csv", "_failure_ratio.csv", "_sim.csv")
# A 10-second run must end well inside three minutes once built.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "pamr").is_dir():
        fail(f"no library sources (CMakeLists.txt, src/pamr) under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pamr_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")[-4000:]
                fail(f"build failed: {' '.join(step)}\n{tail}")


def run_binary(args, out_dir):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    env = dict(os.environ)
    env.setdefault("PAMR_LOG_LEVEL", "warn")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timeout = max(RUN_TIMEOUT_S, 5 * args.seconds + 120)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # Dist workers exit on their own once the coordinator's pipes close.
        proc.kill()
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("no report from pamr_perfbench")
    return json.loads(lines[-1])


def scenario_of(file_name, scenarios):
    for name in scenarios:
        if file_name == name + ".json" or any(file_name == name + s for s in RESULT_SUFFIXES):
            return name
    return None


def result_digests(directory, scenarios):
    """sha256 per scenario over its result files (name and bytes, sorted)."""
    hashes = {name: hashlib.sha256() for name in scenarios}
    for path in sorted(Path(directory).iterdir()):
        owner = scenario_of(path.name, scenarios)
        if owner is None:
            hashes.setdefault("<unexpected files>", hashlib.sha256()).update(path.name.encode())
            continue
        hashes[owner].update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {name: h.hexdigest() for name, h in hashes.items()}


def reference_dir(out_dir):
    """Where the binary wrote the reference-seed results."""
    return out_dir / "reference" if (out_dir / "reference").is_dir() else out_dir / "measured"


def check_outputs(report, out_dir, recorded):
    """Checks every result file the binary wrote. Returns (failed units, problems).

    The reference-seed files must match `recorded` (scenario -> digest)
    unless it is None. The in-process files of a distributed run, the traced files
    and the replayed files must match the measured files byte for byte. A
    scenario whose files fail a check fails all of its units in that check.
    """
    units = report["scenario_units"]
    measured = result_digests(out_dir / "measured", units)
    comparisons = []
    if recorded is not None:
        comparisons.append(("recorded digest", result_digests(reference_dir(out_dir), units),
                            recorded))
    for copy in ("suite", "traced", "replay"):
        if (out_dir / copy).is_dir():
            comparisons.append((f"{copy} files", measured,
                                result_digests(out_dir / copy, units)))
    failed = 0
    problems = []
    for label, actual, expected in comparisons:
        for name in sorted(set(actual) | set(expected)):
            if actual.get(name) != expected.get(name):
                failed += units.get(name, 1)
                problems.append(f"{name}: result files differ from the {label}")
    return failed, problems


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", "HEAD"]).returncode
    return head.stdout.strip() + ("+dirty" if dirty else "")


def source_digest():
    """sha256 over the sources the benchmark builds, so runs of one tree can
    be matched without git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BENCH / "CMakeLists.txt"]
    for top in (ROOT / "src", ROOT / "traces", BENCH / "src"):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, report):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": report["reference_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        **report["build"],
        "entry_point": report["entry_point"],
        "threads": report["threads"],
        "workers": report["workers"],
        "rounds": report["rounds"],
        "instances_per_round": report["instances_per_round"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def load_digests(reference_seed):
    """workload -> scenario -> digest of the reference-seed results."""
    digests = json.loads(DIGESTS.read_text())
    if digests.get("seed") != reference_seed:
        fail(f"{DIGESTS} records seed {digests.get('seed')}, not {reference_seed}")
    return digests["workloads"]


def verify(report, out_dir, use_recorded=True):
    """Counts one run after every output check: (attempted, failed, problems).

    With `use_recorded`, a workload without recorded digests fails every
    unit: the digest check is never skipped silently.
    """
    attempted = report["attempted"]
    recorded = None
    missing = []
    if use_recorded:
        if DIGESTS.is_file():
            recorded = load_digests(report["reference_seed"]).get(report["workload"])
        if recorded is None:
            missing = [f"no recorded digests for {report['workload']} in {DIGESTS.name}"]
    file_failed, problems = check_outputs(report, out_dir, recorded)
    problems = missing + problems
    if report["error"]:
        problems.insert(0, report["error"])
    failed = attempted if missing else report["failed"] + file_failed
    return attempted, min(attempted, failed), problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    out_dir = BUILD / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    report = run_binary(args, out_dir)
    attempted, failed, problems = verify(report, out_dir, use_recorded=not args.record_digests)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    prov = provenance(args, report)
    (out_dir / "provenance.json").write_text(json.dumps(prov, indent=1) + "\n")
    if args.record_digests:
        if not correct:
            fail("not recording digests of an incorrect run")
        reference_seed = report["reference_seed"]
        digests = load_digests(reference_seed) if DIGESTS.is_file() else {}
        digests[args.workload] = result_digests(reference_dir(out_dir), report["scenario_units"])
        DIGESTS.write_text(json.dumps({"seed": reference_seed, "workloads": digests},
                                      indent=1, sort_keys=True) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
