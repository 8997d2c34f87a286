"""laddernoise benchmark: end-to-end CLI runs, checked, with a traced variant.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  The harness generates the workload's
config from ``--seed``, computes the reference answer, then starts one fresh
CLI process after another (never two at once, default ``--threads 1``) for
about ``--seconds`` seconds.  Every command's rows are checked against the
reference and hashed; a command fails if it exits non-zero, fails its check,
or writes data rows that differ from the first command of the run.

With ``--trace 0`` the last output line reports the end-to-end metrics of
``BENCHMARK.json``: medians over the commands of wall time, set-up time
(spawn until the config is loaded and validated), single-shot evaluations per
second of run time (set-up done until ``main`` returns) and peak resident
memory.  The three timings are scaled to a reference host speed by a
calibration kernel run between commands (see ``CAL_REF_S``); the unscaled
medians are printed on the line before.
With ``--trace 1`` one more command runs with every layer call recorded
(``layers.py``) and the last line reports the per-layer metrics instead.
Scratch files, the spans and a full result record go to
``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import layers
from layers import clock

# numpy is imported inside functions: main() first limits its BLAS threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The speed of a shared host can drift by +-25% over tens of seconds as other
# tenants load it.  A fixed calibration kernel runs between commands, and each
# command's times are scaled to the host speed at which the kernel takes
# CAL_REF_S seconds.
CAL_REF_S = 0.1
MIN_COMMANDS = 3
# the loop starts no new command after this many seconds of measuring
MAX_LOOP_S = 100.0
COMMAND_TIMEOUT_S = 60.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "laddernoise").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work the package does:
    interpreter loops with small numpy calls, vectorised complex exponentials
    over a 16k-point grid, and a pass over an 8 MB array."""
    import numpy as np

    start = clock()
    acc = 0.0
    for i in range(100_000):
        x = (i * 0.5, math.sin(i * 1e-3), complex(i, 1.0))
        acc += abs(x[2]) * x[1]
        if i % 64 == 0:
            acc += float(np.exp(-1j * np.arange(8.0) * x[1]).sum().real)
    grid = np.linspace(0.0, 1.0, 1 << 15).reshape(-1, 2)
    weights = np.ones(grid.shape[0])
    for j in range(40):
        freq = np.array([0.3, -0.2]) * (1.0 + j * 1e-3)
        acc += float((np.exp(-1j * (grid @ freq)) @ weights).real)
    big = np.ones(1 << 20)
    for _ in range(6):
        acc += float((big * 1.0000001).sum())
    return clock() - start


class Command:
    """One CLI process: its timings, resource use, rows and check outcome."""

    def __init__(self, workdir: Path, tag: str, trace: bool = False):
        self.workdir = workdir
        self.tag = tag
        self.out = workdir / f"{tag}.csv"
        self.timing = workdir / f"{tag}.timing.json"
        self.spans = workdir / f"{tag}.spans.json" if trace else None
        self.problems: list[str] = []
        self.checked: dict = {}
        self.rows_sha256 = None
        self.returncode = None
        self.wall_s = self.cpu_s = self.peak_rss_mb = None
        self.setup_s = self.run_s = None
        self.shots = 0
        self.blas_threads = None
        self.calibration_s = None
        self.speed = 1.0

    def run(self, subcommand: str, config: Path, env: dict) -> None:
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--timing", str(self.timing)]
        if self.spans:
            cmd += ["--spans", str(self.spans)]
        cmd += ["--", subcommand, "--config", str(config), "--out", str(self.out)]
        with open(self.workdir / f"{self.tag}.stdout", "wb") as so, open(
            self.workdir / f"{self.tag}.stderr", "wb"
        ) as se:
            self.t_spawn = t_spawn = clock()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=self.workdir)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.t_exit = t_exit = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.wall_s = t_exit - t_spawn
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if self.returncode != 0:
            self.problems.append(f"exit code {self.returncode}")
            return
        stamps = json.loads(self.timing.read_text())
        self.blas_threads = stamps["blas_threads"]
        self.peak_rss_mb = stamps["peak_rss_mb"]
        self.setup_s = stamps["t_loaded"] - t_spawn
        self.run_s = stamps["t_done"] - stamps["t_loaded"]

    def set_speed(self, cal_before: float, cal_after: float) -> None:
        self.calibration_s = 0.5 * (cal_before + cal_after)
        self.speed = CAL_REF_S / self.calibration_s

    def read_rows(self):
        """Column names and data rows; ``#`` metadata lines are not data."""
        lines = self.out.read_text(encoding="utf-8").splitlines()
        data = [line for line in lines if not line.startswith("#")]
        self.rows_sha256 = hashlib.sha256("\n".join(data).encode()).hexdigest()
        return data[0].split(","), [line.split(",") for line in data[1:]]


def run_command(cmd: Command, workload, config, config_path, reference, env, first_hash):
    cmd.run(workload.command, config_path, env)
    if cmd.problems:
        return None
    try:
        columns, rows = cmd.read_rows()
        problems, cmd.checked = workload.check(config, reference, columns, rows)
        cmd.shots = workload.shots(config, rows) if not problems else 0
    except (OSError, ValueError, IndexError) as exc:
        cmd.problems.append(f"unreadable output: {exc!r}")
        return None
    cmd.problems += problems
    if first_hash is not None and cmd.rows_sha256 != first_hash:
        cmd.problems.append(f"rows hash {cmd.rows_sha256} differs from first run {first_hash}")
    return rows


def _trace_metrics(cmd: Command, spec: dict, workload, config, rows, untraced) -> tuple[dict, dict]:
    spans = json.loads(cmd.spans.read_text())
    prefix = "perturbation.method."
    methods = [m["name"][len(prefix):] for m in spec["per_layer"] if m["name"].startswith(prefix)]
    metrics = layers.per_layer_metrics(spans, methods)
    metrics["proc.cpu_s"] = statistics.median(c.cpu_s for c in untraced)
    metrics["trace.overhead_s"] = cmd.wall_s * cmd.speed - statistics.median(
        c.wall_s * c.speed for c in untraced
    )
    for name, want in workload.expected_trace(config, rows).items():
        if metrics[name] != want:
            cmd.problems.append(f"traced {name} = {metrics[name]}, expected {want}")
    acc = layers.accounting(spans, cmd.t_spawn, cmd.t_exit)
    acc["untraced_wall_median_s"] = statistics.median(c.wall_s for c in untraced)
    acc["untraced_run_median_s"] = statistics.median(c.run_s for c in untraced)
    return metrics, acc


def measure(workload, config, config_path, reference, env, seconds):
    """Run commands one after another for about ``seconds``; at least MIN_COMMANDS."""
    commands: list[Command] = []
    first_hash = None
    loop_start = clock()
    # Calibrations are taken only right after a command, as the command has
    # just left the CPU's caches; one taken after the light warm-up read ~10%
    # faster.  Each command averages the calibrations on its two sides.
    cal_before = None
    while True:
        cmd = Command(config_path.parent, f"run-{len(commands)}")
        rows = run_command(cmd, workload, config, config_path, reference, env, first_hash)
        cal_after = calibrate()
        cmd.set_speed(cal_before or cal_after, cal_after)
        cal_before = cal_after
        commands.append(cmd)
        if first_hash is None and rows is not None:
            first_hash = cmd.rows_sha256
        elapsed = clock() - loop_start
        typical = statistics.median(c.wall_s for c in commands)
        if elapsed > MAX_LOOP_S or (len(commands) >= MIN_COMMANDS and elapsed + typical > seconds):
            return commands, first_hash


def _report(names_units: list[dict], values: dict) -> dict:
    missing = {m["name"] for m in names_units} - values.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names_units}


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "laddernoise" / "cli.py").is_file():
        print(f"no laddernoise source under {SRC}", file=sys.stderr)
        return 2
    # The harness and its commands share one CPU, so that the calibration
    # measures the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # BLAS runs single-threaded here and in every command.  On a small shared
    # machine a threaded BLAS made timings swing by 2x with the load on the
    # other cores; one thread per process also keeps the harness within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    child_env = dict(os.environ)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import laddernoise
    from workloads import WORKLOADS

    if not Path(laddernoise.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"laddernoise imported from {laddernoise.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workload.make_config(np.random.default_rng(args.seed))
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    reference = workload.reference(config)

    # An unmeasured `validate` first fills the page cache and compiles the
    # package's bytecode, costs that a user running the CLI again never pays.
    Command(workdir, "warmup").run("validate", config_path, child_env)
    commands, first_hash = measure(workload, config, config_path, reference, child_env, args.seconds)

    good = [c for c in commands if not c.problems] or commands
    per_layer = accounting = None
    if args.trace:
        cmd = Command(workdir, "traced", trace=True)
        rows = run_command(cmd, workload, config, config_path, reference, child_env, first_hash)
        cal_after = calibrate()
        cmd.set_speed(cal_after, cal_after)
        commands.append(cmd)
        if not cmd.problems:
            per_layer, accounting = _trace_metrics(cmd, spec, workload, config, rows, good)

    failed = sum(1 for c in commands if c.problems)
    for c in commands:
        status = "ok" if not c.problems else "FAIL " + "; ".join(c.problems)
        print(
            f"{workload.name} {c.tag}: wall {c.wall_s:.3f} s, setup "
            f"{c.setup_s if c.setup_s is None else round(c.setup_s, 4)} s, rows "
            f"{c.rows_sha256} {status}"
        )
    e2e = {
        "wall_s": statistics.median(c.wall_s * c.speed for c in good),
        "setup_s": statistics.median((c.setup_s or 0.0) * c.speed for c in good),
        "shots_per_s": statistics.median(
            c.shots / (c.run_s * c.speed) if c.run_s else 0.0 for c in good
        ),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in good),
    }
    raw = {
        "wall_s": statistics.median(c.wall_s for c in good),
        "setup_s": statistics.median(c.setup_s or 0.0 for c in good),
        "shots_per_s": statistics.median(c.shots / c.run_s if c.run_s else 0.0 for c in good),
        "calibration_s": statistics.median(c.calibration_s for c in good if c.calibration_s),
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(good[0].blas_threads),
        "rows_sha256": first_hash,
        "fail_rate": failed / len(commands),
        "end_to_end": e2e,
        "unscaled": raw,
        "per_layer": per_layer,
        "accounting": accounting,
        "checked": commands[0].checked,
        "commands": [
            {
                "tag": c.tag,
                "returncode": c.returncode,
                "wall_s": c.wall_s,
                "setup_s": c.setup_s,
                "run_s": c.run_s,
                "cpu_s": c.cpu_s,
                "peak_rss_mb": c.peak_rss_mb,
                "speed": c.speed,
                "rows_sha256": c.rows_sha256,
                "problems": c.problems,
            }
            for c in commands
        ],
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("environment", "rows_sha256", "fail_rate", "unscaled", "checked", "accounting")}))

    if args.trace:
        metrics = _report(spec["per_layer"], per_layer) if per_layer else {}
    else:
        metrics = _report(spec["end_to_end"], e2e)
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": len(commands),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
