#!/usr/bin/env python3
"""textboost benchmark: one workload, end-to-end metrics or a traced split.

    python3 perfbench/run.py --workload boost-cold --seed 2024 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports nothing from the
checkout until it has checked that ``src/textboost`` is there, and drives
the public CLI (``python -m textboost.cli``) one child process at a time,
with BLAS pinned to one thread through the child's environment.

``--trace 0`` sets the workload up (several times where set-up is cheap;
``setup_s`` is the median; ``gen-data`` runs in this process, so that the
set-up time is the data generation and not a child's interpreter start),
then repeats the timed command until ``--seconds``
have passed (and at least the workload's ``min_reps`` times) and reports the
median of every end-to-end metric.
``--trace 1`` sets up once, repeats the untraced command the same way, then
runs it once more under the tracer (``perfbench/traced.py``) and reports
the per-layer split. Both modes run ``textboost oracle-check`` once and
check every output; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before NumPy can be imported, here and in every child
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads as wl  # noqa: E402

CHILD_TIMEOUT_S = 150.0  # no single command may run longer
TOTAL_BUDGET_S = 165.0  # no new repetition starts once it could pass this

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "acc_single": "%",
    "acc_vote": "%",
    "acc_fusion": "%",
}


@dataclass
class Ledger:
    """Operations attempted and failed; a failure is printed when it happens."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TEXTBOOST_OUT", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run one child to completion; wall, CPU and peak RSS of that child alone."""
    with log.open("w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        log=log,
    )


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "textboost.cli", *args]


def cli_in_process(args: list[str], log: Path) -> int:
    """``textboost <args>`` in this process, its output written to ``log``."""
    import textboost.cli

    with log.open("w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        return textboost.cli.main(args)


def tail(path: Path, n: int = 5) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(lines[-n:])


# ----------------------------------------------------------------------
# set-up and the timed command
# ----------------------------------------------------------------------

@dataclass
class Setup:
    config: Path
    model_dir: Optional[Path] = None  # eval-sharing: the trained ensemble
    scoring: Optional[Path] = None  # eval-sharing: the scoring TSV
    acc_single: Optional[float] = None  # eval-sharing: the training run's, on its dev set
    seconds: float = 0.0
    digests: dict = field(default_factory=dict)


def set_up(w: wl.Workload, seed: int, where: Path, ledger: Ledger) -> Optional[Setup]:
    """Write the workload's inputs (and, for eval, train the ensemble)."""
    where.mkdir(parents=True)
    t0 = time.perf_counter()
    task, rows = where / "task", where / "rows"
    train_seed = wl.TRAINING_TASK_SEED if w.fixed_training else seed
    data = [(w.data.gen_args(task, train_seed), "gen-data")]
    dev = task / "dev.tsv"
    s = Setup(config=where / "config.json")
    if w.evaluates:
        size = wl.DataSize(train=1, dev=w.scoring_rows, corpus=1)
        data.append((size.gen_args(rows, seed + 1), "gen-data scoring rows"))
        s.scoring = rows / "dev.tsv"
    elif w.fixed_training:
        size = wl.DataSize(train=1, dev=w.data.dev, corpus=1)
        data.append((size.gen_args(rows, seed), "gen-data dev rows"))
        dev = rows / "dev.tsv"
    wl.write_config(w, task, dev, s.config)
    for i, (args, what) in enumerate(data):
        log = where / f"setup_{i}.log"
        code = cli_in_process(args, log)
        if not ledger.check(code == 0, f"set-up {what} exited {code}: {tail(log)}"):
            return None
    if w.evaluates:
        r = run_child(cli(["train-boost", "--config", str(s.config), "--out",
                           str(where / "runs")]), where / "train.log")
        if not ledger.check(r.code == 0, f"set-up train-boost (sharing) exited {r.code}: "
                                         f"{tail(r.log)}"):
            return None
    s.seconds = time.perf_counter() - t0
    s.digests = {str(p.relative_to(where)): wl.file_digest(p)
                 for p in sorted(where.glob("*/*.tsv"))}
    if w.evaluates:
        s.model_dir = wl.run_dir_of(where / "runs")
        if not check_round_trip(s, dev, where, ledger):
            return None
    return s


def check_round_trip(s: Setup, dev: Path, where: Path, ledger: Ledger) -> bool:
    """``eval`` of the saved ensemble on the training run's dev set gives the
    vote and fusion accuracies that ``train-boost`` computed from the ensemble
    in memory before it saved it: save -> load is exact."""
    trained = wl.BoostOutputs.read(s.model_dir)
    s.digests.update(trained.digests)
    s.acc_single = trained.accuracies["single"]
    r = run_child(cli(["eval", "--model-dir", str(s.model_dir), "--data", str(dev)]),
                  where / "round_trip.log")
    if not ledger.check(r.code == 0, f"round-trip eval exited {r.code}: {tail(r.log)}"):
        return False
    loaded = wl.EvalOutputs.read(wl.eval_report_path(s.model_dir, dev))
    for name in ("vote", "fusion"):
        ledger.check(loaded.accuracies[name] == trained.accuracies[name],
                     f"eval of the saved ensemble: {name} accuracy {loaded.accuracies[name]} "
                     f"!= {trained.accuracies[name]} before saving")
    return True


def timed_command(w: wl.Workload, s: Setup, out_root: Path) -> list[str]:
    if w.evaluates:
        return ["eval", "--model-dir", str(s.model_dir), "--data", str(s.scoring)]
    return ["train-boost", "--config", str(s.config), "--out", str(out_root)]


@dataclass
class Rep:
    run: ChildRun
    accuracies: dict
    examples: int
    digests: dict


def read_outputs(w: wl.Workload, s: Setup, out_root: Path) -> tuple[dict, int, dict]:
    """(accuracies, work units, artifact digests) of one timed command."""
    if w.evaluates:
        out = wl.EvalOutputs.read(wl.eval_report_path(s.model_dir, s.scoring))
        return out.accuracies, w.scoring_rows, {"eval report": out.digest}
    out = wl.BoostOutputs.read(wl.run_dir_of(out_root))
    return out.accuracies, out.examples, out.digests


def run_reps(w: wl.Workload, s: Setup, work: Path, seconds: float, deadline: float,
             ledger: Ledger) -> list[Rep]:
    """Repeat the timed command until ``seconds`` have passed (at least
    ``w.min_reps`` times); every repetition must reproduce the first."""
    reps: list[Rep] = []
    t0 = time.perf_counter()
    while True:
        i = len(reps)
        out_root = work / f"rep_{i}"
        out_root.mkdir(parents=True)
        r = run_child(cli(timed_command(w, s, out_root)), work / f"rep_{i}.log")
        if not ledger.check(r.code == 0, f"{w.name} repetition {i} exited {r.code}: {tail(r.log)}"):
            break
        acc, examples, digests = read_outputs(w, s, out_root)
        rep = Rep(r, acc, examples, digests)
        if reps:
            first = reps[0]
            diff = wl.first_mismatch({**first.digests, **first.accuracies},
                                     {**digests, **acc})
            ledger.check(diff is None, f"repetition {i} differs from repetition 0 in {diff}")
        reps.append(rep)
        shutil.rmtree(out_root)
        now = time.perf_counter()
        if len(reps) >= w.min_reps and now - t0 >= seconds:
            break
        if now + r.wall_s > deadline:
            break
    return reps


def oracle_check(work: Path, ledger: Ledger) -> None:
    r = run_child(cli(["oracle-check", "--out", str(work / "oracle")]), work / "oracle.log")
    ledger.check(r.code == 0, f"oracle-check exited {r.code}: {tail(r.log)}")


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def rep_notes(reps: list[Rep]) -> list[dict]:
    return [{"wall_s": r.run.wall_s, "cpu_s": r.run.cpu_s, "peak_rss_mb": r.run.peak_rss_mb}
            for r in reps]


def end_to_end(w: wl.Workload, seed: int, seconds: float, work: Path, deadline: float,
               ledger: Ledger, notes: dict) -> dict:
    setups: list[Setup] = []
    for i in range(w.setup_repeats):
        s = set_up(w, seed, work / f"setup_{i}", ledger)
        if s is None:
            return {}
        if setups:
            diff = wl.first_mismatch(setups[0].digests, s.digests)
            ledger.check(diff is None, f"set-up {i} differs from set-up 0 in {diff}")
        setups.append(s)
    s = setups[0]
    oracle_check(work, ledger)
    reps = run_reps(w, s, work / "reps", seconds, deadline, ledger)
    notes.update(setup_s=[x.seconds for x in setups], repetitions=rep_notes(reps))
    if not reps:
        return {}
    acc = dict(reps[0].accuracies)
    if w.evaluates:
        acc["single"] = s.acc_single
    values = {
        "setup_s": median([x.seconds for x in setups]),
        "run_s": median([r.run.wall_s for r in reps]),
        "cpu_s": median([r.run.cpu_s for r in reps]),
        "examples_per_s": median([r.examples / r.run.wall_s for r in reps]),
        "peak_rss_mb": median([r.run.peak_rss_mb for r in reps]),
        "acc_single": acc["single"],
        "acc_vote": acc["vote"],
        "acc_fusion": acc["fusion"],
    }
    print(f"{w.name}: {len(setups)} set-ups, {len(reps)} repetitions")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def traced(w: wl.Workload, seed: int, seconds: float, work: Path, deadline: float,
           ledger: Ledger, notes: dict) -> dict:
    s = set_up(w, seed, work / "setup", ledger)
    if s is None:
        return {}
    oracle_check(work, ledger)
    reps = run_reps(w, s, work / "reps", seconds, deadline, ledger)
    notes["repetitions"] = rep_notes(reps)
    if not reps:
        return {}
    out_root = work / "traced"
    out_root.mkdir()
    spans_path = work / "spans.json"
    argv = [sys.executable, str(HERE / "traced.py"), "--src", str(SRC),
            "--spans", str(spans_path), "--", *timed_command(w, s, out_root)]
    r = run_child(argv, work / "traced.log")
    if not ledger.check(r.code == 0, f"traced run exited {r.code}: {tail(r.log)}"):
        return {}
    recorded = json.loads(spans_path.read_text(encoding="utf-8"))
    ledger.check(not recorded["wrappers_left"],
                 f"wrappers left installed: {recorded['wrappers_left']}")
    acc, _, digests = read_outputs(w, s, out_root)
    diff = wl.first_mismatch({**reps[0].digests, **reps[0].accuracies}, {**digests, **acc})
    ledger.check(diff is None, f"traced run differs from the untraced runs in {diff}")
    untraced = median([x.run.wall_s for x in reps])
    values = layers.per_layer(recorded["spans"], traced_wall_s=r.wall_s,
                              untraced_run_s=untraced)
    print(f"{w.name}: traced run {r.wall_s:.3f} s, untraced median {untraced:.3f} s "
          f"over {len(reps)} repetitions, {len(recorded['spans'])} spans")
    return values


# ----------------------------------------------------------------------
# environment and entry point
# ----------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    def git_sha() -> Optional[str]:
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_sha(),
        "src_sha256": wl.tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "textboost" / "cli.py").is_file():
        print(f"error: no textboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + TOTAL_BUDGET_S
    w = wl.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK_ROOT / "work" / tag
    work.mkdir(parents=True)
    ledger = Ledger()
    notes: dict = {}
    try:
        mode = traced if args.trace else end_to_end
        metrics = mode(w, args.seed, args.seconds, work, deadline, ledger, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        ledger.check(False, "no metrics were produced")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": {"train": w.data.train, "dev": w.data.dev, "corpus": w.data.corpus,
                  "scoring": w.scoring_rows},
        "config": w.config,
        "error_rate": ledger.failed / ledger.attempted,
        **notes,
        "problems": ledger.problems,
        "environment": environment(),
        **result,
    }
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"error_rate {record['error_rate']:.4g} ({ledger.failed}/{ledger.attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
