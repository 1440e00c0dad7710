"""Suite benchmark: the CLI verification suites on seeded corpora.

    python3 bench/run.py --workload std-corollary --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout that holds ``src/permgroups``.  Inputs go
to ``.bench_work/<workload>-seed<seed>/``.  Every record the suite writes is
checked against ``bench/golden/``.

``--trace 0``: a closed loop of fresh CLI processes
(``python -m permgroups.cli <suite> --corpus <spec>``), one after another,
as many as fit in ``--seconds`` (at least one).  End-to-end metrics are
medians over those processes; ``setup_s`` is the median over several fresh
interpreters that import the package and build the workload's groups.

Times are in reference seconds (``reference.py``), which cancel the changes
in the speed of a shared machine.  This process and its children stay on one
CPU.  Every ``SAMPLE_EVERY_S`` a CLI process is stopped (SIGSTOP) while a
short fixed pure-Python task runs on that CPU, then continued; each stretch
of the CLI's run counts its measured seconds times ``REFERENCE_S`` over the
mean time of the samples on either side, and the pauses count nothing.  Each
set-up process is scaled by the samples taken just before and after it.  The
measured times and the pauses are printed too.

``--trace 1``: in this process, the suite runs once untraced and once with
the span tracer of ``tracer.py`` installed, as many pairs as fit in
``--seconds`` (at least one).  Per-layer metrics all come from the pair whose
traced wall time is the median (the lower middle one for an even count).  The
spans of the k-th traced run go to ``spans-<k>.jsonl`` in the work directory.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (groups) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from records import failed_groups, load_golden, parse_records
from reference import REFERENCE_S, reference_s
from tracer import LAYER_METRICS, Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = [
    ("wall_s", "s"),
    ("first_record_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# fresh interpreters timed for setup_s ahead of each CLI run
SETUPS_PER_RUN = 3
# seconds a CLI process runs between two reference samples
SAMPLE_EVERY_S = 0.5

SETUP_CODE = """\
import json, sys
from pathlib import Path
from permgroups.cli import parse_group_file
spec = Path(sys.argv[1])
for entry in json.loads(spec.read_text()):
    group = parse_group_file((spec.parent / entry["path"]).read_text(), name=entry["id"])
    group.order
"""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU, so that
    the reference samples the CPU the measured process runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def speed(before: float, after: float) -> float:
    """Reference seconds per measured second between two reference samples."""
    return REFERENCE_S / ((before + after) / 2)


def reference_seconds(segments: list[tuple[float, float, float]], until: float) -> float:
    """Reference seconds in the ``(start, end, speed)`` segments up to ``until``."""
    return sum((min(end, until) - start) * rate
               for start, end, rate in segments if start < until)


def wait_stopped(pid: int) -> bool:
    """Wait until the child has stopped; False if it has ended instead."""
    stat = Path(f"/proc/{pid}/stat")
    while True:
        state = stat.read_text().rsplit(")", 1)[1].split()[0]
        if state in ("T", "t"):
            return True
        if state in ("Z", "X"):
            return False


def measure_setup(spec: Path) -> float:
    """Reference seconds of one fresh interpreter that imports the package
    and builds the groups of the spec."""
    before = reference_s()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(spec)],
                   env=child_env(), cwd=ROOT, check=True)
    elapsed = time.perf_counter() - started
    return elapsed * speed(before, reference_s())


def run_cli(suite: str, spec: Path, work: Path) -> dict:
    """One CLI process: wall time and time to the first record, in reference
    seconds, peak RSS and output.  Every SAMPLE_EVERY_S the process is
    stopped while the reference runs; the pauses are left out of its times."""
    cmd = [sys.executable, "-m", "permgroups.cli", suite, "--corpus", str(spec)]
    output: dict = {}

    def read(stream) -> None:
        output["first"] = stream.readline()
        output["first_at"] = time.perf_counter()
        output["rest"] = stream.read()

    segments, ref = [], reference_s()
    with open(work / "cli.stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        reader = threading.Thread(target=read, args=(proc.stdout,))
        reader.start()
        segment_start = started
        try:
            while True:
                reader.join(SAMPLE_EVERY_S)
                if not reader.is_alive():
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                paused = time.perf_counter()
                if not wait_stopped(proc.pid):
                    break
                sample = reference_s()
                os.kill(proc.pid, signal.SIGCONT)
                segments.append((segment_start, paused, speed(ref, sample)))
                segment_start, ref = time.perf_counter(), sample
            reader.join()
            # wait4 gives this child's own peak RSS (RUSAGE_CHILDREN would
            # keep the maximum over every earlier child)
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            reader.join()
            proc.stdout.close()
    segments.append((segment_start, ended, speed(ref, reference_s())))
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "status": proc.returncode,
        "stdout": (output["first"] + output["rest"]).decode(),
        "wall_s": reference_seconds(segments, ended),
        "first_record_s": reference_seconds(segments, output["first_at"]),
        "measured_s": ended - started,
        "paused_s": ended - started - sum(end - start for start, end, _ in segments),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_in_process(suite: str, spec: Path, out: Path) -> tuple[float, int, str]:
    """The suite through ``permgroups.cli.run``: wall time, exit status and
    the records written (none unless the status is 0)."""
    from permgroups.cli import CliConfig, run

    gc.collect()
    started = time.perf_counter()
    try:
        status = run(CliConfig(command=suite, corpus=str(spec), output=str(out)))
    except Exception:  # a crash fails every group of the run, as in the CLI
        traceback.print_exc()
        status = 1
    elapsed = time.perf_counter() - started
    return elapsed, status, out.read_text() if status == 0 else ""


def another_fits(started: float, durations: list[float], seconds: float) -> bool:
    """True until one run, else while one more run of median length would
    still end inside the measuring window."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def count_failed(status: int, text: str, ids: list[str], golden: dict) -> int:
    if status != 0:
        return len(ids)
    return len(failed_groups(parse_records(text), ids, golden))


def end_to_end(suite: str, spec: Path, work: Path, ids: list[str], golden: dict,
               seconds: float) -> tuple[dict, int, int]:
    pin_to_one_cpu()
    measure_setup(spec)  # warm-up: byte-compiles the package
    setup, runs, rounds, failed = [], [], [], 0
    started = time.perf_counter()
    while another_fits(started, rounds, seconds):
        # set-up samples are spread over the window, like the CLI runs
        round_started = time.perf_counter()
        setup.extend(measure_setup(spec) for _ in range(SETUPS_PER_RUN))
        result = run_cli(suite, spec, work)
        failed += count_failed(result["status"], result["stdout"], ids, golden)
        runs.append(result)
        rounds.append(time.perf_counter() - round_started)
    (work / "cli.stdout").write_text(runs[-1]["stdout"])
    values = {name: statistics.median(r[name] for r in runs)
              for name in ("wall_s", "first_record_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    for name in ("wall_s", "measured_s", "paused_s", "peak_rss_mb"):
        print(f"# {name} each {[round(r[name], 3) for r in runs]}")
    print(f"# setup_s each {[round(t, 3) for t in setup]}")
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, len(ids) * len(runs), failed


def median_sample(walls: list[float]) -> int:
    """Index of the sample whose wall time is the median (the lower middle
    one for an even count).  Every per-layer metric is taken from that one
    traced run, so its self times still add up to its traced wall time;
    medians taken metric by metric would not."""
    middle = sorted(walls)[(len(walls) - 1) // 2]
    return walls.index(middle)


def traced(suite: str, spec: Path, work: Path, ids: list[str], golden: dict,
           seconds: float) -> tuple[dict, int, int]:
    out = work / "inproc.jsonl"
    samples, pairs, attempted, failed = [], [], 0, 0
    started = time.perf_counter()
    while another_fits(started, pairs, seconds):
        untraced_wall, status, text = run_in_process(suite, spec, out)
        failed += count_failed(status, text, ids, golden)
        tracer = Tracer()
        install(tracer)
        try:
            traced_wall, status, text = run_in_process(suite, spec, out)
        finally:
            tracer.restore()
        failed += count_failed(status, text, ids, golden)
        attempted += 2 * len(ids)
        tracer.write_spans(work / f"spans-{len(samples)}.jsonl")
        samples.append((traced_wall, layer_metrics(tracer, traced_wall, untraced_wall)))
        pairs.append(untraced_wall + traced_wall)
    chosen = median_sample([wall for wall, _ in samples])
    print(f"# {len(samples)} untraced/traced pairs, traced wall_s each "
          f"{[round(wall, 3) for wall, _ in samples]}; reported: pair {chosen}, "
          f"spans in {work / f'spans-{chosen}.jsonl'}")
    metrics = {name: (samples[chosen][1][name], unit) for name, unit in LAYER_METRICS}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permgroups" / "cli.py").is_file():
        print(f"no permgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS, choose, write_corpus

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    suite, _ = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    spec = write_corpus(choose(args.workload, args.seed), work / "inputs")
    ids = [entry["id"] for entry in json.loads(spec.read_text())]
    print(f"# {args.workload} seed {args.seed}: {len(ids)} groups: {json.dumps(ids)}")
    golden = load_golden(args.workload)

    measure = traced if args.trace else end_to_end
    metrics, attempted, failed = measure(suite, spec, work, ids, golden, args.seconds)
    print(f"# failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} groups)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def terminate(signum: int, _frame) -> None:
    # unwinds through run_cli, which kills its child even while it is stopped
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    raise SystemExit(main())
