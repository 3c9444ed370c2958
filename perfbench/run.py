"""The repository benchmark: one command per workload, end-to-end metrics by
default and per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (``src/`` must be present). Load is one
process on ``local[N]`` (N = usable cores) driven by a single closed-loop
client: each request waits for the previous one. A run

1. starts its own Spark session and sets the workload up (inputs, and for
   ``search`` the index build, Parquet write and reload); ``setup_s`` is the
   session start plus the median over the workload's set-up repeats;
2. runs the workload's untimed warm-up requests (``search``: one round);
3. times whole rounds of the seeded request stream, starting no round that
   would end past ``--seconds`` (at least one round runs), and checks every
   result against ``repro.reference`` outside the timed interval; a mismatch
   or an exception is a failed request and never aborts the run.

A build is timed cold, as a one-shot index job runs it: a warm-up build
costs as much as the timed one, and the run budget has no room for it.

Standard output ends with a human-readable report, one ``result:`` row with
the provenance, and as its last line the JSON object
``{"correct", "attempted", "failed", "metrics"}``. Everything the run writes
goes under ``.perfbench/`` in the checkout and is removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVER_MEMORY = "1g"
# One reduce task per shuffle: the inputs are small enough that every extra
# task is pure scheduling cost (a third off a build, measured).
SHUFFLE_PARTITIONS = 1


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB; 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def start_session(work_dir: Path, cores: int):
    """The benchmark's own local session: ``repro.spark_session.get_session``'s
    settings plus a fixed master, memory, shuffle width and scratch dirs.

    Job and stage retention is raised far above a run's job count so group
    counts cannot silently undercount, and the console progress bar is off.
    """
    from pyspark.sql import SparkSession

    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(work_dir / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work_dir / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "1000000")
        .config("spark.ui.retainedStages", "1000000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the launcher exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(
    spark, workload: str, *, seed: int, seconds: float, trace: bool,
    work_dir: Path, smoke: bool = False, session_s: float = 0.0,
) -> dict:
    """One benchmark run on an existing session; returns the result row."""
    from perfbench.spans import LAYERS, JobGroups, Tracer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload](spark, seed=seed, work_dir=work_dir, smoke=smoke)
    sc = spark.sparkContext
    groups = JobGroups(sc)

    setup_repeats = 1 if smoke else wl.setup_repeats
    setups = [wl.setup() for _ in range(setup_repeats)]
    load_s = _median([s["load_s"] for s in setups])
    index_s = _median([s["index_s"] for s in setups])
    setup_s = session_s + _median([s["load_s"] + s["index_s"] for s in setups])

    attempted = failed = 0
    tracer = Tracer(groups) if trace else None

    def attempt(op):
        """Run and check one request; (seconds, job group, output) or None."""
        nonlocal attempted, failed
        attempted += 1
        try:
            with groups.group() as gid:
                t0 = time.perf_counter()
                out = wl.run(op)
                dt = time.perf_counter() - t0
            if tracer:
                tracer.op = None  # the gate's own Spark calls are not the op's
            if wl.check(op, out):
                return dt, gid, out
            print(f"perfbench: wrong result for {op}", file=sys.stderr)
        except Exception:  # a failed request is counted, never fatal
            traceback.print_exc()
        failed += 1
        return None

    for op in wl.warmup_ops():
        attempt(op)

    samples: list[tuple[str, float, str]] = []  # (kind, seconds, job group)
    rows: dict[str, int] = {}
    if tracer:
        tracer.install()
    t_start = time.perf_counter()
    try:
        while True:
            t_round = time.perf_counter()
            for op in wl.round():
                if tracer:
                    tracer.op = len(samples)
                got = attempt(op)
                if got is not None:
                    dt, gid, out = got
                    samples.append((op.kind, dt, gid))
                    for k, v in wl.result_rows(out).items():
                        rows[k] = rows.get(k, 0) + v
            # Whole rounds only, and none that would end past the window.
            now = time.perf_counter()
            if now - t_start + (now - t_round) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    measured_s = time.perf_counter() - t_start

    groups.drain()
    n = max(1, len(samples))
    op_jobs = sum(len(groups.jobs(gid)) for _, _, gid in samples)
    stats = wl.index_stats()
    index_bytes = sum(b for _, b in stats.values())

    end_to_end = {
        "op_p50_s": (_median([dt for _, dt, _ in samples]), "s"),
        "setup_s": (setup_s, "s"),
        "spark_jobs_per_op": (op_jobs / n, "count"),
        "index_bytes": (float(index_bytes), "bytes"),
        "driver_peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    by_kind = {
        metric: (_median([dt for k, dt, _ in samples if k == kind]), "s")
        for kind, metric in wl.kinds.items()
    }
    report = {
        **by_kind,
        "failed_ops_ratio": (failed / attempted if attempted else 0.0, "ratio"),
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "report": report,
        "provenance": {
            "workload": workload,
            "seed": seed,
            "git_sha": _git_sha(),
            "spark_version": spark.version,
            "master": sc.master,
            "cores": sc.defaultParallelism,
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
            "graph": {"m": len(wl.el), "delta": wl.delta},
            "samples": len(samples),
            "samples_by_kind": {k: sum(1 for s in samples if s[0] == k) for k in wl.kinds},
            "setup_repeats": setup_repeats,
            "measured_s": round(measured_s, 3),
            "traced": trace,
        },
    }
    if tracer:
        seen = tracer.count_jobs()
        # Jobs run by the request itself, outside every layer span (e.g. the
        # final collect), belong to the request's own group.
        own = [j for _, _, gid in samples for j in groups.jobs(gid)]
        per_layer = _layer_metrics(tracer, LAYERS, n)
        per_layer["spark.jobs"] = (per_layer["spark.jobs"][0] + len(own) / n, "count/op")
        per_layer["spark.tasks"] = (per_layer["spark.tasks"][0] + groups.tasks(own, seen) / n, "count/op")
        for k in ("core.query.result_rows", "core.scs.result_rows"):
            per_layer[k] = (rows.get(k, 0) / n, "count/op")
        for name, layer in (("idelta", "core.index_delta"), ("iv", "core.index_bicore")):
            nrows, nbytes = stats.get(name, (0, 0))
            per_layer[f"{layer}.rows"] = (float(nrows), "count")
            per_layer[f"core.index_bs.{name}_bytes"] = (float(nbytes), "bytes")
        per_layer["setup.load_s"] = (load_s, "s")
        per_layer["setup.index_s"] = (index_s, "s")
        per_layer["spark.jvm_peak_rss_mb"] = (_jvm_peak_rss_mb(), "MiB")
        per_layer["trace.op_p50_s"] = end_to_end["op_p50_s"]
        end_to_end["spark_jobs_per_op"] = (per_layer["spark.jobs"][0], "count")
        result["per_layer"] = per_layer
    return result


def _jvm_peak_rss_mb() -> float:
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    return _peak_rss_mb(proc.pid) if proc is not None else 0.0


def _layer_metrics(tracer, layers, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the spans of the measured requests."""
    spans = [s for s in tracer.spans if s.op is not None]
    by_id = {s.id: s for s in spans}

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    out: dict[str, tuple[float, str]] = {}
    for layer in layers:
        mine = [s for s in spans if s.layer == layer]
        ckpts = sum(
            1 for s in spans
            if s.name == "checkpoint" and s.parent in by_id
            and by_id[s.parent].layer == layer
        )
        if layer == "graph.schema":
            ckpts = sum(1 for s in mine if s.name == "checkpoint")
        out[f"{layer}.calls"] = (len(mine) / n_ops, "count/op")
        out[f"{layer}.self_s"] = (sum(s.end - s.start - s.child_s for s in mine) / n_ops, "s/op")
        out[f"{layer}.jobs"] = (sum(s.jobs for s in mine) / n_ops, "count/op")
        out[f"{layer}.tasks"] = (sum(s.tasks for s in mine) / n_ops, "count/op")
        out[f"{layer}.checkpoints"] = (ckpts / n_ops, "count/op")
    ck = [s for s in spans if s.name == "checkpoint"]
    out["graph.schema.checkpoint_s"] = (sum(s.end - s.start for s in ck) / n_ops, "s/op")
    saves = [s for s in spans if s.name == "save_index"]
    out["core.index_bs.write_s"] = (sum(s.end - s.start for s in saves) / n_ops, "s/op")

    under_scs = [s for s in spans if any(a.layer == "core.scs" for a in ancestors(s))]
    probes = [s for s in under_scs if s.name == "abcore"]
    hv = [s for s in under_scs if s.name == "has_vertex"]
    out["core.scs.probes"] = (len(probes) / n_ops, "count/op")
    out["core.scs.bfs_calls"] = (sum(1 for s in under_scs if s.name == "component_of") / n_ops, "count/op")
    out["core.scs.feasible_ratio"] = (
        sum(1 for s in hv if s.result) / len(hv) if hv else 0.0, "ratio",
    )
    out["spark.jobs"] = (sum(s.jobs for s in spans) / n_ops, "count/op")
    out["spark.tasks"] = (sum(s.tasks for s in spans) / n_ops, "count/op")
    return out


def _print_report(res: dict, trace: bool) -> None:
    prov = res["provenance"]
    print(f"perfbench {prov['workload']} seed={prov['seed']} samples={prov['samples']} "
          f"{prov['master']} shuffle_partitions={prov['shuffle_partitions']}")
    for name, (value, unit) in {**res["end_to_end"], **res["report"]}.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    if trace:
        for name, (value, unit) in res["per_layer"].items():
            print(f"  {name:<40} {value:>14.6f} {unit}")
    verdict = "PASS" if res["correct"] else "FAIL"
    print(f"correctness: {verdict} ({res['failed']}/{res['attempted']} failed)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["search", "retrieve", "build"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no src/repro under {ROOT}: run from the root of a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The benchmark defines its own session; inherited launcher overrides
    # (e.g. from a test run) would change master, memory or scratch dirs.
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    # A terminated run still stops its JVM (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    # Keep every scratch file of this process, the JVMs it launches (the
    # Spark launcher's included) and their Python workers inside work_dir.
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work_dir / 'tmp'}"
    cores = len(os.sched_getaffinity(0))

    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_session(work_dir, cores)
        session_s = time.perf_counter() - t0
        res = measure(
            spark, args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), work_dir=work_dir, smoke=args.smoke,
            session_s=session_s,
        )
    finally:
        if spark is not None:
            stop_session(spark)
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it

    _print_report(res, bool(args.trace))
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    row = {k: v for k, v in res.items() if k not in ("end_to_end", "report", "per_layer")}
    row["metrics"] = {k: v for k, (v, _) in {**res["end_to_end"], **res["report"]}.items()}
    print("result: " + json.dumps(row, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
