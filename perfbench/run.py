"""Cover benchmark: wall time from a checkpointed edge frame to a verified
hop-constrained cycle cover (TDB++, k = 5, 2-cycles excluded).

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from a traced run
(see ``perfbench/tracing.py``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record, which is also written
to ``.bench_work/``. Workloads, metrics and their reasons are in
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
K = 5
ALGORITHM = "tdb++"
LOADS = 3            # edge-frame loads per run; setup_s takes their median


def tiny_graph(seed: int, scale: float):
    from repro.graphgen.models import uniform_digraph
    return uniform_digraph(round(25 * scale), round(75 * scale),
                           reciprocity=0.3, seed=seed)


def hier_graph(seed: int, scale: float):
    from repro.graphgen.models import hierarchical_digraph
    return hierarchical_digraph(round(4000 * scale), round(50_000 * scale),
                                gamma=2.0, core_reciprocity=0.4, seed=seed)


def flk_graph(seed: int, scale: float):
    from repro.graphgen.registry import DATASETS
    flk = DATASETS["FLK"]
    return replace(flk, n=round(flk.n * scale), m=round(flk.m * scale),
                   seed=seed).generate()


@dataclass(frozen=True)
class Workload:
    path: str            # "pipeline": prepare_graph; "kernel": single_group
    make: Callable       # (graph seed, scale) -> pandas src/dst frame
    graph_seed: int      # default seed of the graph's structure
    scale: float         # default factor on the vertex and edge counts


WORKLOADS = {
    "tiny": Workload("pipeline", tiny_graph, 1, 1.0),
    "hier": Workload("pipeline", hier_graph, 7, 1.0),
    "flk-kernel": Workload("kernel", flk_graph, 113, 0.25),
}


def relabel(pdf, seed: int):
    """Order-preserving relabelling drawn from ``seed``.

    Labels change (and with them Spark's hash partitioning), while every
    order-dependent choice stays put: SCC roots, the kernel's vertex order
    and so the cover size and the kernel's op count."""
    import numpy as np
    import pandas as pd
    labels = np.unique(pdf[["src", "dst"]].to_numpy())
    gaps = np.random.default_rng(seed).integers(1, 1 << 16, len(labels))
    new = np.cumsum(gaps)
    return pd.DataFrame({c: new[np.searchsorted(labels, pdf[c].to_numpy())]
                         for c in ("src", "dst")})


def spark_conf() -> dict:
    cores = min(4, os.cpu_count() or 1)
    return {
        "spark.master": f"local[{cores}]",
        "spark.driver.memory": "3g",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions":
            f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData "
            "-XX:+UseSerialGC",
        "spark.local.dir": str(WORK / "spark"),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.sql.shuffle.partitions": str(cores),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": "100000",
    }


def start_spark(conf: dict):
    """Local session whose Python workers import ``repro`` from ``src``."""
    for d in ("tmp", "spark", "warehouse"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    # spark-submit's launcher JVM would otherwise write /tmp/hsperfdata_*
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    from pyspark.sql import SparkSession
    b = SparkSession.builder.appName("perfbench")
    for key, value in conf.items():
        b = b.config(key, value)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


@dataclass
class Rep:
    res: object
    info: dict
    comp_edges: object
    cover_s: float
    accepted: bool | None = None     # None: this repetition skipped verify
    verify_s: float | None = None


def run_rep(spark, wl: Workload, edges, *, verify: bool = True,
            tracer=None) -> Rep:
    """One timed repetition: edge frame -> cover [-> distributed verify]."""
    from repro.dist import pipeline
    from repro.dist import verify as dverify
    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("prepare"):
        if wl.path == "pipeline":
            comp_edges, info = pipeline.prepare_graph(spark, edges, K)
        else:
            comp_edges, info = pipeline.single_group(edges), {}
    with span("run_cover"):
        res = pipeline.run_cover(comp_edges, ALGORITHM, K)
    rep = Rep(res, info, comp_edges, time.perf_counter() - t0)
    if verify:
        t0 = time.perf_counter()
        with span("verify"):
            # Typed frame: an empty cover stays empty (no sentinel vertex).
            cover = spark.createDataFrame([(int(v),) for v in res.cover],
                                          "v BIGINT")
            rep.accepted = dverify.distributed_check_cover(spark, edges,
                                                           cover, K)
        rep.verify_s = time.perf_counter() - t0
    return rep


def gate(g, cover) -> str | None:
    """In-process feasibility and minimality on the input graph."""
    from repro.core.verify import check_feasible, check_minimal
    if not check_feasible(g, cover, K)[0]:
        return "infeasible"
    if not check_minimal(g, cover, K)[0]:
        return "not minimal"
    return None


def gate_self_test(g, cover) -> bool:
    """The gate must reject a cover missing a necessary vertex and a cover
    with a redundant vertex added."""
    import numpy as np
    rest = np.setdiff1d(g.vertex_ids, cover)
    return (len(cover) > 0 and len(rest) > 0
            and gate(g, cover[1:]) is not None
            and gate(g, np.append(cover, rest[0])) is not None)


def cover_hash(cover) -> str:
    import numpy as np
    data = np.sort(np.asarray(cover, dtype="<i8")).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def replay_kernels(tracer, rep: Rep) -> set[int]:
    """Run the kernels in the driver on the collected component frames, so
    the patched kernel and core functions are timed (Spark's workers
    import unpatched modules)."""
    from repro.dist import kernels
    with tracer.span("replay") as sp:
        pdf = rep.comp_edges.toPandas()
        sp.attrs["edges_in"] = len(pdf)
        cover: set[int] = set()
        for _, part in pdf.groupby("comp"):
            out = kernels.solve_component(part, algorithm=ALGORITHM, k=K)
            cover.update(int(v) for v in out.vertex.dropna())
    return cover


def peak_rss_mb() -> dict[str, float]:
    """Peak resident size (VmHWM) of this process and of each of its
    descendants (the JVM and the Python workers), by command name."""
    parent = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                stat = (d / "stat").read_text()
            except OSError:
                continue
            parent[int(d.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    mine, grew = {os.getpid()}, True
    while grew:
        kids = {p for p, pp in parent.items() if pp in mine} - mine
        grew = bool(kids)
        mine |= kids
    out: dict[str, float] = {}
    for pid in sorted(mine):
        try:
            status = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        fields = dict(line.split(":", 1) for line in status if ":" in line)
        if "VmHWM" in fields:
            name = f"{fields['Name'].strip()}.{pid}"
            out[name] = int(fields["VmHWM"].split()[0]) / 1024
    return out


def steal_seconds() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy
    import pandas
    import pyspark
    mem_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {"cores": os.cpu_count(), "mem_total_mb": mem_kb // 1024,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "pandas": pandas.__version__, "spark": pyspark.__version__}


def median(xs) -> float:
    return float(statistics.median(xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="relabelling seed (see relabel)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int,
                    help="structure seed (default: per workload)")
    ap.add_argument("--scale", type=float,
                    help="size factor (default: per workload)")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    graph_seed = wl.graph_seed if args.graph_seed is None else args.graph_seed
    scale = wl.scale if args.scale is None else args.scale

    sys.path.insert(0, str(SRC))
    conf = spark_conf()
    t = time.perf_counter()
    spark = start_spark(conf)
    session_s = time.perf_counter() - t
    try:
        return measure(spark, args, wl, graph_seed, scale, conf, session_s)
    finally:
        stop_spark(spark)


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM, which exits (taking the
    Python workers with it) once its standard input closes."""
    from pyspark import SparkContext
    spark.stop()
    proc = getattr(SparkContext._gateway, "proc", None)
    if proc is None:
        return
    SparkContext._gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def measure(spark, args, wl, graph_seed, scale, conf, session_s) -> int:
    from repro.graph.csr import CSRGraph
    from repro.graph.schema import edges_df

    # -- setup: warm-up, then the workload's edge frame --------------------
    # Warm-up: the workload's path once on the tiny graph, so the JVM's
    # first query plans and the Python workers' imports are not timed.
    t = time.perf_counter()
    warm = edges_df(spark, tiny_graph(WORKLOADS["tiny"].graph_seed, 1.0))
    warm_rep = run_rep(spark, wl, warm.localCheckpoint(eager=True))
    warmup_s = time.perf_counter() - t
    gen_s, load_s = [], []
    for _ in range(LOADS):
        t = time.perf_counter()
        pdf = relabel(wl.make(graph_seed, scale), args.seed)
        t1 = time.perf_counter()
        edges = edges_df(spark, pdf).localCheckpoint(eager=True)
        m_loaded = edges.count()
        gen_s.append(t1 - t)
        load_s.append(time.perf_counter() - t1)
    setup_s = session_s + warmup_s + median(gen_s) + median(load_s)
    g = CSRGraph.from_edges(pdf)

    # -- timed repetitions, each gated outside the timed region ------------
    # Untraced: cover passes, all returning the same cover, while the next
    # one is expected to end within --seconds; the first one is also
    # verified, outside that window. Traced: one untraced repetition (the
    # overhead baseline), then traced ones within --seconds.
    reps: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    failures: list[str] = []
    verdicts: dict[str, str | None] = {}     # cover hash -> gate verdict
    attempted = failed = 0
    window = last = 0.0
    steal_s = steal_seconds()
    while attempted < 1 + args.trace or window + last <= args.seconds:
        t_iter = time.perf_counter()
        rep = None
        attempted += 1
        tracer = None
        try:
            verify = bool(args.trace) or attempted == 1
            if args.trace and attempted > 1:
                from tracing import Tracer, instrument, layer_metrics
                tracer = Tracer(spark.sparkContext)
                with instrument(tracer):
                    rep = run_rep(spark, wl, edges, tracer=tracer)
                    replayed = replay_kernels(tracer, rep)
                tracer.resolve_jobs()
            else:
                rep = run_rep(spark, wl, edges, verify=verify)
            reps.append(rep)
            h = cover_hash(rep.res.cover)
            if h not in verdicts:
                verdicts[h] = gate(g, rep.res.cover)
            reason = (None if rep.res.finished else "kernel did not finish")
            reason = reason or (None if h == cover_hash(reps[0].res.cover)
                                else "cover hash changed")
            reason = reason or (None if rep.accepted is not False
                                else "distributed verify rejected")
            reason = reason or verdicts[h]
            if tracer is not None:
                reason = reason or (None if replayed == rep.res.cover_set()
                                    else "in-driver replay cover differs")
                if reason is None:
                    traced.append((rep, layer_metrics(
                        tracer, res=rep.res, info=rep.info,
                        m_loaded=m_loaded)))
        except Exception:  # count it and keep sweeping
            traceback.print_exc()
            reason = "exception"
        if reason:
            failed += 1
            failures.append(f"rep {attempted}: {reason}")
            print(f"perfbench: rep {attempted} failed: {reason}",
                  file=sys.stderr)
        last = time.perf_counter() - t_iter
        if not args.trace and rep is not None and rep.verify_s is not None:
            last -= rep.verify_s
        window += last
    verified = [r for r in reps if r.verify_s is not None]
    if not verified:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    if verified[0].accepted is False:
        # the other passes returned the same cover, so they fail with it
        failed = attempted

    self_test = True
    if args.workload == "tiny":
        self_test = gate_self_test(g, reps[0].res.cover)
        if not self_test:
            failures.append("gate self-test: corrupted cover accepted")

    steal_s = steal_seconds() - steal_s
    rss = peak_rss_mb()
    if args.trace:
        if not traced:
            print("perfbench: no traced repetition passed", file=sys.stderr)
            return 1
        from tracing import PER_LAYER_UNITS
        values = {k: median([m[k] for _, m in traced])
                  for k in traced[0][1]}
        values.update({
            "graphgen.generate_s": median(gen_s),
            "setup.session_s": session_s,
            "setup.load_s": median(load_s),
            "setup.warmup_s": warmup_s,
            "trace.overhead_s":
                median([r.cover_s + r.verify_s for r, _ in traced])
                - (reps[0].cover_s + reps[0].verify_s),
        })
        metrics = {k: (values[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        cover_s = median([r.cover_s for r in reps])
        verify_s = median([r.verify_s for r in verified])
        metrics = {
            "total_s": (cover_s + verify_s, "s"),
            "cover_s": (cover_s, "s"),
            "verify_s": (verify_s, "s"),
            "setup_s": (setup_s, "s"),
            "cover_size": (reps[0].res.size, "count"),
            "peak_rss_mb": (sum(rss.values()), "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "graph_seed": graph_seed, "scale": scale, "trace": args.trace,
        "k": K, "algorithm": ALGORITHM, "seconds": args.seconds,
        "git_revision": git_revision(),
        "machine": machine(),
        "spark_conf": conf,
        "edges": m_loaded, "prepare_info": reps[0].info,
        "cover_size": reps[0].res.size,
        "cover_hash": cover_hash(reps[0].res.cover),
        "reps": [{"cover_s": r.cover_s, "verify_s": r.verify_s,
                  "accepted": r.accepted, "kernel_s": r.res.seconds,
                  "ops": r.res.ops} for r in reps],
        "failures": failures, "cpu_steal_s": steal_s, "peak_rss_mb": rss,
        "setup": {"session_s": session_s, "warmup_s": warmup_s,
                  "warmup_cover_s": warm_rep.cover_s,
                  "warmup_verify_s": warm_rep.verify_s,
                  "generate_s": gen_s, "load_s": load_s},
    }
    WORK.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": int(v) if u == "count" else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
