#!/usr/bin/env python3
"""Benchmark of the frameseek engine on one synthetic workload.

    python3 bench/run.py --workload copy-local --seed 1 --seconds 12 --trace 0

Run from anywhere; the engine is imported from the `src/` directory next to
this one, never from an installed copy. One run:

1. generates the workload's corpus with frameseek.synth under --seed and
   writes it to a scratch directory, in a child process, so that neither
   its time nor its memory counts in any metric;
2. sets the engine up SETUP_REPEATS times the way a CLI user would: train
   codebooks, write and read them, build the local and the global index,
   write both, read both back; then rebuilds each index until its builds
   of the round have taken INDEX_SECONDS, for steadier index rates;
3. after each set-up, runs passes over the query batch for a third of
   --seconds (at least one pass): read the query files, then one query at
   a time through the local channel, the global channel and fusion, in a
   closed loop;
4. writes the fused run file and evaluates it, and checks every output
   against recomputations in checks.py.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the engine's public functions are wrapped in spans
(tracing.py) and the line holds the per-layer metrics instead. Any check
that fails counts its operation as failed.

Everything the run writes stays under .bench_out/ at the repository root:
the scratch corpus and index files (deleted at exit), the span trace of a
traced run (traces/), and a digest of the outputs per workload, seed and
code version (digests/), which later runs with the same seed must match;
traced runs keep a second digest of the per-query work counters.
"""

import os

# One BLAS thread: on the 2-core reference machine a second OpenBLAS thread
# spins between calls, competes with the interpreter thread and widens the
# run-to-run spread of query latency (see README.md). OpenBLAS reads the
# setting when numpy first loads, so it precedes every other import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from typing import NamedTuple  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
INDEX_SECONDS = 1.0
CHANNELS = {"local": "local.lidx", "global": "global.gidx"}  # channel -> index file


class QueryResult(NamedTuple):
    qid: int
    gid: int
    local: list      # (video, score) entries of each channel and of fusion
    global_: list
    bits: object     # the query's packed global signature
    fused: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("frameseek/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def in_child(fn, *args):
    """Run fn(*args) in a forked child process, wait for it to end and
    return the result: the child's memory never counts towards this
    process's peak RSS."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def make_corpus(spec: dict, seed: int, corpus_dir: Path):
    """Generate and write the corpus; return its file paths, ground truth,
    frame-to-video map and query count."""
    from frameseek import synth
    corpus = synth.generate(synth.SynthSpec(seed=seed, **spec))
    paths = synth.write_corpus(corpus, corpus_dir)
    frame_to_video = {fid: vid for fid, vid, _ in corpus.ref_local}
    return paths, corpus.ground_truth, frame_to_video, len(corpus.query_local)


def expected_local_postings(spec: dict, seed: int, vocabulary, prune_fraction: float):
    """checks.expected_local_postings over the regenerated reference frames."""
    from frameseek import synth
    corpus = synth.generate(synth.SynthSpec(seed=seed, **spec))
    return checks.expected_local_postings(corpus.ref_local, vocabulary, prune_fraction)


class Bench:
    def __init__(self, fs, workload, seed, seconds, traced, work_dir):
        self.fs = fs
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work_dir
        self.cfg = fs.config.EngineConfig(seed=seed, threads=1, **workload.config)
        self.paths, self.ground_truth, self.frame_to_video, self.n_queries = in_child(
            make_corpus, workload.spec, seed, work_dir / "corpus")
        self.videos = set(self.frame_to_video.values())
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operation(self, errors):
        """Account one operation; it failed if any check reported an error."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors)

    # --- set-up -------------------------------------------------------------

    def set_up(self):
        fs, t, cfg, work = self.fs, self.tracer, self.cfg, self.work
        ref_local, ref_global = self.paths["ref_local"], self.paths["ref_global"]
        clock = time.perf_counter
        with t.span("setup"):
            t0 = clock()
            with t.span("codebooks.train"):
                trained = fs.pipeline.train_codebooks([ref_local], [ref_global], cfg)
            t1 = clock()
            with t.span("storage.codebooks_rw"):
                fs.storage.write_codebooks(trained, work / "books.i2vc")
                books = fs.storage.read_codebooks(work / "books.i2vc")
            build_s = {channel: [self.build_index(channel, books)] for channel in CHANNELS}
            with t.span("storage.index_read"):
                local = fs.storage.read_local_index(work / "local.lidx")
                glob = fs.storage.read_global_index(work / "global.gidx")
            t2 = clock()
        return {
            "books": books, "local": local, "global": glob, "trained": trained,
            "setup_s": t2 - t0, "train_s": t1 - t0,
            "build_s": build_s,
            "digest": {name: _sha(work / name)
                       for name in ("books.i2vc", "local.lidx", "global.gidx")},
            "lidx_bytes": (work / "local.lidx").stat().st_size,
            "gidx_bytes": (work / "global.gidx").stat().st_size,
        }

    def build_index(self, channel, books) -> float:
        """Build one channel's index from its descriptor file and write it;
        returns the seconds taken."""
        pipeline, storage = self.fs.pipeline, self.fs.storage
        build, write = {
            "local": (pipeline.build_local_index_from_files, storage.write_local_index),
            "global": (pipeline.build_global_index_from_files, storage.write_global_index),
        }[channel]
        start = time.perf_counter()
        with self.tracer.span(f"{channel}_index.from_files"):
            index = build([self.paths[f"ref_{channel}"]], books, self.cfg)
        with self.tracer.span("storage.index_write"):
            write(index, self.work / CHANNELS[channel])
        return time.perf_counter() - start

    def rebuild_indexes(self, state):
        """Time further builds of each index, untraced, until its builds of
        this round add up to INDEX_SECONDS: one sub-second build is too short
        a sample for a steady rate. Each rebuild must write the same bytes."""
        for channel, name in CHANNELS.items():
            times = state["build_s"][channel]
            while sum(times) < INDEX_SECONDS:
                times.append(self.build_index(channel, state["books"]))
                self.operation([] if _sha(self.work / name) == state["digest"][name] else
                               [f"rebuilt {name} differs from the first build"])

    def check_setup(self, state, first, expected_local):
        errors = checks.check_local_index(state["local"], *expected_local)
        if state["local"].frame_to_video != self.frame_to_video:
            errors.append("local index frame-to-video table differs from the corpus")
        indexed = sorted(f for c in state["global"].clusters for f in c["frame"].tolist())
        if indexed != sorted(self.frame_to_video):
            errors.append("global index does not hold each reference frame exactly once")
        if first is not None and state["digest"] != first["digest"]:
            errors.append("set-up is not deterministic: codebook or index bytes differ")
        self.operation(errors)

    # --- queries ------------------------------------------------------------

    def query_pass(self, state):
        fs, t, cfg = self.fs, self.tracer, self.cfg
        books, local_index, global_index = state["books"], state["local"], state["global"]
        table = fs.local_query.PQScoreTable(books.pq)
        geometry = fs.geometry.FrameGeometry(cfg.frame_width, cfg.frame_height)
        hough = fs.local_query.HoughConfig()
        gcfg = fs.global_query.GlobalQueryConfig(k_probe=cfg.k_probe, top_n=cfg.top_n)
        fcfg = fs.fusion.FusionConfig(epsilon=cfg.epsilon, warmup=cfg.warmup)
        clock = time.perf_counter
        latency, latency_local, latency_global, results = [], [], [], []
        counters = Counter()
        counting = 0.0
        with t.span("query_pass"):
            start = clock()
            with t.span("storage.read_queries"):
                q_local = fs.storage.read_local_descriptors(self.paths["query_local"])
                q_global = fs.storage.read_global_features(self.paths["query_global"])
            for (qid, _, records), (gid, _, feats) in zip(q_local, q_global):
                t0 = clock()
                with t.span("local_query.rank"):
                    local = fs.local_query.local_rank(
                        records, local_index, books.bow, books.pq, tau_pq=cfg.tau_pq,
                        top_n=cfg.top_n, hough=hough, query_geometry=geometry, table=table)
                t1 = clock()
                with t.span("global_query.encode"):
                    sig = fs.global_index.make_signature(gid, 0, fs.global_index.fisher_vector(
                        fs.codebooks.pca_project(books.pca, feats), books.gmm))
                with t.span("global_query.rank"):
                    glob = fs.global_query.global_rank(sig.bits, global_index, gcfg)
                t2 = clock()
                with t.span("fusion.fuse"):
                    fused = fs.fusion.fuse(local, glob, fcfg, top_n=cfg.top_n)
                t3 = clock()
                latency.append(t3 - t0)
                latency_local.append(t1 - t0)
                latency_global.append(t2 - t1)
                results.append(QueryResult(qid, gid, local.entries, glob.entries,
                                           sig.bits, fused.entries))
                if t.enabled:
                    self.count_query(counters, local_index)
                    counting += clock() - t3
            elapsed = clock() - start - counting
        run = {r.qid: r.fused for r in results}
        run_path = self.work / "fused.run"
        fs.storage.write_run(run, run_path)
        return {"latency": latency, "latency_local": latency_local,
                "latency_global": latency_global, "elapsed": elapsed,
                "results": results, "counters": counters,
                "run_bytes": run_path.read_bytes(), "run_path": run_path}

    def count_query(self, counters, local_index):
        """Per-query work counts, from the values the wrapped calls returned."""
        returns = self.tracer.take_returns()
        if returns["local_query.match"]:
            for posting in returns["local_query.encode"][0]:
                arrs = local_index.postings.get(posting.word)
                if arrs is not None and local_index.idf[posting.word] > 0:
                    counters["postings_scanned"] += arrs["frame"].shape[0]
            counters["pq_hits"] += len(returns["local_query.match"][0])
            counters["frames_voted"] += len(returns["local_query.hough"][0])
        for probed in returns["global_query.probe"]:
            counters["signatures_scanned"] += probed["frame"].shape[0]
        for ranked in returns["fusion.fuse"]:
            counters[f"kept_{ranked.channel}"] += len(ranked.entries)

    def check_first_pass(self, state, qpass):
        cfg = self.cfg
        for r in qpass["results"]:
            errors = [] if r.qid == r.gid else [f"query {r.qid}: local and global files disagree"]
            for what, entries in (("local", r.local), ("global", r.global_), ("fused", r.fused)):
                errors += checks.check_ranked(entries, self.videos, cfg.top_n,
                                              f"query {r.qid} {what}")
            errors += [f"query {r.qid} {e}" for e in checks.check_global(
                r.global_, r.bits, state["global"], cfg.k_probe, cfg.top_n)]
            errors += [f"query {r.qid} {e}" for e in checks.check_fused(
                r.fused, r.local, r.global_, cfg.epsilon, cfg.warmup, cfg.top_n)]
            self.operation(errors)

    def check_repeat_pass(self, first, qpass):
        for a, b in zip(first["results"], qpass["results"]):
            self.operation([] if (a.local, a.global_, a.fused) == (b.local, b.global_, b.fused)
                           else [f"query {a.qid}: results differ between passes"])
        self.operation([] if qpass["run_bytes"] == first["run_bytes"] else
                       ["fused run files differ between passes"])

    def evaluate(self, qpass):
        """Evaluate the written run file as a CLI user would, and compare the
        engine's scorer with the independent one."""
        fs = self.fs
        gt = self.ground_truth
        ranked = {q: [v for v, _ in e] for q, e in fs.storage.read_run(qpass["run_path"]).items()}
        ours = checks.mean_average_precision(ranked, gt, self.cfg.top_n)
        ours_at_1 = checks.precision_at_1(ranked, gt)
        errors = []
        if abs(fs.evaluation.mean_ap(ranked, gt, self.cfg.top_n) - ours) > 1e-12:
            errors.append("engine mAP differs from the independent scorer")
        if abs(fs.evaluation.map_at_1(ranked, gt) - ours_at_1) > 1e-12:
            errors.append("engine mAP@1 differs from the independent scorer")
        if ours < checks.MAP_FLOOR:
            errors.append(f"fused mAP {ours:.4f} is below the floor {checks.MAP_FLOOR}")
        self.operation(errors)
        local_run = {r.qid: [v for v, _ in r.local] for r in qpass["results"]}
        global_run = {r.qid: [v for v, _ in r.global_] for r in qpass["results"]}
        return {"map_fused": ours, "map1_fused": ours_at_1,
                "map_local": checks.mean_average_precision(local_run, gt, self.cfg.top_n),
                "map_global": checks.mean_average_precision(global_run, gt, self.cfg.top_n)}

    # --- the run ------------------------------------------------------------

    def run(self):
        setups, passes, traced_passes, expected = [], [], [], None
        for _ in range(SETUP_REPEATS):
            self.trace_calls(self.traced)
            state = self.set_up()
            self.trace_calls(False)
            if expected is None:
                expected = in_child(expected_local_postings, self.workload.spec, self.seed,
                                    state["books"].bow.centers, self.cfg.prune_fraction)
            self.check_setup(state, setups[0] if setups else None, expected)
            self.rebuild_indexes(state)
            setups.append(state)
            # query passes of this round; interleaving them with the set-ups
            # spreads both kinds of sample over the whole run. A traced run
            # alternates untraced and traced passes, so each round yields
            # both halves of the tracing-overhead comparison.
            start, done = time.perf_counter(), 0
            while True:
                tracing = self.traced and done % 2 == 1
                self.trace_calls(tracing)
                qpass = self.query_pass(state)
                (traced_passes if tracing else passes).append(qpass)
                if len(passes) + len(traced_passes) == 1:
                    self.check_first_pass(state, qpass)
                    quality = self.evaluate(qpass)
                else:
                    self.check_repeat_pass(passes[0], qpass)
                if tracing and qpass["counters"] != traced_passes[0]["counters"]:
                    self.operation(["work counters differ between traced passes"])
                done += 1
                spent = time.perf_counter() - start
                if done >= 1 + self.traced and spent + spent / done > self.seconds / SETUP_REPEATS:
                    break
        self.trace_calls(False)
        state = setups[0]

        counters = {
            "local_index.postings": state["local"].n_postings(),
            "local_index.stopped_words": int(state["local"].stop_mask.sum()),
            "global_index.signatures": state["global"].n_signatures,
            "global_index.largest_cluster": int(state["global"].cluster_sizes().max()),
        }
        self.check_across_runs("outputs", dict(
            state["digest"], counters=counters,
            fused_run=hashlib.sha256(passes[0]["run_bytes"]).hexdigest()))
        if self.traced:
            self.check_across_runs("work", dict(traced_passes[0]["counters"]))
            metrics = self.per_layer(setups, passes, traced_passes, counters, quality)
        else:
            metrics = self.end_to_end(setups, passes, quality)
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def trace_calls(self, on):
        if on and not self.tracer.enabled:
            self.tracer.install({name: sys.modules[name] for name in (
                "frameseek.pipeline", "frameseek.local_query",
                "frameseek.global_query", "frameseek.fusion")})
        elif not on and self.tracer.enabled:
            self.tracer.uninstall()

    def check_across_runs(self, kind, digest):
        """Compare a digest with the one of this kind from an earlier run of
        the same code, workload and seed, if there was one; record it
        otherwise."""
        path = OUT / "digests" / f"{self.workload.name}-seed{self.seed}-{_code_hash()}-{kind}.json"
        errors = []
        if path.exists():
            if json.loads(path.read_text()) != digest:
                errors.append(f"outputs differ from an earlier run with the same seed ({path.name})")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(digest, sort_keys=True))
            os.replace(tmp, path)
        self.operation(errors)

    def end_to_end(self, setups, passes, quality):
        n_queries = len(passes[0]["results"])
        n_frames = len(self.frame_to_video)
        latency = [x for p in passes for x in p["latency"]]
        state = setups[0]
        values = {
            "setup_s": (median(s["setup_s"] for s in setups), "s"),
            "train_s": (median(s["train_s"] for s in setups), "s"),
            "index_local_frames_per_s":
                (median(n_frames / x for s in setups for x in s["build_s"]["local"]), "frames/s"),
            "index_global_frames_per_s":
                (median(n_frames / x for s in setups for x in s["build_s"]["global"]), "frames/s"),
            "index_bytes_per_frame":
                ((state["lidx_bytes"] + state["gidx_bytes"]) / n_frames, "B"),
            "query_p50_ms": (1000 * median(latency), "ms"),
            "query_p90_ms": (1000 * quantiles(latency, n=10)[-1], "ms"),
            "queries_per_s": (median(n_queries / p["elapsed"] for p in passes), "1/s"),
            "local_query_p50_ms":
                (1000 * median(x for p in passes for x in p["latency_local"]), "ms"),
            "global_query_p50_ms":
                (1000 * median(x for p in passes for x in p["latency_global"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "map_fused": (quality["map_fused"], "ratio"),
            "map1_fused": (quality["map1_fused"], "ratio"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    def per_layer(self, setups, passes, traced_passes, counters, quality):
        tracer = self.tracer
        self_times = tracer.self_times()

        def layer_median(root_name, span_name):
            return median(self_times[r].get(span_name, 0.0) for r in tracer.roots(root_name))

        values = {}
        for name in ("storage.read_ldsc", "storage.read_gdsc", "storage.index_write",
                     "storage.index_read", "storage.codebooks_rw", "codebooks.train",
                     "codebooks.kmeans", "codebooks.pq_train", "codebooks.pca",
                     "codebooks.gmm", "codebooks.binary_centers", "codebooks.fisher_pool",
                     "local_index.from_files", "local_index.encode", "local_index.build",
                     "global_index.from_files", "global_index.signature",
                     "global_index.build"):
            values[f"{name}_s"] = (layer_median("setup", name), "s")
        for name in ("storage.read_queries", "local_query.rank", "local_query.encode",
                     "local_query.match", "local_query.hough", "global_query.encode",
                     "global_query.probe", "global_query.rank", "fusion.fuse"):
            values[f"{name}_s"] = (layer_median("query_pass", name), "s")
        trained = setups[0]["trained"]
        values["codebooks.kmeans_objective"] = (float(trained.bow.objective_trace[-1]), "sqdist")
        values["codebooks.gmm_loglik"] = (float(trained.gmm.log_likelihood_trace[-1]), "nats")
        values["storage.lidx_bytes"] = (setups[0]["lidx_bytes"], "B")
        values["storage.gidx_bytes"] = (setups[0]["gidx_bytes"], "B")
        for name, value in counters.items():
            values[name] = (value, "count")
        work = traced_passes[0]["counters"]
        n_queries = len(traced_passes[0]["results"])
        n_signatures = setups[0]["global"].n_signatures
        values["local_query.postings_scanned"] = (work["postings_scanned"], "count")
        values["local_query.pq_hits"] = (work["pq_hits"], "count")
        values["local_query.hit_ratio"] = (work["pq_hits"] / max(1, work["postings_scanned"]),
                                           "ratio")
        values["local_query.frames_voted"] = (work["frames_voted"], "count")
        values["global_query.signatures_scanned"] = (work["signatures_scanned"], "count")
        values["global_query.touched_fraction"] = (
            work["signatures_scanned"] / (n_queries * n_signatures), "ratio")
        values["fusion.kept_local"] = (work["kept_local"], "count")
        values["fusion.kept_global"] = (work["kept_global"], "count")
        values["evaluation.map_local"] = (quality["map_local"], "ratio")
        values["evaluation.map_global"] = (quality["map_global"], "ratio")
        untraced = median(p["elapsed"] for p in passes)
        traced = median(p["elapsed"] for p in traced_passes)
        values["trace.query_overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        values["trace.setup_s"] = (median(s["setup_s"] for s in setups), "s")
        values["trace.spans"] = (len(tracer.spans), "count")
        trace_path = OUT / "traces" / f"{self.workload.name}-seed{self.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import frameseek
    except ImportError as exc:
        print(f"error=cannot import frameseek from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(frameseek.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error=frameseek imported from {frameseek.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import frameseek.pipeline  # noqa: F401  (loads every engine module)

    if args.workload not in WORKLOADS:
        print(f"error=unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"run-{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        bench = Bench(frameseek, workload, args.seed, args.seconds, bool(args.trace), work_dir)
        result = bench.run()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for message in bench.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} engine_threads={bench.cfg.threads} "
          f"queries={bench.n_queries} frames={len(bench.frame_to_video)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
