"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from conftest import MatchCandidate, match_rows, matches_from_rows, pq_score
from frameseek import (GlobalQueryConfig, PQScoreTable, RankedList,
                       binary_centers_train, build_global_index,
                       collect_matches, encode_query_local, global_rank,
                       hough_verify, mean_ap, normalize_list, pq_train,
                       probe_candidates, settling_point)
from frameseek.bits import hamming_to_many, pack_bits
from frameseek.cli import main
from frameseek.pipeline import (build_local_index_from_files,
                                build_global_index_from_files, fuse_runs,
                                query_global_file, query_local_file,
                                ranked_to_run, train_codebooks)
from frameseek.config import EngineConfig
from frameseek.storage import read_ground_truth, write_run
from frameseek.synth import SynthSpec, generate, records_to_rows, write_corpus

from test_fusion import GLOBAL_CURVE, LOCAL_CURVE


def report(n: int, ok: bool, text: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


# -- criterion 1: table-based PQ scoring equals the direct formula ------------

def test_criterion_1_pq_score_oracle():
    gen = np.random.default_rng(201)
    model = pq_train(gen.normal(size=(4000, 128)), m=8, n_centers=256,
                     iters=8, seed=201)
    codes_r = gen.integers(0, 256, size=(10_000, 8)).astype(np.uint8)
    codes_q = gen.integers(0, 256, size=(10_000, 8)).astype(np.uint8)

    start = time.perf_counter()
    table = PQScoreTable(model)
    fast = np.empty(10_000)
    for i in range(10_000):
        fast[i] = pq_score(codes_r[i], codes_q[i], table)
    elapsed = time.perf_counter() - start

    direct = np.zeros(10_000)
    for j, sub in enumerate(model.sub_models):
        centers = sub.centers.astype(np.float64)
        diff = centers[codes_r[:, j]] - centers[codes_q[:, j]]
        direct += 1.0 - np.sqrt(np.einsum("ij,ij->i", diff, diff)) / model.max_dist[j]
    direct /= model.m

    max_err = float(np.abs(fast - direct).max())
    in_bounds = bool(np.all(fast >= 0.0) and np.all(fast <= 1.0))
    report(1, max_err < 1e-6 and in_bounds and elapsed < 5.0,
           f"10k pairs, max|table-direct|={max_err:.2e}, bounds ok={in_bounds}, "
           f"scored in {elapsed:.2f}s")


# -- criterion 2: inverted-file filtering equals the exhaustive scan -----------

def test_criterion_2_inverted_file_filter_equivalence():
    spec = SynthSpec(n_videos=40, frames_per_video=5, n_queries=3,
                     keypoints_per_frame=12, dense_per_frame=4,
                     vocab_size=48, seed=202)
    corpus = generate(spec)
    assert len(corpus.ref_local) <= 200
    descriptors = np.concatenate(
        [np.stack([r.descriptor for r in records]) for _, _, records in corpus.ref_local])
    from frameseek import kmeans_train, kmeans_assign_batch, build_local_index, encode_frame_local
    bow = kmeans_train(descriptors.astype(np.float64), 32, iters=10, seed=202)
    _, residuals = kmeans_assign_batch(bow, descriptors.astype(np.float64))
    pq = pq_train(residuals, m=8, n_centers=16, iters=10, seed=203)
    postings = encode_frame_local([(f, v, records_to_rows(records))
                                   for f, v, records in corpus.ref_local], bow, pq)
    index = build_local_index(postings, {f: v for f, v, _ in corpus.ref_local},
                              n_words=32, m=8, n_pq_centers=16, prune_fraction=0.05)
    table = PQScoreTable(pq)

    checked = 0
    for qid, _, records in corpus.query_local:
        query = encode_query_local(records_to_rows(records), bow, pq)
        for tau in (0.5, 0.72, 0.9):
            got = match_rows(collect_matches(query, index, pq, tau_pq=tau, table=table))
            expected = set()
            for qidx, posting in enumerate(query):
                idf = float(index.idf[posting.word])
                for word, arrs in index.postings.items():
                    if word != posting.word:
                        continue
                    for i in range(arrs["frame"].shape[0]):
                        s = pq_score(arrs["codes"][i], posting.codes, table)
                        if s > tau and idf * s > 0:
                            expected.add((int(arrs["frame"][i]), qidx, idf * s))
            assert got == expected
            checked += 1
    report(2, True, f"{checked} (query, tau) cases match the exhaustive scan exactly")


# -- criterion 3: dominant Hough bin captures planted inliers -------------------

def test_criterion_3_geometric_verification():
    def transform(geom, theta, scale, tx, ty):
        x, y, t, ls = geom
        return (scale * (math.cos(theta) * x - math.sin(theta) * y) + tx,
                scale * (math.sin(theta) * x + math.cos(theta) * y) + ty,
                t + theta, ls + math.log2(scale))

    wins = 0
    for seed in range(100):
        gen = np.random.default_rng(3000 + seed)
        theta = float(gen.uniform(-math.pi, math.pi))
        scale = float(2.0 ** gen.uniform(-1.5, 1.5))
        tx, ty = (float(gen.uniform(-150, 150)) for _ in range(2))
        cands = []
        inlier_mass = 0.0
        for i in range(30):
            rgeom = (float(gen.uniform(0, 1280)), float(gen.uniform(0, 720)),
                     float(gen.uniform(-math.pi, math.pi)), float(gen.uniform(-2, 8)))
            q = transform(rgeom, theta, scale, tx, ty)
            score = float(gen.uniform(0.2, 1.0))
            inlier_mass += score
            cands.append(MatchCandidate(frame_id=0, query_index=i, score=score,
                                        qx=q[0], qy=q[1], qtheta=q[2], qlog_scale=q[3],
                                        rx=rgeom[0], ry=rgeom[1], rtheta=rgeom[2],
                                        rlog_scale=rgeom[3]))
        for i in range(30, 60):
            cands.append(MatchCandidate(
                frame_id=0, query_index=i, score=float(gen.uniform(0.2, 1.0)),
                qx=float(gen.uniform(0, 1280)), qy=float(gen.uniform(0, 720)),
                qtheta=float(gen.uniform(-math.pi, math.pi)),
                qlog_scale=float(gen.uniform(-2, 8)),
                rx=float(gen.uniform(0, 1280)), ry=float(gen.uniform(0, 720)),
                rtheta=float(gen.uniform(-math.pi, math.pi)),
                rlog_scale=float(gen.uniform(-2, 8))))
        if hough_verify(matches_from_rows(cands))[0] >= 0.9 * inlier_mass:
            wins += 1
    report(3, wins >= 95, f"dominant bin kept >=90% of inlier mass in {wins}/100 trials")


# -- criterion 4: cluster-probed Hamming search vs brute force -------------------

def test_criterion_4_approximate_hamming_search(tmp_path):
    n_codes, n_bits, n_protos = 5000, 16_384, 32
    gen = np.random.default_rng(204)
    protos = gen.integers(0, 2, size=(n_protos, n_bits)).astype(np.uint8)
    owner = np.arange(n_codes) % n_protos  # balanced ownership
    flips = (gen.random((n_codes, n_bits)) < 0.06).astype(np.uint8)
    bits = protos[owner] ^ flips
    packed = pack_bits(bits)
    centers = binary_centers_train(packed, n_bits, k=32, iters=6, seed=204)
    index = build_global_index(np.arange(n_codes), np.arange(n_codes), packed, centers)

    queries = []
    for _ in range(25):
        p = protos[int(gen.integers(0, n_protos))]
        queries.append(pack_bits(p ^ (gen.random(n_bits) < 0.06).astype(np.uint8)))

    def brute_force_rank(query, top_n):
        # independent reimplementation: score every signature, no probing
        dists = hamming_to_many(query, packed)
        scores = 1.0 - dists / n_bits
        order = np.lexsort((np.arange(n_codes), -scores))[:top_n]
        return [(int(i), float(scores[i])) for i in order]

    full_runs, brute_runs = {}, {}
    recalls = []
    max_frac = 0.0
    for qi, query in enumerate(queries):
        full = global_rank(query, index, GlobalQueryConfig(k_probe=32, top_n=100))
        full_runs[qi] = full.entries
        brute_runs[qi] = brute_force_rank(query, 100)
        approx = global_rank(query, index, GlobalQueryConfig(k_probe=5, top_n=100))
        want = {v for v, _ in brute_runs[qi][:10]}
        got = {v for v, _ in approx.entries[:10]}
        recalls.append(len(got & want) / 10)
        examined = probe_candidates(query, index, 5)["frame"].shape[0]
        max_frac = max(max_frac, examined / n_codes)

    p_full, p_brute = tmp_path / "full.run", tmp_path / "brute.run"
    write_run(full_runs, p_full)
    write_run(brute_runs, p_brute)
    identical = p_full.read_bytes() == p_brute.read_bytes()
    recall = float(np.mean(recalls))
    report(4, identical and recall >= 0.9 and max_frac <= 0.25,
           f"k=32 byte-identical to brute force={identical}, "
           f"recall@10={recall:.3f}, max examined fraction={max_frac:.3f}")


# -- criterion 5: settling points on the published curves ------------------------

def test_criterion_5_fusion_settling_points():
    g = RankedList.from_entries([(i, s) for i, s in enumerate(GLOBAL_CURVE)], channel="global")
    l = RankedList.from_entries([(i, s) for i, s in enumerate(LOCAL_CURVE)], channel="local")
    g_idx, g_score = settling_point(g)
    l_idx, l_score = settling_point(l)
    curves_ok = (g_idx, round(g_score, 3)) == (30, 0.656) and \
                (l_idx, round(l_score, 3)) == (24, 0.031)

    gen = np.random.default_rng(205)
    shift_ok = True
    for _ in range(1000):
        n = int(gen.integers(2, 80))
        scores = np.sort(gen.uniform(0, 2, size=n))[::-1]
        shift = float(gen.uniform(-10, 10))
        base = RankedList.from_entries([(i, float(s)) for i, s in enumerate(scores)])
        moved = RankedList.from_entries([(i, float(s + shift)) for i, s in enumerate(scores)])
        ia, _ = settling_point(base)
        ib, _ = settling_point(moved)
        na = normalize_list(base).score
        nb = normalize_list(moved).score
        if ia != ib or na.shape != nb.shape or not np.allclose(na, nb, atol=1e-9):
            shift_ok = False
            break
    report(5, curves_ok and shift_ok,
           f"global curve -> ({g_idx}, {g_score:.3f}), local curve -> "
           f"({l_idx}, {l_score:.3f}); shift invariance on 1000 random lists={shift_ok}")


# -- criterion 6: mAP against an independent script -------------------------------

def test_criterion_6_map_oracle():
    def oracle_ap(ranked, relevant):
        precisions = []
        for r in range(1, len(ranked) + 1):
            if ranked[r - 1] in relevant:
                hits = sum(1 for v in ranked[:r] if v in relevant)
                precisions.append(hits / r)
        return sum(precisions) / len(relevant)

    gen = np.random.default_rng(206)
    max_err = 0.0
    for _ in range(50):
        n_queries = int(gen.integers(1, 8))
        gt, run = {}, {}
        for q in range(n_queries):
            corpus = list(range(60))
            gen.shuffle(corpus)
            run[q] = corpus[: int(gen.integers(1, 60))]
            gt[q] = set(int(v) for v in gen.choice(60, size=int(gen.integers(1, 10)),
                                                   replace=False))
        cutoff = int(gen.integers(5, 100))
        ours = mean_ap(run, gt, cutoff=cutoff)
        theirs = float(np.mean([oracle_ap(run[q][:cutoff], gt[q]) for q in sorted(gt)]))
        max_err = max(max_err, abs(ours - theirs))
    perfect = mean_ap({0: [1, 2]}, {0: {1, 2}}) == 1.0
    report(6, max_err < 1e-9 and perfect,
           f"50 randomized runs, max|ours-oracle|={max_err:.2e}, perfect run mAP=1.0")


# -- criterion 7: end-to-end retrieval on a planted synthetic corpus ---------------

def test_criterion_7_end_to_end_synthetic(tmp_path):
    start = time.perf_counter()
    spec = SynthSpec(n_videos=100, frames_per_video=10, n_queries=20,
                     keypoints_per_frame=24, dense_per_frame=12,
                     vocab_size=256, descriptor_noise=0.05, global_noise=0.05,
                     distractor_keypoints=3, seed=207)
    corpus = generate(spec)
    paths = write_corpus(corpus, tmp_path / "corpus")
    config = EngineConfig(d_bow=128, m=8, d_pq=32, d_fk=8, pca_dim=16,
                          binary_clusters=32, k_probe=5, top_n=100, seed=207,
                          train_iters=10, gmm_iters=15, threads=1,
                          max_train_samples=60_000)
    books = train_codebooks([paths["ref_local"]], [paths["ref_global"]], config)
    local_index = build_local_index_from_files([paths["ref_local"]], books, config)
    global_index = build_global_index_from_files([paths["ref_global"]], books, config)
    local_ranked = query_local_file(paths["query_local"], local_index, books, config)
    global_ranked = query_global_file(paths["query_global"], global_index, books, config)
    local_run = ranked_to_run(local_ranked)
    global_run = ranked_to_run(global_ranked)
    fused = fuse_runs(local_run, global_run, config)
    elapsed = time.perf_counter() - start

    gt = read_ground_truth(paths["ground_truth"])
    to_videos = lambda run: {q: [v for v, _ in entries] for q, entries in run.items()}
    fused_map10 = mean_ap(to_videos(fused), gt, cutoff=10)
    fused_map = mean_ap(to_videos(fused), gt, cutoff=100)
    local_map = mean_ap(to_videos(local_run), gt, cutoff=100)
    global_map = mean_ap(to_videos(global_run), gt, cutoff=100)
    report(7, fused_map10 >= 0.95 and fused_map >= max(local_map, global_map) - 0.01
           and elapsed < 120.0,
           f"fused mAP@10={fused_map10:.3f}, fused mAP={fused_map:.3f} vs local "
           f"{local_map:.3f} / global {global_map:.3f}, runtime {elapsed:.1f}s")


# -- criterion 8: bit-identical artifacts under a fixed seed -----------------------

def test_criterion_8_determinism(tmp_path):
    artifacts = ("books.i2vc", "local.lidx", "global.gidx",
                 "local.run", "global.run", "fused.run")

    def run_pipeline(root):
        root.mkdir()
        corpus = root / "corpus"
        assert main(["synth", "--out", str(corpus), "--videos", "12",
                     "--frames-per-video", "3", "--queries", "4", "--seed", "31"]) == 0
        assert main(["train", "--features", str(corpus), "--out", str(root / "books.i2vc"),
                     "--d-bow", "24", "--d-pq", "8", "--d-fk", "2", "--pca-dim", "6",
                     "--binary-clusters", "4", "--iters", "8", "--seed", "31"]) == 0
        assert main(["index-local", "--codebooks", str(root / "books.i2vc"),
                     "--features", str(corpus / "refs.ldsc"),
                     "--out", str(root / "local.lidx")]) == 0
        assert main(["index-global", "--codebooks", str(root / "books.i2vc"),
                     "--features", str(corpus / "refs.gdsc"),
                     "--out", str(root / "global.gidx")]) == 0
        assert main(["query-local", "--index", str(root / "local.lidx"),
                     "--codebooks", str(root / "books.i2vc"),
                     "--query", str(corpus / "queries.ldsc"),
                     "--out", str(root / "local.run")]) == 0
        assert main(["query-global", "--index", str(root / "global.gidx"),
                     "--codebooks", str(root / "books.i2vc"),
                     "--query", str(corpus / "queries.gdsc"),
                     "--out", str(root / "global.run")]) == 0
        assert main(["fuse", "--local", str(root / "local.run"),
                     "--global", str(root / "global.run"),
                     "--out", str(root / "fused.run")]) == 0

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    same = {name: (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
            for name in artifacts}
    report(8, all(same.values()),
           "byte-identical artifacts: " + ", ".join(f"{k}={v}" for k, v in same.items()))
