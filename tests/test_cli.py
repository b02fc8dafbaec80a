import numpy as np
import pytest

from frameseek.cli import main
from frameseek.storage import (read_global_features, read_global_index,
                               read_local_descriptors, read_local_index, read_run,
                               write_global_features, write_global_index,
                               write_local_descriptors, write_local_index)


TRAIN_FLAGS = ["--d-bow", "16", "--d-pq", "8", "--d-fk", "2", "--pca-dim", "6",
               "--binary-clusters", "4", "--iters", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus, trained codebooks, and both indices."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--videos", "5",
                 "--frames-per-video", "2", "--queries", "2", "--keypoints", "10",
                 "--dense", "6", "--seed", "11"]) == 0
    books = root / "books.i2vc"
    assert main(["train", "--features", str(corpus), "--out", str(books),
                 *TRAIN_FLAGS, "--seed", "11"]) == 0
    local_idx = root / "local.lidx"
    global_idx = root / "global.gidx"
    assert main(["index-local", "--codebooks", str(books),
                 "--features", str(corpus / "refs.ldsc"), "--out", str(local_idx)]) == 0
    assert main(["index-global", "--codebooks", str(books),
                 "--features", str(corpus / "refs.gdsc"), "--out", str(global_idx)]) == 0
    return {"root": root, "corpus": corpus, "books": books,
            "local_idx": local_idx, "global_idx": global_idx}


def run_queries(workspace, root, extra_local=(), extra_global=()):
    local_run = root / "local.run"
    global_run = root / "global.run"
    assert main(["query-local", "--index", str(workspace["local_idx"]),
                 "--codebooks", str(workspace["books"]),
                 "--query", str(workspace["corpus"] / "queries.ldsc"),
                 "--out", str(local_run), *extra_local]) == 0
    assert main(["query-global", "--index", str(workspace["global_idx"]),
                 "--codebooks", str(workspace["books"]),
                 "--query", str(workspace["corpus"] / "queries.gdsc"),
                 "--k", "2", "--out", str(global_run), *extra_global]) == 0
    return local_run, global_run


def hand_fuse(local_runs, global_runs):
    """Independent late-fusion re-derivation for short lists: lists below the
    warmup length settle at their last element."""
    out = {}
    for query in sorted(set(local_runs) | set(global_runs)):
        merged = {}
        for entries in (local_runs.get(query, []), global_runs.get(query, [])):
            if not entries:
                continue
            settle = entries[-1][1]
            for video, score in entries:
                value = score - settle
                if value > 0:
                    merged[video] = max(merged.get(video, 0.0), value)
        out[query] = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    return out


def test_end_to_end_fused_matches_hand_computation(workspace, tmp_path):
    local_run, global_run = run_queries(workspace, tmp_path)
    fused_path = tmp_path / "fused.run"
    assert main(["fuse", "--local", str(local_run), "--global", str(global_run),
                 "--out", str(fused_path)]) == 0
    got = read_run(fused_path)
    expected = hand_fuse(read_run(local_run), read_run(global_run))
    assert set(got) == set(expected)
    for query in got:
        assert [v for v, _ in got[query]] == [v for v, _ in expected[query]]
        np.testing.assert_allclose([s for _, s in got[query]],
                                   [round(s, 6) for _, s in expected[query]], atol=1e-6)


def test_eval_prints_key_value(workspace, tmp_path, capsys):
    local_run, global_run = run_queries(workspace, tmp_path)
    fused = tmp_path / "fused.run"
    assert main(["fuse", "--local", str(local_run), "--global", str(global_run),
                 "--out", str(fused)]) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(fused),
                 "--gt", str(workspace["corpus"] / "gt.tsv"), "--cutoff", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    values = dict(line.split("=") for line in out)
    assert float(values["mAP"]) == 1.0
    assert float(values["mAP@1"]) == 1.0


def test_top_n_one_gives_single_line_per_query(workspace, tmp_path):
    local_run, _ = run_queries(workspace, tmp_path, extra_local=["--top-n", "1"])
    lines = [l for l in (tmp_path / "local.run").read_text().splitlines() if l]
    queries = {l.split("\t")[0] for l in lines}
    assert len(lines) == len(queries) == 2


def test_mismatched_codebooks_clean_error(workspace, tmp_path, capsys):
    # retrain with a different D_fk; the global index no longer matches
    other_books = tmp_path / "other.i2vc"
    assert main(["train", "--features", str(workspace["corpus"]),
                 "--out", str(other_books), "--d-bow", "16", "--d-pq", "8",
                 "--d-fk", "3", "--pca-dim", "6", "--binary-clusters", "4",
                 "--iters", "8", "--seed", "11"]) == 0
    capsys.readouterr()
    rc = main(["query-global", "--index", str(workspace["global_idx"]),
               "--codebooks", str(other_books),
               "--query", str(workspace["corpus"] / "queries.gdsc"),
               "--out", str(tmp_path / "x.run")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error=") and "\n" not in err.strip()
    assert "D_fk" in err


def test_empty_features_dir_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--features", str(empty), "--out", str(tmp_path / "b.i2vc")])
    assert rc != 0
    assert "no input files" in capsys.readouterr().err


def test_synth_more_queries_than_videos_clean_error(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "c"), "--videos", "5", "--queries", "9"])
    assert rc != 0
    assert capsys.readouterr().err == ("error=9 queries exceed 5 videos; "
                                       "each query copies a frame of its own video\n")
    assert not (tmp_path / "c").exists()


def test_corrupt_input_names_path(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ldsc"
    bad.write_bytes(b"LDSCxxxx-corrupt")
    rc = main(["index-local", "--codebooks", str(workspace["books"]),
               "--features", str(bad), "--out", str(tmp_path / "x.lidx")])
    assert rc != 0
    assert "bad.ldsc" in capsys.readouterr().err


def test_repeated_frame_id_across_files_clean_error(workspace, tmp_path, capsys):
    refs = str(workspace["corpus"] / "refs.ldsc")
    rc = main(["index-local", "--codebooks", str(workspace["books"]),
               "--features", refs, refs, "--out", str(tmp_path / "x.lidx")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error=") and "\n" not in err.strip()
    assert "duplicate frame id 0" in err and "refs.ldsc" in err
    assert not (tmp_path / "x.lidx").exists()


def test_train_same_seed_byte_identical(workspace, tmp_path):
    books2 = tmp_path / "again.i2vc"
    assert main(["train", "--features", str(workspace["corpus"]),
                 "--out", str(books2), *TRAIN_FLAGS, "--seed", "11"]) == 0
    assert books2.read_bytes() == workspace["books"].read_bytes()


def test_config_file_overridden_by_flag(workspace, tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("tau_pq=0.9\ntop_n=3\n")
    out_cfg = tmp_path / "cfg.run"
    out_flag = tmp_path / "flag.run"
    base = ["query-local", "--index", str(workspace["local_idx"]),
            "--codebooks", str(workspace["books"]),
            "--query", str(workspace["corpus"] / "queries.ldsc")]
    assert main([*base, "--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert main([*base, "--config", str(cfg), "--tau-pq", "0.5",
                 "--out", str(out_flag)]) == 0
    for entries in read_run(out_cfg).values():
        assert len(entries) <= 3
    # looser threshold must admit at least as many results
    a = sum(len(v) for v in read_run(out_cfg).values())
    b = sum(len(v) for v in read_run(out_flag).values())
    assert b >= a


def test_unknown_config_key_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc = main(["synth", "--out", str(tmp_path / "c"), "--config", str(cfg)])
    assert rc != 0
    assert "unknown config key" in capsys.readouterr().err


def test_pca_features_flag_accepts_external_set(workspace, tmp_path):
    # the projection may be fit on an explicit feature set; pointing it at
    # the reference corpus itself reproduces the default bundle exactly
    refs = [str(workspace["corpus"] / "refs.ldsc"), str(workspace["corpus"] / "refs.gdsc")]
    plain = tmp_path / "plain.i2vc"
    explicit = tmp_path / "explicit.i2vc"
    assert main(["train", "--features", *refs, "--out", str(plain),
                 *TRAIN_FLAGS, "--seed", "11"]) == 0
    assert main(["train", "--features", *refs,
                 "--pca-features", str(workspace["corpus"] / "refs.gdsc"),
                 "--out", str(explicit), *TRAIN_FLAGS, "--seed", "11"]) == 0
    assert plain.read_bytes() == explicit.read_bytes()


def test_pca_features_without_gdsc_files_clean_error(workspace, tmp_path, capsys):
    # an explicit PCA set that holds nothing must not fall back to the corpus
    empty = tmp_path / "no-gdsc"
    empty.mkdir()
    (empty / "refs.ldsc").write_bytes((workspace["corpus"] / "refs.ldsc").read_bytes())
    out = tmp_path / "b.i2vc"
    rc = main(["train", "--features", str(workspace["corpus"]), "--pca-features", str(empty),
               "--out", str(out), *TRAIN_FLAGS, "--seed", "11"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error=") and "\n" not in err.strip()
    assert "no PCA features" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--frame-width", "--frame-height"])
def test_train_rejects_frame_geometry_flags(workspace, tmp_path, capsys, flag):
    # training reads no geometry; index-local and query-local take these flags
    with pytest.raises(SystemExit) as exc:
        main(["train", "--features", str(workspace["corpus"]), "--out", str(tmp_path / "b.i2vc"),
              flag, "640"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 640" in capsys.readouterr().err
    assert not (tmp_path / "b.i2vc").exists()


def test_threads_do_not_change_output(workspace, tmp_path):
    one = tmp_path / "t1.run"
    four = tmp_path / "t4.run"
    base = ["query-local", "--index", str(workspace["local_idx"]),
            "--codebooks", str(workspace["books"]),
            "--query", str(workspace["corpus"] / "queries.ldsc")]
    assert main([*base, "--threads", "1", "--out", str(one)]) == 0
    assert main([*base, "--threads", "4", "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()


def test_text_ldsc_rejected_by_its_magic(workspace, tmp_path, capsys):
    desc = " ".join("0.5" for _ in range(128))
    refs = tmp_path / "refs.ldsc"
    refs.write_text(f"0 0 10.0 20.0 0.0 1.0 {desc}\n")
    rc = main(["index-local", "--codebooks", str(workspace["books"]),
               "--features", str(refs), "--out", str(tmp_path / "x.lidx")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error=") and "\n" not in err.strip()
    assert "refs.ldsc: bad magic b'0 0 '" in err
    assert not (tmp_path / "x.lidx").exists()


@pytest.mark.parametrize("channel", ["local", "global"])
def test_non_finite_descriptor_clean_error(workspace, tmp_path, capsys, channel):
    suffix = ".ldsc" if channel == "local" else ".gdsc"
    read, write = {"local": (read_local_descriptors, write_local_descriptors),
                   "global": (read_global_features, write_global_features)}[channel]
    frames = [(fid, vid, rows.copy()) for fid, vid, rows in
              read(workspace["corpus"] / f"refs{suffix}")]
    frames[3][2][0, -1] = np.nan
    refs = tmp_path / f"refs{suffix}"
    write(frames, refs)
    out = tmp_path / "x.idx"
    rc = main([f"index-{channel}", "--codebooks", str(workspace["books"]),
               "--features", str(refs), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error=") and "\n" not in err.strip()
    assert f"{refs}: frame {frames[3][0]} holds a non-finite value" in err
    assert not out.exists()


def test_local_index_with_unknown_frame_clean_error(workspace, tmp_path, capsys):
    index = read_local_index(workspace["local_idx"])
    index.frame = index.frame.copy()
    index.frame[-1] = 1000  # no such frame in the index's frame table
    bad = tmp_path / "bad.lidx"
    write_local_index(index, bad)
    rc = main(["query-local", "--index", str(bad), "--codebooks", str(workspace["books"]),
               "--query", str(workspace["corpus"] / "queries.ldsc"),
               "--out", str(tmp_path / "x.run")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error=") and "\n" not in err.strip()
    assert f"{bad}: posting frame id 1000 is not in the frame table" in err
    assert not (tmp_path / "x.run").exists()


def test_global_index_with_pad_bits_clean_error(workspace, tmp_path, capsys):
    # TRAIN_FLAGS give 2 x 6 = 12-bit signatures, 4 pad bits in each last byte
    index = read_global_index(workspace["global_idx"])
    assert index.n_bits == 12
    for cluster in index.clusters:
        cluster["codes"] = cluster["codes"] | np.array([0, 0xF0], dtype=np.uint8)
    bad = tmp_path / "pad.gidx"
    write_global_index(index, bad)
    rc = main(["query-global", "--index", str(bad), "--codebooks", str(workspace["books"]),
               "--query", str(workspace["corpus"] / "queries.gdsc"),
               "--out", str(tmp_path / "x.run")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error=") and "\n" not in err.strip()
    assert f"{bad}: a binary code sets bits past its 12-bit length" in err
    assert not (tmp_path / "x.run").exists()
