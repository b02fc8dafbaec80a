"""Command-line surface: train, index, query, fuse, eval, synth.

Every subcommand is deterministic given its inputs, flags, and seed. Errors
exit nonzero with a single machine-parsable `error=` line on stderr.
"""

import argparse
import sys

from . import pipeline, storage, synth
from .config import EngineConfig, load_config_file
from .evaluation import map_at_1, mean_ap


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None, help="accepted and ignored")


def _engine_config(args: argparse.Namespace, **flag_overrides) -> EngineConfig:
    config = EngineConfig()
    if getattr(args, "config", None):
        config = config.override(**load_config_file(args.config))
    flag_overrides.setdefault("seed", getattr(args, "seed", None))
    flag_overrides.setdefault("threads", getattr(args, "threads", None))
    return config.override(**flag_overrides)


def _cmd_train(args) -> int:
    config = _engine_config(
        args, d_bow=args.d_bow, m=args.m, d_pq=args.d_pq, d_fk=args.d_fk,
        pca_dim=args.pca_dim, binary_clusters=args.binary_clusters,
        train_iters=args.iters)
    local_files = pipeline.collect_descriptor_files(args.features, ".ldsc")
    global_files = pipeline.collect_descriptor_files(args.features, ".gdsc")
    if not local_files or not global_files:
        raise ValueError(f"no input files: need .ldsc and .gdsc under {args.features}")
    pca_files = (pipeline.collect_descriptor_files([args.pca_features], ".gdsc")
                 if args.pca_features else None)
    books = pipeline.train_codebooks(local_files, global_files, config, pca_files=pca_files)
    storage.write_codebooks(books, args.out)
    print(f"codebooks={args.out}")
    return 0


def _cmd_index_local(args) -> int:
    config = _engine_config(args, prune_fraction=args.prune_fraction,
                            frame_width=args.frame_width, frame_height=args.frame_height)
    books = storage.read_codebooks(args.codebooks)
    files = pipeline.collect_descriptor_files(args.features, ".ldsc")
    if not files:
        raise ValueError(f"no input files: no .ldsc files under {args.features}")
    index = pipeline.build_local_index_from_files(files, books, config)
    storage.write_local_index(index, args.out)
    print(f"index={args.out} frames={index.n_frames} postings={index.n_postings()}")
    return 0


def _cmd_index_global(args) -> int:
    config = _engine_config(args)
    books = storage.read_codebooks(args.codebooks)
    files = pipeline.collect_descriptor_files(args.features, ".gdsc")
    if not files:
        raise ValueError(f"no input files: no .gdsc files under {args.features}")
    index = pipeline.build_global_index_from_files(files, books, config)
    storage.write_global_index(index, args.out)
    print(f"index={args.out} signatures={index.n_signatures}")
    return 0


def _cmd_query_local(args) -> int:
    config = _engine_config(args, tau_pq=args.tau_pq, top_n=args.top_n,
                            frame_width=args.frame_width, frame_height=args.frame_height)
    books = storage.read_codebooks(args.codebooks)
    index = storage.read_local_index(args.index)
    ranked = pipeline.query_local_file(args.query, index, books, config)
    storage.write_run(pipeline.ranked_to_run(ranked), args.out)
    print(f"run={args.out} queries={len(ranked)}")
    return 0


def _cmd_query_global(args) -> int:
    config = _engine_config(args, k_probe=args.k, top_n=args.top_n)
    books = storage.read_codebooks(args.codebooks)
    index = storage.read_global_index(args.index)
    ranked = pipeline.query_global_file(args.query, index, books, config,
                                        brute_force=args.brute_force)
    storage.write_run(pipeline.ranked_to_run(ranked), args.out)
    print(f"run={args.out} queries={len(ranked)}")
    return 0


def _cmd_fuse(args) -> int:
    config = _engine_config(args, epsilon=args.epsilon, warmup=args.warmup,
                            top_n=args.top_n)
    local_runs = storage.read_run(args.local)
    global_runs = storage.read_run(getattr(args, "global"))
    fused = pipeline.fuse_runs(local_runs, global_runs, config)
    storage.write_run(fused, args.out)
    print(f"run={args.out} queries={len(fused)}")
    return 0


def _cmd_eval(args) -> int:
    run = storage.read_run(args.run)
    gt = storage.read_ground_truth(args.gt)
    videos_only = {q: [v for v, _ in entries] for q, entries in run.items()}
    print(f"mAP={mean_ap(videos_only, gt, cutoff=args.cutoff):.6f}")
    print(f"mAP@1={map_at_1(videos_only, gt):.6f}")
    return 0


def _cmd_synth(args) -> int:
    config = _engine_config(args)
    spec = synth.SynthSpec(
        n_videos=args.videos, frames_per_video=args.frames_per_video,
        n_queries=args.queries, keypoints_per_frame=args.keypoints,
        dense_per_frame=args.dense, vocab_size=args.vocab_size,
        descriptor_noise=args.descriptor_noise, global_noise=args.global_noise,
        distractor_keypoints=args.distractors,
        frame_width=config.frame_width, frame_height=config.frame_height,
        seed=config.seed)
    corpus = synth.generate(spec)
    paths = synth.write_corpus(corpus, args.out)
    for role, path in paths.items():
        print(f"{role}={path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameseek",
        description="Image-to-video retrieval over product-quantized local "
                    "descriptors and binarized Fisher signatures, with late fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train all codebooks into one bundle")
    p.add_argument("--features", nargs="+", required=True,
                   help="descriptor files or directories (.ldsc and .gdsc)")
    p.add_argument("--pca-features", default=None,
                   help="optional separate feature set for fitting the PCA")
    p.add_argument("--out", required=True)
    p.add_argument("--d-bow", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d-pq", type=int, default=None)
    p.add_argument("--d-fk", type=int, default=None)
    p.add_argument("--pca-dim", type=int, default=None)
    p.add_argument("--binary-clusters", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("index-local", help="build the local inverted file")
    p.add_argument("--codebooks", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prune-fraction", type=float, default=None)
    p.add_argument("--frame-width", type=float, default=None)
    p.add_argument("--frame-height", type=float, default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_index_local)

    p = sub.add_parser("index-global", help="build the binary signature index")
    p.add_argument("--codebooks", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_index_global)

    p = sub.add_parser("query-local", help="query the local channel")
    p.add_argument("--index", required=True)
    p.add_argument("--codebooks", required=True)
    p.add_argument("--query", required=True, help="LDSC file of query frames")
    p.add_argument("--tau-pq", type=float, default=None)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--frame-width", type=float, default=None)
    p.add_argument("--frame-height", type=float, default=None)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_query_local)

    p = sub.add_parser("query-global", help="query the global channel")
    p.add_argument("--index", required=True)
    p.add_argument("--codebooks", required=True)
    p.add_argument("--query", required=True, help="GDSC file of query frames")
    p.add_argument("--k", type=int, default=None, help="clusters to probe")
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--brute-force", action="store_true",
                   help="score every signature (exhaustive oracle)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_query_global)

    p = sub.add_parser("fuse", help="late-fuse local and global run files")
    p.add_argument("--local", required=True)
    p.add_argument("--global", required=True, dest="global")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="score a run file against ground truth")
    p.add_argument("--run", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--cutoff", type=int, default=100)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted queries")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--videos", type=int, default=20)
    p.add_argument("--frames-per-video", type=int, default=5)
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--keypoints", type=int, default=30)
    p.add_argument("--dense", type=int, default=16)
    p.add_argument("--vocab-size", type=int, default=64)
    p.add_argument("--descriptor-noise", type=float, default=0.05)
    p.add_argument("--global-noise", type=float, default=0.05)
    p.add_argument("--distractors", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, storage.FileFormatError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
