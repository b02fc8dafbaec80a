"""Late fusion walkthrough: settling points, normalization, max-merge.

Uses two real top-50 confidence curves (one per channel). Each list settles
where its scores stop dropping materially over a warmup-length stretch; the
settling score is subtracted, dead tail dropped, and the surviving per-video
scores merge by maximum.
"""

from frameseek import RankedList, FusionConfig, fuse, normalize_list, settling_point

GLOBAL_CURVE = [
    0.775, 0.725, 0.719, 0.714, 0.710, 0.708, 0.704, 0.691, 0.687, 0.663,
    0.662, 0.662, 0.661, 0.660, 0.659, 0.659, 0.659, 0.659, 0.658, 0.658,
    0.657, 0.657, 0.657, 0.657, 0.656, 0.656, 0.656, 0.656, 0.656, 0.656,
    0.656, 0.655, 0.655, 0.655, 0.654, 0.654, 0.654, 0.654, 0.654, 0.654,
    0.654, 0.654, 0.653, 0.653, 0.653, 0.653, 0.653, 0.653, 0.653, 0.652,
    0.652,
]
LOCAL_CURVE = [
    0.1559, 0.054, 0.049, 0.043, 0.042, 0.042, 0.042, 0.042, 0.042, 0.042,
    0.042, 0.042, 0.042, 0.034, 0.031, 0.031, 0.031, 0.031, 0.031, 0.031,
    0.031, 0.031, 0.031, 0.031, 0.031, 0.028, 0.028, 0.028, 0.027, 0.027,
    0.027, 0.027, 0.027, 0.027, 0.026, 0.026, 0.026, 0.026, 0.026, 0.025,
    0.024, 0.024, 0.024, 0.023, 0.023, 0.023, 0.023, 0.023, 0.022, 0.022,
]

cfg = FusionConfig(epsilon=0.01, warmup=10)

print("=== 1. the two ranked lists live on different score scales ===")
print(f"global channel: top {GLOBAL_CURVE[0]:.3f}, 50th {GLOBAL_CURVE[-1]:.3f}")
print(f"local channel:  top {LOCAL_CURVE[0]:.4f}, 50th {LOCAL_CURVE[-1]:.3f}")

print()
print("=== 2. adaptive settling points ===")
global_list = RankedList.from_entries([(i, s) for i, s in enumerate(GLOBAL_CURVE)],
                                      channel="global")
local_list = RankedList.from_entries([(1000 + i, s) for i, s in enumerate(LOCAL_CURVE)],
                                     channel="local")
for name, ranked in (("global", global_list), ("local", local_list)):
    idx, score = settling_point(ranked, cfg)
    print(f"{name}: settles at position {idx} with score {score:.3f}")

print()
print("=== 3. normalization subtracts the settling score, drops the tail ===")
norm_global = normalize_list(global_list, cfg)
norm_local = normalize_list(local_list, cfg)
print(f"global: {len(global_list)} entries -> {len(norm_global)}, "
      f"top normalized score {norm_global.entries[0][1]:.3f}")
print(f"local:  {len(local_list)} entries -> {len(norm_local)}, "
      f"top normalized score {norm_local.entries[0][1]:.4f}")

print()
print("=== 4. shifting every raw score changes nothing ===")
shifted = RankedList.from_entries([(v, s + 0.3) for v, s in global_list.entries],
                                  channel="global")
print("normalized outputs equal:",
      normalize_list(shifted, cfg).entries == norm_global.entries)

print()
print("=== 5. fused list takes the per-video maximum ===")
fused = fuse(norm_local, norm_global, cfg)
print("top 5 fused entries (video, score):")
for video, score in fused.entries[:5]:
    channel = "global" if video < 1000 else "local"
    print(f"  video {video:4d}: {score:.4f}  (from the {channel} channel)")
