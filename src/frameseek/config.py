"""Engine-wide parameter bundle with the published defaults.

Every field can be overridden by a CLI flag or a key=value config file; the
flag wins when both are given.
"""

from dataclasses import dataclass, fields
from pathlib import Path


@dataclass
class EngineConfig:
    d_bow: int = 10000          # coarse vocabulary size
    m: int = 8                  # PQ subvectors per residual
    d_pq: int = 256             # centers per subquantizer
    tau_pq: float = 0.72        # hard-similarity threshold
    prune_fraction: float = 0.05
    d_fk: int = 256             # Gaussian mixture components
    pca_dim: int = 64
    binary_clusters: int = 32
    k_probe: int = 5
    epsilon: float = 0.01
    warmup: int = 10
    top_n: int = 100
    seed: int = 0
    threads: int = 1            # accepted and ignored: the engine runs on one thread
    frame_width: float = 1280.0
    frame_height: float = 720.0
    train_iters: int = 20
    gmm_iters: int = 40
    max_train_samples: int = 200_000

    def override(self, **updates) -> "EngineConfig":
        """New config with the given non-None fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in updates.items():
            if key not in current:
                raise ValueError(f"unknown config key: {key}")
            if value is not None:
                current[key] = value
        return EngineConfig(**current)


def load_config_file(path: str | Path) -> dict:
    """Parse key=value lines (blank lines and # comments ignored)."""
    field_types = {f.name: f.type for f in fields(EngineConfig)}
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        parse = float if field_types[key] in (float, "float") else int
        try:
            out[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out
