"""In-memory span tracing around frameseek's public functions.

The engine itself carries no instrumentation. While a Tracer is installed it
replaces selected module attributes of frameseek with timing wrappers; the
engine looks those names up at call time, so its own calls pass through the
wrappers. Uninstalling restores the originals. Spans are kept in memory as
(name, start, end, parent) and written out once the run ends.
"""

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.index)


class _NoSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        pass


_NO_SPAN = _NoSpan()

# (module, attribute, span name, keep return value). A dict as span name maps
# the name of the enclosing span to the name to use, with "" as the default:
# the same function is charged to training or to index building depending on
# who called it.
_TRAIN = "codebooks.train"
TARGETS = [
    ("frameseek.pipeline", "read_local_descriptors", "storage.read_ldsc", False),
    ("frameseek.pipeline", "read_global_features", "storage.read_gdsc", False),
    ("frameseek.pipeline", "kmeans_train", "codebooks.kmeans", False),
    ("frameseek.pipeline", "kmeans_assign_batch", "codebooks.kmeans", False),
    ("frameseek.pipeline", "pq_train", "codebooks.pq_train", False),
    ("frameseek.pipeline", "pca_fit", "codebooks.pca", False),
    ("frameseek.pipeline", "pca_project",
     {_TRAIN: "codebooks.pca", "": "global_index.signature"}, False),
    ("frameseek.pipeline", "gmm_train", "codebooks.gmm", False),
    ("frameseek.pipeline", "binary_centers_train", "codebooks.binary_centers", False),
    ("frameseek.pipeline", "fisher_vector",
     {_TRAIN: "codebooks.fisher_pool", "": "global_index.signature"}, False),
    ("frameseek.pipeline", "make_signature",
     {_TRAIN: "codebooks.fisher_pool", "": "global_index.signature"}, False),
    ("frameseek.pipeline", "encode_frame_local", "local_index.encode", False),
    ("frameseek.pipeline", "build_local_index", "local_index.build", False),
    ("frameseek.pipeline", "build_global_index", "global_index.build", False),
    ("frameseek.local_query", "encode_query_local", "local_query.encode", True),
    ("frameseek.local_query", "collect_matches", "local_query.match", True),
    ("frameseek.local_query", "hough_verify", "local_query.hough", True),
    ("frameseek.global_query", "probe_candidates", "global_query.probe", True),
    ("frameseek.fusion", "normalize_list", "fusion.fuse", True),
]


class Tracer:
    """Collects spans while enabled; `span()` costs one attribute test when
    disabled, so untraced runs execute the same benchmark code."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.returns: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def _open(self, name) -> int:
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, keep):
        def traced(*args, **kwargs):
            if isinstance(name, dict):
                parent = self.spans[self._stack[-1]][0] if self._stack else ""
                label = name.get(parent, name[""])
            else:
                label = name
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if keep:
                self.returns[label].append(result)
            return result
        return traced

    def install(self, modules):
        """Wrap every target; `modules` maps module names to module objects."""
        for mod_name, attr, name, keep in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep))
        self.enabled = True

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.enabled = False

    def take_returns(self) -> dict[str, list]:
        out, self.returns = self.returns, defaultdict(list)
        return out

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per root span: summed self time (duration minus the time covered
        by child spans) of every span name beneath it, the root included."""
        child_time = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _) in enumerate(self.spans):
            out[root[i]][name] += (end - start) - child_time[i]
        return out

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == name]

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
