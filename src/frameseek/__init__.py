"""frameseek: image-to-video retrieval with two compact frame representations.

Local channel: coarse-quantized keypoint descriptors with product-quantized
residuals, scored by normalized code similarity and verified with a 4-dof
Hough vote. Global channel: first-order Fisher vectors over PCA-reduced
dense features, binarized and searched by Hamming-cluster probing. The two
ranked lists merge with an adaptive settling-point late fusion.
"""

from .codebooks import (BinaryCenters, CodebookSet, GMMModel, KMeansModel,
                        PCAModel, PQModel, binary_assign_batch,
                        binary_centers_train, gmm_posteriors, gmm_train,
                        kmeans_assign_batch, kmeans_train, pca_fit,
                        pca_project, pq_encode_batch, pq_train)
from .config import EngineConfig
from .evaluation import average_precision, map_at_1, mean_ap
from .fusion import (FusionConfig, RankedList, fuse, normalize_list,
                     settling_point)
from .geometry import FrameGeometry, wrap_angle
from .global_index import (GlobalIndex, GlobalSignature, binarize,
                           build_global_index, fisher_vector, make_signature)
from .global_query import GlobalQueryConfig, global_rank, probe_candidates
from .local_index import (LocalIndex, Postings, build_local_index,
                          encode_frame_local)
from .local_query import (HoughConfig, Matches, PQScoreTable,
                          QueryPosting, collect_matches, encode_query_local,
                          hough_verify, local_rank, query_score_mass)
from .synth import (LocalRecord, SynthSpec, generate, records_to_rows,
                    transform_records, write_corpus)

__version__ = "0.1.0"
