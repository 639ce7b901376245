"""Wavelet-domain implicit shape pipeline.

TSDF construction, compact biorthogonal wavelet coding, diffusion-based
generation / inversion / manipulation with pluggable denoisers, isosurface
extraction, and shape-set evaluation metrics.
"""

__version__ = "0.1.0"

from .errors import (NumericalError, OutOfDomainError, ShapeMismatchError,
                     ValidationError, WaveshapeError)
from .grid import RegionMask3, Volume3, masked_combine, trilinear_sample
from .formats import (read_json, read_mask, read_volume, read_wsv1, write_json,
                      write_wsv1)
from .wavelet import (DEFAULT_BANK, WaveletFilterBank, WaveletPyramid,
                      bior_6_8, compactness_report, get_bank, haar,
                      pyramid_decompose, pyramid_reconstruct, read_wsp1,
                      reconstruct_truncated, truncated_reconstruction_error,
                      write_wsp1)
from .tsdf import (NORMALIZED_EXTENT, TRUNCATION, BoxSource, CapsuleSource,
                   GridSdfSource, IntersectSource, MeshSdfSource, SdfSource,
                   SphereSource, SubtractSource, TorusSource, TriangleMesh,
                   UnionSource, icosphere, load_scene, mesh_signed_distance,
                   normalize_mesh, read_obj, sample_tsdf, scene_from_dict,
                   write_obj)
from .surface import (keep_largest_component, marching_cubes,
                      mesh_component_count, mesh_stats)
from .diffusion import (DenoiserInterface, GaussianMixtureOracle,
                        NoiseSchedule, default_step_subset,
                        make_linear_schedule, p_step, q_sample,
                        read_oracle_corpus, sample, schedule_to_csv,
                        training_loss, write_oracle_corpus)
from .conditioning import (DEFAULT_LATENT_LENGTH, DetailPredictorInterface,
                           EncoderInterface, LatentCode, ModelBundle,
                           NearestDetailPredictor, PoolProjectEncoder,
                           interpolate_latent, invert, load_model,
                           loss_trace_ema, read_latent, refine_latent,
                           write_latent, write_model_manifest)
from .manipulation import (ManipulationPlan, boundary_discontinuity,
                           coefficient_support_volume, harmonize,
                           manipulate, mask_to_coefficient_domain,
                           naive_mix_baseline, read_plan_file,
                           write_plan_file)
from .metrics import (chamfer, emd_approx, lfd, lfd_percentiles, retrieve_topk,
                      sample_surface, set_metrics, silhouette_descriptors,
                      zernike_magnitudes)
