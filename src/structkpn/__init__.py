"""Structure-aware per-pixel filter denoising toolkit, pure numpy."""

from .tensor import (Tensor, ShapeError, GradCheckReport, add, sub, mul, div, neg,
                     abs_val, relu, softmax_vec, reduce_mean, reduce_sum, conv2d,
                     window_filter, backward, make_op, accumulate_grad, register_op,
                     registered_ops, grad_check)
from .gradstats import (GradStatsMap, image_gradients, structure_tensor_eigs,
                        structure_stats, stats_map, region_class_map,
                        REGION_FLAT, REGION_FINE, REGION_EDGE)
from .losses import (SsimConstants, LossWeights, l1_pixel, l2_pixel, ssim_from_moments,
                     ssim_map, ssim_patch, loss_weights, struct_loss)
from .kpn import (KpnConfig, local_conv, build_model, kpn_apply, plain_cnn_apply,
                  kpn_forward, kernel_at, denoise_image)
from .training import (NoiseModel, add_noise, TrainConfig, AdamState, init_adam,
                       adam_step, build_plain_cnn, split_train_val,
                       sample_patch_pairs, TrainingDiverged, train, Checkpoint,
                       save_checkpoint, load_checkpoint, write_curve_csv)
from .metrics import psnr, ssim_image, EvalRow, EvalReport, evaluate
from .corpus import synth_image, synth_corpus
from .fileio import read_pgm, write_pgm, write_scaled_pgm, read_minmax

__version__ = "0.1.0"
