"""Consistency-driven semi-supervised segmentation on a self-contained
numpy autodiff core.

The public surface re-exports the pieces experiments are scripted from;
the command line lives in `mismatch.cli`.
"""

from .autodiff import (Tape, Tensor, add, backward, concat_channels, conv2d,
                       instance_norm, maxpool2, mse, mul, relu, same_padding,
                       scale, sigmoid, stop_gradient, upsample_bilinear2)
from .errors import (ConfigError, ContractError, DimensionError, FormatError,
                     GraphError, MisMatchError, NumericalAbort,
                     ParameterError)
from .nets import (VARIANTS, Model, Variant, clone_params, decoder_forward,
                   encoder_forward, init_params, mismatch_forward,
                   model_forward, morph_perturb, named_params, nasb,
                   param_layout, pasb, standard_block)
from .training import (AdamState, TrainConfig, adam_step, alpha_at,
                       average_checkpoints, consistency_loss, dice_loss,
                       load_checkpoint, load_model, reference_config,
                       save_checkpoint, train)

__version__ = "0.1.0"
