"""Channel estimation for massive MIMO uplinks with one-bit ADCs.

Concave one-bit ML estimation, Fisher-information/CRB analysis, optimal
quantization-threshold and pilot design, the adaptive (AQ) and random
(RQ) threshold schemes, exhaustive one-bit QPSK detection, and a
reproducible Monte Carlo sweep harness.
"""

from .crb import crb_nq_trace, crb_trace, fim, g_bar_bound, g_weight, gaussian_cdf_bound
from .detect import QPSK, achievable_rate, detect_frames, simulate_frames
from .errors import ConfigError, NumericalError
from .experiments import (ExperimentConfig, TrialResult, data_phase, pilot_model, run_sweep,
                          run_trial, summarize)
from .mle import (ChannelEstimate, LikelihoodProblem, gradient, hessian_action,
                  log_likelihood, solve_ml, solve_nq)
from .model import (ChannelRealization, RealModel, channel_mse, channel_to_real,
                    generate_channel, generate_noisy_observation, generate_pilots_orthogonal,
                    power_for_snr, real_to_channel, realify)
from .quant import (QuantizedBatch, quantize, thresholds_fixed, thresholds_oracle,
                    thresholds_random)
from .schemes import AqIterate, run_aq, run_fq, run_nq, run_oq, run_rq

__version__ = "0.1.0"
