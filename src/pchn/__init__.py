"""Content-addressable memory from locally learned predictive-coding dynamics.

Recurrent networks of value/error node pairs trained by clamping stored
patterns while local outer-product weight updates run; recall, linear
stability analysis, and a classical Hopfield oracle for comparison.
"""

from .activations import Activation
from .checkpoint import load_weights, save_weights
from .errors import (ConstructionError, ContractViolationError,
                     IntegrationDivergenceError, NonDifferentiableStateError,
                     NotAnEquilibriumError)
from .experiments import (TargetSet, Trace, gen_targets, make_probes,
                          perturb_flip, perturb_gaussian, perturbation_study,
                          random_init_study, relaxation_study, trace_to_csv)
from .hopfield import (HopfieldNet, async_sweep, hebbian_store, hn_energy,
                       interaction_energy, recall)
from .learning import TrainingReport, TrainingSchedule, freeze, train
from .network import Hyperparams, Network, build_loop, build_network
from .stability import (SpectrumReport, analyze_equilibrium, classify_spectrum,
                        jacobian_analytic, spectrum_to_csv)

__version__ = "0.1.0"
