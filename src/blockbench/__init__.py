"""Block-structured pseudo-boolean benchmarks with tunable inter-block
dependencies, a single- and multi-objective evolutionary algorithm
suite, exact landscape enumeration oracles, and a reproducible
experiment harness.

Problems compose m block functions (OneMax, LeadingOnes, Jump_k, or an
epistatic XOR transform) over a partition of the n bit positions, then
couple the blocks either additively through pairwise products (DBP) or
multiplicatively through threshold gates on a dependency DAG (GCP).
Named instances F1..F10 and bi-objective pairs BF1..BF5 come
pre-registered; everything is deterministic given a master seed.
"""

from .bitstring import BitString
from .rng import RandomSource
from .blocks import (Family, BlockFunction, onemax, leadingones, jump,
                     epistasis, epistasis_transform, eval_block, block_max,
                     block_optimum, compile_block, block_values)
from .problems import (Kind, GateDir, InstanceSpec, Evaluation,
                       BiObjectiveInstance, make_dbp, make_gcp, validate_spec,
                       ancestors, forward_path, backward_path, zero_matrix,
                       compile_instance, compile_bi, evaluate, evaluate_bi,
                       known_optimum,
                       make_suite_instance, make_biobjective, suite_ids,
                       biobjective_ids, spec_to_dict, spec_from_dict,
                       spec_to_json, spec_from_json)
from .landscape import (exhaustive_optimum, block_profile,
                        attainable_by_distance, attainable_by_block_values,
                        attainable_by_ones_count, distance_landscape,
                        ones_landscape, pareto_front_oracle)
from .soea import (SOConfig, RunResult, VARIANTS, SINGLE_RUNNERS, run_single,
                   run_ea, run_fga, run_two_rate, run_var_ea, run_oll_ga,
                   run_mu_ga)
from .moea import (ParetoArchive, MULTI_RUNNERS, dominates, weakly_dominates,
                   non_dominated_sort, crowding_distance, hypervolume_2d,
                   hv_contributions, run_semo, run_gsemo, run_nsga2,
                   run_smsemoa, run_moead)
from .harness import (ExperimentConfig, ConfigError, load_config,
                      checkpoint_schedule, aggregate_runs, cmd_run, cmd_bi,
                      cmd_table2, cmd_landscape, cmd_plot)

__version__ = "0.1.0"

__all__ = [
    "BitString", "RandomSource",
    "Family", "BlockFunction", "onemax", "leadingones", "jump", "epistasis",
    "epistasis_transform", "eval_block", "block_max", "block_optimum",
    "compile_block", "block_values",
    "Kind", "GateDir", "InstanceSpec", "Evaluation", "BiObjectiveInstance",
    "make_dbp", "make_gcp", "validate_spec", "ancestors", "forward_path",
    "backward_path", "zero_matrix", "compile_instance", "compile_bi",
    "evaluate",
    "evaluate_bi", "known_optimum", "make_suite_instance", "make_biobjective",
    "suite_ids", "biobjective_ids", "spec_to_dict", "spec_from_dict",
    "spec_to_json", "spec_from_json",
    "exhaustive_optimum", "block_profile", "attainable_by_distance",
    "attainable_by_block_values", "attainable_by_ones_count",
    "distance_landscape", "ones_landscape", "pareto_front_oracle",
    "SOConfig", "RunResult", "VARIANTS", "SINGLE_RUNNERS", "run_single",
    "run_ea", "run_fga", "run_two_rate", "run_var_ea", "run_oll_ga",
    "run_mu_ga",
    "ParetoArchive", "MULTI_RUNNERS", "dominates", "weakly_dominates",
    "non_dominated_sort", "crowding_distance", "hypervolume_2d",
    "hv_contributions", "run_semo", "run_gsemo", "run_nsga2", "run_smsemoa",
    "run_moead",
    "ExperimentConfig", "ConfigError", "load_config", "checkpoint_schedule",
    "aggregate_runs", "cmd_run", "cmd_bi", "cmd_table2", "cmd_landscape",
    "cmd_plot",
    "__version__",
]
