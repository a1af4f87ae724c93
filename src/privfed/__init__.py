"""privfed: deterministic desk-scale simulator for privacy-preserving federated learning.

Institutions train convex models locally and share only (optionally masked,
optionally noised) parameter updates; a coordinator aggregates them by
dataset-size weighting. Differential privacy spending is tracked by an exact
per-institution accountant, every auditable event lands in a tamper-evident
hash chain with verifiable compliance proofs, a shadow-model harness measures
membership-inference leakage, and a tabular RL controller governs the noise,
participation, and policy knobs. Whole experiments replay bit-for-bit from a
config hash and a seed.
"""

__version__ = "0.1.0"

from .attacks import (
    AttackResult,
    QueryInterface,
    ShadowModelSet,
    TrainingRecipe,
    leakage_signal,
    run_membership_inference,
    train_shadow_models,
)
from .compliance import (
    AuditChain,
    AuditEntry,
    AuditRecorder,
    ComplianceProof,
    PolicySpec,
    Verdict,
    prove_budget_compliance,
    prove_compliance,
    verify_proof,
)
from .config import ExperimentConfig, config_hash, load_config
from .dp import (
    AccountantLedger,
    NoiseScale,
    PrivacyBudget,
    build_privatizer,
    calibrate_sigma,
    clip,
    gaussian_mechanism,
    schedule_round_budgets,
)
from .errors import (
    BudgetExhausted,
    ChainFormatError,
    ConfigValidationError,
    ConfigurationError,
    EvaluationError,
    LedgerError,
    NumericError,
    ProtocolError,
    ProvabilityError,
    ShapeError,
)
from .experiment import ExperimentReport, emit_report, run_experiment, run_sweep
from .federation import (
    Federation,
    NetworkConfig,
    RoundResult,
    TrainingRun,
    weighted_average,
)
from .governance import (
    GovernanceAction,
    GovernanceEnv,
    GovernancePolicy,
    RewardWeights,
    ScenarioConfig,
    TelemetrySnapshot,
    compute_reward,
    static_baseline_policy,
    train_controller,
)
from .secure_agg import aggregate_masked, derive_pairwise_masks, mask_update
from .tasks import (
    EvalMetrics,
    LocalDataset,
    SyntheticTask,
    evaluate,
    generate_task,
    local_train,
    local_train_stack,
)
from .wire import ClientUpdate, MaskedUpdate, TraceEvent
