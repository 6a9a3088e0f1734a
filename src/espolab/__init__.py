"""espolab: a desk-scale laboratory for regret-gated early termination of PPO
rollouts with absorbing failure transitions, on synthetic token-level MDPs."""

__version__ = "0.1.0"

from .config import RunConfig, build_run_config, config_hash  # noqa: F401
from .mdpcore import log_softmax  # noqa: F401
from .stopper import StopperSnapshot, StopperState  # noqa: F401
