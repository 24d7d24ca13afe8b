"""Exception hierarchy shared across the planner."""


class PlanningError(Exception):
    """Base class for all costplan errors."""


class PddlSyntaxError(PlanningError):
    def __init__(self, message, line=None, column=None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class UnsupportedFeatureError(PlanningError):
    """A PDDL feature outside the supported STRIPS+typing subset."""


class ManifestError(PlanningError):
    """Estimator manifest fails schema validation."""


class InvariantViolationError(ManifestError):
    """Manifest entry violates nesting / monotonicity invariants."""


class GroundingError(PlanningError):
    """Undefined object/type, or manifest entry naming no ground action."""


class ModelInconsistencyError(PlanningError):
    """Estimator intervals for an action have an empty intersection."""


class ChainExhaustedError(PlanningError):
    """No uninvoked estimator level remains for the action."""


class EstimatorUnavailableError(PlanningError):
    """Remote estimator unreachable or returned a malformed/error reply."""


class ConfigError(PlanningError):
    """Invalid generator or suite configuration."""


class TaskMismatchError(PlanningError):
    """Metrics reports being compared come from different tasks/configs."""


class OracleBoundExceededError(PlanningError):
    """Oracle search exceeded its configured state-space bound."""


class MissingTrueCostError(PlanningError):
    """Oracle requires hidden true costs the manifest does not provide."""
