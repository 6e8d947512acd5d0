"""Exception types shared across the pipeline."""


class SchemaError(ValueError):
    """A required column is absent, unknown, or of the wrong kind."""


class EmptyInputError(ValueError):
    """An operation needs at least one (non-missing) value and got none."""


class RankDeficiencyError(ValueError):
    """Normal equations are singular: some columns are collinear or constant."""


class AssemblyError(ValueError):
    """The design matrix cannot be assembled (missing cells, bad kinds)."""


class UndefinedMetricError(ValueError):
    """Metric is undefined for this input (e.g. R^2 with constant target)."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; message names the stage."""
