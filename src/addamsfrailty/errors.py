"""Exception hierarchy shared across the package."""


class FrailtyModelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(FrailtyModelError):
    """Frailty parameters violate their domain (gamma <= 0, mu <= 0, ...)."""


class InvalidBinomial(InvalidParameters):
    """alpha > gamma but 1/(alpha - gamma) is not a positive integer."""


class InvalidRegion(FrailtyModelError):
    """A free stratum at alpha >= gamma, which only the pins reach."""


class ContinuousBranch(FrailtyModelError):
    """A discrete-support operation was requested for the gamma limit."""


class OutOfSupport(FrailtyModelError):
    """Risk-category index beyond the (binomial) support."""


class UndefinedRatio(FrailtyModelError):
    """Across-stratum hazard ratio is 0/0 (both strata have a cure fraction)."""


class NonPositiveProbability(FrailtyModelError):
    """The inclusion-exclusion sum is non-positive beyond round-off."""


class NonFiniteEvaluation(FrailtyModelError):
    """Objective evaluated to a non-finite value during differencing."""


class NegativeTime(FrailtyModelError):
    """A monitoring or evaluation time is negative."""


class MissingCovariate(FrailtyModelError):
    """A predictor references a covariate absent from the record."""


class UnknownStratum(FrailtyModelError):
    """Stratum level not present in the frailty-link design."""


class UnknownUnit(FrailtyModelError):
    """A dataset unit that is not among the model's units."""


class IdentifiabilityError(FrailtyModelError):
    """Aliased configuration: free link coefficients the data cannot tell apart."""


class DomainViolation(FrailtyModelError):
    """Estimate outside the domain required by a CI transform."""


class NegativeStatistic(FrailtyModelError):
    """LRT statistic negative beyond tolerance (non-nesting or bad fit)."""


class DatasetError(FrailtyModelError):
    """Aggregate of row-level ingestion problems.

    ``problems`` holds the individual row errors (MalformedRow, BadEventFlag,
    DuplicateUnit, NegativeTime subclasses) in file order.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


class MalformedRow(FrailtyModelError):
    def __init__(self, line, detail=""):
        self.line = line
        super().__init__(f"line {line}: malformed row {detail}".rstrip())


class BadEventFlag(FrailtyModelError):
    def __init__(self, line, value):
        self.line = line
        super().__init__(f"line {line}: event flag must be 0 or 1, got {value!r}")


class NegativeTimeRow(NegativeTime):
    def __init__(self, line, value):
        self.line = line
        super().__init__(f"line {line}: negative monitoring time {value}")


class DuplicateUnit(FrailtyModelError):
    def __init__(self, cluster, unit, line=None):
        self.cluster = cluster
        self.unit = unit
        self.line = line
        super().__init__(f"cluster {cluster!r}: duplicate unit {unit!r}")


class ConfigError(FrailtyModelError):
    """Invalid run configuration."""


class NonConvergence(FrailtyModelError):
    """Optimizer failed to reach the convergence criteria."""
