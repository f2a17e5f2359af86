"""Exception types shared across the package."""


class StratakitError(Exception):
    """Base class for all package errors."""


class ParseError(StratakitError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MalformedRelation(StratakitError):
    """A relation term is not a parallel path combination of length >= 2."""


class NotAdmissible(StratakitError):
    """The quotient never became finite dimensional within the degree cap, or
    the arrows are not nilpotent modulo the relations."""


class UnknownVertex(StratakitError):
    pass


class AlgebraMismatch(StratakitError):
    """Operands live over different algebras."""


class NotASubmodule(StratakitError):
    """A subspace family is not closed under the arrow actions."""


class ZeroModule(StratakitError):
    pass


class Truncated(StratakitError):
    """A resolution was capped before the requested degree; the answer is unknown."""


class UndecidedDecomposition(StratakitError):
    """No endomorphism split the module, yet End(m) is not shown local: the
    nilpotent parts of its basis generate a nilpotent S, some basis element
    is not a scalar plus an element of S, and no element of the basis or
    pairwise sum of two generates End(m)."""


class NotStratified(StratakitError):
    """An operation assuming a standardly stratified algebra was called on one that is not."""


class NotProperlyStratified(StratakitError):
    pass


class NonTerminating(StratakitError):
    """The add(T)-coresolution did not close within `cap` steps."""


class NothingToExtend(StratakitError):
    """universal_extension called with Ext^1(q, x) = 0."""


class NoEmbedding(StratakitError):
    """No injective add(T)-approximation exists; the chain cannot start."""


class PresentationFailed(StratakitError):
    """Quiver-with-relations recovery for an endomorphism algebra failed."""


class EmbeddingError(StratakitError):
    """A claimed subalgebra embedding violates one of its invariants."""


class NotMultiplicative(EmbeddingError):
    pass


class NotInjective(EmbeddingError):
    pass


class IdempotentMismatch(EmbeddingError):
    pass


class NotAntiAutomorphism(StratakitError):
    pass
