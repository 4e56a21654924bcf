"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: malformed input and violated
preconditions are both exit 2, while mathematically negative answers
(REJECT, "no such pair") are exit 1 and never raise. A construction whose
size is exponential in its input raises InputError once it would pass
SIZE_BUDGET.
"""

SIZE_BUDGET = 1 << 24  # walk steps or table cells one construction may take


class QdsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QdsError):
    """Malformed input: unknown symbol, bad file, inconsistent structure."""


class PreconditionError(QdsError):
    """An operation was called outside its contract (e.g. a (k,l) operation
    on a multi-initial or non-(k,l)-unambiguous automaton)."""
