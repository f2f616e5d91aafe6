"""Exception taxonomy shared by all modules.

DomainError / CapError map to CLI exit code 1, BoundedFailure to exit 3.
Verification failures are not exceptions: verifiers return certificate
objects and the CLI maps a failed certificate to exit 2.
"""


class SingerError(Exception):
    pass


class DomainError(SingerError):
    """Invalid input: wrong group, non-prime p, violated precondition."""


class CapError(SingerError):
    """A documented size cap was exceeded."""


class BoundedFailure(SingerError):
    """A bounded search ran out of budget without an answer."""


class Certificate:
    def __init__(self, ok, detail=None):
        self.ok = ok
        self.detail = {} if detail is None else detail

    def __eq__(self, other):    # with the fields that subclasses add
        return type(other) is type(self) and vars(other) == vars(self)

    def __bool__(self):
        return self.ok
