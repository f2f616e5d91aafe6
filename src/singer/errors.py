"""Exception taxonomy shared by all modules.

DomainError / CapError map to CLI exit code 1, BoundedFailure to exit 3.
Verification failures are not exceptions: verifiers return certificate
objects and the CLI maps a failed certificate to exit 2.
"""

from dataclasses import dataclass, field


class SingerError(Exception):
    pass


class DomainError(SingerError):
    """Invalid input: wrong group, non-prime p, violated precondition."""


class CapError(SingerError):
    """A documented size cap was exceeded."""


class BoundedFailure(SingerError):
    """A bounded search ran out of budget without an answer."""


@dataclass
class Certificate:
    ok: bool
    detail: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok
