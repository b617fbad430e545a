"""Error taxonomy and the one JSON reader shared by the library and the CLI.

DomainError covers invalid inputs and validation failures (CLI exit 1).
CapabilityError covers requests outside implemented limits (CLI exit 2).
InternalError covers a broken invariant of the program itself (CLI exit 3).
"""

import json


class CliqueHubError(Exception):
    """The CLI prints error:<kind>:<message> and exits with exit_code."""
    kind = "domain"
    exit_code = 1


class DomainError(CliqueHubError):
    pass


class DegeneracyError(DomainError):
    pass


class CapabilityError(CliqueHubError):
    kind = "capability"
    exit_code = 2


class InternalError(CliqueHubError):
    kind = "internal"
    exit_code = 3


def load_json(path, what):
    """The JSON document at path; text that is not JSON is a DomainError
    that names what the file should hold."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DomainError("bad %s json: %s" % (what, exc))
