"""Exception types shared across the package, and the one reader of JSON
input files, which turns a file that cannot be read or parsed into one."""

import json


class HcError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class GraphError(HcError):
    pass


class MorphismError(HcError):
    pass


class GroupError(HcError):
    pass


class ActionError(HcError):
    pass


class CoverError(HcError):
    pass


class CatalogError(HcError):
    pass


def read_json(path):
    """The JSON document in a file; HcError if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise HcError(f"cannot read JSON from {path}: {exc}") from None
